"""Federated search across several index artifacts — exact global
scoring without merging them.

Lucene ``MultiReader`` analog: N independently-built artifacts (say,
one per crawl month) answer as ONE logical index.  Global statistics
(N, avgdl, df) are merged at load and every per-posting weight is
recomputed under the merged avgdl at query time — the same
merged-stats contract as NRT (``query/nrt.py``), so a MultiSearcher is
**bit-identical** to searching the physically-merged artifact
(``lifecycle.merge_indexes``) or a monolithic rebuild; tests assert
exact float equality.

Use it when merging is not worth the IO (ad-hoc cross-corpus queries,
a freshly-added month not yet compacted in, federating per-tenant
artifacts).  Doc universes must be disjoint — overlapping ids would
double-count — and configs must agree (token_pattern, k1/b); both are
validated loudly at load.

Scale note: per query the merge touches only the QUERY's terms'
postings — an O(query posting mass) linear merge of the parts' sorted
lists, reweighted by the NRT builder (``nrt._merged_postings``), the
same order as scoring itself.  Doc-value filters/facets need a
single rank universe and stay per-artifact (flush through
merge_indexes for those).
"""

from __future__ import annotations

import numpy as np

from refimage_ray.index.manifest import load_manifest
from refimage_ray.index.reader import TermPostings
from refimage_ray.query.engine import LocalSearcher, _SearcherBase
from refimage_ray.query.nrt import _merge_sorted_disjoint, _merged_postings


class MultiSearcher(_SearcherBase):
    """Search the union of several artifacts with exact merged stats."""

    def __init__(self, index_dirs: list[str]):
        if not index_dirs:
            raise ValueError("MultiSearcher needs at least one index dir")
        self.parts = [LocalSearcher(d) for d in index_dirs]
        manifests = [load_manifest(d) for d in index_dirs]
        cfgs = [(m["config"].get("token_pattern"),
                 float(m["stats"].get("k1", 1.2)),
                 float(m["stats"].get("b", 0.75))) for m in manifests]
        if len(set(cfgs)) != 1:
            raise ValueError(
                f"artifacts disagree on token_pattern/k1/b: {sorted(set(cfgs))}"
            )
        self.token_pattern, self._k1, self._b = cfgs[0]
        # disjointness: overlapping doc ids would double-count scores
        sizes = sum(len(p.all_ids) for p in self.parts)
        union = np.unique(np.concatenate([p.all_ids for p in self.parts]))
        if len(union) != sizes:
            raise ValueError(
                "doc_id universes overlap across artifacts — a doc may "
                "live in exactly one federated part"
            )
        self.n_docs = sum(int(m["stats"]["n_docs"]) for m in manifests)
        sum_dl = sum(int(m["stats"]["sum_dl"]) for m in manifests)
        self.avgdl = sum_dl / self.n_docs if self.n_docs else 1.0
        # sparse evaluation: a merged dense-rank universe would need a
        # cross-artifact re-rank of every posting at load; doc-value
        # features stay per-artifact (merge_indexes is the path there)
        self.all_ids = None

    def _term_map(self, terms: list[str]) -> dict[str, TermPostings]:
        out: dict[str, TermPostings] = {}
        for t in terms:
            hits = [p.terms[t] for p in self.parts
                    if t in p.terms and p.terms[t].df > 0]
            if not hits:
                continue
            for h in hits:
                if h.dls is None:
                    raise ValueError(
                        "federated merge needs per-posting doc lengths; "
                        f"rebuild the artifact (dls missing for {t!r})"
                    )
            # the parts' lists are doc_id-sorted and disjoint (validated
            # at load): a linear merge, then the NRT builder reweights
            ids, tfs, dls = hits[0].doc_ids, hits[0].tfs, hits[0].dls
            for h in hits[1:]:
                ids, (tfs, dls) = _merge_sorted_disjoint(
                    ids, h.doc_ids, (tfs, dls), (h.tfs, h.dls))
            out[t] = _merged_postings(t, None, (ids, tfs, dls), None,
                                      self.avgdl, self._k1, self._b)
        return out

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        merged: dict[str, int] = {}
        for p in self.parts:
            for t, df in p._expand_pairs(kind, probe):
                merged[t] = merged.get(t, 0) + df
        return sorted(merged.items())
