"""Doc-partitioned index layout — the A/B alternative to the default
term-partitioned artifact (``index/build.py``).

Layout comparison (both store the same logical postings):

- **term-partitioned** (default): partition key = ``term_hash %
  num_shards`` (+ doc-range salt for hot terms).  A query term's whole
  posting list lives in one shard → term-at-a-time scoring needs only
  the shards its terms hash to; hot terms need salting.
- **doc-partitioned** (this module): partition key = a hash of
  ``doc_id``.  Every shard holds a complete mini-index over its own
  disjoint doc subset → document-at-a-time evaluation per shard, no
  term-skew salting (a shard's work is bounded by its doc count, not
  any term's df), and per-shard top-k merge is exact because each doc
  is scored entirely inside one shard.  This is the layout distributed
  search engines use for serving (one index per node, scatter-gather).

Scoring is EXACT and bit-identical to the term-partitioned engine:
global ``df``/``N``/``avgdl`` are computed at build (the per-term df
aggregate is a narrow vocab-sized shuffle) and stored in
``terms/``; per-shard accumulation reuses the engine's scoring
functions unchanged (same ascending-term accumulation order), so each
doc's float score is the same bit pattern — asserted in tests.

Serving is one coordinator with two transports.  ``_ShardGroup`` owns
a set of loaded shard views and answers each operator's per-group
partial; ``_DocPartCoordinator`` implements every public operator once
(fan out, merge the partials).  The deployments differ only in
``_scatter``: :class:`DocPartSearcher` calls one resident group
directly, :class:`DistributedDocPartSearcher` fans out over
``ray.remote(_ShardGroup)`` actors.  Ray is imported only by the build
and the distributed searcher.

Reference analog: the declared-but-unimplemented alternative index
strategies (``/root/reference/src/refimage/config.py:50-52``); the
serving shape mirrors ``load_index``-once-then-query
(``search/__init__.py:362-396``).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.index.manifest import atomic_write_bytes
from refimage_ray.index.pack import lookup_terms, pack_postings, unpack_group
from refimage_ray.index.reader import (
    TermPostings,
    attach_ranks,
    decode_term_runs,
    encode_term_runs,
    run_bounds,
)
from refimage_ray.query.expand import ExpansionOps, cap_expansion, expand_vocab
from refimage_ray.query.scorer import bm25_weight, check_page, topk_select
from refimage_ray.stages.tokenize import doc_stats_batch, tokenize_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _doc_shard_of(doc_ids: np.ndarray, num_doc_shards: int) -> np.ndarray:
    """Deterministic balanced doc→shard map (multiplicative hash, so
    strided doc_id spaces spread evenly)."""
    return (
        (doc_ids.astype(np.uint64) * _GOLDEN) % np.uint64(num_doc_shards)
    ).astype(np.int64)


def _pack_docshard(batch: pa.Table, cfg: EngineConfig, num_doc_shards: int) -> pa.Table:
    """docs batch → packed posting rows keyed by DOC shard (map-side
    combiner; ``index/pack.py``'s core and blob format, so the reducer
    reuses ``unpack_group``)."""
    toks = tokenize_batch(batch, cfg)
    doc = toks["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pack_postings(toks, _doc_shard_of(doc, num_doc_shards))


def _shard_table(terms: pa.Array, hashes: np.ndarray, cols: dict) -> pa.Table:
    """A doc-shard file's table, one row per term: the posting columns
    of ``reader.encode_term_runs`` (positions only when encoded)."""
    return pa.table({
        "term": terms,
        "term_hash": pa.array(hashes, pa.uint64()),
        "df_local": cols["df"],
        **{k: cols[k] for k in ("doc_ids", "tfs", "dls", "weights", "max_weight",
                                "positions") if k in cols},
    })


class _BuildDocShard:
    """Reducer: all packed rows of one doc shard → one shard file with
    the shard's complete mini-index, plus per-term local-df stat rows
    (the input to the global df aggregate)."""

    def __init__(self, index_dir: str, cfg: EngineConfig, avgdl: float) -> None:
        self.index_dir = index_dir
        self.cfg = cfg
        self.avgdl = float(avgdl)

    def __call__(self, group: pa.Table) -> pa.Table:
        shard = int(group["gkey"][0].as_py())
        th, doc, tf, dl, lookup, pos = unpack_group(group)
        starts, ends = run_bounds(th)
        w = bm25_weight(
            tf.astype(np.float64), dl.astype(np.float64), self.avgdl,
            self.cfg.k1, self.cfg.b,
        )
        # same columns and codecs as the term-partitioned partition
        # files (index/build.py), so the shard reader decodes identically
        cols = encode_term_runs(starts, ends, doc, tf, dl, w, None, pos)
        table = _shard_table(
            lookup_terms(lookup, th[starts]), th[starts], cols
        ).sort_by([("term", "ascending")])
        import io

        buf = io.BytesIO()
        pq.write_table(table, buf)
        atomic_write_bytes(
            os.path.join(self.index_dir, f"docshard-{shard:05d}.parquet"),
            buf.getvalue(),
        )
        return pa.table(
            {"term": table["term"], "df_part": table["df_local"]}
        )


def build_doc_partitioned(
    docs_ds: "rd.Dataset",
    index_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    num_doc_shards: int = 16,
    value_columns: "list[str] | None" = None,
) -> dict:
    """docs (doc_id, text) → doc-partitioned artifact.

    One narrow stats pass (regex token counts), then ONE posting
    shuffle keyed by doc shard; the per-term global-df aggregate rides
    on the reducers' stat output (vocab-sized rows, not postings).

    ``value_columns`` (e.g. ``["lang"]``) additionally writes one
    ``docvalues-{shard}.parquet`` per doc shard — the shard-local
    doc-value columns for query-time filters/facets.  The values shard
    with the SAME doc→shard hash as the postings, so a shard actor's
    filter mask and facet counts are entirely local and facet merges
    are exact by additivity (see ``index/docvalues.py``).  The side
    pass ships only (doc_id + value columns) — a narrow shuffle.
    """
    from ray.data.aggregate import Count, Sum

    os.makedirs(index_dir, exist_ok=True)
    # clear stale outputs from a prior/crashed run: leftover
    # docshard-*.parquet files are globbed by prefix at load time, and
    # terms/ is written with uniquely-named files (write_parquet ADDS
    # to an existing dir) — either would silently mix two runs
    for f in os.listdir(index_dir):
        # include .parquet.tmp leftovers from a crashed atomic write —
        # a stale tmp must never survive into (or be globbed by) the
        # next run
        if f.startswith(("docshard-", "docvalues-")) and (
            f.endswith(".parquet") or f.endswith(".tmp")
        ):
            os.remove(os.path.join(index_dir, f))
    shutil.rmtree(os.path.join(index_dir, "terms"), ignore_errors=True)
    t0 = time.perf_counter()

    stats_agg = docs_ds.map_batches(
        lambda b: pa.table({"dl": doc_stats_batch(b, cfg)["doc_len"]}),
        batch_format="pyarrow",
    ).aggregate(Count(alias_name="n_docs"), Sum("dl", alias_name="sum_dl"))
    n_docs = int(stats_agg["n_docs"])
    sum_dl = int(stats_agg["sum_dl"] or 0)
    avgdl = (sum_dl / n_docs) if n_docs else 1.0

    builder = _BuildDocShard(index_dir, cfg, avgdl)
    stat_rows = (
        docs_ds.map_batches(
            lambda b: _pack_docshard(b, cfg, num_doc_shards),
            batch_format="pyarrow",
            batch_size=16384,
        )
        .groupby("gkey")
        .map_groups(lambda g: builder(g), batch_format="pyarrow")
    )
    terms_dir = os.path.join(index_dir, "terms")
    (
        stat_rows.groupby("term")
        .aggregate(Sum("df_part", alias_name="df"))
        .write_parquet(terms_dir)
    )

    if value_columns:
        vcols = ["doc_id"] + [c for c in value_columns if c != "doc_id"]

        def _keyed(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return b.append_column(
                "dshard", pa.array(_doc_shard_of(ids, num_doc_shards), pa.int64())
            )

        def _write_values(g: pa.Table) -> pa.Table:
            import io

            shard = int(g["dshard"][0].as_py())
            t = g.drop_columns(["dshard"]).sort_by([("doc_id", "ascending")])
            buf = io.BytesIO()
            pq.write_table(t, buf)
            atomic_write_bytes(
                os.path.join(index_dir, f"docvalues-{shard:05d}.parquet"),
                buf.getvalue(),
            )
            return pa.table({"dshard": pa.array([shard], pa.int64()),
                             "n": pa.array([t.num_rows], pa.int64())})

        (
            docs_ds.select_columns(vcols)
            .map_batches(_keyed, batch_format="pyarrow")
            .groupby("dshard")
            .map_groups(_write_values, batch_format="pyarrow")
            .take_all()  # tiny: one row per shard
        )

    # the hash may leave shard buckets empty (small/skewed corpora):
    # record the files actually written so fsck can verify presence
    # EXACTLY rather than assuming one file per bucket
    shard_files = sorted(
        f for f in os.listdir(index_dir)
        if f.startswith("docshard-") and f.endswith(".parquet")
    )
    manifest = {
        "layout": "doc-partitioned",
        "num_doc_shards": num_doc_shards,
        "docshard_files": shard_files,
        "value_columns": sorted(
            c for c in (value_columns or []) if c != "doc_id"
        ),
        "stats": {"n_docs": n_docs, "sum_dl": sum_dl, "avgdl": avgdl,
                  "k1": cfg.k1, "b": cfg.b},
        "config": {"token_pattern": cfg.token_pattern,
                   "term_filter": cfg.term_filter,
                   "store_positions": bool(cfg.store_positions)},
        "build_sec": round(time.perf_counter() - t0, 3),
    }
    atomic_write_bytes(
        os.path.join(index_dir, "manifest.json"),
        json.dumps(manifest, indent=1).encode(),
    )
    return manifest


def _load_global_df(index_dir: str) -> dict:
    df_t = pq.read_table(os.path.join(index_dir, "terms"))
    return dict(
        zip(df_t["term"].to_pylist(),
            df_t["df"].to_numpy(zero_copy_only=False).astype(np.int64))
    )


def _load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted tombstoned doc ids (same ``tombstones.parquet``
    convention as the term layout, ``lifecycle.delete_docs``)."""
    p = os.path.join(index_dir, "tombstones.parquet")
    if not os.path.exists(p):
        return np.zeros(0, np.int64)
    return np.sort(
        pq.read_table(p)["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    )


def _load_shard_view(
    index_dir: str, fname: str, n_docs: int, avgdl: float, global_df: dict,
    token_pattern: "str | None" = None,
    dead: "np.ndarray | None" = None,
    term_filter: str = "none",
):
    """One shard file → an in-process sub-searcher reusing the engine's
    scoring path (`_SearcherBase`) with GLOBAL df/N/avgdl.

    ``dead`` (sorted tombstoned doc ids) filters postings at load —
    Lucene deleted-docs semantics, mirroring the term layout's reader:
    dead docs stop matching immediately; df/N/avgdl keep pre-delete
    values until ``docpart_lifecycle.compact_docpart``."""
    from refimage_ray.query.engine import _SearcherBase

    class _ShardView(_SearcherBase):
        def __init__(self, term_map: dict, dv=None) -> None:
            self._tm = term_map
            self.n_docs = n_docs
            self.avgdl = avgdl
            self.token_pattern = token_pattern
            self.term_filter = term_filter
            # shard-LOCAL doc values: the values file is this shard's
            # doc universe (disjoint doc subsets → rank-aligned per
            # shard; facet counts merge additively across shards)
            self._dv = dv
            self.all_ids = dv.all_ids if dv is not None else None

        def _term_map(self, terms: list[str]) -> dict:
            return {t: self._tm[t] for t in terms if t in self._tm}

        def doc_values(self, columns: list[str]):
            if self._dv is None:
                raise ValueError(
                    "doc-partitioned artifact was built without "
                    "value_columns=[...] — rebuild to use filters/facets"
                )
            missing = [c for c in columns if c not in self._dv.cols]
            if missing:
                raise KeyError(
                    f"no doc-value column(s) {missing} in this artifact "
                    f"(built with value_columns={sorted(self._dv.cols)})"
                )
            return self._dv

    t = pq.read_table(os.path.join(index_dir, fname))
    dv = None
    vfile = os.path.join(
        index_dir, fname.replace("docshard-", "docvalues-")
    )
    if os.path.exists(vfile):
        from refimage_ray.index.docvalues import encode_value_columns

        vt = pq.read_table(vfile)
        ids = np.sort(
            vt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        dv = encode_value_columns(vt, ids)
    tm: dict[str, TermPostings] = {}
    if t.num_rows:
        # one row per term: every row is its own run of the shared
        # column decode (reader.decode_term_runs)
        runs = decode_term_runs(
            t, np.arange(t.num_rows), np.zeros(0, np.int64) if dead is None else dead
        )
        maxw = t["max_weight"].to_numpy().tolist()
        for term, run, mw in zip(t["term"].to_pylist(), runs, maxw):
            if run is None:
                continue
            ids, w, tfs, dls, pos = run
            tm[term] = TermPostings(
                df=int(global_df[term]),  # GLOBAL df → exact idf
                doc_ids=ids,
                weights=w,
                tfs=tfs,
                max_weight=mw,
                block_last_doc=ids[-1:].copy(),
                block_max_weight=np.array([mw], np.float64),
                dls=dls,
                positions=pos,
            )
    if dv is not None:
        # validates posting doc_ids ⊆ the shard's values universe (a
        # stale/foreign docvalues file would otherwise rank-misalign
        # filter masks SILENTLY) — and the attached ranks enable the
        # dense-TAAT fast path per shard, same as the term-partitioned
        # searchers (bit-identical; asserted by the docpart A/B tests)
        attach_ranks(tm, dv.all_ids)
    return _ShardView(tm, dv)


def _ordered_part(view, hits, cols):
    """One shard's ordered page → (ids, scores, per-col (kind, DECODED
    values, null_mask)) for the cross-shard order merge.  Categorical
    codes decode to strings here because each shard's dictionary is
    local."""
    if not hits:
        return None
    ids = np.array([d for d, _ in hits], np.int64)
    sc = np.array([s for _, s in hits], np.float64)
    dv = view.doc_values(cols)
    ranks = np.searchsorted(dv.all_ids, ids)
    keyvals = []
    for col in cols:
        c = dv.cols[col]
        nm = c.null_mask()
        nmr = (nm[ranks] if nm is not None
               else np.zeros(len(ranks), dtype=bool))
        if c.is_categorical:
            codes = c.values[ranks]
            vals = c.categories[np.maximum(codes, 0)].astype(object)
            keyvals.append(("cat", vals, nmr | (codes < 0)))
        else:
            keyvals.append(("num", c.values[ranks].copy(), nmr))
    return ids, sc, keyvals


def _merge_ordered(parts, order_keys, kk):
    """Global (order keys, doc_id asc) top-kk over per-shard ordered
    pages — exact because shards are disjoint and each page is its
    shard's top-kk under the same total order."""
    import pandas as pd

    if not parts:
        return []
    all_ids = np.concatenate([p[0] for p in parts])
    all_sc = np.concatenate([p[1] for p in parts])
    keys = []
    for j, (_col, odir) in enumerate(order_keys):
        kind = parts[0][2][j][0]
        vals = np.concatenate([p[2][j][1] for p in parts])
        nulls = np.concatenate([p[2][j][2] for p in parts])
        if kind == "cat":
            codes, _u = pd.factorize(vals, sort=True)
            key = codes.astype(np.int64)
        elif vals.dtype.kind in "iu":
            key = vals.astype(np.int64)
        else:
            key = vals.astype(np.float64)
        if odir == "desc":
            key = -key
        if nulls.any():  # nulls last in either direction
            key[nulls] = (np.iinfo(np.int64).max
                          if key.dtype.kind == "i" else np.inf)
        keys.append(key)
    sel = np.lexsort(tuple([all_ids] + keys[::-1]))[:kk]
    return list(zip(all_ids[sel].tolist(), all_sc[sel].tolist()))


def _selection_percentiles(
    shard_call,
    percentiles: "dict[str, list[float]]",
    query: str,
    mode: str,
    where,
    *,
    buckets: int = 1024,
    collect_cap: int = 65536,
) -> dict:
    """Above-cap percentile path: exact quantiles by iterative
    histogram bisection (``stages/selection.select_core``) where each
    round's exchange is O(buckets) per shard — match-set-size
    INDEPENDENT, so this works when the capped value gather cannot.

    ``shard_call(method_name, *args) -> list[per-shard result]`` is the
    only transport dependency (the coordinator's ``_views``).  Shards
    recompute their match set per round (2–4 rounds typical): recompute
    is shard-local and parallel; what this path refuses to do is ship
    O(match) values to the driver."""
    import math

    from refimage_ray.stages.selection import select_core

    out: dict = {}
    for c, qs in percentiles.items():
        for q in qs:
            if not 0.0 < q <= 1.0:
                raise ValueError(f"percentile must be in (0, 1], got {q}")
        stats = [s for s in shard_call("match_value_stats", query, c, mode,
                                       where) if s[0]]
        n = sum(s[0] for s in stats)
        if n == 0:
            out[c] = [(float(q), float("nan")) for q in qs]
            continue
        lo = min(s[1] for s in stats)
        hi = max(s[2] for s in stats)

        def count_pass(l, h, _c=c):
            cs, mns, mxs = zip(*shard_call(
                "match_value_histogram", query, _c, mode, where, l, h,
                buckets,
            ))
            return (np.sum(cs, axis=0), np.minimum.reduce(mns),
                    np.maximum.reduce(mxs))

        def collect_pass(l, h, j, _c=c):
            return np.concatenate(shard_call(
                "match_value_bucket", query, _c, mode, where, l, h,
                buckets, j,
            ))

        out[c] = [
            (float(q),
             select_core(count_pass, collect_pass,
                         max(1, int(math.ceil(q * n))), lo, hi,
                         buckets=buckets, collect_cap=collect_cap))
            for q in qs
        ]
    return out


def _merge_topk(
    parts: "list[list[tuple[int, float]]]", k: int, threshold: float
) -> list[tuple[int, float]]:
    """Global (score desc, doc_id asc) top-k over per-group hit lists —
    exact because doc shards are disjoint: each doc's full score comes
    from its one shard, so the global top-k is in the union of the
    per-shard top-ks."""
    hits = [h for part in parts for h in part]
    if not hits:
        return []
    ids, scores = topk_select(
        np.array([d for d, _ in hits], np.int64),
        np.array([s for _, s in hits], np.float64), k, threshold,
    )
    return list(zip(ids.tolist(), scores.tolist()))


class _ShardGroup:
    """The doc shards one process serves — shard views loaded ONCE in
    ``__init__`` (the load-once contract), queries answered from
    memory.  :meth:`each` runs one view operator on every view; the
    other methods are partials that need the views themselves (ordered
    pages, proximity gaps) or merge inside the group (facets).
    :class:`_DocPartCoordinator` merges the partials across groups.  In
    process, a searcher holds one group over every shard; distributed,
    each actor is ``ray.remote`` of this same class over a subset of
    the shards (one per node: the cluster shape of a doc-partitioned
    engine)."""

    def __init__(self, index_dir: str, fnames: list[str], manifest: dict,
                 global_df: "dict | None" = None) -> None:
        if global_df is None:
            global_df = _load_global_df(index_dir)
        dead = _load_tombstones(index_dir)
        st, cfg = manifest["stats"], manifest["config"]
        self.views = [
            _load_shard_view(index_dir, f, int(st["n_docs"]),
                             float(st["avgdl"]), global_df,
                             cfg.get("token_pattern"), dead=dead,
                             term_filter=cfg.get("term_filter", "none"))
            for f in fnames
        ]

    @classmethod
    def of(cls, views: list) -> "_ShardGroup":
        """A group over views that are already resident (the NRT
        searcher's buffer-merging shard wrappers)."""
        group = cls.__new__(cls)
        group.views = views
        return group

    def each(self, op: str, args: tuple, kwargs: dict) -> list:
        """One operator's answer from every view of this group, in
        shard order.  The keyword arguments travel as one dict: an
        actor call with many keyword arguments costs ~0.2 ms more (one
        CPU)."""
        return [getattr(v, op)(*args, **kwargs) for v in self.views]

    def search_ordered(self, query: str, k: int, threshold: float,
                       mode: str, where, min_match, boost, order_by,
                       cols: list) -> list:
        """Per-view ordered pages + DECODED order-key triplets (the
        shard-local categorical dictionaries never leave as codes) —
        merged by ``_merge_ordered``."""
        parts = []
        for v in self.views:
            hits = v.search(query, k=k, threshold=threshold, mode=mode,
                            where=where, min_match=min_match, boost=boost,
                            order_by=order_by)
            part = _ordered_part(v, hits, cols)
            if part is not None:
                parts.append(part)
        return parts

    def min_pair_gaps(self, terms: list, cand: np.ndarray) -> np.ndarray:
        """Min pairwise term-position gap per candidate over this
        group's views (inf where the doc is elsewhere) — the rescore
        proximity basis; needs store_positions."""
        from refimage_ray.query.engine import _min_pair_gaps_positions

        g = np.full(len(cand), np.inf)
        for v in self.views:
            tm = v._term_map(terms)
            if not tm:
                continue
            if any(p.positions is None for p in tm.values()):
                raise ValueError(
                    "rescore_window needs a positional doc-partitioned "
                    "artifact (store_positions): this layout keeps no "
                    "text store to fall back to"
                )
            g = np.minimum(g, _min_pair_gaps_positions(tm, terms, cand))
        return g

    def facets(self, query: str, by, mode: str, where, histograms,
               sums=None, date_histograms=None) -> dict:
        """Partial facet counts over this group's doc shards (values
        are shard-local; the cross-group merge is exact by
        additivity).  Merged per group so float sums add in the same
        order on every deployment of the same group split."""
        from refimage_ray.index.docvalues import merge_facet_results

        return merge_facet_results([
            v.facets(query, by=by, mode=mode, where=where,
                     histograms=histograms, sums=sums,
                     date_histograms=date_histograms)
            for v in self.views
        ])


class _DocPartCoordinator(ExpansionOps):
    """Every doc-partitioned operator, implemented once: fan a call
    out to the shard groups, merge the partials.  Each merge is exact
    because doc shards are disjoint — a doc's postings and values live
    wholly in one shard, so top-k lists, counts and bucket maps
    combine without loss, and scores are bit-identical to
    ``LocalSearcher`` on the term-partitioned artifact (same per-shard
    accumulation code and order).

    The one transport seam is :meth:`_scatter`; subclasses differ only
    in how a call reaches the groups."""

    index_dir: str
    manifest: dict
    # the artifact's global terms table (term → df), loaded on first use
    _global_df: "dict | None" = None

    def _open(self, index_dir: str) -> list[str]:
        """Read the manifest; return the shard file names."""
        with open(os.path.join(index_dir, "manifest.json")) as f:
            man = json.load(f)
        if man.get("layout") != "doc-partitioned":
            raise ValueError(f"{index_dir} is not a doc-partitioned index")
        self.index_dir = index_dir
        self.manifest = man
        self.n_docs = int(man["stats"]["n_docs"])
        self.avgdl = float(man["stats"]["avgdl"])
        # the global terms table's expansion probe structures
        self._expand_cache: dict = {}
        return sorted(
            f for f in os.listdir(index_dir)
            if f.startswith("docshard-") and f.endswith(".parquet")
        )

    def _scatter(self, method: str, *args) -> list:
        """One partial per shard group: in process, a direct call on the
        resident group (``self._group``)."""
        return [getattr(self._group, method)(*args)]

    def _views(self, op: str, *args, **kwargs) -> list:
        """``op``'s answer from every shard view, in shard order."""
        return [r for part in self._scatter("each", op, args, kwargs)
                for r in part]

    def _topk(self, op: str, k, threshold, offset: int,
              *args, **kwargs) -> list[tuple[int, float]]:
        """A scoring operator's global page: each view returns its top
        (k+offset), and the page is cut from the merged union."""
        kk = check_page(k, offset)
        # k and threshold follow the operator's leading arguments in
        # every view signature (search, search_phrase, search_near)
        parts = self._views(op, *args, kk, threshold, **kwargs)
        return _merge_topk(parts, kk, threshold)[offset:]

    def _require_positions(self, what: str) -> None:
        # doc shards hold no text, so there is no verify fallback
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                f"{what} search on a doc-partitioned artifact requires "
                "build_doc_partitioned with cfg.store_positions=True "
                "(doc shards store no text to verify against)"
            )

    def search(
        self,
        query: str,
        k: int = 10,
        threshold: float = 0.0,
        mode: str = "or",
        where=None,
        offset: int = 0,
        min_match: int | None = None,
        after: "tuple[float, int] | None" = None,
        boost=None,  # DecaySpec — per-doc factor, so shard-exact too
        order_by=None,
    ) -> list[tuple[int, float]]:
        """Top-k across doc shards.  min_match, the after-cursor and
        boost are shard-exact: a doc's postings and values live
        entirely in its one shard, so per-shard counts, cursor masks
        and decay factors are global."""
        if order_by is not None:
            return self._search_ordered(
                query, k, threshold, mode, where, offset,
                min_match, boost, order_by, after,
            )
        return self._topk("search", k, threshold, offset, query,
                          mode=mode, where=where, min_match=min_match,
                          after=after, boost=boost)

    def _search_ordered(
        self, query, k, threshold, mode, where, offset,
        min_match, boost, order_by, after,
    ) -> list[tuple[int, float]]:
        """Field-ordered search across doc shards — exact: each shard
        returns its top (k+offset) under the SAME total order (order
        keys, doc_id asc), and disjoint doc subsets mean the global
        page is contained in the union.  The merge re-sorts on the
        DECODED order values: categorical codes are shard-local
        dictionaries, so codes are decoded to strings per shard and
        re-factorized globally (numeric/timestamp values compare
        directly)."""
        from refimage_ray.query.engine import _normalize_order_by

        if after is not None:
            # same contract as the engine
            raise ValueError(
                "after= cursors the score order; it cannot combine "
                "with order_by"
            )
        order_keys = _normalize_order_by(order_by)
        kk = check_page(k, offset)
        cols = [c for c, _ in order_keys]
        parts = [
            p for group in self._scatter(
                "search_ordered", query, kk, threshold, mode, where,
                min_match, boost, order_by, cols,
            )
            for p in group
        ]
        return _merge_ordered(parts, order_keys, kk)[offset:]

    def search_phrase(
        self,
        phrase: str,
        k: int = 10,
        threshold: float = 0.0,
        offset: int = 0,
        slop: int = 0,
    ) -> list[tuple[int, float]]:
        """Phrase / proximity top-k: each shard verifies from ITS
        positional postings (a phrase match is doc-local, so shard
        results are exact).  Requires ``store_positions=True``."""
        self._require_positions("phrase")
        return self._topk("search_phrase", k, threshold, offset, phrase,
                          slop=slop)

    def search_near(
        self,
        query: str,
        window: int,
        k: int = 10,
        threshold: float = 0.0,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        """Unordered-proximity (NEAR/W) top-k — each shard verifies
        against its own positional postings
        (``_SearcherBase.search_near``).  Requires
        ``store_positions=True`` like phrase search."""
        self._require_positions("near")
        return self._topk("search_near", k, threshold, offset, query,
                          window)

    def search_grouped(
        self,
        query: str,
        by: str,
        k_per_group: int = 3,
        mode: str = "or",
        where=None,
        threshold: float = 0.0,
        groups: "list[str] | None" = None,
    ) -> list[tuple[str, int, float]]:
        """Grouped top-k: each shard returns its per-group top-k from
        shard-local values; the global per-group winners are contained
        in the union (disjoint docs), so the merge re-sorts and
        truncates per group — exact."""
        parts = self._views(
            "search_grouped", query, by, k_per_group=k_per_group, mode=mode,
            where=where, threshold=threshold, groups=groups,
        )
        acc: dict[str, list[tuple[int, float]]] = {}
        for rows in parts:
            for g, d, s in rows:
                acc.setdefault(g, []).append((int(d), float(s)))
        out: list[tuple[str, int, float]] = []
        for g in sorted(acc):
            hits = sorted(acc[g], key=lambda x: (-x[1], x[0]))[:k_per_group]
            out.extend((g, d, s) for d, s in hits)
        return out

    def count(
        self,
        query: str,
        mode: str = "or",
        where=None,
        min_match: "int | None" = None,
    ) -> int:
        """Exact hit count: shard counts sum exactly (doc shards are
        disjoint).  ``min_match`` is checked once, before the scatter."""
        from refimage_ray.query.engine import _check_min_match

        min_match = _check_min_match(min_match, mode)
        return sum(self._views("count", query, mode, where, min_match))

    def facets(
        self,
        query: str,
        by: "list[str] | None" = None,
        mode: str = "or",
        where=None,
        histograms: "dict[str, float] | None" = None,
        top: int | None = None,
        sums: "dict[str, str] | None" = None,
        date_histograms: "dict[str, str] | None" = None,
        percentiles=None,
        percentile_gather_cap: int = 1_000_000,
    ) -> dict:
        """Facet aggregation: each shard counts over ITS match subset
        from shard-local doc values; counts and sums merge additively
        (doc shards are disjoint → exact).  ``top`` applies only after
        the merge."""
        from refimage_ray.index.docvalues import (
            merge_facet_results,
            select_percentiles,
        )

        parts = self._scatter("facets", query, by, mode, where, histograms,
                              sums, date_histograms)
        pct = None
        if percentiles:
            # percentiles are NOT additive: gather each shard's match
            # VALUES (capped) and rank-select over the concatenation —
            # exact, bounded, one extra round trip.  Above the cap,
            # fall back to exact histogram-bisection selection
            # (O(buckets) exchange per round, match-size independent).
            try:
                gathered = self._views(
                    "match_values", query, sorted(percentiles), mode, where,
                    percentile_gather_cap,
                )
                pct = {
                    c: select_percentiles(
                        np.concatenate([g[c] for g in gathered])
                        if gathered else np.zeros(0),
                        qs,
                    )
                    for c, qs in percentiles.items()
                }
            except ValueError as e:  # also a shard actor's ValueError
                if "exceeds the gather cap" not in str(e):
                    raise
                pct = _selection_percentiles(
                    self._views, percentiles, query, mode, where,
                )
        out = merge_facet_results(parts, top=top)
        if pct is not None:
            out["percentiles"] = pct
        # a requested key is present even when nothing matched
        for c in by or []:
            out["facets"].setdefault(c, [])
        for c in histograms or {}:
            out["histograms"].setdefault(c, [])
        for key, cols in (("date_histograms", date_histograms),
                          ("sums", sums)):
            if cols:
                for c in cols:
                    out.setdefault(key, {}).setdefault(c, [])
        return out

    def composite(
        self,
        query: str,
        by: "list[str]",
        size: int = 10,
        after: "tuple | None" = None,
        mode: str = "or",
        where=None,
    ) -> dict:
        """EXACT composite after-key paging (the batch/offline path).

        The ES ``shard_size`` truncation problem — a shard's
        size-bounded page dropping other shards' counts for boundary
        keys — cannot occur here because each shard returns its FULL
        bucket list past the cursor (``engine.composite_all``);
        counts merge additively (doc shards are disjoint), keys sort
        ascending, and the page cut happens only after the global
        merge.  Cost per page: O(distinct key-tuples past the cursor)
        per shard — the cardinality assumption facets already make —
        independent of match-set size.  Results are identical to the
        term-partitioned ``engine.composite`` (asserted in tests).
        """
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        merged: "dict[tuple, int]" = {}
        for part in self._views("composite_all", query, by, mode, after,
                                where):
            for bucket in part:
                key = bucket["key"]
                merged[key] = merged.get(key, 0) + bucket["doc_count"]
        keys = sorted(merged)
        page = [{"key": k, "doc_count": merged[k]} for k in keys[:size]]
        after_key = page[-1]["key"] if page and len(keys) > size else None
        return {"buckets": page, "after_key": after_key}

    def _tokenize(self, text: str) -> list[str]:
        """Query tokens under the artifact's analyzer (its manifest's
        token_pattern and term_filter), as every shard view has it."""
        from refimage_ray.functions.text import tokenize

        man_cfg = self.manifest["config"]
        return tokenize(text, man_cfg.get("token_pattern"),
                        man_cfg.get("term_filter", "none"))

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        """(term, df) pairs from the GLOBAL terms table: every doc shard
        may hold postings for every term, so expansion consults the one
        global dictionary and the expanded terms are then scored by the
        ordinary scatter-gather path."""
        if self._global_df is None:
            self._global_df = _load_global_df(self.index_dir)
        return expand_vocab(self._global_df, self._global_df.__getitem__,
                            self._expand_cache, kind, probe)

    def search_phrase_prefix(self, phrase: str, k: int = 10,
                             threshold: float = 0.0,
                             offset: int = 0, slop: int = 0,
                             max_expansions: int = 128):
        """Search-as-you-type (see ``engine.search_phrase_prefix``):
        the last token is completed against the GLOBAL terms table
        (every shard sees the same completion set), each completion is
        one phrase query, merged under per-doc max score with one
        global top-k cut.  Exact: a doc outside every completion's
        top-(k+offset) is dominated by ≥k+offset docs globally
        (per-completion cut lines), ties resolved identically by the
        shared (score desc, doc_id asc) rule."""
        kk = check_page(k, offset)
        toks = self._tokenize(phrase)
        if not toks:
            return []
        head, last = toks[:-1], toks[-1]
        expansions = cap_expansion(self._expand_pairs("prefix", last),
                                   max_expansions)
        if not expansions:
            return []
        best: dict[int, float] = {}
        for e in expansions:
            for d, s in self.search_phrase(
                " ".join([*head, e]), k=kk, threshold=threshold, slop=slop,
            ):
                if d not in best or s > best[d]:
                    best[d] = s
        if not best:
            return []
        ids = np.fromiter(best.keys(), np.int64, len(best))
        sc = np.fromiter(best.values(), np.float64, len(best))
        out_ids, out_sc = topk_select(ids, sc, kk, threshold)
        return list(zip(out_ids.tolist(), out_sc.tolist()))[offset:]

    def search_rescore(
        self,
        query: str,
        k: int = 10,
        window: int = 50,
        query_weight: float = 1.0,
        rescore_weight: float = 1.0,
        threshold: float = 0.0,
        mode: str = "or",
    ) -> list[tuple[int, float]]:
        """Two-phase rescore (see ``engine.search_rescore`` for the
        semantics): the exact GLOBAL BM25 top-``window`` comes from
        the scatter search; the positional proximity pass then runs
        per shard over that window's docs (each doc's positions live
        wholly in its one shard, so the per-shard gap vectors combine
        by elementwise min into exactly the term layout's gaps — same
        prox, same combined scores).  Needs ``store_positions`` — this
        layout keeps no text store to fall back to."""
        from refimage_ray.query.engine import _rescore_combine, query_terms

        check_page(k)
        if k > window:
            raise ValueError(f"k ({k}) must be <= window ({window})")
        base = self.search(query, k=window, threshold=threshold, mode=mode)
        if not base:
            return []
        terms = query_terms(self._tokenize(query))

        def gaps_of(cand_s: np.ndarray) -> np.ndarray:
            g = np.full(len(cand_s), np.inf)
            if len(terms) < 2:
                return g
            for part in self._scatter("min_pair_gaps", terms, cand_s):
                g = np.minimum(g, part)
            return g

        return _rescore_combine(base, gaps_of, k, query_weight,
                                rescore_weight)


class DocPartSearcher(_DocPartCoordinator):
    """In-process scatter-gather over the doc-partitioned artifact:
    every shard's postings load once into one resident
    :class:`_ShardGroup` (each view reuses the engine's scoring path
    via ``_SearcherBase`` with GLOBAL df/N/avgdl), and every operator
    is a direct call on it.  ``.shards`` are the shard views.

    A sibling of :class:`DistributedDocPartSearcher`, not its parent:
    ``isinstance(s, DocPartSearcher)`` means "in-process, NRT-capable"
    (serve's ``POST /docs`` relies on it)."""

    def __init__(self, index_dir: str) -> None:
        files = self._open(index_dir)
        self._global_df = _load_global_df(index_dir)
        self._group = _ShardGroup(index_dir, files, self.manifest,
                                  self._global_df)
        self.shards = self._group.views


@functools.cache
def _shard_actor_class():
    import ray

    # idempotent restart (immutable artifact, tiny ctor args) — same
    # policy as DistributedSearcher: a dead actor reloads its shards
    # and the in-flight RPC is retried transparently
    return ray.remote(_ShardGroup).options(max_restarts=2,
                                           max_task_retries=-1)


class DistributedDocPartSearcher(_DocPartCoordinator):
    """Scatter-gather over :class:`_ShardGroup` actors — identical
    results to :class:`DocPartSearcher` (same per-shard scoring, same
    merges), but shard evaluation fans out across the cluster.  Use
    for serving when one process can't hold every shard's postings."""

    def __init__(self, index_dir: str, num_actors: int = 4) -> None:
        files = self._open(index_dir)
        num_actors = max(1, min(num_actors, len(files) or 1))
        assign: list[list[str]] = [[] for _ in range(num_actors)]
        for i, f in enumerate(files):
            assign[i % num_actors].append(f)
        cls = _shard_actor_class()
        self.actors = [
            cls.remote(index_dir, fnames, self.manifest)
            for fnames in assign if fnames
        ]

    def _scatter(self, method: str, *args) -> list:
        """One partial per actor, fanned out and gathered with one
        ``ray.get``."""
        import ray

        return ray.get([getattr(a, method).remote(*args)
                        for a in self.actors])

    def wait_ready(self) -> None:
        """Block until every doc-shard actor has loaded its postings
        (actor construction is async; see
        ``DistributedSearcher.wait_ready``)."""
        self._views("count", "")

    def search_many(
        self,
        queries: list[str],
        k: int = 10,
        threshold: float = 0.0,
        mode: str = "or",
        where=None,
        offset: int = 0,
    ) -> list[list[tuple[int, float]]]:
        """Pipelined scatter-gather: every (query, actor) call is
        submitted up front so the shard actors stream through the whole
        query batch back-to-back — the serving-THROUGHPUT path (each
        result list is identical to ``search`` of the same query).  The
        driver does only the tiny per-query top-k merge."""
        import ray

        kk = check_page(k, offset)
        futures = [
            [a.each.remote("search", (q, kk, threshold),
                           {"mode": mode, "where": where})
             for a in self.actors]
            for q in queries
        ]
        return [
            _merge_topk([p for g in ray.get(row) for p in g], kk,
                        threshold)[offset:]
            for row in futures
        ]
