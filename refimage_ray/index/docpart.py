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

Reference analog: the declared-but-unimplemented alternative index
strategies (``/root/reference/src/refimage/config.py:50-52``); the
serving shape mirrors ``load_index``-once-then-query
(``search/__init__.py:362-396``).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

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
from refimage_ray.query.scorer import bm25_weight
from refimage_ray.stages.tokenize import doc_stats_batch, tokenize_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _accumulate_composite(merged: "dict[tuple, int]", buckets) -> None:
    """Fold one partial bucket list into the additive merge — the ONE
    implementation every composite merge site shares, so the exactness
    contract (docpart pages == term-layout pages) cannot drift."""
    for b in buckets:
        merged[b["key"]] = merged.get(b["key"], 0) + b["doc_count"]


def _composite_page(merged: "dict[tuple, int]", size: int) -> dict:
    """Key-ascending page cut over the globally merged bucket map —
    shared by the in-process and scatter-gather composites."""
    keys = sorted(merged)
    page = [{"key": k, "doc_count": merged[k]} for k in keys[:size]]
    after_key = page[-1]["key"] if page and len(keys) > size else None
    return {"buckets": page, "after_key": after_key}


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


def _merge_grouped(
    parts: "list[list[tuple[str, int, float]]]", k: int
) -> list[tuple[str, int, float]]:
    """Merge per-shard grouped top-k rows (disjoint doc subsets → the
    global per-group winners are in the union): re-sort each group by
    (score desc, doc_id asc), truncate to k, groups in lex order."""
    acc: dict[str, list[tuple[int, float]]] = {}
    for rows in parts:
        for g, d, s in rows:
            acc.setdefault(g, []).append((int(d), float(s)))
    out: list[tuple[str, int, float]] = []
    for g in sorted(acc):
        hits = sorted(acc[g], key=lambda x: (-x[1], x[0]))[:k]
        out.extend((g, d, s) for d, s in hits)
    return out


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


def _phrase_prefix_composed(
    searcher, expander, phrase: str, k, threshold,
    cfg: EngineConfig, offset: int, slop: int,
    max_expansions: "int | None",
) -> list[tuple[int, float]]:
    """match_phrase_prefix by composition over any searcher exposing
    ``search_phrase``: complete the last token against the global
    vocabulary, run one phrase query per completion, merge under
    per-doc max score, one global top-k cut.  Exact: a doc outside
    every completion's top-(k+offset) is dominated by ≥k+offset docs
    globally (per-completion cut lines), ties resolved identically by
    the shared (score desc, doc_id asc) rule."""
    import numpy as np

    from refimage_ray.functions.text import tokenize
    from refimage_ray.query.scorer import topk_select

    k = cfg.default_k if k is None else k
    threshold = cfg.default_threshold if threshold is None else threshold
    toks = tokenize(phrase, expander._token_pattern, expander._term_filter)
    if not toks:
        return []
    head, last = toks[:-1], toks[-1]
    cap = cfg.max_expansions if max_expansions is None else max_expansions
    expansions = expander.expand("prefix", last, cap)
    if not expansions:
        return []
    best: dict[int, float] = {}
    for e in expansions:
        for d, s in searcher.search_phrase(
            " ".join([*head, e]), k=k + offset, threshold=threshold,
            cfg=cfg, slop=slop,
        ):
            if d not in best or s > best[d]:
                best[d] = s
    if not best:
        return []
    ids = np.fromiter(best.keys(), np.int64, len(best))
    sc = np.fromiter(best.values(), np.float64, len(best))
    out_ids, out_sc = topk_select(ids, sc, k + offset, threshold)
    return list(zip(out_ids.tolist(), out_sc.tolist()))[offset:]


class _GlobalVocabExpander:
    """Prefix/fuzzy expansion for the doc-partitioned layout, probed
    against the artifact's GLOBAL ``terms/`` table (term → global df).

    Unlike the term-partitioned layout (where a match set is scattered
    across shard actors' disjoint vocabularies), here every doc shard
    may hold postings for every term — so expansion consults the one
    global dictionary and the expanded terms are then scored by the
    ordinary scatter-gather path.  Probe structures build lazily, once.
    """

    def __init__(self, global_df: dict, token_pattern: "str | None",
                 term_filter: str = "none") -> None:
        self._df = global_df
        self._token_pattern = token_pattern
        # manifest term_filter (e.g. s_stem) — probe normalization must
        # match _SearcherBase._tokenize so layouts return the same
        # completions for plural-form prefixes
        self._term_filter = term_filter
        self._vocab: "list[str] | None" = None
        self._deletes: "dict[str, list[str]] | None" = None

    def pairs(self, kind: str, arg: str) -> tuple[str, list]:
        """(token, matched (term, df) pairs) for an expansion probe."""
        from refimage_ray.functions.text import tokenize
        from refimage_ray.query.expand import (
            build_deletes_index,
            fuzzy_matches,
            normalize_probe,
            prefix_matches,
            regex_matches,
            wildcard_matches,
        )

        probe = normalize_probe(
            kind, arg,
            lambda s: tokenize(s, self._token_pattern, self._term_filter),
        )
        if kind == "fuzzy":
            if self._deletes is None:
                self._deletes = build_deletes_index(self._df)
            matched = fuzzy_matches(self._deletes, probe)
        else:
            if self._vocab is None:
                self._vocab = sorted(self._df)
            if kind == "prefix":
                matched = prefix_matches(self._vocab, probe)
            elif kind == "wildcard":
                matched = wildcard_matches(self._vocab, probe)
            else:
                matched = regex_matches(self._vocab, probe)
        return probe, [(t, int(self._df[t])) for t in matched]

    def expand(self, kind: str, arg: str, max_expansions: int) -> list[str]:
        from refimage_ray.query.expand import cap_expansion

        _, pairs = self.pairs(kind, arg)
        return cap_expansion(pairs, max_expansions)

    def suggest(self, term: str, max_suggestions: int) -> list[dict]:
        from refimage_ray.query.expand import rank_suggestions

        tok, pairs = self.pairs("fuzzy", term)
        return rank_suggestions(pairs, tok, max_suggestions)


class DocPartSearcher:
    """Scatter-gather searcher over the doc-partitioned artifact.

    Loads every shard's postings once (the load-once contract), builds
    one in-process sub-searcher per shard — each reuses the engine's
    scoring path via ``_SearcherBase`` with GLOBAL df/N/avgdl — and
    merges per-shard top-k lists.  The merge is exact: doc shards are
    disjoint, so each doc's full score comes from exactly one shard,
    and the global top-k is contained in the union of per-shard
    top-ks.  Scores are bit-identical to ``LocalSearcher`` on the
    term-partitioned artifact (same accumulation code and order).
    """

    def __init__(self, index_dir: str) -> None:
        from refimage_ray.query.engine import _SearcherBase

        with open(os.path.join(index_dir, "manifest.json")) as f:
            man = json.load(f)
        if man.get("layout") != "doc-partitioned":
            raise ValueError(f"{index_dir} is not a doc-partitioned index")
        self.index_dir = index_dir
        self.manifest = man
        self.n_docs = int(man["stats"]["n_docs"])
        self.avgdl = float(man["stats"]["avgdl"])

        self._global_df = _load_global_df(index_dir)
        self._expander = _GlobalVocabExpander(
            self._global_df, man["config"].get("token_pattern"),
            man["config"].get("term_filter", "none"),
        )
        files = sorted(
            f for f in os.listdir(index_dir)
            if f.startswith("docshard-") and f.endswith(".parquet")
        )
        self.shards = [
            _load_shard_view(index_dir, f, self.n_docs, self.avgdl,
                             self._global_df,
                             man["config"].get("token_pattern"),
                             dead=_load_tombstones(index_dir),
                             term_filter=man["config"].get("term_filter",
                                                           "none"))
            for f in files
        ]

    def search(
        self,
        query: str,
        k: int | None = None,
        threshold: float | None = None,
        mode: str = "or",
        cfg: EngineConfig = DEFAULT_CONFIG,
        where=None,
        offset: int = 0,
        min_match: int | None = None,
        after: "tuple[float, int] | None" = None,
        boost=None,  # DecaySpec — per-doc factor, so shard-exact too
        order_by=None,
    ) -> list[tuple[int, float]]:
        from refimage_ray.query.scorer import topk_select

        if order_by is not None:
            return self._search_ordered(
                query, k, threshold, mode, cfg, where, offset,
                min_match, after, boost, order_by,
            )

        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        # pagination: each shard returns its top (k+offset) — the global
        # page is contained in the union (disjoint doc subsets).
        # min_match and the after-cursor are shard-exact: a doc's
        # postings live entirely in its one shard, so per-shard counts
        # and per-doc cursor masks are global.
        kk = k + offset
        ids_parts, score_parts = [], []
        for sh in self.shards:
            hits = sh.search(query, k=kk, threshold=threshold, mode=mode,
                             cfg=cfg, where=where, min_match=min_match,
                             after=after, boost=boost)
            if hits:
                ids_parts.append(np.array([d for d, _ in hits], np.int64))
                score_parts.append(np.array([s for _, s in hits], np.float64))
        if not ids_parts:
            return []
        ids, scores = topk_select(
            np.concatenate(ids_parts), np.concatenate(score_parts), kk, threshold
        )
        return list(zip(ids.tolist(), scores.tolist()))[offset:]

    def _search_ordered(
        self, query, k, threshold, mode, cfg, where, offset,
        min_match, after, boost, order_by,
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

        order_keys = _normalize_order_by(order_by)
        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        cols = [c for c, _ in order_keys]
        parts = []  # (ids, scores, [(kind, values, null_mask), ...])
        for sh in self.shards:
            hits = sh.search(query, k=kk, threshold=threshold, mode=mode,
                             cfg=cfg, where=where, min_match=min_match,
                             after=after, boost=boost, order_by=order_by)
            part = _ordered_part(sh, hits, cols)
            if part is not None:
                parts.append(part)
        return _merge_ordered(parts, order_keys, kk)[offset:]

    def search_phrase(
        self,
        phrase: str,
        k: int | None = None,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        offset: int = 0,
        slop: int = 0,
    ) -> list[tuple[int, float]]:
        """Phrase / proximity top-k over the doc-partitioned layout:
        each shard verifies from ITS positional postings (a phrase
        match is doc-local, so shard results are exact and the top-k
        merge is exact by disjointness).  Requires the artifact to be
        built with ``store_positions=True`` — doc shards hold no text,
        so there is no fallback verify path here."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "phrase search on a doc-partitioned artifact requires "
                "build_doc_partitioned with cfg.store_positions=True "
                "(doc shards store no text to verify against)"
            )
        from refimage_ray.query.scorer import topk_select

        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        ids_parts, score_parts = [], []
        for sh in self.shards:
            hits = sh.search_phrase(phrase, k=kk, threshold=threshold,
                                    cfg=cfg, slop=slop)
            if hits:
                ids_parts.append(np.array([d for d, _ in hits], np.int64))
                score_parts.append(np.array([s for _, s in hits], np.float64))
        if not ids_parts:
            return []
        ids, scores = topk_select(
            np.concatenate(ids_parts), np.concatenate(score_parts), kk, threshold
        )
        return list(zip(ids.tolist(), scores.tolist()))[offset:]

    def search_near(
        self,
        query: str,
        window: int,
        k: int | None = None,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        """Unordered-proximity (NEAR/W) top-k across doc shards — each
        shard verifies against its own positional postings
        (``_SearcherBase.search_near``), merge is exact because doc
        shards are disjoint.  Requires ``store_positions=True`` like
        phrase search (doc shards store no text to fall back on)."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "near search on a doc-partitioned artifact requires "
                "build_doc_partitioned with cfg.store_positions=True "
                "(doc shards store no text to verify against)"
            )
        from refimage_ray.query.scorer import topk_select

        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        ids_parts, score_parts = [], []
        for sh in self.shards:
            hits = sh.search_near(query, window, k=kk, threshold=threshold,
                                  cfg=cfg)
            if hits:
                ids_parts.append(np.array([d for d, _ in hits], np.int64))
                score_parts.append(np.array([s for _, s in hits], np.float64))
        if not ids_parts:
            return []
        ids, scores = topk_select(
            np.concatenate(ids_parts), np.concatenate(score_parts), kk, threshold
        )
        return list(zip(ids.tolist(), scores.tolist()))[offset:]

    def search_grouped(
        self,
        query: str,
        by: str,
        k_per_group: int = 3,
        mode: str = "or",
        where=None,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        groups: "list[str] | None" = None,
    ) -> list[tuple[str, int, float]]:
        """Grouped top-k over the doc-partitioned layout: each shard
        returns its per-group top-k from shard-local values; the global
        per-group winners are contained in the union (disjoint docs),
        so the merge re-sorts and truncates per group — exact."""
        parts = [
            sh.search_grouped(query, by, k_per_group=k_per_group, mode=mode,
                              where=where, threshold=threshold, cfg=cfg,
                              groups=groups)
            for sh in self.shards
        ]
        return _merge_grouped(parts, k_per_group)

    def count(
        self,
        query: str,
        mode: str = "or",
        where=None,
        min_match: "int | None" = None,
    ) -> int:
        """Exact hit count, doc-partitioned: shard counts sum exactly
        (doc shards are disjoint)."""
        return sum(
            sh.count(query, mode=mode, where=where, min_match=min_match)
            for sh in self.shards
        )

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
        """Facet aggregation, doc-partitioned: each shard counts over
        ITS match subset from shard-local doc values; counts and sums
        merge additively (doc shards are disjoint → exact).  ``top``
        applies only after the merge."""
        from refimage_ray.index.docvalues import merge_facet_results

        parts = [
            sh.facets(query, by=by, mode=mode, where=where,
                      histograms=histograms, sums=sums,
                      date_histograms=date_histograms)
            for sh in self.shards
        ]
        pct = None
        if percentiles:
            # percentiles are NOT additive: gather each shard's match
            # VALUES (capped) and rank-select over the concatenation —
            # exact, bounded, one extra round trip.  Above the cap,
            # fall back to exact histogram-bisection selection
            # (O(buckets) exchange per round, match-size independent).
            from refimage_ray.index.docvalues import select_percentiles

            try:
                gathered = [
                    sh.match_values(query, sorted(percentiles), mode=mode,
                                    where=where, cap=percentile_gather_cap)
                    for sh in self.shards
                ]
                pct = {
                    c: select_percentiles(
                        np.concatenate([g[c] for g in gathered])
                        if gathered else np.zeros(0),
                        qs,
                    )
                    for c, qs in percentiles.items()
                }
            except ValueError as e:
                if not _is_gather_cap_error(e):
                    raise
                pct = _selection_percentiles(
                    lambda m, *a: [getattr(sh, m)(*a) for sh in self.shards],
                    percentiles, query, mode, where,
                )
        out = merge_facet_results(parts, top=top)
        if pct is not None:
            out["percentiles"] = pct
        for c in by or []:  # zero-shard (empty corpus) edge
            out["facets"].setdefault(c, [])
        for c in histograms or {}:
            out["histograms"].setdefault(c, [])
        if date_histograms:
            out.setdefault("date_histograms", {})
            for c in date_histograms:
                out["date_histograms"].setdefault(c, [])
        if sums:
            out.setdefault("sums", {})
            for c in sums:
                out["sums"].setdefault(c, [])
        return out

    def _search_expanded(
        self, kind: str, arg: str, k, threshold, cfg: EngineConfig,
        max_expansions: "int | None", where=None, order_by=None,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        cap = cfg.max_expansions if max_expansions is None else max_expansions
        terms = self._expander.expand(kind, arg, cap)
        if not terms:
            return []
        # expanded terms are tokens, so the joined string re-tokenizes
        # to exactly this set — identical to an OR query over it
        return self.search(" ".join(terms), k=k, threshold=threshold,
                           mode="or", cfg=cfg, where=where,
                           order_by=order_by, offset=offset)

    def suggest(self, term: str, max_suggestions: int = 5) -> list[dict]:
        """Did-you-mean over the global terms table (see
        ``engine._SearcherBase.suggest``)."""
        return self._expander.suggest(term, max_suggestions)

    def _expand_pairs(self, kind: str, arg: str) -> list[tuple[str, int]]:
        """(term, df) pairs from the global terms table (the engine
        ABC's vocabulary-browse contract — serve /terms)."""
        return self._expander.pairs(kind, arg)[1]

    def composite(
        self,
        query: str,
        by: "list[str]",
        size: int = 10,
        after: "tuple | None" = None,
        mode: str = "or",
        where=None,
    ) -> dict:
        """EXACT composite after-key paging on the doc-partitioned
        layout (the batch/offline path).

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
        for sh in self.shards:
            _accumulate_composite(
                merged,
                sh.composite_all(query, by, mode=mode, after=after,
                                 where=where),
            )
        return _composite_page(merged, size)

    def search_prefix(self, prefix: str, k=None, threshold=None,
                      cfg: EngineConfig = DEFAULT_CONFIG,
                      max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Prefix top-k over the doc-partitioned layout (see
        ``engine.search_prefix``) — expansion against the global terms
        table, scoring via the exact scatter-gather path."""
        return self._search_expanded("prefix", prefix, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_phrase_prefix(self, phrase: str, k=None, threshold=None,
                             cfg: EngineConfig = DEFAULT_CONFIG,
                             offset: int = 0, slop: int = 0,
                             max_expansions: "int | None" = None):
        """Search-as-you-type over the doc-partitioned layout (see
        ``engine.search_phrase_prefix``): last token completed against
        the GLOBAL terms table (every shard sees the same completion
        set), each completion a docpart phrase query, per-doc max-merge
        — exact by the same per-completion cut-line dominance as the
        term layout."""
        return _phrase_prefix_composed(
            self, self._expander, phrase, k, threshold, cfg, offset, slop,
            max_expansions,
        )

    def search_fuzzy(self, term: str, k=None, threshold=None,
                     cfg: EngineConfig = DEFAULT_CONFIG,
                     max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Levenshtein-≤1 fuzzy top-k over the doc-partitioned layout
        (see ``engine.search_fuzzy``)."""
        return self._search_expanded("fuzzy", term, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_wildcard(self, pattern: str, k=None, threshold=None,
                        cfg: EngineConfig = DEFAULT_CONFIG,
                        max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Glob wildcard top-k over the doc-partitioned layout (see
        ``engine.search_wildcard``)."""
        return self._search_expanded("wildcard", pattern, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_regex(self, pattern: str, k=None, threshold=None,
                     cfg: EngineConfig = DEFAULT_CONFIG,
                     max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Anchored-regex top-k over the doc-partitioned layout (see
        ``engine.search_regex``)."""
        return self._search_expanded("regex", pattern, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_rescore(
        self,
        query: str,
        k: int | None = None,
        window: int = 50,
        query_weight: float = 1.0,
        rescore_weight: float = 1.0,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        mode: str = "or",
    ) -> list[tuple[int, float]]:
        """Two-phase rescore on the doc-partitioned layout (see
        ``engine.search_rescore`` for the semantics): the exact GLOBAL
        BM25 top-``window`` comes from the scatter search; the
        positional proximity pass then runs per shard over that
        window's docs (each doc's positions live wholly in its one
        shard, so the per-shard gap vectors combine by elementwise min
        into exactly the term layout's gaps — same prox, same combined
        scores).  Needs ``store_positions`` — this layout keeps no
        text store to fall back to."""
        from refimage_ray.functions.text import tokenize
        from refimage_ray.query.engine import (
            _min_pair_gaps_positions,
            _rescore_combine,
            query_terms,
        )

        k = cfg.default_k if k is None else k
        if k > window:
            raise ValueError(f"k ({k}) must be <= window ({window})")
        base = self.search(query, k=window, threshold=threshold,
                           mode=mode, cfg=cfg)
        if not base:
            return []
        man_cfg = self.manifest["config"]
        terms = query_terms(tokenize(
            query, man_cfg.get("token_pattern"),
            man_cfg.get("term_filter", "none"),
        ))

        def gaps_of(cand_s: np.ndarray) -> np.ndarray:
            g = np.full(len(cand_s), np.inf)
            if len(terms) < 2:
                return g
            for sh in self.shards:
                tm = sh._term_map(terms)
                if not tm:
                    continue
                if any(p.positions is None for p in tm.values()):
                    raise ValueError(
                        "rescore_window needs a positional "
                        "doc-partitioned artifact (store_positions): "
                        "this layout keeps no text store to fall "
                        "back to"
                    )
                g = np.minimum(
                    g, _min_pair_gaps_positions(tm, terms, cand_s)
                )
            return g

        return _rescore_combine(base, gaps_of, k, query_weight,
                                rescore_weight)


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
    only transport dependency — the local searcher passes a direct
    loop, the distributed one a ray.get fan-out.  Shards recompute
    their match set per round (2–4 rounds typical): recompute is
    shard-local and parallel; what this path refuses to do is ship
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


def _is_gather_cap_error(e: BaseException) -> bool:
    return "exceeds the gather cap" in str(e)


@ray.remote
class _DocShardActor:
    """Serving actor owning a subset of doc shards — postings loaded
    ONCE in ``__init__`` (the load-once contract), queries answered
    from memory.  The cluster shape of a doc-partitioned engine: one
    such actor per node, scatter-gather from the driver."""

    def __init__(self, index_dir: str, fnames: list[str], n_docs: int,
                 avgdl: float) -> None:
        with open(os.path.join(index_dir, "manifest.json")) as f:
            _cfg = json.load(f)["config"]
        tp = _cfg.get("token_pattern")
        tfilt = _cfg.get("term_filter", "none")
        global_df = _load_global_df(index_dir)
        self._views = [
            _load_shard_view(index_dir, f, n_docs, avgdl, global_df, tp,
                             dead=_load_tombstones(index_dir),
                             term_filter=tfilt)
            for f in fnames
        ]

    def search(
        self, query: str, k: int, threshold: float, mode: str, where=None,
        min_match: "int | None" = None,
        after: "tuple[float, int] | None" = None,
        boost=None,
    ) -> list[tuple[int, float]]:
        out: list[tuple[int, float]] = []
        for v in self._views:
            out.extend(v.search(query, k=k, threshold=threshold, mode=mode,
                                where=where, min_match=min_match,
                                after=after, boost=boost))
        return out

    def search_ordered(
        self, query: str, k: int, threshold: float, mode: str, where,
        min_match, boost, order_by, cols: list,
    ) -> list:
        """Per-view ordered pages + DECODED order-key triplets (the
        shard-local categorical dictionaries never leave as codes) —
        merged by the driver's ``_merge_ordered``."""
        parts = []
        for v in self._views:
            hits = v.search(query, k=k, threshold=threshold, mode=mode,
                            where=where, min_match=min_match, boost=boost,
                            order_by=order_by)
            part = _ordered_part(v, hits, cols)
            if part is not None:
                parts.append(part)
        return parts

    def min_pair_gaps(self, terms: list, cand: np.ndarray) -> np.ndarray:
        """Min pairwise term-position gap per candidate over this
        actor's views (inf where the doc is elsewhere / <2 terms) —
        the rescore proximity basis; needs store_positions."""
        from refimage_ray.query.engine import _min_pair_gaps_positions

        g = np.full(len(cand), np.inf)
        for v in self._views:
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

    def search_grouped(self, query: str, by: str, k_per_group: int,
                       mode: str, where, groups) -> list:
        out: list = []
        for v in self._views:
            out.extend(v.search_grouped(query, by, k_per_group=k_per_group,
                                        mode=mode, where=where,
                                        groups=groups))
        return out

    def count(self, query: str, mode: str, where=None,
              min_match: "int | None" = None) -> int:
        return sum(
            v.count(query, mode=mode, where=where, min_match=min_match)
            for v in self._views
        )

    def search_phrase(self, phrase: str, k: int, threshold: float,
                      slop: int = 0) -> list[tuple[int, float]]:
        out: list[tuple[int, float]] = []
        for v in self._views:
            out.extend(v.search_phrase(phrase, k=k, threshold=threshold,
                                       slop=slop))
        return out

    def search_near(self, query: str, window: int, k: int,
                    threshold: float) -> list[tuple[int, float]]:
        out: list[tuple[int, float]] = []
        for v in self._views:
            out.extend(v.search_near(query, window, k=k,
                                     threshold=threshold))
        return out

    def match_values(self, query: str, cols, mode: str = "or",
                     where=None, cap: int = 1_000_000) -> dict:
        """Concatenated match values across this actor's shard views
        (the percentile gather primitive; cap applies per view)."""
        import numpy as _np

        parts = [v.match_values(query, cols, mode=mode, where=where,
                                cap=cap) for v in self._views]
        return {
            c: (_np.concatenate([p[c] for p in parts])
                if parts else _np.zeros(0))
            for c in cols
        }

    def facets(self, query: str, by, mode: str, where, histograms,
               sums=None, date_histograms=None) -> dict:
        """Partial facet counts over this actor's doc shards (values
        are shard-local; the driver's merge is exact by additivity)."""
        from refimage_ray.index.docvalues import merge_facet_results

        return merge_facet_results([
            v.facets(query, by=by, mode=mode, where=where,
                     histograms=histograms, sums=sums,
                     date_histograms=date_histograms)
            for v in self._views
        ])

    def composite_all(self, query, by, mode, where, after) -> list[dict]:
        """FULL per-key bucket counts past the cursor over this
        actor's doc shards — additive partials for the driver's exact
        composite merge (no per-shard size bound: the ES shard_size
        truncation cannot occur)."""
        merged: "dict[tuple, int]" = {}
        for v in self._views:
            _accumulate_composite(
                merged,
                v.composite_all(query, by, mode=mode, after=after,
                                where=where),
            )
        return [{"key": k, "doc_count": n} for k, n in merged.items()]

    def match_value_stats(self, query, col, mode, where):
        parts = [v.match_value_stats(query, col, mode, where)
                 for v in self._views]
        parts = [p for p in parts if p[0]]
        if not parts:
            return 0, float("nan"), float("nan")
        return (sum(p[0] for p in parts), min(p[1] for p in parts),
                max(p[2] for p in parts))

    def match_value_histogram(self, query, col, mode, where, lo, hi, buckets):
        import numpy as _np

        cs, mns, mxs = zip(*[
            v.match_value_histogram(query, col, mode, where, lo, hi, buckets)
            for v in self._views
        ])
        return (_np.sum(cs, axis=0), _np.minimum.reduce(mns),
                _np.maximum.reduce(mxs))

    def match_value_bucket(self, query, col, mode, where, lo, hi, buckets, j):
        import numpy as _np

        return _np.concatenate([
            v.match_value_bucket(query, col, mode, where, lo, hi, buckets, j)
            for v in self._views
        ])


class DistributedDocPartSearcher:
    """Scatter-gather over ``_DocShardActor``s — identical results to
    :class:`DocPartSearcher` (same per-shard scoring, same merge), but
    shard evaluation fans out across the cluster.  Use for serving
    when one process can't hold every shard's postings."""

    def __init__(self, index_dir: str, num_actors: int = 4) -> None:
        with open(os.path.join(index_dir, "manifest.json")) as f:
            man = json.load(f)
        if man.get("layout") != "doc-partitioned":
            raise ValueError(f"{index_dir} is not a doc-partitioned index")
        self.index_dir = index_dir
        self.manifest = man
        self._token_pattern = man["config"].get("token_pattern")
        self._expander: "_GlobalVocabExpander | None" = None  # lazy
        self.n_docs = int(man["stats"]["n_docs"])
        self.avgdl = float(man["stats"]["avgdl"])
        files = sorted(
            f for f in os.listdir(index_dir)
            if f.startswith("docshard-") and f.endswith(".parquet")
        )
        num_actors = max(1, min(num_actors, len(files) or 1))
        assign: list[list[str]] = [[] for _ in range(num_actors)]
        for i, f in enumerate(files):
            assign[i % num_actors].append(f)
        # idempotent restart (immutable artifact, tiny ctor args) —
        # same policy as DistributedSearcher: a dead actor reloads its
        # shards and the in-flight search RPC is retried transparently
        cls = _DocShardActor.options(max_restarts=2, max_task_retries=-1)
        self.actors = [
            cls.remote(index_dir, fnames, self.n_docs, self.avgdl)
            for fnames in assign if fnames
        ]

    def wait_ready(self) -> None:
        """Block until every doc-shard actor has loaded its postings
        (actor construction is async; see
        ``DistributedSearcher.wait_ready``)."""
        ray.get([a.search.remote("", 1, 0.0, "or") for a in self.actors])

    def search(
        self,
        query: str,
        k: int | None = None,
        threshold: float | None = None,
        mode: str = "or",
        cfg: EngineConfig = DEFAULT_CONFIG,
        where=None,
        offset: int = 0,
        min_match: int | None = None,
        after: "tuple[float, int] | None" = None,
        boost=None,
        order_by=None,
    ) -> list[tuple[int, float]]:
        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        if order_by is not None:
            from refimage_ray.query.engine import _normalize_order_by

            if after is not None:
                # same contract as the engine/in-process searcher
                raise ValueError(
                    "after= cursors the score order; it cannot combine "
                    "with order_by"
                )
            order_keys = _normalize_order_by(order_by)
            cols = [c for c, _ in order_keys]
            part_lists = ray.get([
                a.search_ordered.remote(query, kk, threshold, mode, where,
                                        min_match, boost, order_by, cols)
                for a in self.actors
            ])
            parts = [p for pl in part_lists for p in pl]
            return _merge_ordered(parts, order_keys, kk)[offset:]
        parts = ray.get(
            [a.search.remote(query, kk, threshold, mode, where, min_match,
                             after, boost)
             for a in self.actors]
        )
        return self._merge(parts, kk, threshold)[offset:]

    def search_rescore(
        self,
        query: str,
        k: int | None = None,
        window: int = 50,
        query_weight: float = 1.0,
        rescore_weight: float = 1.0,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        mode: str = "or",
    ) -> list[tuple[int, float]]:
        """Two-phase rescore over the actor transport — same shape as
        :meth:`DocPartSearcher.search_rescore`: exact global window
        from the scatter, per-actor proximity gaps combined by min."""
        from refimage_ray.functions.text import tokenize
        from refimage_ray.query.engine import _rescore_combine, query_terms

        k = cfg.default_k if k is None else k
        if k > window:
            raise ValueError(f"k ({k}) must be <= window ({window})")
        base = self.search(query, k=window, threshold=threshold,
                           mode=mode, cfg=cfg)
        if not base:
            return []
        man_cfg = self.manifest["config"]
        terms = query_terms(tokenize(
            query, man_cfg.get("token_pattern"),
            man_cfg.get("term_filter", "none"),
        ))

        def gaps_of(cand_s: np.ndarray) -> np.ndarray:
            g = np.full(len(cand_s), np.inf)
            if len(terms) < 2:
                return g
            for ga in ray.get([a.min_pair_gaps.remote(terms, cand_s)
                               for a in self.actors]):
                g = np.minimum(g, ga)
            return g

        return _rescore_combine(base, gaps_of, k, query_weight,
                                rescore_weight)

    def search_grouped(
        self,
        query: str,
        by: str,
        k_per_group: int = 3,
        mode: str = "or",
        where=None,
        groups: "list[str] | None" = None,
    ) -> list[tuple[str, int, float]]:
        """Scatter-gather grouped top-k (see ``DocPartSearcher``) —
        per-actor partial grouped tops, exact driver merge."""
        parts = ray.get([
            a.search_grouped.remote(query, by, k_per_group, mode, where,
                                    groups)
            for a in self.actors
        ])
        return _merge_grouped(parts, k_per_group)

    def search_phrase(
        self,
        phrase: str,
        k: int | None = None,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        offset: int = 0,
        slop: int = 0,
    ) -> list[tuple[int, float]]:
        """Scatter-gather phrase / proximity top-k (see
        :meth:`DocPartSearcher.search_phrase`; requires
        ``store_positions=True`` at build)."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "phrase search on a doc-partitioned artifact requires "
                "build_doc_partitioned with cfg.store_positions=True "
                "(doc shards store no text to verify against)"
            )
        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        parts = ray.get([
            a.search_phrase.remote(phrase, kk, threshold, slop)
            for a in self.actors
        ])
        return self._merge(parts, kk, threshold)[offset:]

    def search_near(
        self,
        query: str,
        window: int,
        k: int | None = None,
        threshold: float | None = None,
        cfg: EngineConfig = DEFAULT_CONFIG,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        """Scatter-gather unordered-proximity top-k (see
        :meth:`DocPartSearcher.search_near`; requires
        ``store_positions=True`` at build)."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "near search on a doc-partitioned artifact requires "
                "build_doc_partitioned with cfg.store_positions=True "
                "(doc shards store no text to verify against)"
            )
        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        parts = ray.get([
            a.search_near.remote(query, window, kk, threshold)
            for a in self.actors
        ])
        return self._merge(parts, kk, threshold)[offset:]

    def count(
        self,
        query: str,
        mode: str = "or",
        where=None,
        min_match: "int | None" = None,
    ) -> int:
        """Scatter-gather hit count — exact by disjoint-shard
        additivity."""
        return sum(ray.get([
            a.count.remote(query, mode, where, min_match)
            for a in self.actors
        ]))

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
        """Scatter-gather facets: each actor returns partial counts
        from its shard-local doc values; the driver merge is exact by
        additivity over disjoint doc subsets (``top`` after merge)."""
        from refimage_ray.index.docvalues import merge_facet_results

        parts = ray.get([
            a.facets.remote(query, by, mode, where, histograms, sums,
                            date_histograms)
            for a in self.actors
        ])
        pct = None
        if percentiles:
            from refimage_ray.index.docvalues import select_percentiles

            try:
                gathered = ray.get([
                    a.match_values.remote(query, sorted(percentiles), mode,
                                          where, percentile_gather_cap)
                    for a in self.actors
                ])
                pct = {
                    c: select_percentiles(
                        np.concatenate([g[c] for g in gathered])
                        if gathered else np.zeros(0),
                        qs,
                    )
                    for c, qs in percentiles.items()
                }
            except ray.exceptions.RayTaskError as e:
                if not _is_gather_cap_error(e):
                    raise
                pct = _selection_percentiles(
                    lambda m, *a: ray.get([
                        getattr(act, m).remote(*a) for act in self.actors
                    ]),
                    percentiles, query, mode, where,
                )
        out = merge_facet_results(parts, top=top)
        if pct is not None:
            out["percentiles"] = pct
        for c in by or []:
            out["facets"].setdefault(c, [])
        for c in histograms or {}:
            out["histograms"].setdefault(c, [])
        if date_histograms:
            out.setdefault("date_histograms", {})
            for c in date_histograms:
                out["date_histograms"].setdefault(c, [])
        if sums:
            out.setdefault("sums", {})
            for c in sums:
                out["sums"].setdefault(c, [])
        return out

    @staticmethod
    def _merge(
        parts: list[list[tuple[int, float]]], k: int, threshold: float
    ) -> list[tuple[int, float]]:
        from refimage_ray.query.scorer import topk_select

        ids_parts, score_parts = [], []
        for hits in parts:
            if hits:
                ids_parts.append(np.array([d for d, _ in hits], np.int64))
                score_parts.append(np.array([s for _, s in hits], np.float64))
        if not ids_parts:
            return []
        ids, scores = topk_select(
            np.concatenate(ids_parts), np.concatenate(score_parts), k, threshold
        )
        return list(zip(ids.tolist(), scores.tolist()))

    def _expand_pairs(self, kind: str, arg: str) -> list[tuple[str, int]]:
        """(term, df) pairs from the global terms table (the engine
        ABC's vocabulary-browse contract — serve /terms)."""
        return self._ensure_expander().pairs(kind, arg)[1]

    def composite(
        self,
        query: str,
        by: "list[str]",
        size: int = 10,
        after: "tuple | None" = None,
        mode: str = "or",
        where=None,
    ) -> dict:
        """EXACT composite paging, scatter-gather: each actor returns
        its FULL bucket list past the cursor (additive partials — see
        ``DocPartSearcher.composite`` for why no per-shard size bound
        is the whole point); the driver merges, sorts keys ascending
        and cuts the page."""
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        parts = ray.get([
            a.composite_all.remote(query, by, mode, where, after)
            for a in self.actors
        ])
        merged: "dict[tuple, int]" = {}
        for part in parts:
            _accumulate_composite(merged, part)
        return _composite_page(merged, size)

    def _ensure_expander(self) -> "_GlobalVocabExpander":
        if self._expander is None:
            # global terms table loaded on first expansion query only —
            # plain scatter-gather serving never pays for it
            self._expander = _GlobalVocabExpander(
                _load_global_df(self.index_dir), self._token_pattern,
                self.manifest["config"].get("term_filter", "none"),
            )
        return self._expander

    def suggest(self, term: str, max_suggestions: int = 5) -> list[dict]:
        """Did-you-mean over the global terms table."""
        return self._ensure_expander().suggest(term, max_suggestions)

    def _search_expanded(
        self, kind: str, arg: str, k, threshold, cfg: EngineConfig,
        max_expansions: "int | None", where=None, order_by=None,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        self._ensure_expander()
        cap = cfg.max_expansions if max_expansions is None else max_expansions
        terms = self._expander.expand(kind, arg, cap)
        if not terms:
            return []
        return self.search(" ".join(terms), k=k, threshold=threshold,
                           mode="or", cfg=cfg, where=where,
                           order_by=order_by, offset=offset)

    def search_prefix(self, prefix: str, k=None, threshold=None,
                      cfg: EngineConfig = DEFAULT_CONFIG,
                      max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Prefix top-k (driver-side expansion against the global terms
        table, then the ordinary scatter-gather)."""
        return self._search_expanded("prefix", prefix, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_phrase_prefix(self, phrase: str, k=None, threshold=None,
                             cfg: EngineConfig = DEFAULT_CONFIG,
                             offset: int = 0, slop: int = 0,
                             max_expansions: "int | None" = None):
        """Search-as-you-type (driver-side completion against the
        global terms table, one scatter-gather phrase query per
        completion, per-doc max-merge — see
        :meth:`DocPartSearcher.search_phrase_prefix`)."""
        return _phrase_prefix_composed(
            self, self._ensure_expander(), phrase, k, threshold, cfg,
            offset, slop, max_expansions,
        )

    def search_fuzzy(self, term: str, k=None, threshold=None,
                     cfg: EngineConfig = DEFAULT_CONFIG,
                     max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Levenshtein-≤1 fuzzy top-k (driver-side expansion)."""
        return self._search_expanded("fuzzy", term, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_wildcard(self, pattern: str, k=None, threshold=None,
                        cfg: EngineConfig = DEFAULT_CONFIG,
                        max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Glob wildcard top-k (driver-side expansion)."""
        return self._search_expanded("wildcard", pattern, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_regex(self, pattern: str, k=None, threshold=None,
                     cfg: EngineConfig = DEFAULT_CONFIG,
                     max_expansions: "int | None" = None,
                      where=None, order_by=None, offset: int = 0):
        """Anchored-regex top-k (driver-side expansion)."""
        return self._search_expanded("regex", pattern, k, threshold, cfg,
                                     max_expansions, where, order_by, offset)

    def search_many(
        self,
        queries: list[str],
        k: int | None = None,
        threshold: float | None = None,
        mode: str = "or",
        cfg: EngineConfig = DEFAULT_CONFIG,
        where=None,
        offset: int = 0,
    ) -> list[list[tuple[int, float]]]:
        """Pipelined scatter-gather: every (query, actor) call is
        submitted up front so the shard actors stream through the whole
        query batch back-to-back — the serving-THROUGHPUT path (each
        result list is identical to ``search`` of the same query).  The
        driver does only the tiny per-query top-k merge."""
        k = cfg.default_k if k is None else k
        threshold = cfg.default_threshold if threshold is None else threshold
        kk = k + offset
        futures = [
            [a.search.remote(q, kk, threshold, mode, where)
             for a in self.actors]
            for q in queries
        ]
        return [
            self._merge(ray.get(row), kk, threshold)[offset:]
            for row in futures
        ]
