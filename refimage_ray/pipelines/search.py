"""Search-engine pipelines over the driver's ``documents`` tables.

Each function takes ``sf_dir`` and returns an Arrow table; these back
the ``queries()`` entries in ``__ray_entry__.py``.  The inverted index
for a given corpus is built once per process+sf_dir (lazy cache under
/tmp) — mirroring the reference's build/serve phase split
(``/root/reference/src/refimage/api.py:851-852``: ingest and index
build are separate phases).

Determinism note: BM25 scores are rounded to 4 decimals ONLY at this
API boundary so DuckDB float64 oracles (different summation order)
hash-match; the engine itself keeps full float64 (rank-identity vs the
Python oracle is asserted unrounded in tests).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.build import build_index
from refimage_ray.index.manifest import load_manifest
from refimage_ray.query.dsl import DSLExecutor
from refimage_ray.query.engine import LocalSearcher

SEARCH_CFG = EngineConfig(num_shards=16, salt_buckets=4, hot_df_fraction=0.05)

_searchers: dict[str, LocalSearcher] = {}


def _index_dir_for(sf_dir: str) -> str:
    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    # v3: docs/ additionally carries `n_chars` (numeric doc value for
    # decay boosts); the suffix invalidates older cached artifacts
    return f"/tmp/refimage_ray_cache/{tag}/index-v3"


def ensure_index(sf_dir: str, cfg: EngineConfig = SEARCH_CFG) -> str:
    """Build (or reuse) the inverted index over ``{sf_dir}/documents.parquet``.

    The documents table keeps its own doc_ids (no dedup — dedup is a
    separate operator) so SQL oracles see the same corpus.  ``lang``
    and ``source`` ride along into ``docs/`` as doc-value columns
    (query-time filters/facets).
    """
    index_dir = _index_dir_for(sf_dir)
    if load_manifest(index_dir) is None:
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text", "lang", "source", "n_chars"],
        )
        build_index(
            docs,
            index_dir,
            cfg,
            lineage=[{"path": os.path.join(sf_dir, "documents.parquet")}],
        )
    return index_dir


def searcher_for(sf_dir: str) -> LocalSearcher:
    index_dir = ensure_index(sf_dir)
    if index_dir not in _searchers:
        _searchers[index_dir] = LocalSearcher(index_dir)
    return _searchers[index_dir]


def _variant_searcher(
    sf_dir: str,
    suffix: str,
    cfg: EngineConfig,
    columns: "list[str] | None" = None,
    transform=None,
) -> LocalSearcher:
    """The ONE lazy build-if-no-manifest / cache-in-``_searchers``
    protocol behind every LocalSearcher variant (stemmed, title-field,
    …): read ``documents.parquet`` (optionally ``transform``-ed),
    build into ``{index_dir}{suffix}``, memoize the searcher.  Changes
    to the build/cache rule live here once."""
    index_dir = _index_dir_for(sf_dir) + suffix
    if load_manifest(index_dir) is None:
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=columns or ["doc_id", "text"],
        )
        if transform is not None:
            docs = docs.map_batches(transform, batch_format="pyarrow")
        build_index(docs, index_dir, cfg)
    if index_dir not in _searchers:
        _searchers[index_dir] = LocalSearcher(index_dir)
    return _searchers[index_dir]


def _stemmed_searcher(sf_dir: str) -> LocalSearcher:
    """Index built with the S-stemmer analysis chain
    (``EngineConfig(term_filter="s_stem")``) — separate artifact dir,
    same lazy build/serve split as :func:`searcher_for`."""
    return _variant_searcher(
        sf_dir, "-sstem",
        EngineConfig(num_shards=16, salt_buckets=4,
                     hot_df_fraction=0.05, term_filter="s_stem"),
    )


def bm25_topk_stemmed(
    sf_dir: str, query: str = "sparks joins tables", k: int = 10
) -> pa.Table:
    """BM25 top-k over an S-stemmed index (the Lucene analysis-chain
    analog, ``functions.text.s_stem``): plural query terms reach
    singular postings and vice versa because the SAME term filter runs
    at build (manifest-persisted) and query time.  The eval query is
    deliberately all-plural — on an unstemmed index it scores (almost)
    nothing, so the oracle match proves the chain ran on both sides."""
    return _hits_table(_stemmed_searcher(sf_dir).search(query, k=k,
                                                        mode="or"))


def _hits_table(hits: list[tuple[int, float]], round_to: int = 4) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in hits], pa.int64()),
            "score": pa.array([round(s, round_to) for _, s in hits], pa.float64()),
        }
    )


def bm25_topk(sf_dir: str, query: str = "spark join", k: int = 10) -> pa.Table:
    """Disjunctive BM25 top-k (the flagship query path)."""
    return _hits_table(searcher_for(sf_dir).search(query, k=k, mode="or"))


def bm25_topk_and(sf_dir: str, query: str = "data table scan", k: int = 10) -> pa.Table:
    """Conjunctive BM25 top-k (posting-list intersection path)."""
    return _hits_table(searcher_for(sf_dir).search(query, k=k, mode="and"))


def _docpart_searcher(sf_dir: str):
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned

    doc_dir = _index_dir_for(sf_dir) + "-docpart"
    if not os.path.exists(os.path.join(doc_dir, "manifest.json")):
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text", "lang", "source", "n_chars"],
        )
        build_doc_partitioned(
            docs, doc_dir, SEARCH_CFG, num_doc_shards=8,
            value_columns=["lang", "source", "n_chars"],
        )
    if doc_dir not in _searchers:
        _searchers[doc_dir] = DocPartSearcher(doc_dir)
    return _searchers[doc_dir]


def bm25_topk_docpart(sf_dir: str, query: str = "spark join", k: int = 10) -> pa.Table:
    """Same top-k over the DOC-partitioned index layout
    (``index/docpart.py``) — scatter-gather across doc shards, exact
    by construction, so it shares ``bm25_topk``'s SQL oracle."""
    return _hits_table(_docpart_searcher(sf_dir).search(query, k=k, mode="or"))


def bm25_topk_filtered_docpart(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """Filtered top-k over the doc-partitioned layout: each doc-shard
    applies the predicate against its shard-LOCAL doc values, so the
    filter never leaves the shard — same oracle as the term-partitioned
    ``bm25_topk_filtered`` except the lang-only predicate."""
    return _hits_table(
        _docpart_searcher(sf_dir).search(
            query, k=k, mode="or", where=[("lang", "=", "en")]
        )
    )


def facet_counts_docpart(sf_dir: str, query: str = "spark vector") -> pa.Table:
    """Facet panel over the doc-partitioned layout: per-shard partial
    counts merged additively (exact — doc shards are disjoint); shares
    ``facet_counts_query``'s SQL oracle."""
    return _facet_table(
        _docpart_searcher(sf_dir).facets(query, by=["lang", "source"])
    )


def bm25_topk_prefix(sf_dir: str, prefix: str = "s", k: int = 10) -> pa.Table:
    """Prefix top-k (``s*``): term-dictionary expansion → disjunctive
    BM25 over the matches (Lucene prefix-query analog)."""
    return _hits_table(searcher_for(sf_dir).search_expanded("prefix", prefix,
                                                            k=k))


def bm25_topk_fuzzy(sf_dir: str, term: str = "sow", k: int = 10) -> pa.Table:
    """Fuzzy top-k (``sow~``): Levenshtein-≤1 vocabulary expansion via
    a SymSpell deletion neighborhood → disjunctive BM25."""
    return _hits_table(searcher_for(sf_dir).search_expanded("fuzzy", term,
                                                            k=k))


def bm25_topk_wildcard(
    sf_dir: str, pattern: str = "s?a*", k: int = 10
) -> pa.Table:
    """Wildcard top-k (``s?a*`` = SQL ``LIKE 's_a%'``): glob expansion
    against the term dictionary → disjunctive BM25 (Lucene
    wildcard-query analog)."""
    return _hits_table(searcher_for(sf_dir).search_expanded(
        "wildcard", pattern, k=k))


def bm25_topk_regex(
    sf_dir: str, pattern: str = "[a-z]*ow", k: int = 10
) -> pa.Table:
    """Regex top-k (anchored full-match, Lucene RegexpQuery analog):
    the leading-wildcard shape exercises the full-dictionary scan."""
    return _hits_table(searcher_for(sf_dir).search_expanded(
        "regex", pattern, k=k))


def bm25_topk_synonyms(sf_dir: str, query: str = "spark join", k: int = 10) -> pa.Table:
    """Synonym-expanded top-k: each query term unions its synonym set
    (tokenized with the index's tokenizer) before disjunctive scoring."""
    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            synonyms={"spark": ["stream"], "join": ["merge"]},
        )
    )


def more_like_this_topk(
    sf_dir: str, doc_id: int = 7, k: int = 10, top_terms: int = 5
) -> pa.Table:
    """More-like-this: the seed doc's ``top_terms`` highest-tf·idf
    terms (wmax-normalized weights) as an EXACT weighted OR query,
    seed doc excluded (``engine.more_like_this`` →
    ``search_weighted``)."""
    from refimage_ray.query.engine import more_like_this

    return _hits_table(
        more_like_this(
            searcher_for(sf_dir), doc_id, k=k, top_terms=top_terms,
            exclude_self=True,
        )
    )


def reindex_topk(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """ES ``_reindex``: stream the cached artifact's docs through a
    ``lang = 'en'`` predicate into a FRESH index, then search it.  The
    new artifact's scoring basis (N, avgdl, df) is the filtered corpus
    — unlike a query-time ``where=`` filter, which keeps corpus-wide
    stats — so the oracle scores over ``WHERE lang = 'en'`` documents
    only (``corpus_where``)."""
    from refimage_ray.index.lifecycle import reindex

    src = ensure_index(sf_dir)
    out = src + "-reindex-en"
    if load_manifest(out) is None:
        reindex(src, out, where={"lang": "en"})
    if out not in _searchers:
        _searchers[out] = LocalSearcher(out)
    return _hits_table(_searchers[out].search(query, k=k, mode="or"))


def bm25_topk_search_after(
    sf_dir: str, query: str = "data table", k: int = 10
) -> pa.Table:
    """Cursor pagination (ES search_after analog): page 1's last hit
    becomes the (score, doc_id) cursor; page 2 is the strict
    continuation of the (score desc, doc_id asc) total order — O(k)
    per page at any depth, equal to ``LIMIT k OFFSET k`` by
    construction (which is the SQL oracle)."""
    s = searcher_for(sf_dir)
    page1 = s.search(query, k=k)
    if len(page1) < k:
        return _hits_table([])
    return _hits_table(s.search(query, k=k, after=page1[-1]))


def bm25_topk_min_match(
    sf_dir: str, query: str = "spark join scan", m: int = 2, k: int = 10
) -> pa.Table:
    """minimum_should_match top-k (Lucene analog): docs matching at
    least ``m`` distinct query terms, scored over the terms they match
    — an OR whose membership is tightened (m=1 ≡ OR, m=|q| ≡ AND)."""
    return _hits_table(
        searcher_for(sf_dir).search(query, k=k, mode="or", min_match=m)
    )


#: fixed evaluation query set for rank_eval (relevance judgments are
#: derived, so the set is arbitrary but must be stable)
EVAL_QUERIES: tuple[str, ...] = ("spark join", "data table scan",
                                 "vector index")


def rank_eval(sf_dir: str, k: int = 10) -> pa.Table:
    """Retrieval-quality evaluation (the ES ``_rank_eval`` analog — the
    measurement step every relevance-tuning loop runs): for each eval
    query, precision@k, recall@k and binary-relevance NDCG@k of the
    disjunctive BM25 ranking against a DERIVED relevance set (docs
    containing EVERY query term — conjunctive membership, so the
    judgment list is deterministic and SQL-mirrored; a production run
    would read human judgments instead).

    DCG discounts use ``ln(rank+1)/ln(2)`` on BOTH the engine and SQL
    sides — DuckDB's ``log2`` differs from ``np.log2`` by 1 ULP at some
    arguments, while ``ln`` parity is proven by every BM25 value
    oracle.  Scale shape: ranking and membership are searcher ops over
    the resident index; nothing scans the corpus."""
    import numpy as np

    s = searcher_for(sf_dir)
    ex = DSLExecutor(s)
    ln2 = float(np.log(2.0))
    out = {"query": [], "n_rel": [], "rel_at_k": [],
           "precision_at_k": [], "recall_at_k": [], "ndcg_at_k": []}
    for q in EVAL_QUERIES:
        ranked = [d for d, _ in s.search(q, k=k, mode="or")]
        rel = {d for d, _ in
               ex.execute_query(" AND ".join(q.split()), limit=10**9)}
        flags = np.array([d in rel for d in ranked], dtype=np.float64)
        ranks = np.arange(1, len(ranked) + 1, dtype=np.float64)
        dcg = float(np.sum(flags / (np.log(ranks + 1.0) / ln2)))
        n_rel = len(rel)
        ideal = np.arange(1, min(n_rel, k) + 1, dtype=np.float64)
        idcg = float(np.sum(1.0 / (np.log(ideal + 1.0) / ln2)))
        out["query"].append(q)
        out["n_rel"].append(n_rel)
        out["rel_at_k"].append(int(flags.sum()))
        out["precision_at_k"].append(round(float(flags.sum()) / k, 6))
        out["recall_at_k"].append(
            round(float(flags.sum()) / n_rel, 6) if n_rel else 0.0
        )
        out["ndcg_at_k"].append(round(dcg / idcg, 6) if idcg > 0 else 0.0)
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "n_rel": pa.array(out["n_rel"], pa.int64()),
        "rel_at_k": pa.array(out["rel_at_k"], pa.int64()),
        "precision_at_k": pa.array(out["precision_at_k"], pa.float64()),
        "recall_at_k": pa.array(out["recall_at_k"], pa.float64()),
        "ndcg_at_k": pa.array(out["ndcg_at_k"], pa.float64()),
    })


def _membership(sf_dir: str, dsl_query: str) -> pa.Table:
    ex = DSLExecutor(searcher_for(sf_dir))
    hits = ex.execute_query(dsl_query, limit=10**9)
    ids = sorted(d for d, _ in hits)
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def search_and_membership(sf_dir: str) -> pa.Table:
    return _membership(sf_dir, "spark AND vector")


def search_or_membership(sf_dir: str) -> pa.Table:
    return _membership(sf_dir, "spark OR vector")


def search_not_membership(sf_dir: str) -> pa.Table:
    return _membership(sf_dir, "spark NOT vector")


def search_tag_membership(sf_dir: str) -> pa.Table:
    return _membership(sf_dir, "spark #en")


def search_facets(sf_dir: str, dsl_query: str = "spark OR vector") -> pa.Table:
    """Faceted search: per-``lang`` result counts + token mass over the
    INDEX's match set (the aggregation every search UI renders beside
    the hit list).  The match-id set comes from the DSL executor (the
    real search path, not a corpus scan); it is then a broadcast
    ``is_in`` filter over a pruned documents read — the small side
    ships once via ``ray.put``, the corpus never shuffles, and the
    groupby output is |langs| rows."""
    import pyarrow.compute as pc

    import ray
    from ray.data.aggregate import Count, Sum

    from refimage_ray.stages.tokenize import doc_lengths

    ids = _membership(sf_dir, dsl_query)["doc_id"].combine_chunks()
    ids_ref = ray.put(ids)

    def gate(b: pa.Table) -> pa.Table:
        hit = b.filter(pc.is_in(b["doc_id"], value_set=ray.get(ids_ref)))
        return pa.table(
            {
                "lang": hit["lang"],
                "dl": pa.array(doc_lengths(hit["text"]), pa.int64()),
            }
        )

    out = (
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "text"],
        )
        .map_batches(gate, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("dl", alias_name="sum_tokens"))
        .take_all()
    )
    out.sort(key=lambda r: r["lang"])
    return pa.table(
        {
            "lang": pa.array([r["lang"] for r in out], pa.string()),
            "n_docs": pa.array([int(r["n_docs"]) for r in out], pa.int64()),
            "sum_tokens": pa.array(
                [int(r["sum_tokens"]) for r in out], pa.int64()
            ),
        }
    )


def bm25_topk_decay(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """Function-scored top-k: BM25 × an exponential decay on the
    ``n_chars`` doc value (ES ``function_score`` decay analog,
    ``query/boost.py``) — shorter docs float up, f(0)=1, f(2000)=0.5.
    Exact evaluation (pruned θ is invalid under a boosted order), one
    vectorized factor multiply over the candidate set."""
    from refimage_ray.query.boost import DecaySpec

    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            boost=DecaySpec("n_chars", origin=0.0, scale=2000.0,
                            decay=0.5, kind="exp"),
        )
    )


def bm25_topk_decay_where(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """Decay boost composed with a doc-value filter (the two share the
    exact-evaluation path and its rank-aligned doc values)."""
    from refimage_ray.query.boost import DecaySpec

    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            where=[("lang", "=", "en")],
            boost=DecaySpec("n_chars", origin=0.0, scale=2000.0,
                            decay=0.5, kind="exp"),
        )
    )


def bm25_topk_filtered(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """Filtered top-k: BM25 over docs passing a doc-value predicate
    (``lang = 'en' AND doc_len >= 40``) — the metadata-filter half of
    every real search API, evaluated as a rank-aligned mask probe (no
    metadata join at query time; see ``index/docvalues.py``)."""
    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            where=[("doc_len", ">=", 40), ("lang", "=", "en")],
        )
    )


def export_matches(sf_dir: str, query: str = "spark vector") -> pa.Table:
    """The query's FULL match set as a streaming Dataset (the
    scroll/export-all path, ``pipelines/export.matches_dataset``):
    term-pruned partition reads → per-batch decode+combine → one
    narrow groupby → large-large hash_join for the payload column."""
    from refimage_ray.pipelines.export import matches_table

    t = matches_table(
        ensure_index(sf_dir), query, mode="or", columns=["lang"]
    )
    return t.select(["doc_id", "n_terms", "lang"]).sort_by(
        [("doc_id", "ascending")]
    )


def export_matches_and(sf_dir: str, query: str = "spark vector") -> pa.Table:
    """Conjunctive flavor of the export (count threshold = |terms|)."""
    from refimage_ray.pipelines.export import matches_table

    t = matches_table(ensure_index(sf_dir), query, mode="and")
    return t.select(["doc_id", "n_terms"]).sort_by([("doc_id", "ascending")])


def significant_terms_query(
    sf_dir: str, query: str = "spark join", sample_n: int = 200,
    min_doc_count: int = 5, top: int = 15,
) -> pa.Table:
    """ES significant_terms over the query's top-sample (see
    ``engine.significant_terms``) — relative-risk scores vs the
    corpus background, deterministic sample by the engine's total
    order."""
    from refimage_ray.query.engine import significant_terms

    rows = significant_terms(
        searcher_for(sf_dir), query, sample_n=sample_n,
        min_doc_count=min_doc_count, top=top,
    )
    return pa.table(
        {
            "term": pa.array([r["term"] for r in rows], pa.string()),
            "doc_count": pa.array([r["doc_count"] for r in rows], pa.int64()),
            "bg_count": pa.array([r["bg_count"] for r in rows], pa.int64()),
            "score": pa.array(
                [round(r["score"], 6) for r in rows], pa.float64()
            ),
        }
    )


def doc_term_vector_query(sf_dir: str, doc_id: int = 42) -> pa.Table:
    """Per-doc term vector (ES _termvectors): (term, tf, first_pos)
    from the artifact's point lookup + the index tokenizer
    (``engine.doc_term_vector``)."""
    from refimage_ray.query.engine import doc_term_vector

    rows = doc_term_vector(ensure_index(sf_dir), doc_id)
    return pa.table(
        {
            "term": pa.array([r["term"] for r in rows], pa.string()),
            "tf": pa.array([r["tf"] for r in rows], pa.int64()),
            "first_pos": pa.array(
                [r["positions"][0] for r in rows], pa.int64()
            ),
        }
    )


def bm25_topk_ordered_multi(
    sf_dir: str, query: str = "spark", k: int = 10
) -> pa.Table:
    """Multi-key field ordering (the ES sort-array shape): match set
    ordered by (lang asc, n_chars desc), doc_id asc tie — secondary
    keys only decide WITHIN equal primaries, exactly SQL ORDER BY."""
    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            order_by=[("lang", "asc"), ("n_chars", "desc")],
        )
    )


def lifecycle_compact_topk(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """The delete→compact lifecycle under the value oracle: tombstone
    every 7th doc (doc_id % 7 == 0), physically compact (stats/weights
    refreshed over the live corpus), then search — the oracle scores
    BM25 over ``documents WHERE doc_id % 7 <> 0`` with the live
    N/avgdl/df basis, so a stale-stats bug would hash-mismatch."""
    import shutil

    from refimage_ray.index.lifecycle import compact_index, delete_docs
    from refimage_ray.index.manifest import load_manifest

    base = ensure_index(sf_dir)
    out = base + "-lc-compact"
    if load_manifest(out) is None:
        import pyarrow.parquet as pq

        work = base + "-lc-work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(base, work)
        ids = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )["doc_id"].to_numpy(zero_copy_only=False)
        delete_docs(work, [int(d) for d in ids if d % 7 == 0])
        shutil.rmtree(out, ignore_errors=True)
        compact_index(work, out, SEARCH_CFG)
    if out not in _searchers:
        _searchers[out] = LocalSearcher(out)
    return _hits_table(_searchers[out].search(query, k=k, mode="or"))


def docpart_add_topk(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """The incremental-add lifecycle on the doc-partitioned layout:
    build over the even doc_ids, ``add_documents_docpart`` the odd
    half (delta build + shard merge, weights recomputed against the
    union avgdl), then search — must equal a monolithic build, so it
    shares ``bm25_topk``'s full-corpus oracle."""
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned
    from refimage_ray.index.docpart_lifecycle import add_documents_docpart

    base = _index_dir_for(sf_dir) + "-dp-even"
    out = _index_dir_for(sf_dir) + "-dp-added"
    if not os.path.exists(os.path.join(out, "manifest.json")):
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        import pyarrow.compute as pc

        def _half(parity: int):
            return docs.map_batches(
                lambda b, p=parity: b.filter(
                    pc.equal(pc.bit_wise_and(b["doc_id"], 1), p)
                ),
                batch_format="pyarrow",
            )

        even, odd = _half(0), _half(1)
        build_doc_partitioned(even, base, SEARCH_CFG, num_doc_shards=8)
        add_documents_docpart(base, odd, out, SEARCH_CFG)
    if out not in _searchers:
        _searchers[out] = DocPartSearcher(out)
    return _hits_table(_searchers[out].search(query, k=k, mode="or"))


def bm25_topk_filtered_or(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """DNF-filtered top-k: the doc-value predicate is an OR of
    conjunctions (``(lang='en' AND doc_len>=40) OR lang='fr'`` — the ES
    bool should-filter shape; see ``docvalues.normalize_dnf``)."""
    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or",
            where={"or": [
                [("lang", "=", "en"), ("doc_len", ">=", 40)],
                [("lang", "=", "fr")],
            ]},
        )
    )


def phrase_topk(sf_dir: str, phrase: str = "table scan", k: int = 10) -> pa.Table:
    """Exact-phrase top-k: conjunctive candidates + adjacency
    verification (``engine.search_phrase``); scores are the BM25
    scores of the phrase's terms."""
    return _hits_table(searcher_for(sf_dir).search_phrase(phrase, k=k))


def phrase_topk_slop(
    sf_dir: str, phrase: str = "data join", k: int = 10, slop: int = 2
) -> pa.Table:
    """Proximity-phrase top-k: ordered occurrence with ≤ ``slop``
    interleaved tokens per consecutive pair (the match-phrase slop
    knob; see ``engine.search_phrase``)."""
    return _hits_table(searcher_for(sf_dir).search_phrase(phrase, k=k, slop=slop))


def bm25_topk_phrase_prefix(
    sf_dir: str, phrase: str = "data ta", k: int = 10
) -> pa.Table:
    """Search-as-you-type phrase top-k (ES ``match_phrase_prefix``):
    the last token is a prefix completed against the term dictionary,
    each completion verified as an exact phrase; docs score the max
    over matching completions (``engine.search_phrase_prefix``)."""
    return _hits_table(
        searcher_for(sf_dir).search_phrase_prefix(phrase, k=k)
    )


def bm25_topk_near(
    sf_dir: str, query: str = "spark join", k: int = 10, window: int = 3
) -> pa.Table:
    """Unordered-proximity top-k (classic NEAR/W): all distinct query
    terms within a ``window``-token span in ANY order — the order-free
    complement of ``phrase_topk_slop`` (``engine.search_near``)."""
    return _hits_table(
        searcher_for(sf_dir).search_near(query, window=window, k=k)
    )


def _title_searcher(sf_dir: str) -> LocalSearcher:
    """Second-field artifact for BM25F: the 'title' of each doc = its
    first 8 whitespace words (the corpus has no real title column; the
    derivation is mirrored verbatim in the SQL oracle).  Separate
    index dir, same lazy build/serve split as :func:`searcher_for` —
    fields are independent artifacts, the Lucene per-field shape."""
    import pyarrow.compute as pc

    def to_title(b: pa.Table) -> pa.Table:
        words = pc.split_pattern(b["text"], " ")
        title = pc.binary_join(pc.list_slice(words, 0, 8), " ")
        return pa.table({"doc_id": b["doc_id"], "text": title})

    return _variant_searcher(
        sf_dir, "-title", EngineConfig(num_shards=8, salt_buckets=2),
        transform=to_title,
    )


def bm25f_topk(
    sf_dir: str, query: str = "spark join", k: int = 10,
    title_weight: float = 3.0,
) -> pa.Table:
    """BM25F top-k over (body, title) field artifacts — per-field
    length-normalized tf summed across fields, saturated once
    (``query/fields.bm25f_search``); idf from the body field."""
    from refimage_ray.query.fields import bm25f_search

    hits = bm25f_search(
        {"body": (searcher_for(sf_dir), 1.0),
         "title": (_title_searcher(sf_dir), title_weight)},
        query, k=k, idf_field="body",
    )
    return _hits_table(hits)


def composite_buckets_page2(
    sf_dir: str, query: str = "the", size: int = 10
) -> pa.Table:
    """Second page of an ES composite aggregation over (lang, source)
    buckets of the query's match set — bucket pagination driven by the
    page-1 after_key exactly as a client would (``engine.composite``).
    After-key paging over key-ordered buckets ≡ OFFSET in SQL."""
    return _composite_page2(searcher_for(sf_dir), query, size)


def composite_buckets_page2_docpart(
    sf_dir: str, query: str = "the", size: int = 10
) -> pa.Table:
    """The same second composite page on the DOC-partitioned layout —
    the exact batch path (``index/docpart.DocPartSearcher.composite``:
    every shard returns its full bucket list past the cursor, so the
    ES shard_size truncation cannot occur) — and therefore shares the
    term layout's OFFSET oracle bucket for bucket."""
    return _composite_page2(_docpart_searcher(sf_dir), query, size)


def _composite_page2(s, query: str, size: int) -> pa.Table:
    by = ["lang", "source"]
    p1 = s.composite(query, by=by, size=size)
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "doc_count": pa.array([], pa.int64()),
        }
    )
    if p1["after_key"] is None:
        return empty
    p2 = s.composite(query, by=by, size=size, after=p1["after_key"])
    if not p2["buckets"]:
        return empty
    return pa.table(
        {
            "lang": pa.array([b["key"][0] for b in p2["buckets"]]),
            "source": pa.array([b["key"][1] for b in p2["buckets"]]),
            "doc_count": pa.array(
                [b["doc_count"] for b in p2["buckets"]], pa.int64()
            ),
        }
    )


def bm25_topk_rescored(
    sf_dir: str, query: str = "table scan", k: int = 10, window: int = 30
) -> pa.Table:
    """Two-phase rescoring (ES rescore window): BM25 top-``window``
    re-ranked by ``bm25 + 1/(1+min_gap)`` where min_gap is the closest
    co-occurrence distance of the two query terms
    (``engine.search_rescore``).  The oracle mirrors the window cut and
    the pairwise-gap proximity in SQL (2-term query: the pairwise-min
    generalization is pytest-pinned instead)."""
    return _hits_table(
        searcher_for(sf_dir).search_rescore(query, k=k, window=window)
    )


def search_count(sf_dir: str, query: str = "spark join stream") -> pa.Table:
    """Exact hit counts in every membership flavor (the ES ``_count``
    analog; see ``engine._SearcherBase.count``): disjunctive,
    conjunctive, min_match≥2, and doc-value-filtered — one row, four
    counts, no scoring anywhere."""
    s = searcher_for(sf_dir)
    return pa.table(
        {
            "n_or": pa.array([s.count(query, mode="or")], pa.int64()),
            "n_and": pa.array([s.count(query, mode="and")], pa.int64()),
            "n_min2": pa.array([s.count(query, mode="or", min_match=2)], pa.int64()),
            "n_or_en": pa.array(
                [s.count(query, mode="or", where=[("lang", "=", "en")])],
                pa.int64(),
            ),
        }
    )


def bm25_topk_ordered(sf_dir: str, query: str = "spark", k: int = 10) -> pa.Table:
    """Field-ordered results: the query's match set ordered by a
    doc-value column (``n_chars`` desc — the 'longest documents first'
    flavor of recency ranking) instead of score; scores still reported.
    ORDER BY + LIMIT at query time, from resident doc values."""
    return _hits_table(
        searcher_for(sf_dir).search(
            query, k=k, mode="or", order_by=("n_chars", "desc")
        )
    )


def bm25_topk_ordered_docpart(
    sf_dir: str, query: str = "spark", k: int = 10
) -> pa.Table:
    """Field-ordered results on the DOC-partitioned layout: each shard
    returns its top page under the shared (n_chars desc, doc_id asc)
    total order and the merge re-sorts on decoded values — exact
    (disjoint shards), so it shares ``bm25_topk_ordered``'s oracle."""
    return _hits_table(
        _docpart_searcher(sf_dir).search(
            query, k=k, mode="or", order_by=("n_chars", "desc")
        )
    )


def _docpart_pos_searcher(sf_dir: str):
    """Positional doc-partitioned artifact (rescore needs positions —
    the layout keeps no text store to fall back to)."""
    from refimage_ray.index.docpart import (
        DocPartSearcher,
        build_doc_partitioned,
    )

    doc_dir = _index_dir_for(sf_dir) + "-docpart-pos"
    if not os.path.exists(os.path.join(doc_dir, "manifest.json")):
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        build_doc_partitioned(
            docs, doc_dir, SEARCH_CFG.with_(store_positions=True),
            num_doc_shards=8,
        )
    if doc_dir not in _searchers:
        _searchers[doc_dir] = DocPartSearcher(doc_dir)
    return _searchers[doc_dir]


def bm25_topk_rescored_docpart(
    sf_dir: str, query: str = "table scan", k: int = 10, window: int = 30
) -> pa.Table:
    """Two-phase rescore on the doc-partitioned layout: exact global
    BM25 window via the scatter, per-shard positional min-gap combine —
    identical semantics to ``bm25_topk_rescored``, so it shares its
    SQL oracle."""
    return _hits_table(
        _docpart_pos_searcher(sf_dir).search_rescore(
            query, k=k, window=window
        )
    )


def bm25_topk_page2(
    sf_dir: str, query: str = "spark join", k: int = 10, offset: int = 10
) -> pa.Table:
    """Search pagination: page 2 of the ranked result list (LIMIT k
    OFFSET n over the engine's deterministic total order — fetch
    k+offset, slice)."""
    return _hits_table(
        searcher_for(sf_dir).search(query, k=k, mode="or", offset=offset)
    )


def suggest_terms(sf_dir: str, probe: str = "sow") -> pa.Table:
    """Did-you-mean suggestions for a misspelled probe: every
    vocabulary term within Levenshtein ≤ 1, with its df — the SymSpell
    deletion-neighborhood lookup, SQL-checkable via ``levenshtein``."""
    rows = searcher_for(sf_dir).suggest(probe, max_suggestions=10**9)
    return pa.table(
        {
            "term": pa.array([r["term"] for r in rows], pa.string()),
            "df": pa.array([r["df"] for r in rows], pa.int64()),
        }
    )


_phrase_suggesters: dict = {}


def suggest_phrase(
    sf_dir: str, probe: str = "tabl scann", round_to: int = 4
) -> pa.Table:
    """Phrase-level did-you-mean (ES phrase-suggester analog): the
    per-term Levenshtein-≤1 candidate sequence maximizing the corpus
    add-1 bigram LM — context picks the correction, not just term
    frequency (``query/suggest.PhraseSuggester``).  Score =
    ln p_uni(w1) + Σ ln p(wi|wi-1), mirrored float-for-float in the
    SQL oracle."""
    from refimage_ray.query.suggest import PhraseSuggester
    from refimage_ray.stages.lm import train_bigram_lm

    if sf_dir not in _phrase_suggesters:
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        _phrase_suggesters[sf_dir] = PhraseSuggester(train_bigram_lm(docs))
    phrase, score = _phrase_suggesters[sf_dir].suggest(probe)
    return pa.table(
        {
            "suggestion": pa.array([phrase], pa.string()),
            "score": pa.array([round(score, round_to)], pa.float64()),
        }
    )


def bm25_grouped_by_lang(
    sf_dir: str, query: str = "spark join", k_per_group: int = 3
) -> pa.Table:
    """Grouped top-k: the best ``k_per_group`` hits per ``lang`` over
    the match set (result diversification / ES top_hits analog) — one
    exact evaluation + a single lexsort, no per-group loop."""
    rows = searcher_for(sf_dir).search_grouped(
        query, by="lang", k_per_group=k_per_group
    )
    return pa.table(
        {
            "grp": pa.array([g for g, _, _ in rows], pa.string()),
            "doc_id": pa.array([d for _, d, _ in rows], pa.int64()),
            "score": pa.array([round(s, 4) for _, _, s in rows],
                              pa.float64()),
        }
    )


def _facet_table(f: dict, cols: tuple = ("lang", "source")) -> pa.Table:
    """(facet, value, n_docs) rows from a ``facets()`` result dict."""
    facets, values, counts = [], [], []
    for col in cols:
        for v, n in f["facets"][col]:
            facets.append(col)
            values.append(v)
            counts.append(n)
    return pa.table(
        {
            "facet": pa.array(facets, pa.string()),
            "value": pa.array(values, pa.string()),
            "n_docs": pa.array(counts, pa.int64()),
        }
    )


def facet_counts_query(sf_dir: str, query: str = "spark vector") -> pa.Table:
    """Search-time facet panel: lang + source value counts over the
    FULL match set of a disjunctive query, from resident doc values
    (one bincount per facet — no corpus scan, unlike the batch
    ``search_facets`` pipeline)."""
    return _facet_table(
        searcher_for(sf_dir).facets(query, by=["lang", "source"])
    )


def facet_lang_token_sums(sf_dir: str, query: str = "data") -> pa.Table:
    """Sub-aggregation facet: per-lang SUM of doc_len over the match
    set (the 'token mass per language' panel) — one weighted bincount
    over resident doc values, no corpus scan."""
    f = searcher_for(sf_dir).facets(query, sums={"lang": "doc_len"})
    pairs = f["sums"]["lang"]
    return pa.table(
        {
            "value": pa.array([v for v, _ in pairs], pa.string()),
            "sum_doc_len": pa.array([int(s) for _, s in pairs], pa.int64()),
        }
    )


def facet_doclen_hist(sf_dir: str, query: str = "data", width: int = 50) -> pa.Table:
    """Histogram facet: fixed-width ``doc_len`` buckets over the match
    set (the numeric-aggregation flavor of the facet panel)."""
    f = searcher_for(sf_dir).facets(query, histograms={"doc_len": width})
    buckets = f["histograms"]["doc_len"]
    return pa.table(
        {
            "bucket": pa.array([b for b, _ in buckets], pa.int64()),
            "n_docs": pa.array([n for _, n in buckets], pa.int64()),
        }
    )


def bm25_topk_runtime_filtered(
    sf_dir: str, query: str = "spark join", k: int = 10,
    min_ratio: float = 5.05,
) -> pa.Table:
    """Runtime-field filter (ES runtime mappings): chars-per-token =
    n_chars / doc_len computed ONCE from resident doc values, then
    filtered like any stored column; the oracle mirrors the same
    float64 division over the same integers, so comparisons agree
    bit-for-bit."""
    s = searcher_for(sf_dir)
    dv = s.doc_values(["n_chars", "doc_len"])
    if "chars_per_tok" not in dv.cols:
        s.define_runtime_field(
            "chars_per_tok", ["n_chars", "doc_len"],
            lambda c: c["n_chars"].astype(np.float64)
            / np.maximum(c["doc_len"].astype(np.float64), 1.0),
        )
    return _hits_table(
        s.search(query, k=k, where=[("chars_per_tok", ">=", min_ratio)])
    )


def facet_doclen_pct(
    sf_dir: str, query: str = "data", qs: tuple = (0.5, 0.9)
) -> pa.Table:
    """Exact percentiles facet (ES percentiles agg, exact): doc_len
    value at rank ceil(q·n) over the match set — np.partition
    selection over resident doc values, mirrored by one row_number
    window in SQL."""
    f = searcher_for(sf_dir).facets(query, percentiles={"doc_len": list(qs)})
    pairs = f["percentiles"]["doc_len"]
    return pa.table({
        "q": pa.array([q for q, _ in pairs], pa.float64()),
        "value": pa.array([v for _, v in pairs], pa.float64()),
    })


def facet_month_hist(
    sf_dir: str, query: str = "data", interval: str = "month"
) -> pa.Table:
    """Calendar date_histogram facet (ES parity): month buckets of a
    timestamp doc value over the match set.  The documents table has no
    timestamp, so the index derives one deterministically from doc_id
    (base 2023-01-01 + (id%397) days + (id%1440) minutes — ~13 months
    of spread) and the SQL oracle computes the SAME expression, making
    the irregular-width truncation fully value-checked."""
    base = int(np.datetime64("2023-01-01", "us").astype(np.int64))

    def add_ts(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = (base + (ids % 397) * 86_400_000_000
              + (ids % 1440) * 60_000_000)
        return b.append_column("ts", pa.array(us, pa.timestamp("us")))

    index_dir = _index_dir_for(sf_dir) + "-tsvals"
    if load_manifest(index_dir) is None:
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ).map_batches(add_ts, batch_format="pyarrow")
        build_index(docs, index_dir, SEARCH_CFG)
    f = LocalSearcher(index_dir).facets(
        query, date_histograms={"ts": interval}
    )
    buckets = f["date_histograms"]["ts"]
    return pa.table({
        "bucket": pa.array(
            np.array([b for b, _ in buckets], np.int64), pa.timestamp("us")
        ),
        "n_docs": pa.array([n for _, n in buckets], pa.int64()),
    })


def index_term_stats(sf_dir: str) -> pa.Table:
    """df / total-tf per term read back FROM THE INDEX ARTIFACT —
    checks posting-list construction end-to-end against SQL."""
    from refimage_ray.index.reader import IndexReader

    reader = IndexReader(ensure_index(sf_dir))
    terms = reader.load_shards(None)
    names = sorted(terms)
    return pa.table(
        {
            "term": pa.array(names, pa.string()),
            "df": pa.array([terms[t].df for t in names], pa.int64()),
            "total_tf": pa.array([int(terms[t].tfs.sum()) for t in names], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# percolation (reverse search)
# ---------------------------------------------------------------------------

#: the stored rule set for the contract query — one rule per leaf
#: family the percolator supports (boolean, negation, phrase, prefix
#: expansion, tag filter)
PERCOLATE_QUERIES = {
    "q_and": "spark AND vector",
    "q_or_not": "data OR graph NOT sql",
    "q_phrase": '"table scan"',
    "q_prefix": "netw*",
    "q_tag_and": "spark #en",
}


def percolate_matches(sf_dir: str) -> pa.Table:
    """Reverse search: stream the corpus through the STORED query set
    (``stages.percolate``) and return every ``(query_id, doc_id)``
    match.  The corpus is read once (pruned columns), never shuffled;
    queries compile once per actor.  Unlike the scoring-side expansion
    queries, percolation applies NO ``max_expansions`` cap — it is
    boolean membership, so the SQL oracle is exact."""
    from refimage_ray.stages.percolate import PERCOLATE_SCHEMA, percolate

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    rows = percolate(docs, PERCOLATE_QUERIES).sort(["query_id", "doc_id"]).take_all()
    return pa.Table.from_pylist(rows, schema=PERCOLATE_SCHEMA)


def nrt_delta_topk(
    sf_dir: str, query: str = "stream window state", k: int = 10
) -> pa.Table:
    """NRT contract query: the LOWER half of the corpus (by doc_id) is
    a built artifact, the upper half is added through the in-memory
    delta buffer (``query/nrt.DeltaSearcher``) — and the oracle is
    plain BM25 over the FULL documents table, because NRT merged
    statistics make base ∪ buffer bit-identical to a full rebuild."""
    import pyarrow.compute as pc2
    import pyarrow.parquet as pq2

    from refimage_ray.query.nrt import DeltaSearcher

    base_dir = _index_dir_for(sf_dir) + "-nrtbase"
    docs_path = os.path.join(sf_dir, "documents.parquet")
    ids = np.sort(
        pq2.read_table(docs_path, columns=["doc_id"])["doc_id"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    cut = int(ids[len(ids) // 2])
    if load_manifest(base_dir) is None:
        lower = rd.read_parquet(docs_path, columns=["doc_id", "text"]).filter(
            expr=f"doc_id < {cut}"
        )
        build_index(lower, base_dir, SEARCH_CFG)
    delta = DeltaSearcher(base_dir)
    upper = pq2.read_table(docs_path, columns=["doc_id", "text"])
    delta.add(upper.filter(pc2.greater_equal(upper["doc_id"], cut)))
    return _hits_table(delta.search(query, k=k))


def nrt_docpart_delta_topk(
    sf_dir: str, query: str = "stream window state", k: int = 10
) -> pa.Table:
    """NRT on the DOC-PARTITIONED serving layout: lower half of the
    corpus is a built docpart artifact, the upper half goes through
    ``query/nrt.DocPartDeltaSearcher`` (buffered postings routed to
    their hash shard; shard views reweighted under merged stats) —
    same full-corpus BM25 oracle as ``nrt_delta_topk`` because the
    merge is bit-identical to a full rebuild."""
    import pyarrow.compute as pc2
    import pyarrow.parquet as pq2

    from refimage_ray.index.docpart import build_doc_partitioned
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir = _index_dir_for(sf_dir) + "-dpnrtbase"
    docs_path = os.path.join(sf_dir, "documents.parquet")
    ids = np.sort(
        pq2.read_table(docs_path, columns=["doc_id"])["doc_id"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    cut = int(ids[len(ids) // 2])
    if not os.path.exists(os.path.join(base_dir, "manifest.json")):
        lower = rd.read_parquet(
            docs_path, columns=["doc_id", "text"]
        ).filter(expr=f"doc_id < {cut}")
        build_doc_partitioned(lower, base_dir, SEARCH_CFG,
                              num_doc_shards=8)
    delta = DocPartDeltaSearcher(base_dir)
    upper = pq2.read_table(docs_path, columns=["doc_id", "text"])
    delta.add(upper.filter(pc2.greater_equal(upper["doc_id"], cut)))
    return _hits_table(delta.search(query, k=k))


def rollover_topk(
    sf_dir: str, query: str = "stream window state", k: int = 10
) -> pa.Table:
    """Rollover-group contract query: the corpus is ingested in THREE
    doc-id tertile slices into an ``index/rollover.py`` group sized so
    the first generation seals (force-merges) after the second ingest —
    the search federates a sealed merged artifact + an open segment.
    Oracle: plain BM25 over the FULL documents table, because the
    group's merged-stats federation is bit-identical to a monolithic
    rebuild regardless of ingest slicing (tests/test_rollover.py)."""
    import pyarrow.parquet as pq2

    from refimage_ray.index.rollover import (
        group_parts, group_searcher, ingest,
    )

    group_dir = _index_dir_for(sf_dir) + "-rollover"
    docs_path = os.path.join(sf_dir, "documents.parquet")
    if not group_parts(group_dir):
        ids = np.sort(
            pq2.read_table(docs_path, columns=["doc_id"])["doc_id"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n = len(ids)
        cut1, cut2 = int(ids[n // 3]), int(ids[2 * n // 3])
        preds = [
            f"doc_id < {cut1}",
            f"doc_id >= {cut1} and doc_id < {cut2}",
            f"doc_id >= {cut2}",
        ]
        for i, pred in enumerate(preds):
            part = rd.read_parquet(
                docs_path, columns=["doc_id", "text"]
            ).filter(expr=pred)
            # gen 1 holds tertiles 1+2 and seals on the 2nd ingest
            ingest(group_dir, part, SEARCH_CFG if i == 0 else None,
                   max_docs=2 * (n // 3))
    return _hits_table(group_searcher(group_dir).search(query, k=k))


def bm25_topk_decay_docpart(
    sf_dir: str, query: str = "spark join", k: int = 10
) -> pa.Table:
    """Decay boost over the doc-partitioned layout: each shard boosts
    from its shard-LOCAL n_chars doc values (per-doc factor, so the
    disjoint top-k merge stays exact) — shares ``bm25_topk_decay``'s
    oracle."""
    from refimage_ray.query.boost import DecaySpec

    return _hits_table(
        _docpart_searcher(sf_dir).search(
            query, k=k, mode="or",
            boost=DecaySpec("n_chars", origin=0.0, scale=2000.0,
                            decay=0.5, kind="exp"),
        )
    )


def federated_topk(
    sf_dir: str, query: str = "merge sort index", k: int = 10
) -> pa.Table:
    """Federation contract query: the corpus split into THREE
    independently-built artifacts (by doc_id range), searched as one
    via ``query/multi.MultiSearcher`` — merged global stats make the
    federation bit-identical to a monolithic index, so the oracle is
    plain BM25 over the whole documents table."""
    import pyarrow.parquet as pq2

    from refimage_ray.query.multi import MultiSearcher

    docs_path = os.path.join(sf_dir, "documents.parquet")
    ids = np.sort(
        pq2.read_table(docs_path, columns=["doc_id"])["doc_id"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    cuts = [int(ids[len(ids) // 3]), int(ids[2 * len(ids) // 3])]
    spans = [
        f"doc_id < {cuts[0]}",
        f"doc_id >= {cuts[0]} and doc_id < {cuts[1]}",
        f"doc_id >= {cuts[1]}",
    ]
    dirs = []
    for i, span in enumerate(spans):
        d = _index_dir_for(sf_dir) + f"-fed{i}"
        if load_manifest(d) is None:
            part = rd.read_parquet(
                docs_path, columns=["doc_id", "text"]
            ).filter(expr=span)
            build_index(part, d, SEARCH_CFG)
        dirs.append(d)
    return _hits_table(MultiSearcher(dirs).search(query, k=k))
