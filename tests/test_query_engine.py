"""Query serving: distributed == local == oracle; threshold; join."""

import pyarrow as pa
import pytest

from refimage_ray.query.engine import (
    DistributedSearcher,
    LocalSearcher,
    lookup_docs,
)
from tests.conftest import FIXTURE_QUERIES


@pytest.fixture(scope="module")
def local(built_index):
    return LocalSearcher(built_index[0])


def test_distributed_matches_local(ray_session, built_index, local):
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()  # barrier: all shard actors postings-resident
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            assert d.search(q, k=10, mode=mode) == local.search(q, k=10, mode=mode), q


def test_threshold_filters(local, oracle):
    full = local.search("the data join", k=250, threshold=0.0)
    assert full
    cut = sorted(s for _, s in full)[len(full) // 2]
    got = local.search("the data join", k=250, threshold=cut)
    assert got == [(d, s) for d, s in full if s >= cut]


def test_k_bounds_results(local):
    assert len(local.search("the", k=3)) == 3
    assert len(local.search("qqqqzz", k=3)) == 0  # unknown term


def test_tie_break_by_doc_id(local):
    hits = local.search("the a data", k=200)
    for (d1, s1), (d2, s2) in zip(hits, hits[1:]):
        assert s1 > s2 or (s1 == s2 and d1 < d2)


def test_metadata_join_drops_missing(built_index, local):
    index_dir, _, _ = built_index
    ids = [d for d, _ in local.search("spark", k=5)]
    t = lookup_docs(index_dir, ids + [999999999])  # unknown id dropped (J1)
    assert set(t["doc_id"].to_pylist()) == set(ids)
    assert "url" in t.column_names and "text" not in t.column_names


def _kernel_topk(local, kernel, q, k, th, scorer="bm25"):
    """Top-k of one disjunctive kernel called directly on ``local``'s
    postings: the dense kernel answers universe ranks, the sparse ones
    doc ids; the pruned ones also take (k, threshold)."""
    import numpy as np

    from refimage_ray.extension import get_scorer
    from refimage_ray.query.engine import (
        _score_disjunctive_dense,
        _topk_disjunctive_blockmax,
        _topk_disjunctive_pruned,
    )
    from refimage_ray.query.scorer import idf, query_terms, topk_select

    terms = query_terms(local._tokenize(q))
    tmap, idf_fn = local.terms, idf
    if scorer != "bm25":
        tmap = local._rescore_map(tmap, scorer, terms)
        idf_fn = get_scorer(scorer).idf
    if kernel is _score_disjunctive_dense:
        ranks, sc = kernel(tmap, terms, local.n_docs, len(local.all_ids),
                           idf_fn)
        ids = local.all_ids[ranks]
    elif kernel in (_topk_disjunctive_pruned, _topk_disjunctive_blockmax):
        ids, sc = kernel(tmap, terms, local.n_docs, k, th, idf_fn)
    else:
        ids, sc = kernel(tmap, terms, local.n_docs, idf_fn)
    ids, sc = topk_select(np.asarray(ids, np.int64), sc, k, th)
    return list(zip(ids.tolist(), sc.tolist()))


def test_pruned_equals_full(local, oracle):
    """All four disjunctive scoring paths — dense-rank TAAT (default),
    MaxScore-pruned, Block-Max MaxScore, and full factorize — must be
    bit-identical."""
    from refimage_ray.query.engine import (
        _score_disjunctive,
        _score_disjunctive_dense,
        _topk_disjunctive_blockmax,
        _topk_disjunctive_pruned,
    )

    for q in FIXTURE_QUERIES + ["the", "the a w050", "spark the merge a"]:
        for k in (1, 3, 10, 50):
            for th in (0.0, 0.3, 1.0):
                full = _kernel_topk(local, _score_disjunctive, q, k, th)
                pruned = _kernel_topk(local, _topk_disjunctive_pruned,
                                      q, k, th)
                bmw = _kernel_topk(local, _topk_disjunctive_blockmax, q, k, th)
                densed = _kernel_topk(local, _score_disjunctive_dense,
                                      q, k, th)
                assert pruned == full == bmw == densed, (q, k, th)
                assert local.search(q, k=k, threshold=th) == full, (q, k, th)
                assert local.search(q, k=k, threshold=th, prune=False) == full
                assert local.search(q, k=k, threshold=th,
                                    prune="blockmax") == full, (q, k, th)


def test_dense_path_with_plugin_scorer(local):
    """The dense path's touched-mask branch (plugin scorers may emit
    non-positive contributions) matches the sparse path exactly."""
    from refimage_ray.query.engine import (
        _score_disjunctive,
        _score_disjunctive_dense,
    )

    for q in FIXTURE_QUERIES[:4]:
        a = _kernel_topk(local, _score_disjunctive_dense, q, 20, 0.0, "bm25l")
        b = _kernel_topk(local, _score_disjunctive, q, 20, 0.0, "bm25l")
        assert a == b, q
        assert local.search(q, k=20, scorer="bm25l", prune=False) == b, q


@pytest.fixture(scope="module")
def sparse_local(ray_session, tiny_docs, tmp_path_factory):
    """The fixture corpus plus six docs holding rare terms (df 1–3):
    every fixture term has df >= 30 of 250, so only these reach the
    auto switch's sparse arm (posting mass under 1/32 of the
    universe)."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index

    n = tiny_docs.num_rows
    extra = ["qrare1 qrare2 qrare3 the", "qrare2 qrare3 data qrare3",
             "qrare3 join", "qrare4", "qrare4 qrare4 spark", "qrare5 qrare2"]
    docs = pa.table({
        "doc_id": pa.array(range(n + len(extra)), pa.int64()),
        "text": tiny_docs["text"].to_pylist() + extra,
    })
    index_dir = str(tmp_path_factory.mktemp("sparse") / "idx")
    build_index(rd.from_arrow(docs), index_dir,
                EngineConfig(num_shards=8, salt_buckets=4))
    return LocalSearcher(index_dir)


def test_auto_switch_sparse_arm(sparse_local, monkeypatch):
    """A default search whose posting mass is under 1/32 of the
    universe takes the sparse MaxScore kernel (the dense kernel is not
    called) and equals the unpruned kernel."""
    from refimage_ray.query import engine
    from refimage_ray.query.engine import _score_disjunctive

    local = sparse_local
    universe = len(local.all_ids)

    def no_dense(*a, **kw):
        raise AssertionError("dense kernel on a sparse-regime query")

    monkeypatch.setattr(engine, "_score_disjunctive_dense", no_dense)
    for q in ("qrare1", "qrare2 qrare4", "qrare3 qrare5", "qrare1 qrare4"):
        assert sum(local.terms[t].df for t in q.split()) * 32 < universe, q
        for k in (1, 2, 3, 10):
            for th in (0.0, 1.0):
                want = _kernel_topk(local, _score_disjunctive, q, k, th)
                assert want and local.search(q, k=k, threshold=th) == want, \
                    (q, k, th)


def test_dsl_over_distributed_searcher(ray_session, built_index):
    """The DSL executor runs unchanged over the actor-pool searcher."""
    from refimage_ray.query.dsl import DSLExecutor

    local = DSLExecutor(LocalSearcher(built_index[0]))
    dist = DSLExecutor(DistributedSearcher(built_index[0], num_actors=2))
    for q in ("merge AND sort", "spark OR vector #en", "the NOT spark"):
        assert dist.execute_query(q, limit=50) == local.execute_query(q, limit=50)


def test_concurrent_searches_consistent(local):
    """50 concurrent searches return identical results to serial ones
    (reference analog: 50-concurrent-request load test,
    /root/reference/tests/test_driver_real.py:341-380)."""
    from concurrent.futures import ThreadPoolExecutor

    queries = [FIXTURE_QUERIES[i % len(FIXTURE_QUERIES)] for i in range(50)]
    serial = [local.search(q, k=10) for q in queries]
    with ThreadPoolExecutor(max_workers=10) as pool:
        concurrent = list(pool.map(lambda q: local.search(q, k=10), queries))
    assert concurrent == serial


def test_reader_handles_pre_dls_artifacts(built_index, tmp_path):
    """Artifacts written before the dls column existed stay readable;
    only plugin scorers (which need tf/dl) refuse."""
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq

    src = built_index[0]
    legacy = str(tmp_path / "legacy")
    shutil.copytree(src, legacy)
    for part in glob.glob(os.path.join(legacy, "part-*.parquet")):
        t = pq.read_table(part)
        pq.write_table(t.drop_columns(["dls"]), part)
    s_old = LocalSearcher(legacy)
    s_new = LocalSearcher(src)
    for q in FIXTURE_QUERIES[:4]:
        assert s_old.search(q, k=10) == s_new.search(q, k=10)
    with pytest.raises(ValueError, match="lacks per-posting doc lengths"):
        s_old.search("the", scorer="bm25l")


def test_phrase_search_matches_naive(local, tiny_docs):
    """Phrase hits == naive adjacency scan over the corpus; scores are
    the conjunctive BM25 scores of the phrase terms."""
    from refimage_ray.functions.text import tokenize
    from refimage_ray.query.engine import _contains_phrase

    texts = tiny_docs["text"].to_pylist()
    # pick an actually-occurring bigram from doc 3
    toks3 = tokenize(texts[3])
    phrase = f"{toks3[5]} {toks3[6]}"
    expected = {
        i for i, t in enumerate(texts)
        if _contains_phrase(tokenize(t), phrase.split())
    }
    assert 3 in expected
    hits = local.search_phrase(phrase, k=10000)
    assert {d for d, _ in hits} == expected
    # every phrase hit is also a conjunctive hit with the same score
    conj = dict(local.search(phrase, k=10000, mode="and"))
    for d, s in hits:
        assert conj[d] == s
    # nonsense phrase of real words (reversed) may match fewer docs
    rev = f"{toks3[6]} {toks3[5]}"
    rev_hits = {d for d, _ in local.search_phrase(rev, k=10000)}
    assert rev_hits == {
        i for i, t in enumerate(texts)
        if _contains_phrase(tokenize(t), rev.split())
    }


def test_phrase_in_dsl(built_index, local):
    from refimage_ray.query.dsl import DSLExecutor, DSLParser, PhraseQuery

    node = DSLParser().parse('"merge sort" #en')
    from refimage_ray.query.dsl import AndQuery

    assert isinstance(node, AndQuery)
    assert any(isinstance(o, PhraseQuery) for o in node.operands)
    fn_node = DSLParser().parse('PHRASE("merge sort")')
    assert isinstance(fn_node, PhraseQuery)

    ex = DSLExecutor(local)
    phrase_hits = {d for d, _ in ex.execute_query('"merge sort"', limit=100000)}
    loose_hits = {d for d, _ in ex.execute_query("merge sort", limit=100000)}
    assert phrase_hits <= loose_hits


def test_topk_select_boundary_ties_large_n():
    """Regression (ADVICE r1): argpartition's unordered tail dropped
    boundary-tied docs nondeterministically when n > max(4k, 1024).
    With many docs tied exactly at the k-th score, the winners must be
    the tied docs with the SMALLEST doc_ids, for every permutation."""
    import numpy as np

    from refimage_ray.query.scorer import topk_select

    rng = np.random.default_rng(7)
    n, k = 5000, 10
    scores = np.full(n, 1.0)
    scores[:200] = 2.0  # 200 docs tied above, rest tied at 1.0
    doc_ids = np.arange(n, dtype=np.int64)
    # expected: top-k are the k smallest doc_ids among the 2.0 group
    expected_ids = np.arange(k, dtype=np.int64)
    for _ in range(20):
        perm = rng.permutation(n)
        ids, sc = topk_select(doc_ids[perm], scores[perm], k, 0.0)
        assert np.array_equal(ids, expected_ids), ids
        assert np.all(sc == 2.0)
    # boundary tie AT the k-th slot: 5 docs at 2.0, k=10 → 5 winners
    # from the 1.0 pool must be the smallest remaining doc_ids
    scores2 = np.full(n, 1.0)
    scores2[:5] = 2.0
    for _ in range(20):
        perm = rng.permutation(n)
        ids, sc = topk_select(doc_ids[perm], scores2[perm], 10, 0.0)
        assert np.array_equal(ids[:5], np.arange(5)), ids
        assert np.array_equal(ids[5:], np.arange(5, 10)), ids


def test_topk_select_k_zero_and_small_n():
    import numpy as np

    from refimage_ray.query.scorer import topk_select

    ids, sc = topk_select(np.array([3, 1, 2]), np.array([1.0, 2.0, 2.0]), 0, 0.0)
    assert len(ids) == 0
    ids, sc = topk_select(np.array([3, 1, 2]), np.array([1.0, 2.0, 2.0]), 2, 0.0)
    assert list(ids) == [1, 2]


def test_stream_doc_bytes_chunked(built_index, tiny_docs):
    from refimage_ray.query.engine import stream_doc_bytes

    index_dir, _, _ = built_index
    want = tiny_docs["text"][5].as_py().encode("utf-8")
    chunks = list(stream_doc_bytes(index_dir, 5, chunk_size=64))
    assert all(len(c) <= 64 for c in chunks)
    assert len(chunks) >= 2            # actually chunked
    assert b"".join(chunks) == want    # byte-identical reassembly
    with pytest.raises(KeyError):
        next(stream_doc_bytes(index_dir, 10**12))


def test_blockmax_prunes_and_stays_exact_on_zipf_postings():
    """Property test of the Block-Max MaxScore path on randomized
    Zipf-like postings (rare high-weight terms + common low-weight
    ones, skewed weights within lists so block maxes differ): results
    must be bit-identical to the unpruned path, and on this shape the
    block-level bound must actually drop candidates (the synthetic
    bench corpus is pruning's worst case — every term a stopword —
    so this guards the code path with postings where pruning bites)."""
    import numpy as np

    from refimage_ray.index.reader import TermPostings
    from refimage_ray.query import engine as qe
    from refimage_ray.query.scorer import topk_select

    def make_postings(rng, n_docs, df, block_size=8):
        ids = np.sort(rng.choice(n_docs, size=df, replace=False)).astype(np.int64)
        # skewed weights: a few blocks carry large maxima
        w = rng.pareto(2.0, size=df) + 0.05
        nblk = (df + block_size - 1) // block_size
        blast = np.array(
            [ids[min((i + 1) * block_size, df) - 1] for i in range(nblk)],
            np.int64,
        )
        bmax = np.array(
            [w[i * block_size : (i + 1) * block_size].max() for i in range(nblk)],
            np.float64,
        )
        return TermPostings(
            df=df, doc_ids=ids, weights=w, tfs=np.ones(df, np.int64),
            max_weight=float(w.max()), block_last_doc=blast,
            block_max_weight=bmax,
        )

    rng = np.random.default_rng(7)
    n_docs = 4000
    pruned_any = False
    for trial in range(20):
        terms = sorted(f"t{i}" for i in range(rng.integers(2, 6)))
        tm = {
            t: make_postings(rng, n_docs, int(rng.integers(20, 2000)))
            for t in terms
        }
        for k in (1, 5, 20):
            ids_f, sc_f = qe._score_disjunctive(tm, terms, n_docs)
            full = topk_select(ids_f, sc_f, k, 0.0)
            ids_b, sc_b = qe._topk_disjunctive_blockmax(tm, terms, n_docs, k, 0.0)
            bmw = topk_select(ids_b, sc_b, k, 0.0)
            assert np.array_equal(full[0], bmw[0]) and np.array_equal(
                full[1], bmw[1]
            ), (trial, k)
            if len(ids_b) < len(np.unique(np.concatenate(
                    [tm[t].doc_ids for t in terms]))):
                pruned_any = True
    assert pruned_any  # block bound must bite somewhere on this shape


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(
        # few distinct score values → dense exact ties, the adversarial
        # regime for the argpartition path
        st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-12, 1.0, 2.0]),
        min_size=0, max_size=3000,
    ),
    k=st.integers(min_value=1, max_value=40),
    threshold=st.sampled_from([0.0, 0.25, 0.6]),
)
def test_topk_select_matches_naive_oracle(scores, k, threshold):
    """Property: topk_select == full (score desc, doc_id asc) sort +
    threshold + head(k), for any tie structure and any n (both the
    small-n direct path and the large-n argpartition path)."""
    import numpy as np

    from refimage_ray.query.scorer import topk_select

    sc = np.asarray(scores, dtype=np.float64)
    ids = np.arange(len(sc), dtype=np.int64) * 7 + 3  # non-contiguous ids
    # contract: threshold is INCLUSIVE and 0.0 disables filtering
    keep = sc >= threshold if threshold > 0.0 else np.ones(len(sc), bool)
    order = np.lexsort((ids[keep], -sc[keep]))
    exp_ids = ids[keep][order][:k]
    exp_sc = sc[keep][order][:k]
    got_ids, got_sc = topk_select(ids, sc, k, threshold)
    assert np.array_equal(got_ids, exp_ids)
    assert np.array_equal(got_sc, exp_sc)


def test_distributed_search_many_matches_search(ray_session, built_index, local):
    """Pipelined batch serving must return per-query results identical
    to one-at-a-time search (and to LocalSearcher)."""
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    batch = d.search_many(FIXTURE_QUERIES, k=10)
    assert batch == [local.search(q, k=10) for q in FIXTURE_QUERIES]
    # and mode/threshold plumb through
    batch_and = d.search_many(FIXTURE_QUERIES[:3], k=5, mode="and")
    assert batch_and == [d.search(q, k=5, mode="and") for q in FIXTURE_QUERIES[:3]]


def test_search_many_fetches_each_term_once(ray_session, built_index, local):
    """A batch with repeated queries must fetch each unique term's
    postings ONCE (the cache only fills at gather time, so a per-query
    issue loop would re-ship every repeated term's posting list)."""
    from refimage_ray.functions.text import tokenize
    from refimage_ray.query.scorer import query_terms

    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready(warm_hot_terms=False)
    qbatch = FIXTURE_QUERIES[:4] * 8  # every term repeated 8x
    uniq = {t for q in qbatch for t in query_terms(tokenize(q))}
    res = d.search_many(qbatch, k=10)
    assert d.cache_misses == len(uniq)
    assert res == [local.search(q, k=10) for q in qbatch]


def test_distributed_searcher_thread_safe(ray_session, built_index, local):
    """serve.py shares one DistributedSearcher across HTTP request
    threads: concurrent searches through the LRU (move_to_end /
    insert / evict under a tiny byte cap) must stay consistent."""
    import threading

    d = DistributedSearcher(built_index[0], num_actors=2, cache_bytes=2048)
    d.wait_ready(warm_hot_terms=False)
    expected = {q: local.search(q, k=10) for q in FIXTURE_QUERIES}
    errs: list = []

    def worker() -> None:
        try:
            for _ in range(20):
                for q in FIXTURE_QUERIES:
                    if d.search(q, k=10) != expected[q]:
                        errs.append(q)
        except Exception as e:  # OrderedDict corruption raises here
            errs.append(repr(e))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs, errs[:5]


def test_explicit_blockmax_prune_is_honored(built_index, local, monkeypatch):
    """prune="blockmax" must run the Block-Max evaluator even on a
    dense-ranks searcher (the default) — not silently route to the
    dense path — and return identical results."""
    import refimage_ray.query.engine as eng

    calls = {"n": 0}
    real = eng._topk_disjunctive_blockmax

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(eng, "_topk_disjunctive_blockmax", counting)
    for q in FIXTURE_QUERIES[:3]:
        assert local.search(q, k=10, prune="blockmax") == \
            local.search(q, k=10)
    assert calls["n"] == 3


def test_distributed_postings_cache_identical_results(ray_session, built_index,
                                                      local):
    """The driver-side LRU postings cache must not change any result:
    repeated queries hit the cache (verified via counters) and return
    exactly the uncached searcher's output; eviction and negative
    entries (absent terms) behave."""
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    cold = [d.search(q, k=10) for q in FIXTURE_QUERIES]
    assert d.cache_misses > 0
    misses_after_cold = d.cache_misses
    warm = [d.search(q, k=10) for q in FIXTURE_QUERIES]
    assert warm == cold == [local.search(q, k=10) for q in FIXTURE_QUERIES]
    assert d.cache_misses == misses_after_cold  # fully served from cache
    assert d.cache_hits > 0
    # negative caching: unknown term fetched once, then cached absent
    assert d.search("zzqqxx unknownterm", k=5) == \
        d.search("zzqqxx unknownterm", k=5)
    # tiny byte cap forces eviction; results still correct
    small = DistributedSearcher(built_index[0], num_actors=2,
                                cache_bytes=1024)
    small.wait_ready()
    for q in FIXTURE_QUERIES:
        assert small.search(q, k=10) == local.search(q, k=10)
    # cache off
    off = DistributedSearcher(built_index[0], num_actors=2, cache_bytes=0)
    off.wait_ready()
    assert off.search(FIXTURE_QUERIES[0], k=10) == cold[0]


def test_wait_ready_warms_hot_terms(ray_session, built_index, local):
    """wait_ready prefetches the manifest's hot-term postings into the
    driver cache: a first query made of hot terms is served without new
    RPC misses, and results stay identical."""
    from refimage_ray.index.manifest import load_manifest

    hot = load_manifest(built_index[0])["stats"].get("hot_terms") or []
    assert hot, "fixture index must salt some hot terms"
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    misses0 = d.cache_misses
    q = " ".join(hot[:3])
    res = d.search(q, k=10)
    assert d.cache_misses == misses0  # all hot terms pre-cached
    assert res == local.search(q, k=10)


def test_serving_actor_death_is_transparent(ray_session, built_index, local):
    """Kill a shard actor mid-serving: max_restarts reloads the
    immutable shards and the retried postings RPC returns identical
    results (no error surfaces to the caller)."""
    import ray

    d = DistributedSearcher(built_index[0], num_actors=2, cache_bytes=0)
    d.wait_ready()
    q = "table scan merge sort fast"
    before = d.search(q, k=10)
    assert before == local.search(q, k=10)
    ray.kill(d.actors[0], no_restart=False)
    ray.kill(d.actors[1], no_restart=False)
    after = d.search(q, k=10)
    assert after == before


def test_search_weighted_laws(local):
    """search_weighted: unit weights == plain OR exactly; duplicate
    terms sum weights; a dominant weight reorders; w<=0 rejected."""
    import math

    from refimage_ray.query.scorer import idf as _idf

    terms = ["table", "scan", "merge"]
    plain = local.search(" ".join(terms), k=25, prune=False)
    weighted = local.search_weighted([(t, 1.0) for t in terms], k=25)
    assert weighted == plain  # exact float identity, not approx

    # duplicate term entries sum: (t,0.25)+(t,0.75) == (t,1.0)
    dup = local.search_weighted(
        [("table", 0.25), ("table", 0.75), ("scan", 1.0), ("merge", 1.0)],
        k=25,
    )
    assert [d for d, _ in dup] == [d for d, _ in plain]
    for (_, a), (_, b) in zip(dup, plain):
        assert math.isclose(a, b, rel_tol=1e-12)

    # brute-force law: score(d) = sum_t w_t * idf_t * tfnorm
    w = {"table": 3.0, "scan": 0.5}
    got = dict(local.search_weighted(sorted(w.items()), k=1000))
    tm = local._term_map(sorted(w))
    exp: dict[int, float] = {}
    for t in sorted(w):
        p = tm.get(t)
        if p is None:
            continue
        contrib = (w[t] * _idf(p.df, local.n_docs)) * p.weights
        for d, c in zip(p.doc_ids.tolist(), contrib.tolist()):
            exp[d] = exp.get(d, 0.0) + c
    assert set(got) == set(exp)
    for d in got:
        assert math.isclose(got[d], exp[d], rel_tol=1e-12)

    with pytest.raises(ValueError):
        local.search_weighted([("table", 0.0)])
    assert local.search_weighted([]) == []
    assert local.search_weighted([("zzzznotaterm", 1.0)]) == []


def test_more_like_this_self_and_dup(ray_session, tmp_path):
    """MLT: the doc itself ranks first; an exact duplicate ties it
    (same tf vector -> identical weighted-OR score)."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index
    from refimage_ray.query.engine import more_like_this

    texts = [
        "spark join query engine over arrow tables",
        "spark join query engine over arrow tables",  # exact dup of 0
        "completely different words about knitting wool sweaters",
        "spark engine only partially related content here",
        "arrow tables and columnar layout discussion text",
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "url": pa.array([f"u{i}" for i in range(len(texts))]),
            "lang": pa.array(["en"] * len(texts)),
        }
    )
    d = str(tmp_path / "mlt")
    build_index(rd.from_arrow(docs), d, EngineConfig(num_shards=4, salt_buckets=2))
    s = LocalSearcher(d)
    hits = more_like_this(s, 0, k=5)
    ids = [doc for doc, _ in hits]
    scores = dict(hits)
    assert set(ids[:2]) == {0, 1}            # self + exact dup on top
    assert scores[0] == scores[1]            # identical tf vector
    # excluding self keeps the dup first and drops doc 0
    ex = more_like_this(s, 0, k=3, exclude_self=True)
    assert ex[0][0] == 1 and all(doc != 0 for doc, _ in ex)
    # distributed == local (same DSL execution path)
    dist = DistributedSearcher(d, num_actors=2)
    dist.wait_ready()
    assert more_like_this(dist, 0, k=5) == hits
    with pytest.raises(KeyError):
        more_like_this(s, 424242)


def test_dense_pooled_buffer_no_state_leak(ray_session, built_index, local, oracle):
    """Pooled dense buffer: interleaved different queries repeated on
    one searcher (same thread) stay identical to the oracle — no
    residue between queries; threaded repeats agree too."""
    import threading

    qs = FIXTURE_QUERIES[:6]
    want = {q: local.search(q, k=50) for q in qs}
    for _ in range(3):
        for q in reversed(qs):
            assert local.search(q, k=50) == want[q], q
    errs = []

    def worker():
        try:
            for q in qs:
                if local.search(q, k=50) != want[q]:
                    errs.append(q)
        except Exception as e:  # pragma: no cover
            errs.append(repr(e))

    ts = [threading.Thread(target=worker) for _ in range(4)]
    [t.start() for t in ts]
    [t.join() for t in ts]
    assert not errs


def test_dense_buffer_pool_reuses_across_threads():
    """The dense-TAAT buffer pool is process-wide (regression: a
    thread-local pool never reused the buffer under the HTTP shim's
    thread-per-connection model) and preserves the all-zero
    contract."""
    import threading

    from refimage_ray.query import engine
    from refimage_ray.query.engine import (
        _acquire_dense_buffer, _release_dense_buffer,
    )

    with engine._DENSE_POOL_LOCK:  # drain buffers other tests released
        engine._DENSE_POOL.clear()
    b = _acquire_dense_buffer(1000)
    assert not b.any()
    b[7] = 3.5
    b[7] = 0.0  # caller resets touched positions before release
    _release_dense_buffer(b)

    got = []
    t = threading.Thread(target=lambda: got.append(_acquire_dense_buffer(500)))
    t.start()
    t.join()
    assert got[0] is b          # same allocation, different thread
    assert not got[0].any()     # all-zero contract held
    _release_dense_buffer(got[0])


def test_custom_token_pattern_index_query_symmetry(ray_session, tmp_path):
    """Regression: an index built with a custom cfg.token_pattern was
    queried with the hardcoded default tokenizer, so terms like
    'foo_bar' (one token under '[a-z0-9_]+') were split at query time
    and became unreachable.  The searcher now reads token_pattern from
    the manifest and tokenizes queries with it."""
    import pyarrow as pa
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.oracle import BM25Oracle

    cfg = EngineConfig(num_shards=4, salt_buckets=2,
                       token_pattern=r"[a-z0-9_]+")
    texts = [
        "foo_bar baz alpha", "plain words only", "foo_bar again here",
        "bar foo separate words", "baz qux alpha beta",
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(docs), d, cfg)

    s = LocalSearcher(d)
    assert s.token_pattern == r"[a-z0-9_]+"
    hits = s.search("foo_bar", k=10)
    assert sorted(doc for doc, _ in hits) == [0, 2]  # NOT doc 3
    # scores match an oracle built with the same pattern
    oracle = BM25Oracle(list(zip(range(len(texts)), texts)), cfg)
    assert hits == oracle.search("foo_bar", k=10)


def test_explain_score_bit_identical(built_index):
    """explain_score contributions accumulated in list order reproduce
    the search score bit-for-bit, on every hit, both modes; docpart and
    distributed searchers share the implementation via _term_map."""
    from refimage_ray.query.engine import LocalSearcher, explain_score

    s = LocalSearcher(built_index[0])
    for q, mode in (("the data join", "or"), ("data join", "and"),
                    ("zzz data", "or")):
        for doc_id, score in s.search(q, k=20, mode=mode):
            exp = explain_score(s, q, doc_id, mode=mode)
            acc = 0.0
            for row in exp["terms"]:
                acc += row["contribution"]
            assert acc == score and exp["score"] == score, (q, mode, doc_id)
            assert all(r["df"] >= r["tf"] >= 0 for r in exp["terms"])
    # a doc missing a conjunctive term explains to score 0
    hits_or = s.search("the zzzmissingterm", k=1)
    d = hits_or[0][0]
    assert explain_score(s, "the zzzmissingterm", d, mode="and")["score"] == 0.0


# --- minimum_should_match (min_match) ---


def _brute_min_match(searcher, query, m, k=50):
    """Oracle: full OR evaluation, keep docs matching >= m distinct
    query terms, score = sum over matched terms (== the OR score)."""
    from refimage_ray.query.scorer import query_terms

    terms = query_terms(searcher._tokenize(query))
    tm = searcher._term_map(terms)
    full = searcher.search(query, k=10**9, mode="or")
    counts = {}
    for t in terms:
        p = tm.get(t)
        if p is None or p.df == 0:
            continue
        for d in p.doc_ids.tolist():
            counts[d] = counts.get(d, 0) + 1
    kept = [(d, s) for d, s in full if counts.get(d, 0) >= m]
    kept.sort(key=lambda x: (-x[1], x[0]))
    return kept[:k]


def test_min_match_equals_brute_force(built_index):
    from refimage_ray.query.engine import LocalSearcher

    s = LocalSearcher(built_index[0])
    q = "spark join scan data"
    for m in (1, 2, 3, 4):
        assert s.search(q, k=50, mode="or", min_match=m) == \
            _brute_min_match(s, q, m, k=50), m


def test_min_match_boundaries(built_index):
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.scorer import query_terms

    s = LocalSearcher(built_index[0])
    q = "spark join"
    # m=1 == plain OR (and keeps the pruned fast path)
    assert s.search(q, k=20, min_match=1) == s.search(q, k=20, mode="or")
    # m=|terms| == AND membership AND scores (same accumulation)
    n_terms = len(query_terms(s._tokenize(q)))
    assert s.search(q, k=20, min_match=n_terms) == s.search(
        q, k=20, mode="and"
    )
    # m > |terms| == empty
    assert s.search(q, k=20, min_match=n_terms + 1) == []
    # validation
    import pytest

    with pytest.raises(ValueError):
        s.search(q, min_match=0)
    with pytest.raises(ValueError):
        s.search(q, mode="and", min_match=2)


def test_min_match_with_filter(built_index):
    """min_match composes with doc-value filters: result == post-filter
    of the unfiltered min_match list."""
    from refimage_ray.query.engine import LocalSearcher, lookup_docs

    s = LocalSearcher(built_index[0])
    q = "spark join scan"
    full = s.search(q, k=10**9, mode="or", min_match=2)
    where = [("lang", "=", "en")]
    got = s.search(q, k=10, mode="or", min_match=2, where=where)
    meta = lookup_docs(built_index[0], [d for d, _ in full])
    en = set(
        meta.filter(
            __import__("pyarrow").compute.equal(meta["lang"], "en")
        )["doc_id"].to_pylist()
    )
    want = [(d, s_) for d, s_ in full if d in en][:10]
    assert got == want


def test_min_match_distributed_and_docpart(ray_session, built_index, tiny_docs, tmp_path):
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher

    s = LocalSearcher(built_index[0])
    q = "spark join scan"
    want = s.search(q, k=15, min_match=2)
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    assert d.search(q, k=15, min_match=2) == want

    cfg = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)
    out = str(tmp_path / "dp_mm")
    build_doc_partitioned(rd.from_arrow(tiny_docs), out, cfg, num_doc_shards=4)
    assert DocPartSearcher(out).search(q, k=15, min_match=2) == want
    dd = DistributedDocPartSearcher(out, num_actors=2)
    dd.wait_ready()
    assert dd.search(q, k=15, min_match=2) == want


# --- search_after cursor pagination ---


def test_search_after_tiles_the_full_list(built_index):
    from refimage_ray.query.engine import LocalSearcher

    s = LocalSearcher(built_index[0])
    q = "spark join scan"
    full = s.search(q, k=10**9, mode="or")
    assert len(full) > 25
    pages, cursor = [], None
    while True:
        page = s.search(q, k=7, after=cursor)
        if not page:
            break
        pages.extend(page)
        cursor = page[-1]
    assert pages == full
    # page 2 == offset fetch of the same order
    p1 = s.search(q, k=7)
    assert s.search(q, k=7, after=p1[-1]) == s.search(q, k=7, offset=7)


def test_search_after_modes_and_validation(built_index):
    import pytest

    from refimage_ray.query.engine import LocalSearcher

    s = LocalSearcher(built_index[0])
    q = "spark join"
    # works conjunctively too
    full_and = s.search(q, k=10**9, mode="and")
    if len(full_and) > 4:
        p1 = s.search(q, k=3, mode="and")
        assert s.search(q, k=3, mode="and", after=p1[-1]) == full_and[3:6]
    # composes with min_match
    mm = s.search("spark join scan", k=10**9, min_match=2)
    if len(mm) > 4:
        p1 = mm[:3]
        assert s.search("spark join scan", k=3, min_match=2,
                        after=p1[-1]) == mm[3:6]
    # composes with where
    w = [("lang", "=", "en")]
    fw = s.search(q, k=10**9, where=w)
    if len(fw) > 4:
        assert s.search(q, k=3, where=w, after=fw[2]) == fw[3:6]
    with pytest.raises(ValueError):
        s.search(q, after=("x",))
    with pytest.raises(ValueError):
        s.search(q, after=(1.0, 2), order_by=("lang", "asc"))


def test_search_after_distributed_and_docpart(
    ray_session, built_index, tiny_docs, tmp_path
):
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher

    s = LocalSearcher(built_index[0])
    q = "spark join"
    cursor = s.search(q, k=5)[-1]
    want = s.search(q, k=5, after=cursor)
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    assert d.search(q, k=5, after=cursor) == want

    cfg = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)
    out = str(tmp_path / "dp_after")
    build_doc_partitioned(rd.from_arrow(tiny_docs), out, cfg, num_doc_shards=4)
    assert DocPartSearcher(out).search(q, k=5, after=cursor) == want
    dd = DistributedDocPartSearcher(out, num_actors=2)
    dd.wait_ready()
    assert dd.search(q, k=5, after=cursor) == want


# ---- resident metadata join (lookup_docs) ------------------------------

def _pushdown_lookup(index_dir, doc_ids, columns=None):
    """The pre-resident join: a pushed-down ``isin`` scan of docs/."""
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    ds = pads.dataset(os.path.join(index_dir, "docs"))
    cols = columns or [c for c in ds.schema.names if c != "text"]
    return ds.to_table(columns=cols, filter=pc.field("doc_id").isin(doc_ids))


def _multiset(t):
    from collections import Counter

    return Counter(tuple(sorted(r.items())) for r in t.to_pylist())


_DUP_IDS = (5, 17)


def _write_docs_store(index_dir):
    """Three docs/ files; _DUP_IDS are stored twice (across files)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(os.path.join(index_dir, "docs"))
    parts = [list(range(0, 40)), list(range(40, 80)), list(_DUP_IDS)]
    for i, ids in enumerate(parts):
        pq.write_table(pa.table({
            "doc_id": pa.array([d * 7919 for d in ids], pa.int64()),
            "text": [f"text of {d} part {i}" for d in ids],
            "url": [f"https://site{d % 5}.example/{d}/{i}" for d in ids],
            "lang": ["en" if d % 3 else "de" for d in ids],
            "doc_len": pa.array([d % 11 for d in ids], pa.int32()),
        }), os.path.join(index_dir, "docs", f"part-{i}.parquet"))


@pytest.fixture(scope="module")
def docs_store(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("resident") / "idx")
    _write_docs_store(d)
    return d


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 79), max_size=15),
    unknown=st.lists(st.integers(-10**12, 10**12), max_size=3),
    cols=st.one_of(
        st.none(),
        st.lists(st.sampled_from(["doc_id", "url", "lang", "doc_len", "text"]),
                 min_size=1, unique=True),
    ),
)
def test_resident_lookup_matches_pushdown(docs_store, picks, unknown, cols):
    """Resident searchsorted+take join == the pushdown scan, as
    multisets: random id subsets, repeats in the request, unknown ids,
    ids stored twice, column subsets (with and without text) and the
    empty list."""
    ids = [p * 7919 for p in picks] + unknown
    got = lookup_docs(docs_store, ids, columns=cols)
    want = _pushdown_lookup(docs_store, ids, columns=cols)
    assert got.schema == want.schema
    assert _multiset(got) == _multiset(want)


def test_resident_lookup_duplicates_empty_and_order(docs_store):
    dup = _DUP_IDS[0] * 7919
    t = lookup_docs(docs_store, [dup, dup, 3 * 7919])
    assert t["doc_id"].to_pylist() == [3 * 7919, dup, dup]  # doc_id order
    assert "text" not in t.column_names
    empty = lookup_docs(docs_store, [])
    assert empty.num_rows == 0 and empty.schema == t.schema
    sub = lookup_docs(docs_store, [], columns=["doc_id", "lang"])
    assert sub.num_rows == 0 and sub.column_names == ["doc_id", "lang"]


def test_resident_lookup_real_artifact(built_index, local):
    index_dir = built_index[0]
    ids = [d for d, _ in local.search("the data", k=40)]
    for cols in (None, ["doc_id", "url"], ["doc_id", "text"]):
        got = lookup_docs(index_dir, ids + [999999999], columns=cols)
        want = _pushdown_lookup(index_dir, ids + [999999999], columns=cols)
        assert _multiset(got) == _multiset(want)


def test_resident_lookup_sees_rewrites_without_reload(tmp_path, monkeypatch):
    """update_doc_metadata, then lookup_docs with no reload hook: the
    docs/ signature changed, so the next call serves the new value; an
    unchanged store is served without opening the dataset again."""
    import pyarrow.dataset as pads

    from refimage_ray.index.lifecycle import update_doc_metadata

    d = str(tmp_path / "idx")
    _write_docs_store(d)
    doc = 4 * 7919
    assert lookup_docs(d, [doc])["lang"].to_pylist() == ["en"]
    opens = []
    real = pads.dataset
    monkeypatch.setattr(pads, "dataset",
                        lambda *a, **kw: opens.append(a) or real(*a, **kw))
    for _ in range(5):
        assert lookup_docs(d, [doc])["lang"].to_pylist() == ["en"]
    assert lookup_docs(d, []).num_rows == 0
    assert opens == []  # warm: no dataset open, no data-file read
    assert update_doc_metadata(d, {doc: {"lang": "xx", "url": "u"}}) == 1
    got = lookup_docs(d, [doc], columns=["doc_id", "url", "lang"]).to_pylist()
    assert got == [{"doc_id": doc, "url": "u", "lang": "xx"}]
    assert len(opens) == 1  # exactly one reload for the new signature


def test_resident_lookup_missing_store_raises(tmp_path):
    """A doc-partitioned artifact keeps no docs/: still FileNotFoundError."""
    with pytest.raises(FileNotFoundError):
        lookup_docs(str(tmp_path), [1, 2])
