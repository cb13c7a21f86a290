"""NRT delta search (query/nrt.py): DeltaSearcher(base).add(B) must be
BIT-identical to a full rebuild over A ∪ B — same doc ids AND the same
float64 scores — across or/and/min_match/after/prefix/fuzzy paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.build import build_index
from refimage_ray.query.engine import LocalSearcher
from refimage_ray.query.nrt import DeltaSearcher

CFG = EngineConfig(num_shards=4, salt_buckets=2)

QUERIES = ["the data join", "spark query", "stream merge", "zzz missing"]


def _split(tiny_docs, n_base=180):
    a = tiny_docs.slice(0, n_base)
    b = tiny_docs.slice(n_base)
    return a, b


@pytest.fixture(scope="module")
def nrt_setup(ray_session, tiny_docs, tmp_path_factory):
    root = tmp_path_factory.mktemp("nrt")
    a, b = _split(tiny_docs)
    base_dir = str(root / "base")
    full_dir = str(root / "full")
    build_index(rd.from_arrow(a), base_dir, CFG)
    build_index(rd.from_arrow(tiny_docs), full_dir, CFG)
    return base_dir, full_dir, a, b


def test_nrt_bit_identical_to_rebuild(nrt_setup):
    base_dir, full_dir, a, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    delta.add(b)
    full = LocalSearcher(full_dir)
    assert delta.n_docs == full.n_docs
    assert delta.avgdl == pytest.approx(full.avgdl, rel=0, abs=0)
    for q in QUERIES:
        for mode in ("or", "and"):
            got = delta.search(q, k=25, mode=mode)
            want = full.search(q, k=25, mode=mode)
            assert got == want, (q, mode)  # exact float equality


def test_nrt_incremental_adds_match_single_add(nrt_setup):
    base_dir, full_dir, a, b = nrt_setup
    one = DeltaSearcher(base_dir)
    one.add(b)
    many = DeltaSearcher(base_dir)
    for i in range(0, b.num_rows, 17):
        many.add(b.slice(i, 17))
    for q in QUERIES:
        assert many.search(q, k=25) == one.search(q, k=25)
    assert many.buffered == one.buffered == b.num_rows


def test_nrt_min_match_and_after(nrt_setup):
    base_dir, full_dir, _, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    delta.add(b)
    full = LocalSearcher(full_dir)
    q = "the data join stream"
    assert delta.search(q, k=15, min_match=2) == full.search(q, k=15, min_match=2)
    page1 = full.search(q, k=5)
    assert delta.search(q, k=5, after=page1[-1]) == full.search(
        q, k=5, after=page1[-1]
    )


def test_nrt_expansion_sees_buffer(nrt_setup):
    base_dir, full_dir, _, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    delta.add(b)
    full = LocalSearcher(full_dir)
    assert delta.search_expanded("prefix", "s", k=15) == \
        full.search_expanded("prefix", "s", k=15)
    assert delta.search_expanded("fuzzy", "spark", k=10) == \
        full.search_expanded("fuzzy", "spark", k=10)


def test_nrt_count(nrt_setup):
    base_dir, full_dir, _, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    delta.add(b)
    full = LocalSearcher(full_dir)
    for q in QUERIES:
        assert delta.count(q) == full.count(q)


def test_nrt_rejects_duplicate_ids(nrt_setup):
    base_dir, _, a, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    with pytest.raises(ValueError, match="already indexed"):
        delta.add(a.slice(0, 3))  # base docs
    delta.add(b.slice(0, 5))
    with pytest.raises(ValueError, match="already indexed"):
        delta.add(b.slice(0, 5))  # buffered docs
    dup = pa.table(
        {"doc_id": pa.array([10**9, 10**9], pa.int64()),
         "text": pa.array(["x y", "y z"])}
    )
    with pytest.raises(ValueError, match="duplicate"):
        delta.add(dup)


def test_nrt_flush_then_reload_matches(nrt_setup, tmp_path):
    base_dir, full_dir, _, b = nrt_setup
    delta = DeltaSearcher(base_dir)
    delta.add(b)
    before = {q: delta.search(q, k=20) for q in QUERIES}
    out = delta.flush(str(tmp_path / "flushed"), CFG)
    assert delta.buffered == 0
    re = DeltaSearcher(out)
    full = LocalSearcher(full_dir)
    for q in QUERIES:
        got = re.search(q, k=20)
        # flushed artifact == rebuild (ids; scores equal to full rebuild)
        assert [d for d, _ in got] == [d for d, _ in full.search(q, k=20)]
        assert [d for d, _ in got] == [d for d, _ in before[q]]


def test_nrt_empty_buffer_is_plain_base(nrt_setup):
    base_dir, _, a, _ = nrt_setup
    delta = DeltaSearcher(base_dir)
    base = LocalSearcher(base_dir)
    for q in QUERIES:
        assert delta.search(q, k=10) == base.search(q, k=10)


def test_nrt_cache_and_dense_invariants(nrt_setup):
    """The per-generation term-map memo + merged rank universe must be
    invisible semantically: repeat queries return identical results,
    an add() invalidates the cache (fresh docs appear), the merged
    universe is sorted and rank-attached, and doc-value filters still
    refuse loudly (base-aligned values would misalign)."""
    base_dir, full_dir, a, b = nrt_setup
    d = DeltaSearcher(base_dir)
    d.add(b)
    full = LocalSearcher(full_dir)
    q = "the data join"
    first = d.search(q, k=25)
    assert first == d.search(q, k=25) == full.search(q, k=25)
    # universe: sorted superset of both sides, ranks attached + dense
    assert d.all_ids is not None
    assert np.all(np.diff(d.all_ids) > 0)
    tm = d._term_map(["data"])
    assert tm["data"].ranks is not None
    assert np.array_equal(d.all_ids[tm["data"].ranks], tm["data"].doc_ids)
    # add invalidates: a fresh doc with a cached term is found
    extra = pa.table({
        "doc_id": pa.array([10**12], pa.int64()),
        "text": pa.array(["data data data data data data data data"]),
    })
    d.add(extra)
    assert 10**12 in {i for i, _ in d.search("data", k=10**6)}
    with pytest.raises(ValueError, match="flush"):
        d.search("data", k=5, where=[("lang", "=", "en")])


# ---------------------------------------------------------------------------
# DocPartDeltaSearcher — NRT over the doc-partitioned serving layout
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def docpart_nrt_setup(ray_session, tiny_docs, tmp_path_factory):
    from refimage_ray.index.docpart import build_doc_partitioned

    root = tmp_path_factory.mktemp("dpnrt")
    a, b = _split(tiny_docs)
    base_dir = str(root / "base")
    full_dir = str(root / "full")
    tbase_dir = str(root / "tbase")
    build_doc_partitioned(rd.from_arrow(a), base_dir, CFG,
                          num_doc_shards=4)
    build_doc_partitioned(rd.from_arrow(tiny_docs), full_dir, CFG,
                          num_doc_shards=4)
    build_index(rd.from_arrow(a), tbase_dir, CFG)
    return base_dir, full_dir, tbase_dir, a, b


def test_docpart_nrt_bit_identical_to_rebuild_and_term_delta(
    docpart_nrt_setup,
):
    """DocPartDeltaSearcher(base).add(B) == a full docpart rebuild over
    A∪B == the TERM layout's DeltaSearcher on the same corpora — same
    ids AND the same float64 scores."""
    from refimage_ray.index.docpart import DocPartSearcher
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, full_dir, tbase_dir, a, b = docpart_nrt_setup
    d = DocPartDeltaSearcher(base_dir)
    assert d.add(b) == b.num_rows
    full = DocPartSearcher(full_dir)
    tdelta = DeltaSearcher(tbase_dir)
    tdelta.add(b)
    for q in QUERIES:
        for mode in ("or", "and"):
            want = full.search(q, k=50, mode=mode)
            assert d.search(q, k=50, mode=mode) == want, (q, mode)
            assert tdelta.search(q, k=50, mode=mode) == want, (q, mode)
        assert d.count(q) == full.count(q), q
    # repeat query == cached query (memo is semantically invisible)
    q = QUERIES[0]
    assert d.search(q, k=25) == d.search(q, k=25)
    # buffered metadata lookup
    some = b["doc_id"][0].as_py()
    assert d.lookup_buffered([some])[0]["doc_id"] == some


def test_docpart_nrt_guards(docpart_nrt_setup):
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, _, _, a, b = docpart_nrt_setup
    d = DocPartDeltaSearcher(base_dir)
    d.add(b)
    with pytest.raises(ValueError, match="buffered"):
        d.add(b)  # duplicate ids
    with pytest.raises(ValueError, match="flush"):
        d.search("data", k=5, order_by=("doc_len", "asc"))
    with pytest.raises(ValueError, match="flush"):
        d.search("data", k=5, where=[("lang", "=", "en")])


# every operator DocPartDeltaSearcher refuses while docs are buffered:
# (case id — the operator, or its expansion kind's old operator name —
# the name its refusal gives, the call, the serve request that reaches
# it — None when no route does)
NEEDS_FLUSH = [
    ("search_phrase", "phrase", ("search_phrase", "the data"),
     "/search?q=the+data&mode=phrase"),
    ("search_near", "NEAR", ("search_near", "the data"),
     "/search?q=the+data&mode=near"),
    ("search_prefix", "prefix", ("search_expanded", "prefix", "da"),
     "/search?q=da&mode=prefix"),
    ("search_fuzzy", "fuzzy", ("search_expanded", "fuzzy", "data"),
     "/search?q=data&mode=fuzzy"),
    ("search_wildcard", "wildcard", ("search_expanded", "wildcard", "da*a"),
     "/search?q=da*a&mode=wildcard"),
    ("search_regex", "regex", ("search_expanded", "regex", "da.a"),
     "/search?q=da.a&mode=regex"),
    ("search_phrase_prefix", "phrase_prefix",
     ("search_phrase_prefix", "the da"),
     "/search?q=the+da&mode=phrase_prefix"),
    ("search_rescore", "rescore", ("search_rescore", "the data"),
     "/search?q=the+data&rescore_window=10"),
    ("search_many", "batch (search_many)", ("search_many", ["the data"]),
     None),
    ("suggest", "suggest", ("suggest", "dat"), "/suggest?q=dat"),
    ("_expand_pairs", "vocabulary-browse (/terms)",
     ("_expand_pairs", "prefix", "da"), "/terms?prefix=da"),
    ("facets", "facet", ("facets", "data"), "/facets?q=data&by=lang"),
    ("composite", "composite-paging", ("composite", "data"),
     "/composite?q=data&by=lang"),
    ("search_grouped", "grouped", ("search_grouped", "data"),
     "/grouped?q=data&by=lang"),
]


def _needs_flush_text(what: str) -> str:
    return (f"{what} queries over the docpart NRT buffer need a flush() "
            "first (positions/vocabulary structures are artifact-side)")


@pytest.mark.parametrize("_id,what,call,_req", NEEDS_FLUSH,
                         ids=[r[0] for r in NEEDS_FLUSH])
def test_docpart_nrt_refuses_until_flush(docpart_nrt_setup, _id, what, call,
                                         _req):
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, _, _, _, b = docpart_nrt_setup
    d = DocPartDeltaSearcher(base_dir)
    d.add(b.slice(0, 3))
    op, *args = call
    with pytest.raises(ValueError, match="flush") as err:
        getattr(d, op)(*args)
    assert str(err.value) == _needs_flush_text(what)


@pytest.fixture(scope="module")
def docpart_nrt_server(docpart_nrt_setup):
    """A server over the doc-partitioned base with docs buffered by
    ``POST /docs``."""
    import json
    import threading
    import urllib.request

    from refimage_ray.serve import make_server

    base_dir, _, _, _, b = docpart_nrt_setup
    srv = make_server(base_dir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    url = f"http://127.0.0.1:{srv.server_address[1]}"
    docs = b.slice(0, 3).select(["doc_id", "text"]).to_pylist()
    req = urllib.request.Request(
        url + "/docs", data=json.dumps({"docs": docs}).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=60) as r:
        assert json.loads(r.read())["buffered"] == 3
    yield url
    srv.shutdown()
    srv.server_close()
    t.join(timeout=30)


@pytest.mark.parametrize("what,req", [(w, r) for _, w, _, r in NEEDS_FLUSH if r],
                         ids=[r[0] for r in NEEDS_FLUSH if r[3]])
def test_docpart_nrt_route_refuses_until_flush(docpart_nrt_server, what, req):
    import json
    import urllib.error
    import urllib.request

    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(docpart_nrt_server + req, timeout=60)
    assert err.value.code == 422
    assert json.loads(err.value.read()) == {"error": _needs_flush_text(what)}


def test_docpart_nrt_flush_then_reload_matches(docpart_nrt_setup,
                                               tmp_path):
    from refimage_ray.index.docpart import DocPartSearcher
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, full_dir, _, a, b = docpart_nrt_setup
    d = DocPartDeltaSearcher(base_dir)
    d.add(b)
    out = str(tmp_path / "flushed")
    pre = {q: d.search(q, k=30) for q in QUERIES}
    d.flush(out)
    assert d.buffered == 0
    s2 = DocPartSearcher(out)
    for q in QUERIES:
        assert s2.search(q, k=30) == pre[q], q


def test_docpart_nrt_rare_term_cross_shard_df(ray_session, tmp_path):
    """idf basis regression: a buffered doc whose term has base
    postings only in OTHER shards must still score with the
    union-global df — checked bit-identical against a full docpart
    rebuild on a corpus engineered so the rare term's base docs hash
    away from the buffered doc's shard."""
    from refimage_ray.index.docpart import (
        DocPartSearcher,
        _doc_shard_of,
        build_doc_partitioned,
    )
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    # one base doc holds the rare term; pick a buffered doc_id that
    # hashes to a DIFFERENT shard than the base doc
    base_rows = {
        "doc_id": [0, 1, 2, 3],
        "text": ["rareword data table", "data table scan",
                 "join merge stream", "query filter sort"],
    }
    base = pa.table({
        "doc_id": pa.array(base_rows["doc_id"], pa.int64()),
        "text": pa.array(base_rows["text"]),
    })
    base_shard = int(_doc_shard_of(np.array([0], np.int64), 4)[0])
    buf_id = next(
        i for i in range(100, 200)
        if int(_doc_shard_of(np.array([i], np.int64), 4)[0]) != base_shard
    )
    buf = pa.table({
        "doc_id": pa.array([buf_id], pa.int64()),
        "text": pa.array(["rareword alone here"]),
    })
    d_base = str(tmp_path / "b")
    d_full = str(tmp_path / "f")
    build_doc_partitioned(rd.from_arrow(base), d_base, CFG,
                          num_doc_shards=4)
    build_doc_partitioned(
        rd.from_arrow(pa.concat_tables([base, buf])), d_full, CFG,
        num_doc_shards=4)
    d = DocPartDeltaSearcher(d_base)
    d.add(buf)
    want = DocPartSearcher(d_full).search("rareword", k=10)
    assert d.search("rareword", k=10) == want


def test_docpart_nrt_rejects_base_duplicate_ids(docpart_nrt_setup):
    """A buffered doc_id already present in the BASE artifact must be
    rejected (a duplicate would collide the disjoint-merge's output
    slots → duplicate hits with garbage scores)."""
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, _, _, a, b = docpart_nrt_setup
    d = DocPartDeltaSearcher(base_dir)
    dup = a.slice(1, 1).select(["doc_id", "text"])
    with pytest.raises(ValueError, match="already indexed"):
        d.add(dup)
    # nothing was buffered by the failed add
    assert d.buffered == 0
    assert d.n_docs == DocPartDeltaSearcher(base_dir).n_docs


def test_nrt_term_memo_eviction_is_pure(nrt_setup):
    """The per-generation term memo is LRU-bounded; with a cap smaller
    than the query vocabulary, evicted terms rebuild on re-query and
    results stay bit-identical to the unbounded searcher."""
    from refimage_ray.query.nrt import _LRUTermMemo

    base_dir, full_dir, a, b = nrt_setup
    capped = DeltaSearcher(base_dir)
    capped._tm_cache = _LRUTermMemo(cap=2)
    capped.add(b)
    free = DeltaSearcher(base_dir)
    free.add(b)
    full = LocalSearcher(full_dir)
    # interleave queries so hot terms churn through the tiny memo
    for _ in range(3):
        for q in QUERIES:
            got = capped.search(q, k=25)
            assert got == free.search(q, k=25), q
            assert got == full.search(q, k=25), q
    assert len(capped._tm_cache) <= 2


def test_lru_term_memo_semantics():
    from refimage_ray.query.nrt import _LRUTermMemo

    m = _LRUTermMemo(cap=2)
    m["a"] = 1
    m["b"] = 2
    assert m.get("a") == 1       # touch → "a" becomes most-recent
    m["c"] = 3                   # evicts "b" (least recent)
    assert m.get("b") is None
    assert m.get("a") == 1 and m.get("c") == 3
    m.clear()
    assert len(m) == 0 and m.get("a") is None


def test_lru_term_memo_thread_safety():
    """Hammer the capped memo from several threads (get + insert +
    clear): the unguarded get()'s get/move_to_end pair raced concurrent
    evictions and clear()s into KeyError 500s on shared searchers —
    the lock must make every interleaving safe."""
    import threading

    from refimage_ray.query.nrt import _LRUTermMemo

    memo = _LRUTermMemo(cap=8)
    errors = []
    stop = threading.Event()

    def worker(seed):
        i = 0
        while not stop.is_set():
            k = f"t{(seed * 7 + i) % 24}"
            try:
                memo[k] = i
                memo.get(k)
                memo.get(f"t{i % 24}")
                if i % 97 == 0:
                    memo.clear()
                len(memo)
            except Exception as err:  # noqa: BLE001 — the bug under test
                errors.append(err)
                break
            i += 1

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    import time

    time.sleep(1.0)
    stop.set()
    for t in threads:
        t.join()
    assert not errors


# ---------------------------------------------------------------------------
# Append-only posting buffer: add order, read/add races, tokenizer parity
# ---------------------------------------------------------------------------

LAYOUTS = ["term", "docpart"]


def _delta_factory(layout, nrt_setup, docpart_nrt_setup):
    """(make() → fresh NRT searcher on the 180-doc base, base docs,
    buffer docs) for one layout."""
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    if layout == "term":
        base_dir, _, a, b = nrt_setup
        return (lambda: DeltaSearcher(base_dir)), a, b
    base_dir, _, _, a, b = docpart_nrt_setup
    return (lambda: DocPartDeltaSearcher(base_dir)), a, b


@pytest.mark.parametrize("layout", LAYOUTS)
def test_nrt_read_overlapping_add_does_not_pin_stale_postings(
    layout, nrt_setup, docpart_nrt_setup, monkeypatch
):
    """An add() that lands while a read is weighting a term's merged
    postings clears the memo before the read stores its result; the
    stored result (old N/avgdl) must be dropped, so later reads equal a
    fresh searcher given the same adds."""
    import refimage_ray.query.nrt as nrt

    make, _, b = _delta_factory(layout, nrt_setup, docpart_nrt_setup)
    first, second = b.slice(0, 10), b.slice(10)
    d = make()
    d.add(first)
    real = nrt.bm25_weight
    fired = []

    def add_mid_read(*args):
        if not fired:
            fired.append(True)
            d.add(second)
        return real(*args)

    monkeypatch.setattr(nrt, "bm25_weight", add_mid_read)
    d.search("the", k=25)
    monkeypatch.setattr(nrt, "bm25_weight", real)
    assert fired
    fresh = make()
    fresh.add(first)
    fresh.add(second)
    for q in ("the", "the data join"):
        assert d.search(q, k=25) == fresh.search(q, k=25), q


def test_lru_term_memo_put_drops_stale_generation():
    from refimage_ray.query.nrt import _LRUTermMemo

    m = _LRUTermMemo(cap=4)
    gen = m.gen
    m.put("a", 1, gen)
    assert m.get("a") == 1
    m.clear()                    # an add/flush between snapshot and store
    m.put("b", 2, gen)
    assert m.get("b") is None and len(m) == 0
    m.put("b", 2, m.gen)
    assert m.get("b") == 2


_PARITY_TEXT = st.text(
    alphabet=st.sampled_from(list("abcs 19.,-\nÉéßİZ中")), max_size=40
)
_PARITY_CFGS = [
    EngineConfig(),
    EngineConfig(term_filter="s_stem"),
    EngineConfig(token_pattern="[a-z]+"),
]


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(_PARITY_TEXT, max_size=6),
       seed=st.integers(0, 2**32 - 1),
       cfg_i=st.integers(0, len(_PARITY_CFGS) - 1))
def test_nrt_batch_postings_match_tokenize_batch(texts, seed, cfg_i):
    """The NRT add path tokenizes without tokenize_batch (no term hash,
    no Acero group_by); its (term, doc_id, tf, dl) rows must equal the
    build tokenizer's as a multiset, with dl from doc_lengths, and
    come out doc_id-sorted per term."""
    from collections import Counter

    from refimage_ray.query.nrt import _PostingBuffer
    from refimage_ray.stages.tokenize import doc_lengths, tokenize_batch

    cfg = _PARITY_CFGS[cfg_i]
    ids = np.random.default_rng(seed).choice(10**6, len(texts), replace=False)
    table = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string())})
    buf = _PostingBuffer(cfg)
    assert buf.add(table, np.zeros(0, np.int64)) == len(texts)
    got: Counter = Counter()
    for term in list(buf._runs[0]):
        p_ids, p_tfs, p_dls = buf.postings(term)
        assert np.all(np.diff(p_ids) > 0)
        assert p_ids.dtype == p_tfs.dtype == p_dls.dtype == np.int64
        got.update(zip([term] * len(p_ids), p_ids.tolist(),
                       p_tfs.tolist(), p_dls.tolist()))
    toks = tokenize_batch(table, cfg)
    want = Counter(zip(*(toks[c].to_pylist()
                         for c in ("term", "doc_id", "tf", "dl"))))
    assert got == want
    dl = dict(zip(ids.tolist(), doc_lengths(table["text"], cfg).tolist()))
    assert all(dl[i] == d for _, i, _, d in got)
    assert buf.sum_dl == sum(dl.values())
    assert buf.ids.tolist() == sorted(ids.tolist())


@pytest.fixture(scope="module")
def interleaved_setup(ray_session, tiny_docs, tmp_path_factory, nrt_setup,
                      docpart_nrt_setup):
    """Bases whose doc ids interleave with the buffered ones (every
    fifth doc is held back; the doc shard is a function of doc_id mod
    4, so every shard keeps base docs), beside the full rebuilds over
    all docs."""
    from refimage_ray.index.docpart import (
        DocPartSearcher,
        build_doc_partitioned,
    )

    root = tmp_path_factory.mktemp("nrt_interleaved")
    held = tiny_docs["doc_id"].to_numpy() % 5 == 2
    a = tiny_docs.filter(pa.array(~held))
    b = tiny_docs.filter(pa.array(held)).select(["doc_id", "text"])
    tdir, ddir = str(root / "term"), str(root / "docpart")
    build_index(rd.from_arrow(a), tdir, CFG)
    build_doc_partitioned(rd.from_arrow(a), ddir, CFG, num_doc_shards=4)
    return {
        "term": (tdir, LocalSearcher(tdir), LocalSearcher(nrt_setup[1])),
        "docpart": (ddir, DocPartSearcher(ddir),
                    DocPartSearcher(docpart_nrt_setup[1])),
        "b": b,
    }


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cuts=st.integers(0, 6))
def test_nrt_random_add_sequences_match_single_add_and_rebuild(
    interleaved_setup, layout, seed, n_cuts
):
    """Any split of the buffered docs into adds, in any order (ids
    non-monotonic across and within batches, interleaved with the
    base's), is bitwise equal to one add of their concatenation and to
    a full rebuild — search, count and term expansion."""
    from refimage_ray.query.nrt import DocPartDeltaSearcher

    base_dir, base, full = interleaved_setup[layout]
    cls = DeltaSearcher if layout == "term" else DocPartDeltaSearcher
    b = interleaved_setup["b"]
    rng = np.random.default_rng(seed)
    shuffled = b.take(pa.array(rng.permutation(b.num_rows)))
    cuts = np.sort(rng.choice(np.arange(1, b.num_rows), n_cuts, replace=False))
    bounds = [0, *cuts.tolist(), b.num_rows]
    seq = cls(base_dir, base=base)
    for s, e in zip(bounds, bounds[1:]):
        assert seq.add(shuffled.slice(s, e - s)) == e - s
    one = cls(base_dir, base=base)
    one.add(shuffled)
    assert seq.buffered == one.buffered == b.num_rows
    assert seq.n_docs == one.n_docs == full.n_docs
    for q in QUERIES:
        for mode in ("or", "and"):
            want = full.search(q, k=40, mode=mode)
            assert seq.search(q, k=40, mode=mode) == want, (q, mode)
            assert one.search(q, k=40, mode=mode) == want, (q, mode)
        assert seq.count(q) == one.count(q) == full.count(q), q
    if layout == "term":
        for kind, arg in (("prefix", "s"), ("fuzzy", "spark"),
                          ("wildcard", "da*a")):
            want = full._expand_pairs(kind, arg)
            assert seq._expand_pairs(kind, arg) == want, (kind, arg)
            assert one._expand_pairs(kind, arg) == want, (kind, arg)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_nrt_batch_of_empty_docs(layout, nrt_setup, docpart_nrt_setup):
    """Docs without a single token are buffered (N moves, Σdl does
    not) and never match; the results equal one add of everything."""
    make, _, b = _delta_factory(layout, nrt_setup, docpart_nrt_setup)
    empty = pa.table({"doc_id": pa.array([10**9 + 3, 10**9 + 1], pa.int64()),
                      "text": pa.array(["", " ,;! -- "])})
    only = make()
    before = only.n_docs, only.avgdl
    assert only.add(empty) == 2
    assert only.buffered == 2 and only.n_docs == before[0] + 2
    assert only.avgdl < before[1]
    for q in QUERIES:
        assert not {d for d, _ in only.search(q, k=10**6)} & {10**9 + 1, 10**9 + 3}
    d = make()
    d.add(empty)
    d.add(b.select(["doc_id", "text"]))
    one = make()
    one.add(pa.concat_tables([b.select(["doc_id", "text"]), empty]))
    assert d.n_docs == one.n_docs and d.avgdl == one.avgdl
    for q in QUERIES:
        for mode in ("or", "and"):
            assert d.search(q, k=40, mode=mode) == one.search(q, k=40, mode=mode)
        assert d.count(q) == one.count(q)
    assert [r["doc_id"] for r in d.lookup_buffered([10**9 + 1, 10**9 + 3])] \
        == [10**9 + 3, 10**9 + 1]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_nrt_lookup_buffered_add_order_and_fresh_rows(
    layout, nrt_setup, docpart_nrt_setup
):
    make, a, b = _delta_factory(layout, nrt_setup, docpart_nrt_setup)
    late, early = b.slice(5, 3), b.slice(0, 2)
    d = make()
    d.add(late)
    d.add(early)
    added = late.to_pylist() + early.to_pylist()
    e_ids, l_ids = early["doc_id"].to_pylist(), late["doc_id"].to_pylist()
    base_id = a["doc_id"][0].as_py()
    req = [e_ids[1], -1, l_ids[2], base_id, e_ids[1], l_ids[0], 10**15]
    want = [r for r in added if r["doc_id"] in set(req)]
    got = d.lookup_buffered(req)
    # add order (not request or id order), repeats once, unknown and
    # base ids skipped, every column of the added rows
    assert got == want
    assert [r["doc_id"] for r in got] == [l_ids[0], l_ids[2], e_ids[1]]
    got[0]["text"] = "mutated"
    got[0]["doc_id"] = -7
    got[1].clear()
    assert d.lookup_buffered(req) == want
    assert d.lookup_buffered([]) == []
    assert d.lookup_buffered([base_id, -1]) == []


@pytest.mark.parametrize("layout", LAYOUTS)
def test_nrt_flush_leaves_empty_buffer_for_later_adds(
    layout, nrt_setup, docpart_nrt_setup, tmp_path
):
    make, _, b = _delta_factory(layout, nrt_setup, docpart_nrt_setup)
    first, second = b.slice(0, 30), b.slice(30)
    d = make()
    plain = make()
    d.add(first)
    if layout == "term":
        d.flush(str(tmp_path / "flushed"), CFG)
    else:
        d.flush(str(tmp_path / "flushed"))
    assert d.buffered == 0
    assert d.n_docs == plain.n_docs and d.avgdl == plain.avgdl
    assert d.lookup_buffered(first["doc_id"].to_pylist()) == []
    for q in QUERIES:
        assert d.search(q, k=25) == plain.search(q, k=25), q
    # this searcher still serves the pre-flush base, so the flushed
    # ids are new to it and may be buffered again
    d.add(second)
    d.add(first)
    fresh = make()
    fresh.add(second)
    fresh.add(first)
    assert d.buffered == fresh.buffered == b.num_rows
    for q in QUERIES:
        for mode in ("or", "and"):
            assert d.search(q, k=40, mode=mode) == fresh.search(q, k=40, mode=mode)
        assert d.count(q) == fresh.count(q)
    ids = b["doc_id"].to_pylist()
    assert d.lookup_buffered(ids) == fresh.lookup_buffered(ids)


def test_posting_buffer_merge_never_loses_a_concurrent_add(tiny_docs):
    """Readers merging a term's chunks race a writer appending new
    chunks for the same terms; a merge that installed over an append
    would drop that batch's postings.  After the race every term's
    postings must equal a buffer filled serially."""
    import sys
    import threading

    from refimage_ray.query.nrt import _PostingBuffer

    docs = tiny_docs.select(["doc_id", "text"])
    batches = [docs.slice(i, 3) for i in range(0, docs.num_rows, 3)]
    none = np.zeros(0, np.int64)
    ref = _PostingBuffer(CFG)
    for t in batches:
        ref.add(t, none)
    terms = sorted(ref._runs[0])
    hot = ["the", "a", "data", "of", "to", "and", "query", "join"]
    buf = _PostingBuffer(CFG)
    done = threading.Event()
    errors = []

    def reader():
        try:
            while not done.is_set():
                for term in hot:
                    got = buf.postings(term)
                    if got is not None and np.any(np.diff(got[0]) <= 0):
                        errors.append(f"unsorted postings for {term!r}")
        except Exception as err:  # noqa: BLE001 — reported below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for th in threads:
            th.start()
        for t in batches:
            buf.add(t, none)
        done.set()
        for th in threads:
            th.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors[:3]
    assert sorted(buf._runs[0]) == terms
    for term in terms:
        want, got = ref.postings(term), buf.postings(term)
        for w, g in zip(want, got):
            assert np.array_equal(w, g), term
