"""Doc values: query-time metadata filters + facet aggregation.

Contracts:
- filtered search ≡ post-filtering the FULL unfiltered result list
  (exactness under the filter — the pruned-θ trap is bypassed);
- facet counts ≡ a pandas groupby oracle over the match set;
- distributed ≡ local; all predicate ops; timestamp columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from refimage_ray.query.engine import DistributedSearcher, LocalSearcher
from refimage_ray.query.multi import MultiSearcher


@pytest.fixture(scope="module")
def searcher(built_index):
    index_dir, _, _ = built_index
    return LocalSearcher(index_dir)


def _doc_meta(searcher) -> pd.DataFrame:
    import os

    import pyarrow.dataset as pads

    return (
        pads.dataset(os.path.join(searcher.index_dir, "docs"))
        .to_table(columns=["doc_id", "lang", "doc_len", "n_chars"])
        .to_pandas()
        .set_index("doc_id")
    )


def _post_filter(full, meta, pred, k):
    return [(d, s) for d, s in full if pred(meta.loc[d])][:k]


QUERIES = ["the data join", "spark query", "stream", "zzz missing"]


def test_filtered_equals_post_filter(searcher):
    meta = _doc_meta(searcher)
    cases = [
        ([("lang", "=", "en")], lambda r: r.lang == "en"),
        ([("lang", "!=", "en")], lambda r: r.lang != "en"),
        ([("lang", "in", ["en", "fr"])], lambda r: r.lang in ("en", "fr")),
        ([("lang", "not in", ["en", "fr"])], lambda r: r.lang not in ("en", "fr")),
        ([("doc_len", ">=", 100)], lambda r: r.doc_len >= 100),
        ([("doc_len", "<", 100)], lambda r: r.doc_len < 100),
        (
            [("lang", "=", "en"), ("n_chars", ">", 400)],
            lambda r: r.lang == "en" and r.n_chars > 400,
        ),
        ({"lang": "de"}, lambda r: r.lang == "de"),
    ]
    for q in QUERIES:
        full = searcher.search(q, k=10**9)
        for where, pred in cases:
            got = searcher.search(q, k=10, where=where)
            assert got == _post_filter(full, meta, pred, 10), (q, where)


def test_filtered_conjunctive(searcher):
    meta = _doc_meta(searcher)
    full = searcher.search("data join", k=10**9, mode="and")
    got = searcher.search("data join", k=10, mode="and",
                          where=[("lang", "=", "en")])
    assert got == _post_filter(full, meta, lambda r: r.lang == "en", 10)


def test_filtered_prefix_and_fuzzy(searcher):
    meta = _doc_meta(searcher)
    full = searcher.search_expanded("prefix", "s", k=10**9)
    got = searcher.search_expanded("prefix", "s", k=10,
                                   where=[("lang", "=", "fr")])
    assert got == _post_filter(full, meta, lambda r: r.lang == "fr", 10)
    full = searcher.search_expanded("fuzzy", "dat", k=10**9)
    got = searcher.search_expanded("fuzzy", "dat", k=10,
                                   where=[("doc_len", ">=", 50)])
    assert got == _post_filter(full, meta, lambda r: r.doc_len >= 50, 10)


def test_unknown_categorical_value(searcher):
    assert searcher.search("data", k=10, where=[("lang", "=", "xx")]) == []
    # != an absent value keeps everything
    assert searcher.search("data", k=10, where=[("lang", "!=", "xx")]) == \
        searcher.search("data", k=10)


def test_filter_errors(searcher):
    with pytest.raises(KeyError):
        searcher.search("data", where=[("no_such_col", "=", 1)])
    with pytest.raises(ValueError):
        searcher.search("data", where=[("lang", "<", "en")])  # order on categorical
    with pytest.raises(ValueError):
        searcher.search("data", where=[("doc_len", "~", 3)])
    with pytest.raises(ValueError, match="^doc values require a searcher "
                                         "with a resident doc_id universe "
                                         "and an index_dir$"):
        # a searcher with no resident rank universe refuses filters
        MultiSearcher([searcher.index_dir]).search(
            "data", where={"lang": "en"}
        )


def test_facets_match_pandas_oracle(searcher):
    meta = _doc_meta(searcher)
    for q, mode in [("the data join", "or"), ("data join", "and")]:
        full = searcher.search(q, k=10**9, mode=mode)
        ids = [d for d, _ in full]
        got = searcher.facets(q, by=["lang"], mode=mode,
                              histograms={"doc_len": 50})
        assert got["total"] == len(ids)
        sub = meta.loc[ids]
        vc = sub.groupby("lang").size()
        expect = sorted(
            ((str(l), int(n)) for l, n in vc.items()),
            key=lambda p: (-p[1], p[0]),
        )
        assert got["facets"]["lang"] == expect
        hist = sub.doc_len // 50 * 50
        hv = hist.value_counts().sort_index()
        assert got["histograms"]["doc_len"] == [
            (int(b), int(n)) for b, n in hv.items()
        ]


def test_facets_with_where_and_top(searcher):
    meta = _doc_meta(searcher)
    full = searcher.search("the data", k=10**9)
    ids = [d for d, _ in full if meta.loc[d].doc_len >= 100]
    got = searcher.facets("the data", by=["lang"],
                          where=[("doc_len", ">=", 100)], top=2)
    assert got["total"] == len(ids)
    vc = meta.loc[ids].groupby("lang").size()
    expect = sorted(((str(l), int(n)) for l, n in vc.items()),
                    key=lambda p: (-p[1], p[0]))[:2]
    assert got["facets"]["lang"] == expect


def test_facets_empty_match(searcher):
    got = searcher.facets("zzzqqq", by=["lang"], histograms={"doc_len": 10})
    assert got == {"total": 0, "facets": {"lang": []},
                   "histograms": {"doc_len": []}}


def test_distributed_matches_local(ray_session, built_index):
    index_dir, _, _ = built_index
    loc = LocalSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_actors=3)
    dist.wait_ready()
    where = [("lang", "in", ["en", "es"]), ("doc_len", ">=", 60)]
    for q in QUERIES:
        assert dist.search(q, k=10, where=where) == \
            loc.search(q, k=10, where=where)
    assert dist.facets("the data", by=["lang"], histograms={"doc_len": 100}) \
        == loc.facets("the data", by=["lang"], histograms={"doc_len": 100})


def test_timestamp_doc_values(ray_session, tmp_path):
    """warc_ts flows into docs/ and filters as int µs, np.datetime64,
    or ISO string."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index
    from refimage_ray.sources.pages import synthesize_pages

    pages = synthesize_pages(60, seed=7)
    docs = pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pages["text"],
            "warc_ts": pages["warc_ts"],
            "lang": pages["lang"],
        }
    )
    idx = str(tmp_path / "tsidx")
    build_index(rd.from_arrow(docs), idx,
                EngineConfig(num_shards=4, salt_buckets=2))
    s = LocalSearcher(idx)
    ts = docs["warc_ts"].to_numpy(zero_copy_only=False)
    cut = ts[30]
    cut_us = int(cut.astype("datetime64[us]").astype(np.int64))
    full = s.search("the", k=10**9)
    late = {int(d) for d in np.flatnonzero(ts >= cut)}
    expect = [(d, sc) for d, sc in full if d in late][:10]
    for val in (cut_us, cut, str(cut)):
        assert s.search("the", k=10, where=[("warc_ts", ">=", val)]) == expect
    # histogram facet by day buckets is exact vs numpy
    got = s.facets("the", histograms={"warc_ts": 86_400_000_000})
    ids = np.array([d for d, _ in full])
    us = ts.astype("datetime64[us]").astype(np.int64)[ids]
    b = us // 86_400_000_000 * 86_400_000_000
    uniq, cnt = np.unique(b, return_counts=True)
    assert got["histograms"]["warc_ts"] == \
        [(int(u), int(n)) for u, n in zip(uniq, cnt)]


def test_doc_values_extend_and_cache(searcher):
    dv = searcher.doc_values(["lang"])
    assert set(dv.cols) >= {"lang"}
    dv2 = searcher.doc_values(["lang", "doc_len"])
    assert dv2 is dv and set(dv.cols) >= {"lang", "doc_len"}
    m1 = dv.mask([("lang", "=", "en")])
    m2 = dv.mask([("lang", "=", "en")])
    assert m1 is m2  # cached


def test_order_by_matches_pandas(searcher):
    meta = _doc_meta(searcher)
    for q in ("the data join", "spark query"):
        full = searcher.search(q, k=10**9)
        ids = [d for d, _ in full]
        scores = dict(full)
        for col, direction in (("doc_len", "desc"), ("doc_len", "asc"),
                               ("n_chars", "desc"), ("lang", "asc")):
            got = searcher.search(q, k=10, order_by=(col, direction))
            vals = meta.loc[ids, col]
            expect_ids = sorted(
                ids,
                key=lambda d: (
                    (-vals[d] if direction == "desc" else vals[d], d)
                    if col != "lang"
                    else (vals[d], d)  # lang asc only (strings)
                ),
            )[:10]
            assert got == [(d, scores[d]) for d in expect_ids], (q, col, direction)


def test_order_by_categorical_desc(searcher):
    meta = _doc_meta(searcher)
    full = searcher.search("the data", k=10**9)
    ids = [d for d, _ in full]
    scores = dict(full)
    got = searcher.search("the data", k=10, order_by=("lang", "desc"))
    vals = meta.loc[ids, "lang"]
    # emulate string desc with an asc tie on id: sort values desc via
    # their rank in the reversed value order, ids ascending within
    order = sorted(set(vals[d] for d in ids), reverse=True)
    rank = {v: i for i, v in enumerate(order)}
    expect = sorted(ids, key=lambda d: (rank[vals[d]], d))[:10]
    assert got == [(d, scores[d]) for d in expect]


def test_order_by_with_where_composes(searcher):
    meta = _doc_meta(searcher)
    full = searcher.search("the data", k=10**9)
    scores = dict(full)
    ids = [d for d, _ in full if meta.loc[d].lang == "en"]
    got = searcher.search("the data", k=5, where=[("lang", "=", "en")],
                          order_by=("doc_len", "desc"))
    expect = sorted(ids, key=lambda d: (-meta.loc[d].doc_len, d))[:5]
    assert got == [(d, scores[d]) for d in expect]


def test_order_by_errors(searcher):
    with pytest.raises(ValueError, match="asc"):
        searcher.search("data", order_by=("doc_len", "down"))
    with pytest.raises(KeyError):
        searcher.search("data", order_by=("nope", "desc"))


def test_order_by_distributed_matches_local(ray_session, built_index):
    index_dir, _, _ = built_index
    loc = LocalSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_actors=3)
    dist.wait_ready()
    for ob in (("doc_len", "desc"), ("lang", "asc")):
        assert dist.search("the data", k=10, order_by=ob) == \
            loc.search("the data", k=10, order_by=ob)


def test_offset_pagination(searcher):
    """Pages tile the full ranked list exactly, across every search
    flavor (plain, filtered, ordered, conjunctive, prefix, phrase)."""
    cases = [
        lambda off: searcher.search("the data join", k=7, offset=off),
        lambda off: searcher.search("the data join", k=7, offset=off,
                                    where=[("lang", "!=", "ja")]),
        lambda off: searcher.search("the data", k=7, offset=off,
                                    order_by=("doc_len", "desc")),
        lambda off: searcher.search("data join", k=7, offset=off, mode="and"),
        lambda off: searcher.search_expanded("prefix", "s", k=7, offset=off),
        lambda off: searcher.search_phrase("the data", k=7, offset=off),
    ]
    fulls = [
        searcher.search("the data join", k=10**9),
        searcher.search("the data join", k=10**9,
                        where=[("lang", "!=", "ja")]),
        searcher.search("the data", k=10**9, order_by=("doc_len", "desc")),
        searcher.search("data join", k=10**9, mode="and"),
        searcher.search_expanded("prefix", "s", k=10**9),
        searcher.search_phrase("the data", k=10**9),
    ]
    for fn, full in zip(cases, fulls):
        pages = [fn(off) for off in range(0, 22, 7)]
        tiled = [h for p in pages for h in p]
        assert tiled == full[:len(tiled)]
    with pytest.raises(ValueError):
        searcher.search("data", offset=-1)


def test_offset_docpart_and_distributed(ray_session, built_index):
    index_dir, _, _ = built_index
    loc = LocalSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_actors=3)
    dist.wait_ready()
    assert dist.search("the data", k=5, offset=5) == \
        loc.search("the data", k=5, offset=5)


def test_review_fixes_edge_cases(searcher):
    """Regression trio: typed mask-cache keys, bare-string 'in',
    non-positive histogram width."""
    dv = searcher.doc_values(["doc_len", "lang"])
    m_int = dv.mask([("doc_len", "in", [50, 60])])
    assert m_int.sum() > 0
    with pytest.raises(ValueError, match="non-numeric"):
        dv.mask([("doc_len", "in", ["50", "60"])])  # str vs int column
    with pytest.raises(ValueError, match="list"):
        searcher.search("data", where=[("lang", "in", "en")])
    with pytest.raises(ValueError, match="width"):
        searcher.facets("data", histograms={"doc_len": 0})


def test_facet_sums_match_pandas(searcher):
    meta = _doc_meta(searcher)
    for q in ("the data", "spark query"):
        full = searcher.search(q, k=10**9)
        ids = [d for d, _ in full]
        got = searcher.facets(q, sums={"lang": "doc_len"})
        sub = meta.loc[ids]
        gs = sub.groupby("lang")["doc_len"].sum()
        expect = sorted(((str(l), int(s)) for l, s in gs.items()),
                        key=lambda p: (-p[1], p[0]))
        assert got["sums"]["lang"] == expect
    # sums compose with where and top
    got = searcher.facets("the data", sums={"lang": "doc_len"},
                          where=[("doc_len", ">=", 100)], top=2)
    ids = [d for d, _ in searcher.search("the data", k=10**9)
           if meta.loc[d].doc_len >= 100]
    gs = meta.loc[ids].groupby("lang")["doc_len"].sum()
    expect = sorted(((str(l), int(s)) for l, s in gs.items()),
                    key=lambda p: (-p[1], p[0]))[:2]
    assert got["sums"]["lang"] == expect
    # sums key absent unless requested (back-compat shape)
    assert "sums" not in searcher.facets("the data", by=["lang"])
    with pytest.raises(ValueError, match="numeric"):
        searcher.facets("the data", sums={"lang": "lang"})
    with pytest.raises(ValueError, match="categorical"):
        searcher.facets("the data", sums={"doc_len": "doc_len"})


def test_dsl_facets(searcher):
    """Facet panel over DSL membership: OR-query panel equals the
    plain-search panel; NOT-query panel equals a pandas oracle."""
    from refimage_ray.query.dsl import DSLExecutor

    ex = DSLExecutor(searcher)
    assert ex.facets("spark OR query", by=["lang"], sums={"lang": "doc_len"}) \
        == searcher.facets("spark query", by=["lang"],
                           sums={"lang": "doc_len"})
    meta = _doc_meta(searcher)
    ids = [d for d, _ in ex.execute_query("data NOT spark", limit=10**9)]
    got = ex.facets("data NOT spark", by=["lang"],
                    where=[("doc_len", ">=", 50)])
    keep = [d for d in ids if meta.loc[d].doc_len >= 50]
    vc = meta.loc[keep].groupby("lang").size()
    expect = sorted(((str(l), int(n)) for l, n in vc.items()),
                    key=lambda p: (-p[1], p[0]))
    assert got["total"] == len(keep) and got["facets"]["lang"] == expect


def test_numeric_in_and_string_value_errors(searcher):
    """Review regressions: 'in' on an int64 column works; a string
    value against a numeric column raises instead of silently parsing
    as a datetime; ndarray filter values never alias in the cache."""
    meta = _doc_meta(searcher)
    full = searcher.search("the data", k=10**9)
    lens = sorted({int(meta.loc[d].n_chars) for d, _ in full})[:3]
    got = searcher.search("the data", k=10, where=[("n_chars", "in", lens)])
    expect = [(d, s) for d, s in full if meta.loc[d].n_chars in lens][:10]
    assert got == expect
    with pytest.raises(ValueError, match="non-numeric"):
        searcher.search("the data", where=[("n_chars", "=", "100")])
    with pytest.raises(ValueError, match="non-numeric"):
        searcher.search("the data", where=[("n_chars", "in", [100, "200"])])
    dv = searcher.doc_values(["n_chars"])
    a = np.arange(2000, dtype=np.int64)
    b = a.copy(); b[1000] = 10**9
    m1 = dv.mask([("n_chars", "in", a)])
    m2 = dv.mask([("n_chars", "in", b)])
    assert m1 is not m2  # str(ndarray) elision must not alias keys


def test_null_semantics(ray_session, tmp_path):
    """Nulls in doc-value columns: never match any predicate (SQL
    semantics), sort last under order_by both directions, skip
    histogram buckets and sum addends; bool-with-null loads."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index

    n = 40
    texts = [f"tok{i % 5} common filler" for i in range(n)]
    cat = [None if i % 7 == 0 else ("a" if i % 2 else "b") for i in range(n)]
    num = [None if i % 5 == 0 else i for i in range(n)]
    ts = [None if i % 11 == 0 else
          np.datetime64("2023-01-01", "us") + np.timedelta64(i, "D")
          for i in range(n)]
    flag = [None if i % 13 == 0 else bool(i % 2) for i in range(n)]
    docs = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "cat": pa.array(cat, pa.string()),
            "num": pa.array(num, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "flag": pa.array(flag, pa.bool_()),
        }
    )
    idx = str(tmp_path / "nullidx")
    build_index(rd.from_arrow(docs), idx,
                EngineConfig(num_shards=4, salt_buckets=2))
    s = LocalSearcher(idx)
    full = s.search("common", k=10**9)
    assert len(full) == n
    null_cat = {i for i in range(n) if cat[i] is None}
    null_num = {i for i in range(n) if num[i] is None}
    # predicates exclude nulls, negated ones included
    got = {d for d, _ in s.search("common", k=n, where=[("cat", "!=", "a")])}
    assert got == {i for i in range(n) if cat[i] == "b"}
    got = {d for d, _ in s.search("common", k=n,
                                  where=[("num", "!=", 3)])}
    assert got == {i for i in range(n) if num[i] not in (None, 3)}
    got = {d for d, _ in s.search("common", k=n,
                                  where=[("ts", "<", "2030-01-01")])}
    assert got == {i for i in range(n) if ts[i] is not None}
    got = {d for d, _ in s.search("common", k=n, where=[("flag", "=", 1)])}
    assert got == {i for i in range(n) if flag[i] is True}
    # order_by: nulls last both directions, non-null prefix ordered
    for direction in ("asc", "desc"):
        hits = s.search("common", k=n, order_by=("num", direction))
        ids = [d for d, _ in hits]
        nn = [d for d in ids if d not in null_num]
        assert set(ids[-len(null_num):]) == null_num
        vals = [num[d] for d in nn]
        assert vals == sorted(vals, reverse=(direction == "desc"))
    # histogram / sums skip nulls
    f = s.facets("common", histograms={"num": 10}, sums={"cat": "num"})
    assert sum(c for _, c in f["histograms"]["num"]) == n - len(null_num)
    expect_a = sum(num[i] or 0 for i in range(n)
                   if cat[i] == "a" and num[i] is not None)
    assert dict(f["sums"]["cat"])["a"] == expect_a


def test_order_by_threshold_parity_with_nonpositive_scorer(searcher):
    """Review regression: adding order_by must not change the match set
    at threshold 0.0 — topk_select only filters when threshold > 0, so
    a plugin scorer emitting negative contributions keeps its docs."""
    from refimage_ray.extension import register_scorer

    @register_scorer
    class NegScorer:
        name = "neg_test"

        def idf(self, df, n_docs):
            return 1.0

        def weight(self, tf, dl, avgdl):
            return -tf  # every contribution negative

    plain = searcher.search("the data", k=10**9, scorer="neg_test")
    assert plain and all(s < 0 for _, s in plain)
    ordered = searcher.search("the data", k=10**9, scorer="neg_test",
                              order_by=("doc_len", "asc"))
    assert {d for d, _ in ordered} == {d for d, _ in plain}


def test_search_grouped_matches_pandas(searcher):
    """Grouped top-k == per-group head of the (score desc, doc_id asc)
    ranking, for both modes, with filters and group restriction."""
    meta = _doc_meta(searcher)
    for q, mode in (("the data join", "or"), ("data join", "and")):
        full = searcher.search(q, k=10**9, mode=mode)
        got = searcher.search_grouped(q, by="lang", k_per_group=3, mode=mode)
        expect = []
        for g in sorted({meta.loc[d].lang for d, _ in full}):
            hits = [(d, s) for d, s in full if meta.loc[d].lang == g][:3]
            expect.extend((g, d, s) for d, s in hits)
        assert got == expect, (q, mode)
    # where composes; groups restricts
    full = searcher.search("the data", k=10**9,
                           where=[("doc_len", ">=", 50)])
    got = searcher.search_grouped("the data", by="lang", k_per_group=2,
                                  where=[("doc_len", ">=", 50)],
                                  groups=["en", "fr"])
    expect = []
    for g in ("en", "fr"):
        hits = [(d, s) for d, s in full if meta.loc[d].lang == g][:2]
        expect.extend((g, d, s) for d, s in hits)
    assert got == expect
    # numeric group column / empty match / unknown group
    with pytest.raises(ValueError, match="categorical"):
        searcher.search_grouped("the data", by="doc_len")
    assert searcher.search_grouped("zzzqq", by="lang") == []
    assert searcher.search_grouped("the data", by="lang",
                                   groups=["xx"]) == []
    # distributed identical
    dist = DistributedSearcher(searcher.index_dir, num_actors=3)
    dist.wait_ready()
    assert dist.search_grouped("the data", by="lang", k_per_group=3) == \
        searcher.search_grouped("the data", by="lang", k_per_group=3)


# --- count surface (ES _count analog) ---

def test_count_equals_membership_size(searcher):
    for q in QUERIES:
        for mode in ("or", "and"):
            full = searcher.search(q, k=10**9, mode=mode, threshold=0.0)
            assert searcher.count(q, mode=mode) == len(full), (q, mode)


def test_count_min_match_and_where(searcher):
    q = "the data join"
    full = searcher.search(q, k=10**9, mode="or", threshold=0.0,
                           min_match=2)
    assert searcher.count(q, min_match=2) == len(full)
    meta = _doc_meta(searcher)
    full_en = searcher.search(q, k=10**9, mode="or", threshold=0.0,
                              where=[("lang", "=", "en")])
    assert searcher.count(q, where=[("lang", "=", "en")]) == len(full_en)
    assert searcher.count(q, where=[("lang", "=", "en")]) == sum(
        1 for d, _ in searcher.search(q, k=10**9, threshold=0.0)
        if meta.loc[d].lang == "en"
    )


def test_count_validation(searcher):
    with pytest.raises(ValueError):
        searcher.count("x", mode="phrase")
    with pytest.raises(ValueError):
        searcher.count("a b", mode="and", min_match=1)
    assert searcher.count("zzz missing qqq") == 0


# --- DNF filters: {"or": [conjunction, ...]} ---

def test_or_filter_equals_post_filter(searcher):
    meta = _doc_meta(searcher)
    w = {"or": [
        [("lang", "=", "en"), ("doc_len", ">=", 100)],
        [("lang", "=", "fr")],
    ]}
    pred = lambda r: (r.lang == "en" and r.doc_len >= 100) or r.lang == "fr"
    for q in QUERIES:
        full = searcher.search(q, k=10**9, threshold=0.0)
        got = searcher.search(q, k=10, where=w)
        assert got == _post_filter(full, meta, pred, 10), q
        assert searcher.count(q, where=w) == len(
            _post_filter(full, meta, pred, 10**9)
        ), q


def test_or_filter_single_group_equals_conjunction(searcher):
    w_flat = [("lang", "=", "en"), ("doc_len", ">=", 100)]
    w_dnf = {"or": [w_flat]}
    for q in QUERIES:
        assert searcher.search(q, k=10, where=w_dnf) == searcher.search(
            q, k=10, where=w_flat
        ), q


def test_or_filter_facets_and_validation(searcher):
    w = {"or": [[("lang", "=", "en")], [("lang", "=", "fr")]]}
    a = searcher.facets("data join", by=["lang"], where=w)
    b = searcher.facets("data join", by=["lang"],
                        where=[("lang", "in", ["en", "fr"])])
    assert a == b
    import pytest as _pytest

    with _pytest.raises(ValueError):
        searcher.count("data", where={"or": []})


def test_parse_filter_dnf():
    from refimage_ray.serve import parse_filter

    assert parse_filter("lang=en,doc_len>=100;lang=fr") == {"or": [
        [("lang", "=", "en"), ("doc_len", ">=", 100)],
        [("lang", "=", "fr")],
    ]}
    assert parse_filter("lang=en,doc_len>=100") == [
        ("lang", "=", "en"), ("doc_len", ">=", 100)
    ]
    assert parse_filter("lang=en|fr;n_chars<300") == {"or": [
        [("lang", "in", ["en", "fr"])],
        [("n_chars", "<", 300)],
    ]}


# --- multi-key order_by ---

def test_order_by_multi_equals_pandas(searcher):
    meta = _doc_meta(searcher)
    for q in QUERIES:
        full = searcher.search(q, k=10**9, threshold=0.0)
        if not full:
            assert searcher.search(
                q, k=5, order_by=[("lang", "asc"), ("n_chars", "desc")]
            ) == []
            continue
        df = pd.DataFrame(
            [(d, s, meta.loc[d].lang, meta.loc[d].n_chars) for d, s in full],
            columns=["doc_id", "score", "lang", "n_chars"],
        ).sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        want = list(zip(df.doc_id.tolist()[:5], df.score.tolist()[:5]))
        got = searcher.search(
            q, k=5, order_by=[("lang", "asc"), ("n_chars", "desc")]
        )
        assert got == want, q


def test_order_by_single_tuple_unchanged(searcher):
    a = searcher.search("data join", k=10, order_by=("n_chars", "desc"))
    b = searcher.search("data join", k=10, order_by=[("n_chars", "desc")])
    assert a == b
    with pytest.raises(ValueError):
        searcher.search("data", k=5, order_by=[("n_chars", "sideways")])
    with pytest.raises(ValueError):
        searcher.search("data", k=5, order_by=[])


def test_facet_percentiles(searcher):
    import numpy as np

    f = searcher.facets("the data", percentiles={"doc_len": [0.5, 0.9, 1.0]})
    pairs = f["percentiles"]["doc_len"]
    # oracle: gather match-set doc_lens and select the same ranks
    full = searcher.facets("the data", histograms={"doc_len": 1})
    vals = np.repeat([b for b, _ in full["histograms"]["doc_len"]],
                     [n for _, n in full["histograms"]["doc_len"]])
    vals = np.sort(vals)
    for q, v in pairs:
        k = max(1, int(np.ceil(q * len(vals))))
        assert v == vals[k - 1], q
    with pytest.raises(ValueError, match="percentile"):
        searcher.facets("the", percentiles={"doc_len": [0.0]})
    with pytest.raises(ValueError, match="categorical"):
        searcher.facets("the", percentiles={"lang": [0.5]})


def test_facet_percentiles_docpart_gather(ray_session, built_index,
                                          searcher, tmp_path):
    """Docpart percentiles gather match VALUES per shard and
    rank-select over the concatenation — must equal the local panel."""
    import ray.data as rd

    from refimage_ray.index.docpart import (
        DocPartSearcher, build_doc_partitioned,
    )
    import pyarrow.dataset as pads

    index_dir, cfg, _ = built_index
    docs = pads.dataset(index_dir + "/docs").to_table(
        columns=["doc_id", "text", "n_chars"]
    )
    dp = str(tmp_path / "dp")
    # value_columns → shard views carry a resident universe + values
    build_doc_partitioned(rd.from_arrow(docs), dp, cfg,
                          value_columns=["n_chars"])
    spec = {"n_chars": [0.5, 0.9, 1.0]}
    local = searcher.facets("the data", percentiles=spec)
    part = DocPartSearcher(dp).facets("the data", percentiles=spec)
    assert part["percentiles"] == local["percentiles"]
    # cap is enforced per shard view
    with pytest.raises(ValueError, match="gather cap"):
        DocPartSearcher(dp).shards[0].match_values(
            "the", ["n_chars"], cap=1
        )


def test_facet_percentiles_above_cap_selection_fallback(
    ray_session, built_index, searcher, tmp_path
):
    """When the match set exceeds the gather cap, docpart percentiles
    switch to exact histogram-bisection selection (O(buckets) exchange
    per round) — results must equal the gather path EXACTLY, on both
    the in-process and the actor-pool searchers."""
    import ray.data as rd

    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )
    import pyarrow.dataset as pads

    index_dir, cfg, _ = built_index
    docs = pads.dataset(index_dir + "/docs").to_table(
        columns=["doc_id", "text", "n_chars"]
    )
    dp = str(tmp_path / "dp_sel")
    build_doc_partitioned(rd.from_arrow(docs), dp, cfg,
                          value_columns=["n_chars"])
    spec = {"n_chars": [0.25, 0.5, 0.9, 1.0]}
    dps = DocPartSearcher(dp)
    gathered = dps.facets("the data", percentiles=spec)
    fallback = dps.facets("the data", percentiles=spec,
                          percentile_gather_cap=1)
    assert fallback["percentiles"] == gathered["percentiles"]

    dist = DistributedDocPartSearcher(dp, num_actors=2)
    dist_fb = dist.facets("the data", percentiles=spec,
                          percentile_gather_cap=1)
    assert dist_fb["percentiles"] == gathered["percentiles"]
    # a non-cap error must still propagate, not reroute
    with pytest.raises(KeyError, match="doc-value column"):
        dps.facets("the data", percentiles={"missing_col": [0.5]},
                   percentile_gather_cap=1)


def test_runtime_field(searcher):
    import numpy as np

    if "ratio" not in searcher.doc_values(["doc_len"]).cols:
        searcher.define_runtime_field(
            "ratio", ["doc_len"],
            lambda c: c["doc_len"].astype(np.float64) * 2.0,
        )
    # behaves like a stored column in where / order_by / facets
    plain = searcher.search("the data", k=10, where=[("doc_len", ">=", 50)])
    runtime = searcher.search("the data", k=10, where=[("ratio", ">=", 100.0)])
    assert plain == runtime
    f = searcher.facets("the data", percentiles={"ratio": [0.5]})
    g = searcher.facets("the data", percentiles={"doc_len": [0.5]})
    assert f["percentiles"]["ratio"][0][1] == 2 * g["percentiles"]["doc_len"][0][1]
    # validation: shape and categorical sources rejected
    with pytest.raises(ValueError, match="shape"):
        searcher.define_runtime_field("bad", ["doc_len"],
                                      lambda c: c["doc_len"][:3])
    with pytest.raises(ValueError, match="categorical"):
        searcher.define_runtime_field("bad2", ["lang"], lambda c: c["lang"])


# --- ES composite aggregation (bucket pagination) ---

def test_composite_pages_tile_full_list(searcher):
    """Walking the after_key cursor must reproduce the full ordered
    bucket list exactly once (no gaps, no dups)."""
    meta = _doc_meta(searcher)
    q = "the"
    hits = {d for d, _ in searcher.search(q, k=10**6, threshold=float("-inf"))}
    want = (
        meta.loc[sorted(hits)]
        .groupby("lang")
        .size()
        .sort_index()
    )
    got, after, pages = [], None, 0
    while True:
        out = searcher.composite(q, by=["lang"], size=2, after=after)
        got.extend(out["buckets"])
        pages += 1
        if out["after_key"] is None:
            break
        after = out["after_key"]
        assert pages < 100
    assert [b["key"][0] for b in got] == list(want.index)
    assert [b["doc_count"] for b in got] == [int(x) for x in want.values]
    assert pages >= 2  # the cursor actually paged


def test_composite_validation(searcher):
    import pytest as _pt

    with _pt.raises(ValueError):
        searcher.composite("the", by=["doc_len"])  # numeric key col
    with _pt.raises(ValueError):
        searcher.composite("the", by=["lang"], size=0)
    with _pt.raises(ValueError):
        searcher.composite("the", by=["lang"], mode="nope")


def test_composite_where_filter(searcher):
    full = searcher.composite("the", by=["lang"], size=50)
    filt = searcher.composite(
        "the", by=["lang"], size=50, where=[("lang", "=", "en")]
    )
    keys = [b["key"] for b in filt["buckets"]]
    assert keys == [("en",)]
    en_full = {b["key"]: b["doc_count"] for b in full["buckets"]}[("en",)]
    assert filt["buckets"][0]["doc_count"] == en_full
