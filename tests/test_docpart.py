"""Doc-partitioned index A/B: exact score identity with the
term-partitioned engine, disjoint shard coverage, determinism."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.docpart import (
    DocPartSearcher,
    _doc_shard_of,
    build_doc_partitioned,
)
from refimage_ray.query.boost import DecaySpec
from refimage_ray.query.engine import LocalSearcher
from tests.conftest import FIXTURE_QUERIES


@pytest.fixture(scope="module")
def both_indexes(ray_session, tiny_docs, tmp_path_factory):
    from refimage_ray.index.build import build_index

    cfg = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)
    base = tmp_path_factory.mktemp("docpart")
    term_dir = str(base / "term")
    doc_dir = str(base / "doc")
    build_index(rd.from_arrow(tiny_docs), term_dir, cfg)
    build_doc_partitioned(rd.from_arrow(tiny_docs), doc_dir, cfg,
                          num_doc_shards=4, value_columns=["lang"])
    return term_dir, doc_dir, cfg


def test_docpart_scores_bit_identical_to_term_partitioned(both_indexes):
    term_dir, doc_dir, cfg = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            assert a.search(q, k=10, mode=mode) == b.search(q, k=10, mode=mode), (
                q, mode,
            )


def test_docpart_threshold_and_k(both_indexes):
    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    assert a.search("the data join", k=3) == b.search("the data join", k=3)
    ra = a.search("the data join", k=1000, threshold=0.3)
    rb = b.search("the data join", k=1000, threshold=0.3)
    assert ra == rb


def test_doc_shard_disjoint_and_balanced():
    ids = np.arange(0, 100000, 7, dtype=np.int64)  # strided id space
    shards = _doc_shard_of(ids, 16)
    assert shards.min() >= 0 and shards.max() < 16
    counts = np.bincount(shards, minlength=16)
    assert counts.min() > 0.5 * counts.mean()  # multiplicative hash balances


def test_docpart_deterministic_rebuild(ray_session, tiny_docs, tmp_path):
    import glob
    import os

    cfg = EngineConfig(num_shards=8, salt_buckets=4)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    build_doc_partitioned(rd.from_arrow(tiny_docs), d1, cfg, num_doc_shards=4)
    build_doc_partitioned(rd.from_arrow(tiny_docs), d2, cfg, num_doc_shards=4)
    for p1 in sorted(glob.glob(os.path.join(d1, "docshard-*.parquet"))):
        p2 = os.path.join(d2, os.path.basename(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_docpart_rebuild_clears_stale_outputs(ray_session, tiny_docs, tmp_path):
    """Rebuilding into the same dir with FEWER shards must not leave
    prior docshard files (globbed by prefix at load time) or stale
    terms/ rows (write_parquet ADDS uniquely-named files) behind."""
    import glob
    import os

    import pyarrow.parquet as pq

    cfg = EngineConfig(num_shards=8, salt_buckets=4)
    d = str(tmp_path / "idx")
    build_doc_partitioned(rd.from_arrow(tiny_docs), d, cfg, num_doc_shards=8)
    n_terms_first = pq.read_table(os.path.join(d, "terms")).num_rows
    build_doc_partitioned(rd.from_arrow(tiny_docs), d, cfg, num_doc_shards=2)
    ordinals = [
        int(os.path.basename(p)[len("docshard-"):].split(".")[0])
        for p in glob.glob(os.path.join(d, "docshard-*.parquet"))
    ]
    assert ordinals and max(ordinals) < 2, f"stale shard files: {ordinals}"
    # terms/ holds exactly one run's rows, not both runs' appended files
    assert pq.read_table(os.path.join(d, "terms")).num_rows == n_terms_first
    # and a fresh-dir build answers identically
    d2 = str(tmp_path / "fresh")
    build_doc_partitioned(rd.from_arrow(tiny_docs), d2, cfg, num_doc_shards=2)
    a, b = DocPartSearcher(d), DocPartSearcher(d2)
    for q in FIXTURE_QUERIES[:3]:
        assert a.search(q, k=10) == b.search(q, k=10), q


def test_distributed_docpart_matches_local(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, _ = both_indexes
    local = DocPartSearcher(doc_dir)
    dist = DistributedDocPartSearcher(doc_dir, num_actors=2)
    dist.wait_ready()  # barrier: all doc-shard actors loaded
    for q in FIXTURE_QUERIES[:5]:
        assert dist.search(q, k=10) == local.search(q, k=10), q
    # pipelined batch path returns the same per-query results
    batch = dist.search_many(FIXTURE_QUERIES[:5], k=10)
    assert batch == [local.search(q, k=10) for q in FIXTURE_QUERIES[:5]]


def test_docpart_actor_death_is_transparent(both_indexes):
    """Same restart contract as the term-partitioned pool: killed
    doc-shard actors reload and the retried search RPC is identical."""
    import ray

    from refimage_ray.index.docpart import DistributedDocPartSearcher

    _, doc_dir, _ = both_indexes
    dist = DistributedDocPartSearcher(doc_dir, num_actors=2)
    dist.wait_ready()
    q = "table scan merge sort fast"
    before = dist.search(q, k=10)
    for a in dist.actors:
        ray.kill(a, no_restart=False)
    assert dist.search(q, k=10) == before


def test_stale_tmp_shard_file_is_ignored_and_cleaned(both_indexes, tiny_docs,
                                                     tmp_path):
    """Regression: a docshard-*.parquet.tmp left by a crashed atomic
    write must not be loaded as a shard (double postings / torn reads),
    and a rebuild must clear it."""
    import os
    import shutil

    term_dir, doc_dir, cfg = both_indexes
    d = str(tmp_path / "idx")
    shutil.copytree(doc_dir, d)
    stale = os.path.join(d, "docshard-00000.parquet.tmp")
    with open(stale, "wb") as f:
        f.write(b"torn garbage")  # a torn tmp would crash pq.read_table

    a, b = DocPartSearcher(doc_dir), DocPartSearcher(d)
    assert len(b.shards) == len(a.shards)
    for q in FIXTURE_QUERIES[:3]:
        assert a.search(q, k=10) == b.search(q, k=10), q

    # rebuild into the same dir removes the stale tmp before writing
    build_doc_partitioned(rd.from_arrow(tiny_docs), d, cfg, num_doc_shards=4)
    assert not os.path.exists(stale)
    c = DocPartSearcher(d)
    for q in FIXTURE_QUERIES[:3]:
        assert a.search(q, k=10) == c.search(q, k=10), q


def test_docpart_filtered_matches_term_partitioned(both_indexes):
    """Shard-local doc values: filtered top-k identical to the
    term-partitioned engine's (same corpus, same predicate)."""
    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    for where in ([("lang", "=", "en")], [("lang", "in", ["en", "fr"])],
                  [("lang", "!=", "ja")]):
        for q in FIXTURE_QUERIES[:5]:
            for mode in ("or", "and"):
                assert a.search(q, k=10, mode=mode, where=where) == \
                    b.search(q, k=10, mode=mode, where=where), (q, mode, where)


def test_docpart_facets_additive_merge(both_indexes):
    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    for q in ("the data join", "spark query"):
        fa = a.facets(q, by=["lang"])
        fb = b.facets(q, by=["lang"])
        assert fb["total"] == fa["total"]
        assert fb["facets"]["lang"] == fa["facets"]["lang"]
    # top applies after the merge
    assert b.facets("the data", by=["lang"], top=2)["facets"]["lang"] == \
        a.facets("the data", by=["lang"], top=2)["facets"]["lang"]
    # filtered facets
    w = [("lang", "in", ["en", "de"])]
    assert b.facets("the data", by=["lang"], where=w) == \
        a.facets("the data", by=["lang"], where=w)


def test_distributed_docpart_filtered_and_facets(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, _ = both_indexes
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    w = [("lang", "=", "en")]
    for q in FIXTURE_QUERIES[:4]:
        assert d.search(q, k=10, where=w) == b.search(q, k=10, where=w)
    assert d.facets("the data", by=["lang"], where=w, top=3) == \
        b.facets("the data", by=["lang"], where=w, top=3)


def test_docpart_without_values_raises(ray_session, tiny_docs, tmp_path):
    doc_dir = str(tmp_path / "novals")
    build_doc_partitioned(rd.from_arrow(tiny_docs), doc_dir,
                          EngineConfig(num_shards=4, salt_buckets=2),
                          num_doc_shards=4)
    s = DocPartSearcher(doc_dir)
    with pytest.raises(ValueError, match="value_columns"):
        s.search("the data", k=5, where=[("lang", "=", "en")])


def test_docpart_unknown_value_column_raises(both_indexes):
    _, doc_dir, _ = both_indexes
    s = DocPartSearcher(doc_dir)
    with pytest.raises(KeyError, match="doc_len"):
        s.search("the data", k=5, where=[("doc_len", ">=", 10)])


def test_docpart_offset_pagination(both_indexes):
    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    for off in (0, 5, 10):
        assert a.search("the data", k=5, offset=off) == \
            b.search("the data", k=5, offset=off)


def test_distributed_docpart_offset(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    _, doc_dir, _ = both_indexes
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    assert d.search("the data", k=5, offset=5) == \
        b.search("the data", k=5, offset=5)


def test_docpart_foreign_values_file_rejected(both_indexes, tmp_path):
    """A docvalues file whose universe doesn't cover the shard's
    postings must fail LOUDLY at load, not misalign masks silently."""
    import os
    import shutil

    import pyarrow.parquet as pq

    _, doc_dir, _ = both_indexes
    d = str(tmp_path / "tampered")
    shutil.copytree(doc_dir, d)
    vfiles = sorted(f for f in os.listdir(d) if f.startswith("docvalues-"))
    # truncate one shard's values file to half its rows
    p = os.path.join(d, vfiles[0])
    t = pq.read_table(p)
    pq.write_table(t.slice(0, t.num_rows // 2), p)
    with pytest.raises(ValueError, match="not all present"):
        DocPartSearcher(d)


def test_docpart_facet_sums_additive(both_indexes, tmp_path):
    """Per-shard sums merge additively; needs a numeric value column in
    the values files, so build a fresh artifact with doc_len values."""
    import os

    import pyarrow.parquet as pq

    from refimage_ray.index.docpart import DistributedDocPartSearcher
    from refimage_ray.stages.tokenize import doc_stats_batch

    term_dir, _, cfg = both_indexes
    # docs table with doc_len (the build's stats pass computes it for
    # the term layout; here we precompute so values can carry it)
    docs_t = pq.read_table(os.path.join(term_dir, "docs"))
    d = str(tmp_path / "sumidx")
    build_doc_partitioned(
        rd.from_arrow(docs_t.select(["doc_id", "text", "lang", "doc_len"])),
        d, cfg, num_doc_shards=4, value_columns=["lang", "doc_len"],
    )
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(d)
    dist = DistributedDocPartSearcher(d, num_actors=2)
    dist.wait_ready()
    fa = a.facets("the data", sums={"lang": "doc_len"}, top=3)
    assert b.facets("the data", sums={"lang": "doc_len"}, top=3)["sums"] \
        == fa["sums"]
    assert dist.facets("the data", sums={"lang": "doc_len"}, top=3)["sums"] \
        == fa["sums"]


def test_distributed_docpart_search_many_where_offset(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    _, doc_dir, _ = both_indexes
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    qs = FIXTURE_QUERIES[:4]
    w = [("lang", "=", "en")]
    batch = d.search_many(qs, k=5, where=w, offset=3)
    assert batch == [b.search(q, k=5, where=w, offset=3) for q in qs]


def test_docpart_grouped_matches_term_partitioned(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    for q in FIXTURE_QUERIES[:4]:
        expect = a.search_grouped(q, by="lang", k_per_group=2)
        assert b.search_grouped(q, by="lang", k_per_group=2) == expect, q
        assert d.search_grouped(q, by="lang", k_per_group=2) == expect, q


def test_count_identical_across_layouts(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, cfg = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    c = DistributedDocPartSearcher(doc_dir, num_actors=2)
    c.wait_ready()
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            want = a.count(q, mode=mode)
            assert b.count(q, mode=mode) == want, (q, mode)
            assert c.count(q, mode=mode) == want, (q, mode)
    w = [("lang", "=", "en")]
    assert b.count("data join", where=w) == a.count("data join", where=w)
    assert c.count("data join", where=w) == a.count("data join", where=w)


def test_docpart_order_by_matches_term_layout(ray_session, tiny_docs,
                                              tmp_path):
    """Field-ordered search composes across doc shards exactly:
    DocPartSearcher.search(order_by=...) == LocalSearcher on the same
    corpus — numeric and CATEGORICAL keys (shard-local dictionaries
    re-factorized at the merge), both directions, multi-key,
    where-composition, offset paging."""
    from refimage_ray.index.build import build_index

    # a numeric value column with repeats (exercises the doc_id
    # tiebreak) present in BOTH layouts' inputs
    n = tiny_docs.num_rows
    docs = tiny_docs.append_column(
        "prio", pa.array([(i * 7) % 5 for i in range(n)], pa.int64())
    )
    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    dt, dd = str(tmp_path / "term"), str(tmp_path / "doc")
    build_index(rd.from_arrow(docs), dt, cfg)
    build_doc_partitioned(rd.from_arrow(docs), dd, cfg,
                          num_doc_shards=4,
                          value_columns=["lang", "prio"])
    st, sd = LocalSearcher(dt), DocPartSearcher(dd)
    for order in [("prio", "asc"), ("prio", "desc"),
                  ("lang", "asc"), ("lang", "desc"),
                  [("lang", "asc"), ("prio", "desc")]]:
        want = st.search("the data", k=15, order_by=order)
        got = sd.search("the data", k=15, order_by=order)
        assert got == want, order
    # composes with where + offset
    want = st.search("the data", k=5, order_by=("prio", "desc"),
                     where=[("lang", "=", "en")], offset=3)
    got = sd.search("the data", k=5, order_by=("prio", "desc"),
                    where=[("lang", "=", "en")], offset=3)
    assert got == want
    # after= still rejects with order_by (engine contract, per shard)
    with pytest.raises(ValueError, match="after"):
        sd.search("the data", k=5, order_by=("prio", "asc"),
                  after=(1.0, 3))


def test_distributed_docpart_order_boost_rescore_parity(ray_session,
                                                        tiny_docs,
                                                        tmp_path):
    """The actor transport answers order_by / boost / rescore
    identically to the in-process DocPartSearcher (per-actor ordered
    pages with decoded key values; boost threaded to shard views;
    rescore gaps fanned out and min-combined)."""
    from refimage_ray.index.docpart import DistributedDocPartSearcher
    from refimage_ray.query.boost import DecaySpec

    n = tiny_docs.num_rows
    docs = tiny_docs.append_column(
        "prio", pa.array([(i * 7) % 5 for i in range(n)], pa.int64())
    )
    cfg = EngineConfig(num_shards=4, salt_buckets=2, store_positions=True)
    dd = str(tmp_path / "doc")
    build_doc_partitioned(rd.from_arrow(docs), dd, cfg, num_doc_shards=4,
                          value_columns=["lang", "prio"])
    sd = DocPartSearcher(dd)
    sx = DistributedDocPartSearcher(dd, num_actors=2)
    sx.wait_ready()
    for order in [("prio", "desc"), ("lang", "asc"),
                  [("lang", "desc"), ("prio", "asc")]]:
        want = sd.search("the data", k=12, order_by=order)
        assert sx.search("the data", k=12, order_by=order) == want, order
    boost = DecaySpec("prio", 0.0, 4.0, 0.5, "exp")
    want = sd.search("the data", k=10, boost=boost)
    assert sx.search("the data", k=10, boost=boost) == want
    for q in ["data table", "the data scan"]:
        want = sd.search_rescore(q, k=10, window=25, rescore_weight=2.0)
        assert sx.search_rescore(q, k=10, window=25,
                                 rescore_weight=2.0) == want, q


def test_distributed_order_by_rejects_after(ray_session, tiny_docs,
                                            tmp_path):
    """after= with order_by raises on BOTH docpart transports (the
    distributed scatter previously dropped the cursor silently)."""
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    n = tiny_docs.num_rows
    docs = tiny_docs.append_column(
        "prio", pa.array([i % 3 for i in range(n)], pa.int64()))
    dd = str(tmp_path / "doc")
    build_doc_partitioned(rd.from_arrow(docs), dd,
                          EngineConfig(num_shards=4, salt_buckets=2),
                          num_doc_shards=4, value_columns=["prio"])
    sx = DistributedDocPartSearcher(dd, num_actors=2)
    sx.wait_ready()
    with pytest.raises(ValueError, match="after"):
        sx.search("the data", k=5, order_by=("prio", "asc"),
                  after=(1.0, 3))


def test_docpart_composite_matches_term_layout(both_indexes):
    """Exact composite paging on the doc-partitioned layout: pages
    tile identically to the term layout's composite (each shard
    returns its FULL bucket list past the cursor, so ES shard_size
    truncation cannot occur) — keys, counts and after_key all equal,
    page for page."""
    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    for q in ("the data join", "spark query"):
        after_a = after_b = None
        pages = 0
        while True:
            pa_ = a.composite(q, by=["lang"], size=2, after=after_a)
            pb_ = b.composite(q, by=["lang"], size=2, after=after_b)
            assert pb_ == pa_, (q, pages)
            pages += 1
            after_a, after_b = pa_["after_key"], pb_["after_key"]
            if after_a is None:
                break
        assert pages >= 1
    # where-filtered composite agrees too
    w = [("lang", "in", ["en", "de"])]
    assert b.composite("the data", by=["lang"], size=10, where=w) == \
        a.composite("the data", by=["lang"], size=10, where=w)
    # validation parity
    with pytest.raises(ValueError):
        b.composite("the", by=["lang"], size=0)
    with pytest.raises(ValueError):
        b.composite("the", by=["lang"], mode="nope")


def test_distributed_docpart_composite_matches_local(both_indexes):
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, _ = both_indexes
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    p_local = b.composite("the data", by=["lang"], size=2)
    p_dist = d.composite("the data", by=["lang"], size=2)
    assert p_dist == p_local
    if p_local["after_key"] is not None:
        assert d.composite("the data", by=["lang"], size=2,
                           after=p_local["after_key"]) == \
            b.composite("the data", by=["lang"], size=2,
                        after=p_local["after_key"])


def test_negative_offset_raises_on_every_docpart_path(both_indexes):
    """offset < 0 is a ValueError on every doc-partitioned path, as on
    the term layout: in process, distributed, docpart NRT and serve's
    /search (422)."""
    import json
    import threading
    import urllib.error
    import urllib.request

    from refimage_ray.index.docpart import DistributedDocPartSearcher
    from refimage_ray.query.nrt import DocPartDeltaSearcher
    from refimage_ray.serve import make_server

    term_dir, doc_dir, _ = both_indexes
    with pytest.raises(ValueError, match="offset"):
        LocalSearcher(term_dir).search("the data join", k=10, offset=-3)
    local = DocPartSearcher(doc_dir)
    dist = DistributedDocPartSearcher(doc_dir, num_actors=2)
    dist.wait_ready()
    delta = DocPartDeltaSearcher(doc_dir)
    delta.add(pa.table({"doc_id": pa.array([10**9], pa.int64()),
                        "text": ["the data join"]}))
    for s in (local, dist, delta):
        with pytest.raises(ValueError, match="offset must be a non-negative"):
            s.search("the data join", k=10, offset=-3)
    with pytest.raises(ValueError, match="offset"):
        dist.search_many(["the data join"], k=10, offset=-3)
    for s in (local, dist):
        with pytest.raises(ValueError, match="offset"):
            s.search_expanded("prefix", "dat", k=5, offset=-1)
        with pytest.raises(ValueError, match="offset"):
            s.search("the data", k=5, order_by=("lang", "asc"), offset=-1)

    srv = make_server(doc_dir, port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        url = (f"http://127.0.0.1:{srv.server_address[1]}"
               "/search?q=the+data+join&k=10&offset=-3")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=30)
        assert err.value.code == 422
        assert "offset" in json.loads(err.value.read())["error"]
    finally:
        srv.shutdown()


def test_negative_offset_raises_whether_or_not_the_query_matches(both_indexes):
    """phrase, near, phrase_prefix and the expansions refuse a negative
    offset on entry, so a query that matches nothing raises like one
    that matches (term layout, docpart shard views, serve's 422)."""
    import json
    import threading
    import urllib.error
    import urllib.request

    from refimage_ray.serve import make_server

    term_dir, doc_dir, _ = both_indexes
    local = LocalSearcher(term_dir)
    view = DocPartSearcher(doc_dir).shards[0]
    calls = [
        lambda s, q, off: s.search_phrase(q, k=5, offset=off),
        lambda s, q, off: s.search_near(q, window=5, k=5, offset=off),
        lambda s, q, off: s.search_phrase_prefix(q, k=5, offset=off),
    ]
    for call in calls:
        assert call(local, "the data", 0)
        assert call(local, "zzzqqq xxyyzz", 0) == []
    for s in (local, view):
        for call in calls:
            for q in ("the data", "zzzqqq xxyyzz"):
                with pytest.raises(ValueError, match="offset must be"):
                    call(s, q, -2)
        for probe in ("dat", "zzzqqq"):
            with pytest.raises(ValueError, match="offset must be"):
                s.search_expanded("prefix", probe, k=5, offset=-1)

    srv = make_server(term_dir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}/search?k=5&offset=-2"
        for q in ("the+data", "zzzqqq+xxyyzz"):
            for mode in ("phrase", "near", "phrase_prefix"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{base}&q={q}&mode={mode}",
                                           timeout=30)
                assert err.value.code == 422, (q, mode)
                assert "offset" in json.loads(err.value.read())["error"]
    finally:
        srv.shutdown()
        srv.server_close()
        t.join(timeout=30)


def test_distributed_docpart_grouped_threshold(both_indexes):
    """search_grouped(threshold=...) on the distributed searcher
    equals the in-process and term-layout answers, with a threshold
    that removes some hits."""
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    term_dir, doc_dir, _ = both_indexes
    a = LocalSearcher(term_dir)
    b = DocPartSearcher(doc_dir)
    d = DistributedDocPartSearcher(doc_dir, num_actors=2)
    d.wait_ready()
    q = "the data join"
    full = a.search_grouped(q, by="lang", k_per_group=20)
    th = float(np.median([s for _, _, s in full]))
    want = a.search_grouped(q, by="lang", k_per_group=20, threshold=th)
    assert 0 < len(want) < len(full)
    assert b.search_grouped(q, by="lang", k_per_group=20,
                            threshold=th) == want
    assert d.search_grouped(q, by="lang", k_per_group=20,
                            threshold=th) == want


@pytest.fixture(scope="module")
def positional_values_dir(ray_session, tiny_docs, tmp_path_factory):
    n = tiny_docs.num_rows
    docs = tiny_docs.append_column(
        "prio", pa.array([(i * 7) % 5 for i in range(n)], pa.int64())
    )
    d = str(tmp_path_factory.mktemp("docpart_parity") / "doc")
    build_doc_partitioned(
        rd.from_arrow(docs), d,
        EngineConfig(num_shards=4, salt_buckets=2, store_positions=True),
        num_doc_shards=4, value_columns=["lang", "prio"],
    )
    return d


_PARITY_OPS = [
    ("search", ("the data join",), {"k": 10}),
    ("search", ("the data join",), {"k": 10, "mode": "and"}),
    ("search", ("the data",), {"k": 1000, "threshold": 0.04}),
    ("search", ("the data",), {"k": 5, "offset": 5}),
    ("search", ("the data",), {"k": 10, "where": [("lang", "=", "en")]}),
    ("search", ("table scan merge sort fast",), {"k": 10, "min_match": 2}),
    ("search", ("the data",), {"k": 5, "after": (7, 0.041)}),
    ("search", ("the data",), {"k": 10, "order_by": ("prio", "desc")}),
    ("search", ("the data",),
     {"k": 5, "order_by": [("lang", "asc"), ("prio", "desc")], "offset": 2}),
    ("search", ("the data",),
     {"k": 10, "boost": DecaySpec("prio", 0.0, 4.0, 0.5, "exp")}),
    ("search_phrase", ("data table",), {"k": 10}),
    ("search_phrase", ("the data",), {"k": 5, "slop": 1, "offset": 2}),
    ("search_near", ("data table",), {"window": 3, "k": 10}),
    ("search_phrase_prefix", ("the da",), {"k": 10}),
    ("search_rescore", ("data table",),
     {"k": 10, "window": 25, "rescore_weight": 2.0}),
    ("search_expanded", ("prefix", "dat"),
     {"k": 10, "where": [("lang", "=", "en")]}),
    ("search_expanded", ("fuzzy", "dta"), {"k": 10}),
    ("search_expanded", ("wildcard", "d?t*"),
     {"k": 10, "order_by": ("prio", "asc")}),
    ("search_expanded", ("regex", "da.a"), {"k": 10, "offset": 1}),
    ("suggest", ("dat",), {}),
    ("_expand_pairs", ("prefix", "da"), {}),
    ("search_grouped", ("the data",), {"by": "lang", "k_per_group": 2}),
    ("search_grouped", ("the data",),
     {"by": "lang", "k_per_group": 3, "groups": ["en", "fr"]}),
    ("count", ("the data join",), {"mode": "and"}),
    ("count", ("table scan merge sort fast",), {"min_match": 3}),
    ("composite", ("the data",), {"by": ["lang"], "size": 2}),
    ("composite", ("the data",), {"by": ["lang"], "size": 2,
                                  "after": ("de",)}),
    ("facets", ("the data",),
     {"by": ["lang"], "histograms": {"prio": 2.0},
      "sums": {"lang": "prio"}, "top": 3}),
    ("facets", ("the data",), {"percentiles": {"prio": [0.5, 0.9]}}),
    # a gather cap below the match size forces the bisection fallback
    ("facets", ("the data",), {"percentiles": {"prio": [0.25, 0.5]},
                               "percentile_gather_cap": 3}),
]


def test_distributed_docpart_parity_every_operator(positional_values_dir):
    """Every public docpart operator answers identically over the actor
    transport and in process (same per-shard partials, same merge)."""
    from refimage_ray.index.docpart import DistributedDocPartSearcher

    local = DocPartSearcher(positional_values_dir)
    dist = DistributedDocPartSearcher(positional_values_dir, num_actors=2)
    dist.wait_ready()
    for name, args, kw in _PARITY_OPS:
        want = getattr(local, name)(*args, **kw)
        assert want, (name, args, kw)  # every case exercises a merge
        assert getattr(dist, name)(*args, **kw) == want, (name, args, kw)


def test_serve_nrt_add_refuses_distributed_docpart(both_indexes):
    """POST /docs against a distributed docpart deployment stays 409:
    the NRT guard is `isinstance(s, DocPartSearcher)`, and the
    distributed searcher is a sibling class, not a subclass."""
    import json
    import threading
    import urllib.error
    import urllib.request

    from refimage_ray.index.docpart import DistributedDocPartSearcher
    from refimage_ray.serve import make_server

    _, doc_dir, _ = both_indexes
    dist = DistributedDocPartSearcher(doc_dir, num_actors=2)
    dist.wait_ready()
    assert not isinstance(dist, DocPartSearcher)
    srv = make_server(doc_dir, port=0, searcher=dist)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.server_address[1]}/docs",
            data=json.dumps({"docs": [{"doc_id": 10**9,
                                       "text": "fresh data"}]}).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 409
        assert "in-process" in json.loads(err.value.read())["error"]
    finally:
        srv.shutdown()
