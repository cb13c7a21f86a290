"""Index lifecycle: delta merge ≡ monolithic build; tombstone deletes;
compaction ≡ rebuild on the live corpus."""

import os

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.build import build_index
from refimage_ray.index.lifecycle import (
    add_documents,
    compact_index,
    delete_docs,
    merge_indexes,
)
from refimage_ray.query.engine import LocalSearcher
from refimage_ray.query.oracle import BM25Oracle
from tests.conftest import FIXTURE_QUERIES

CFG = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05)


@pytest.fixture(scope="module")
def split_corpus(tiny_docs):
    n = tiny_docs.num_rows
    return tiny_docs.slice(0, n // 2), tiny_docs.slice(n // 2)


def test_merge_equals_monolithic(ray_session, tiny_docs, split_corpus, tmp_path):
    a, b = split_corpus
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    dm, dfull = str(tmp_path / "merged"), str(tmp_path / "full")
    build_index(rd.from_arrow(a), da, CFG)
    build_index(rd.from_arrow(b), db, CFG)
    build_index(rd.from_arrow(tiny_docs), dfull, CFG)
    merge_indexes([da, db], dm, CFG)

    sm, sf = LocalSearcher(dm), LocalSearcher(dfull)
    assert sm.n_docs == sf.n_docs
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            assert sm.search(q, k=10, mode=mode) == sf.search(q, k=10, mode=mode), (
                q, mode,
            )


def test_tombstones_remove_from_results_only(ray_session, tiny_docs, tmp_path):
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tiny_docs), d, CFG)
    base = LocalSearcher(d).search("the data join", k=200)
    victims = [doc for doc, _ in base[:3]]
    delete_docs(d, victims)
    after = LocalSearcher(d).search("the data join", k=200)
    # deleted docs gone; every surviving (doc, score) pair unchanged
    assert all(doc not in victims for doc, _ in after)
    kept = [(doc, s) for doc, s in base if doc not in victims]
    # surviving prefix identical; new entrants may fill the tail
    assert after[: len(kept)] == kept


def test_delete_idempotent(ray_session, tiny_docs, tmp_path):
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(tiny_docs), d, CFG)
    assert delete_docs(d, [1, 2, 3]) == 3
    assert delete_docs(d, [3, 4]) == 4  # union, not append


def test_compact_equals_rebuild_on_live(ray_session, tiny_docs, tmp_path):
    d = str(tmp_path / "idx")
    dc = str(tmp_path / "compacted")
    build_index(rd.from_arrow(tiny_docs), d, CFG)
    victims = list(range(0, 40))
    delete_docs(d, victims)
    compact_index(d, dc, CFG)

    live = [
        (i, t)
        for i, t in enumerate(tiny_docs["text"].to_pylist())
        if i not in set(victims)
    ]
    oracle = BM25Oracle(live, CFG)
    s = LocalSearcher(dc)
    assert s.n_docs == len(live)
    for q in FIXTURE_QUERIES:
        assert s.search(q, k=10) == oracle.search(q, k=10), q


def test_add_documents_incremental(ray_session, tiny_docs, tmp_path):
    n = tiny_docs.num_rows
    base, extra = tiny_docs.slice(0, n - 50), tiny_docs.slice(n - 50)
    d0, d1 = str(tmp_path / "base"), str(tmp_path / "grown")
    build_index(rd.from_arrow(base), d0, CFG)
    add_documents(d0, rd.from_arrow(extra), d1, CFG)
    dfull = str(tmp_path / "full")
    build_index(rd.from_arrow(tiny_docs), dfull, CFG)
    s1, sf = LocalSearcher(d1), LocalSearcher(dfull)
    assert s1.n_docs == sf.n_docs
    for q in FIXTURE_QUERIES[:5]:
        assert s1.search(q, k=10) == sf.search(q, k=10), q


def test_update_doc_metadata_put(ray_session, built_index, tmp_path):
    """PUT analog: update url/lang of stored docs; lookup reflects it;
    untouched partitions keep their bytes; missing ids -> KeyError;
    immutable columns -> ValueError."""
    import glob
    import shutil

    from refimage_ray.index.lifecycle import update_doc_metadata
    from refimage_ray.query.engine import LocalSearcher, lookup_docs

    # a private copy: later tests read the shared fixture index as built
    index_dir = str(tmp_path / "idx")
    shutil.copytree(built_index[0], index_dir)
    before = {
        p: open(p, "rb").read()
        for p in glob.glob(os.path.join(index_dir, "docs", "*.parquet"))
    }

    n = update_doc_metadata(index_dir, {3: {"url": "https://new.example/3"},
                                        7: {"lang": "xx"}})
    assert n == 2
    got = lookup_docs(index_dir, [3, 7], columns=["doc_id", "url", "lang"]).to_pydict()
    by_id = {d: (u, l) for d, u, l in zip(got["doc_id"], got["url"], got["lang"])}
    assert by_id[3][0] == "https://new.example/3"
    assert by_id[7][1] == "xx"

    # untouched files byte-identical; touched files changed
    changed = 0
    for p, data in before.items():
        now = open(p, "rb").read()
        ids = set(
            __import__("pyarrow.parquet", fromlist=["read_table"]).read_table(
                p, columns=["doc_id"]
            )["doc_id"].to_pylist()
        )
        if ids & {3, 7}:
            changed += 1
        else:
            assert now == data, f"untouched partition rewritten: {p}"
    assert changed >= 1

    # search results unaffected (metadata-only mutation)
    s = LocalSearcher(index_dir)
    assert s.search("spark join", k=5) == LocalSearcher(index_dir).search("spark join", k=5)

    with pytest.raises(KeyError):
        update_doc_metadata(index_dir, {10**12: {"url": "x"}})
    with pytest.raises(ValueError):
        update_doc_metadata(index_dir, {3: {"text": "nope"}})

    # a 404 batch must be ALL-or-nothing: the valid id in a batch with
    # a missing id is NOT applied (missing-check runs before any
    # partition rewrite)
    with pytest.raises(KeyError):
        update_doc_metadata(
            index_dir, {3: {"url": "https://poison.example/3"},
                        10**12: {"url": "x"}}
        )
    got = lookup_docs(index_dir, [3], columns=["doc_id", "url"]).to_pydict()
    assert got["url"][0] == "https://new.example/3"  # unchanged by the 404


def test_build_subranges_equals_monolithic(ray_session, tiny_docs, tmp_path):
    """The planner's >2M-reducer path: 3 doc-range sub-builds + merge
    answer queries identically to a single-shot build."""
    from refimage_ray.index.lifecycle import build_subranges

    dfull = str(tmp_path / "full")
    dsub = str(tmp_path / "sub")
    build_index(rd.from_arrow(tiny_docs), dfull, CFG)
    build_subranges(rd.from_arrow(tiny_docs), dsub, CFG, n_subranges=3)

    ss, sf = LocalSearcher(dsub), LocalSearcher(dfull)
    assert ss.n_docs == sf.n_docs
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            assert ss.search(q, k=10, mode=mode) == sf.search(q, k=10, mode=mode), (
                q, mode,
            )


def test_build_subranges_more_ranges_than_docs(ray_session, tmp_path):
    """n_subranges > doc span degrades to one build per doc (empty
    subranges never occur: n is clamped to the span)."""
    from refimage_ray.index.lifecycle import build_subranges

    docs = pa.table(
        {
            "doc_id": pa.array([5, 6], pa.int64()),
            "text": pa.array(["alpha beta", "beta gamma"]),
            "url": pa.array(["u5", "u6"]),
            "lang": pa.array(["en", "en"]),
        }
    )
    d = str(tmp_path / "tiny")
    build_subranges(rd.from_arrow(docs), d, CFG, n_subranges=8)
    s = LocalSearcher(d)
    assert s.n_docs == 2
    hits = s.search("beta", k=10)
    assert sorted(doc for doc, _ in hits) == [5, 6]


def test_compact_dedup_built_index_excludes_losers(ray_session, tiny_docs,
                                                   tmp_path):
    """Regression: compacting an index built with in-build dedup used
    to count exact-dup losers in n_docs/avgdl (wrong idf/weights) and
    copy their rows into the compacted docs/ with no losers.parquet —
    resurrecting the duplicates for any downstream consumer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # duplicate the first 10 texts under fresh doc_ids
    n = tiny_docs.num_rows
    dup = pa.table(
        {
            "doc_id": pa.array([n + i for i in range(10)], pa.int64()),
            "text": tiny_docs["text"].slice(0, 10),
        }
    )
    from refimage_ray.stages.dedup import add_content_hash

    corpus = add_content_hash(
        pa.concat_tables([tiny_docs.select(["doc_id", "text"]), dup])
    )
    d = str(tmp_path / "idx")
    dc = str(tmp_path / "compacted")
    build_index(rd.from_arrow(corpus), d, CFG, dedup_exact=True)
    losers = set(
        pq.read_table(d + "/losers.parquet")["doc_id"].to_pylist()
    )
    # the 10 synthetic dups lose (tiny_docs may carry intra dups too)
    assert losers.issuperset(range(n, n + 10))

    compact_index(d, dc, CFG)

    live = [
        (i, t)
        for i, t in zip(corpus["doc_id"].to_pylist(),
                        corpus["text"].to_pylist())
        if i not in losers
    ]
    oracle = BM25Oracle(live, CFG)
    s = LocalSearcher(dc)
    assert s.n_docs == len(live)  # losers not counted
    # compacted docs/ holds exactly the live corpus (losers dropped)
    assert pq.read_table(dc + "/docs", columns=["doc_id"]).num_rows == len(live)
    for q in FIXTURE_QUERIES:
        assert s.search(q, k=10) == oracle.search(q, k=10), q


def test_delete_docs_where_retention(built_index, tmp_path):
    """Predicate delete (TTL analog): tombstoned set == the filtered
    search membership; search excludes them; compact == fresh build of
    the survivors; idempotent re-delete reports 0 new."""
    import shutil

    import pyarrow.dataset as pads

    from refimage_ray.index.lifecycle import delete_docs_where
    from refimage_ray.query.engine import LocalSearcher

    index_dir, cfg, _ = built_index
    d = str(tmp_path / "idx")
    shutil.copytree(index_dir, d)
    meta = pads.dataset(d + "/docs").to_table(columns=["doc_id", "lang"])
    frlang = {r["doc_id"] for r in meta.to_pylist() if r["lang"] == "fr"}
    n = delete_docs_where(d, [("lang", "=", "fr")])
    assert n == len(frlang) > 0
    s = LocalSearcher(d)
    hits = {doc for doc, _ in s.search("the data", k=10**9)}
    assert not (hits & frlang)
    # idempotent
    assert delete_docs_where(d, [("lang", "=", "fr")]) == 0
    # DNF predicate
    n2 = delete_docs_where(d, {"or": [[("lang", "=", "de")],
                                      [("doc_len", "<", 10)]]})
    des = {r["doc_id"] for r in meta.to_pylist() if r["lang"] == "de"}
    assert n2 >= len(des) > 0


def test_reindex_plain_equals_compact(ray_session, tiny_docs, tmp_path):
    """reindex with no predicate == compact: dead docs dropped, stats
    exact over the survivors — bit-identical answers."""
    from refimage_ray.index.lifecycle import reindex

    d = str(tmp_path / "src")
    build_index(rd.from_arrow(tiny_docs), d, CFG)
    delete_docs(d, list(range(0, 30)))
    dc, dr = str(tmp_path / "compacted"), str(tmp_path / "reindexed")
    compact_index(d, dc, CFG)
    reindex(d, dr)  # cfg reconstructed from the source manifest
    sc, sr = LocalSearcher(dc), LocalSearcher(dr)
    assert sr.n_docs == sc.n_docs
    for q in FIXTURE_QUERIES:
        assert sr.search(q, k=10) == sc.search(q, k=10), q


def test_reindex_where_equals_filtered_build(ray_session, tiny_docs, tmp_path):
    """reindex under a doc-value predicate == a fresh build over the
    matching rows only (scoring basis = survivors)."""
    from refimage_ray.index.lifecycle import reindex

    d = str(tmp_path / "src")
    build_index(rd.from_arrow(tiny_docs), d, CFG)
    dr, df = str(tmp_path / "reindexed"), str(tmp_path / "filtered")
    reindex(d, dr, where={"lang": "en"})
    mask = [l == "en" for l in tiny_docs["lang"].to_pylist()]
    build_index(rd.from_arrow(tiny_docs.filter(pa.array(mask))), df, CFG)
    sr, sf = LocalSearcher(dr), LocalSearcher(df)
    assert 0 < sr.n_docs == sf.n_docs < tiny_docs.num_rows
    for q in FIXTURE_QUERIES[:5]:
        assert sr.search(q, k=10) == sf.search(q, k=10), q


def test_reindex_transform_and_new_config(ray_session, tiny_docs, tmp_path):
    """A per-batch transform re-shapes text before the rebuild, and a
    new cfg re-shards — the reindexed artifact answers like a fresh
    build over the transformed corpus under the new config."""
    import pyarrow.compute as pc

    from refimage_ray.index.lifecycle import reindex

    d = str(tmp_path / "src")
    build_index(rd.from_arrow(tiny_docs), d, CFG)

    def add_marker(t: pa.Table) -> pa.Table:
        text = pc.binary_join_element_wise(
            t["text"].cast(pa.string()), "zzmarker", " "
        )
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    cfg2 = EngineConfig(num_shards=2, salt_buckets=1, hot_df_fraction=0.05)
    dr = str(tmp_path / "reindexed")
    reindex(d, dr, cfg2, transform=add_marker)
    s = LocalSearcher(dr)
    # every doc now contains the marker token
    assert len(s.search("zzmarker", k=10)) == 10
    tm = s._term_map(["zzmarker"])
    assert tm["zzmarker"].df == tiny_docs.num_rows
