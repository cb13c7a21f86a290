"""Index build: rank-identity vs oracle, salting, resume, manifest.

The FIXTURES.md invariants 3/5/6 and the north_rule checkpoint
requirements.
"""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.functions.text import tokenize
from refimage_ray.index.build import build_index
from refimage_ray.index.manifest import load_manifest, part_filename
from refimage_ray.index.reader import IndexReader
from refimage_ray.query.engine import LocalSearcher
from refimage_ray.query.oracle import BM25Oracle
from tests.conftest import FIXTURE_QUERIES


def test_rank_identity_vs_oracle(built_index, oracle):
    """Engine top-k docIDs AND scores == brute-force oracle, bit-for-bit
    (north_rule; analog of the reference's exact top-k assertions)."""
    index_dir, cfg, _ = built_index
    s = LocalSearcher(index_dir)
    for q in FIXTURE_QUERIES:
        for mode in ("or", "and"):
            for th in (0.0, 0.3):
                got = s.search(q, k=10, threshold=th, mode=mode)
                exp = oracle.search(q, k=10, threshold=th, mode=mode)
                assert got == exp, (q, mode, th)


def test_self_search_rank1(built_index, tiny_docs, oracle):
    """A query of a document's rarest terms ranks that doc #1 (analog of
    FAISS self-match, /root/reference/tests/test_driver_real.py:139-144)."""
    index_dir, cfg, _ = built_index
    s = LocalSearcher(index_dir)
    texts = tiny_docs["text"].to_pylist()
    doc_id = 17
    toks = tokenize(texts[doc_id])
    rare = sorted(set(toks), key=lambda t: (oracle.df(t), t))[:6]
    hits = s.search(" ".join(rare), k=5, mode="and")
    assert hits, "no hits for self-query"
    assert hits[0][0] == doc_id


def test_stats_match_oracle(built_index, oracle):
    index_dir, _, res = built_index
    stats = res.manifest["stats"]
    assert stats["n_docs"] == oracle.n_docs
    assert stats["avgdl"] == pytest.approx(oracle.avgdl, abs=0)
    r = IndexReader(index_dir)
    terms = r.load_shards(None)
    # df parity for every term
    for t, p in terms.items():
        assert p.df == oracle.df(t), t
    assert set(terms) == set(oracle.postings)


def test_salted_terms_split_and_merge_sorted(built_index):
    """Hot terms must appear in >1 salt bucket; merged lists must be
    strictly increasing (FIXTURES invariant: sub-list merge order)."""
    index_dir, cfg, res = built_index
    hot = res.manifest["stats"]["hot_terms"]
    assert hot, "synthetic Zipf corpus must have hot terms"
    man = load_manifest(index_dir)
    salts_used = {p["salt"] for p in man["partitions"]}
    assert len(salts_used) > 1, "salting never triggered"
    terms = IndexReader(index_dir).load_shards(None)
    for t in hot[:20]:
        p = terms[t]
        assert np.all(np.diff(p.doc_ids) > 0), f"merged postings unsorted for {t}"


def test_block_metadata_consistent(built_index):
    index_dir, cfg, _ = built_index
    terms = IndexReader(index_dir).load_shards(None)
    for t, p in list(terms.items())[:50]:
        assert len(p.doc_ids) == len(p.weights) == p.df
        assert p.max_weight == pytest.approx(p.weights.max())
        assert p.block_last_doc[-1] == p.doc_ids[-1]
        assert p.block_max_weight.max() == pytest.approx(p.weights.max())


def test_resume_skips_done_and_reproduces_bytes(ray_session, tiny_docs, tmp_path):
    """Kill-and-resume: delete some partition files, rebuild with
    resume=True → byte-identical artifact (FIXTURES invariant 5)."""
    cfg = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05)
    d1 = str(tmp_path / "full")
    d2 = str(tmp_path / "resumed")
    ds = rd.from_arrow(tiny_docs)
    build_index(ds, d1, cfg)
    build_index(rd.from_arrow(tiny_docs), d2, cfg)

    ref_bytes = {
        os.path.basename(p): open(p, "rb").read()
        for p in glob.glob(os.path.join(d1, "part-*.parquet"))
    }
    # simulate a partial failure: remove some part files from d2
    victims = sorted(glob.glob(os.path.join(d2, "part-*.parquet")))[::2]
    for v in victims:
        os.remove(v)
    res = build_index(None, d2, cfg, resume=True)
    for name, data in ref_bytes.items():
        with open(os.path.join(d2, name), "rb") as f:
            assert f.read() == data, f"{name} not byte-identical after resume"
    # manifest covers all partitions again
    assert {(p["shard"], p["salt"]) for p in res.manifest["partitions"]} == {
        (p["shard"], p["salt"]) for p in load_manifest(d1)["partitions"]
    }


def test_manifest_and_metrics(built_index):
    index_dir, cfg, res = built_index
    man = load_manifest(index_dir)
    assert man["config"]["num_shards"] == cfg.num_shards
    for p in man["partitions"]:
        assert os.path.exists(os.path.join(index_dir, p["path"]))
        assert p["path"] == part_filename(p["shard"], p["salt"])
    m = res.metrics
    for key in ("docs_per_sec", "postings_per_sec", "shuffle_bytes", "total_sec"):
        assert key in m and m[key] > 0


def test_packed_and_rowwise_artifacts_identical(ray_session, tiny_docs, tmp_path):
    """The packed (map-side combined) shuffle must produce byte-identical
    partition files to the row-wise path."""
    cfg = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05)
    d_packed = str(tmp_path / "packed")
    d_rows = str(tmp_path / "rows")
    build_index(rd.from_arrow(tiny_docs), d_packed, cfg, packed=True)
    build_index(rd.from_arrow(tiny_docs), d_rows, cfg, packed=False)
    names = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(d_packed, "part-*.parquet"))
    )
    assert names == sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(d_rows, "part-*.parquet"))
    )
    assert names
    for name in names:
        with open(os.path.join(d_packed, name), "rb") as fa, \
             open(os.path.join(d_rows, name), "rb") as fb:
            assert fa.read() == fb.read(), name

def test_resume_clears_partial_docs_stage(ray_session, tiny_docs, tmp_path):
    """Regression (ADVICE r1): a crash mid docs/ write (no _SUCCESS)
    must not leave stale parquet behind — re-running the build would
    otherwise duplicate docs and inflate N/df."""
    import pyarrow.parquet as pq

    cfg = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05)
    d1 = str(tmp_path / "clean")
    d2 = str(tmp_path / "crashed")
    res1 = build_index(rd.from_arrow(tiny_docs), d1, cfg)

    # simulate a crashed docs stage: partial parquet, no _SUCCESS
    docs_dir = os.path.join(d2, "docs")
    os.makedirs(docs_dir)
    pq.write_table(tiny_docs.slice(0, 3), os.path.join(docs_dir, "stale-0.parquet"))
    res2 = build_index(rd.from_arrow(tiny_docs), d2, cfg, resume=True)

    assert res2.manifest["stats"]["n_docs"] == res1.manifest["stats"]["n_docs"]
    assert res2.manifest["stats"]["sum_dl"] == res1.manifest["stats"]["sum_dl"]
    assert not glob.glob(os.path.join(docs_dir, "stale-*.parquet"))

def test_artifact_identical_across_local_and_distributed_planning(
    ray_session, tiny_docs, tmp_path, monkeypatch
):
    """Regression (ADVICE r1): with dedup_exact=True the hot-term set
    (hence salt layout) used pre-dedup rows in the driver-local path
    but post-dedup n_docs in the distributed path.  Both execution
    modes must now produce a byte-identical artifact."""
    import pyarrow.parquet as pq
    from refimage_ray.index import build as build_mod

    # inject duplicates so dedup actually changes the corpus basis
    dup = tiny_docs.slice(0, 40).set_column(
        0, "doc_id",
        pa.array(range(10000, 10040), pa.int64()),
    )
    from refimage_ray.stages.dedup import add_content_hash

    docs = add_content_hash(pa.concat_tables([tiny_docs, dup]))
    cfg = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05)

    d_local = str(tmp_path / "local")
    res_local = build_index(rd.from_arrow(docs), d_local, cfg, dedup_exact=True)
    assert res_local.metrics["hot_source"] == "driver_local"
    assert res_local.metrics["exchange"] == "rank"

    # mode 2: side-sample hot estimation + narrow-local loser/stats
    # (the layout a >DRIVER_LOCAL_ROWS corpus takes by default);
    # prefetch off so the synchronous side-sample path is exercised
    monkeypatch.setattr(build_mod, "DRIVER_LOCAL_ROWS", 0)
    monkeypatch.setenv("REFIMAGE_PREFETCH", "0")
    d_side = str(tmp_path / "side")
    res_side = build_index(rd.from_arrow(docs), d_side, cfg, dedup_exact=True)
    assert res_side.metrics["hot_source"] == "side_sample"

    # mode 2b: same planning class with the write-stage prefetcher on —
    # loser scan / stats from the watcher's narrow tables, hot set from
    # its pre-tokenized sample pairs
    monkeypatch.setenv("REFIMAGE_PREFETCH", "1")
    d_pre = str(tmp_path / "pre")
    res_pre = build_index(rd.from_arrow(docs), d_pre, cfg, dedup_exact=True)
    assert res_pre.metrics["hot_source"] == "prefetch_pairs"

    # mode 3: fully distributed (hot side sample disabled, narrow
    # passes forced onto their Ray variants)
    monkeypatch.setattr(build_mod, "NARROW_LOCAL_ROWS", 0)
    monkeypatch.setenv("REFIMAGE_HOT_SIDE", "0")
    d_dist = str(tmp_path / "dist")
    res_dist = build_index(rd.from_arrow(docs), d_dist, cfg, dedup_exact=True)
    assert res_dist.metrics["hot_source"] == "distributed"
    assert res_dist.metrics["exchange"] == "absolute"

    for name_a, dir_b in (("side", d_side), ("pre", d_pre), ("dist", d_dist)):
        files_b = sorted(
            os.path.basename(p)
            for p in glob.glob(os.path.join(dir_b, "part-*.parquet"))
        )
        files_a = sorted(
            os.path.basename(p)
            for p in glob.glob(os.path.join(d_local, "part-*.parquet"))
        )
        assert files_a == files_b, name_a
        for name in files_a:
            a = open(os.path.join(d_local, name), "rb").read()
            b = open(os.path.join(dir_b, name), "rb").read()
            assert a == b, f"{name} differs: driver_local vs {name_a}"

    names = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(d_local, "part-*.parquet"))
    )
    assert names == sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(d_dist, "part-*.parquet"))
    )
    for name in names:
        a = open(os.path.join(d_local, name), "rb").read()
        b = open(os.path.join(d_dist, name), "rb").read()
        assert a == b, f"{name} differs between planning modes"
    ml = load_manifest(d_local)["stats"]
    md = load_manifest(d_dist)["stats"]
    assert ml["hot_terms"] == md["hot_terms"]
    n_distinct = len(set(tiny_docs["text"].to_pylist()))
    assert ml["n_docs"] == md["n_docs"] == n_distinct


def test_side_bands_meta_closes_its_file(tmp_path):
    """Regression: the ``_RATE`` reader left its file to the garbage
    collector, which ``python -X dev`` reports as a ResourceWarning."""
    import gc
    import json
    import warnings

    from refimage_ray.index.build import _side_bands_meta

    (tmp_path / "_RATE").write_text(
        json.dumps({"bands": [{"tag": "a", "lo": 0.0, "hi": 0.25}]})
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _side_bands_meta(str(tmp_path)) == [("a", 0.0, 0.25)]
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_hash_id_salting_no_overflow(ray_session, tiny_pages, tmp_path):
    """Regression: doc-range salting of hot terms computed
    ``doc_id * S // doc_span``, which overflows int64 for 63-bit
    url-hash doc ids — salts of -1/0 leaked a hot term's postings into
    the NEIGHBORING shard's partition file, where shard routing
    (blake2b64(term) % P) never looks.  Every partition holding a term
    must live in that term's routed shard, and the distributed searcher
    must match the local one on a hash-id corpus with hot terms."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from refimage_ray.functions.hashing import blake2b64
    from refimage_ray.index.pack import doc_range_salts
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher
    from refimage_ray.stages.docids import add_url_hash_ids

    # pure-function check at the extremes
    ids = np.array([0, 1, 2**62, 2**62 + 5, 2**63 - 2], dtype=np.int64)
    salts = doc_range_salts(ids, 8, 2**63 - 1)
    assert salts.min() >= 0 and salts.max() < 8
    assert (np.diff(salts) >= 0).all()  # monotone doc ranges

    docs = add_url_hash_ids(tiny_docs_table := tiny_pages.select(["url", "text", "lang"]))
    # aggressive hot threshold so several terms are salted
    cfg = EngineConfig(num_shards=4, salt_buckets=4, hot_df_fraction=0.02)
    idx = str(tmp_path / "hashids")
    build_index(rd.from_arrow(docs), idx, cfg)

    man = load_manifest(idx)
    assert man["stats"]["hot_terms"], "fixture must actually salt terms"
    for part in glob.glob(os.path.join(idx, "part-*.parquet")):
        t = pq.read_table(part, columns=["term", "shard"])
        for term, shard in zip(t["term"].to_pylist(), t["shard"].to_pylist()):
            assert blake2b64(term) % cfg.num_shards == shard, (
                f"{term!r} stored in shard {shard}, routed to "
                f"{blake2b64(term) % cfg.num_shards}"
            )

    local = LocalSearcher(idx)
    dist = DistributedSearcher(idx, num_actors=3)
    for q in FIXTURE_QUERIES:
        assert dist.search(q, k=10) == local.search(q, k=10), q


def test_flagship_artifact_identical_task_vs_actor_extract(
    ray_session, tiny_pages, tmp_path
):
    """The task-pool extract flavor (flagship default; per-worker cached
    state) and the actor-pool flavor must build byte-identical postings
    artifacts — extraction flavor is an execution detail, not semantics."""
    import glob

    from refimage_ray.pipelines.flagship import build_from_pages
    from refimage_ray.sources.pages import write_pages

    pages_dir = str(tmp_path / "pages")
    write_pages(tiny_pages, pages_dir, rows_per_file=64)
    cfg = EngineConfig(num_shards=4, salt_buckets=2)

    d_task = str(tmp_path / "task")
    res_task = build_from_pages(pages_dir, d_task, cfg,
                                extract_concurrency=None)
    d_actor = str(tmp_path / "actor")
    res_actor = build_from_pages(pages_dir, d_actor, cfg,
                                 extract_concurrency=(1, 2))

    assert res_task.metrics["n_docs"] == res_actor.metrics["n_docs"]
    assert res_task.metrics["n_postings"] == res_actor.metrics["n_postings"]
    names = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(d_task, "part-*.parquet")))
    assert names == sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(d_actor, "part-*.parquet")))
    assert names
    for name in names:
        a = open(os.path.join(d_task, name), "rb").read()
        b = open(os.path.join(d_actor, name), "rb").read()
        assert a == b, f"{name} differs: task vs actor extract"


def test_staged_docs_excludes_losers(ray_session, tiny_pages, tmp_path):
    """staged_docs() is the canonical external reader of an index's
    corpus: docs/ keeps dup losers (side-channel dedup), so a raw
    read_parquet over docs/ inflates N/avgdl — staged_docs must return
    exactly the post-dedup corpus, and a doc-partitioned index built
    from it must score identically to the term-partitioned engine."""
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned
    from refimage_ray.index.reader import staged_docs
    from refimage_ray.pipelines.flagship import build_from_pages
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.sources.pages import write_pages

    pages_dir = str(tmp_path / "pages")
    write_pages(tiny_pages, pages_dir, rows_per_file=64)
    idx = str(tmp_path / "idx")
    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    res = build_from_pages(pages_dir, idx, cfg)
    assert res.metrics["n_dup_losers"] > 0, "fixture must contain dups"

    docs = staged_docs(idx, columns=["doc_id", "text"])
    assert docs.count() == res.metrics["n_docs"]

    doc_dir = str(tmp_path / "docpart")
    build_doc_partitioned(docs, doc_dir, cfg, num_doc_shards=4)
    local = LocalSearcher(idx)
    dp = DocPartSearcher(doc_dir)
    for q in FIXTURE_QUERIES[:5]:
        assert dp.search(q, k=10) == local.search(q, k=10), q


def test_wide_step_survives_task_retry(ray_session, tiny_docs, tmp_path):
    """Fault tolerance of the exchange reducers: a reducer task that
    hard-kills its worker process (os._exit — the lost-node failure
    mode Ray retries; raised exceptions are application errors and
    deliberately NOT retried) must leave an artifact byte-identical to
    a clean run after Ray reschedules the lost blocks — the atomic
    deterministic-name partition writes make retries idempotent.
    Injection ships by value in the reducer closure; a driver-side
    monkeypatch never reaches workers (classes pickle by reference)."""
    import glob

    ref_dir = str(tmp_path / "clean")
    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    build_index(rd.from_arrow(tiny_docs), ref_dir, cfg)

    marker = "/tmp/refimage-failpoint-once"
    if os.path.exists(marker):
        os.remove(marker)
    flaky_dir = str(tmp_path / "flaky")
    res = build_index(rd.from_arrow(tiny_docs), flaky_dir, cfg,
                      failpoint_reducer_once=True)
    assert res.metrics["n_postings"] > 0
    # the injection must actually have fired (one worker was killed)
    assert os.path.exists(marker)
    os.remove(marker)

    names = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(ref_dir, "part-*.parquet")))
    assert names == sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(flaky_dir, "part-*.parquet")))
    for name in names:
        a = open(os.path.join(ref_dir, name), "rb").read()
        b = open(os.path.join(flaky_dir, name), "rb").read()
        assert a == b, f"{name} differs after retried build"
