"""The benchmark's BM25 reference agrees with the engine on a tiny
generated corpus (ids exactly, scores within the float tolerance)."""

import os

import pyarrow.parquet as pq
import pytest

import corpus
from oracle import Oracle, agrees, unique_docs


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    import ray
    from ray.data import DataContext

    from refimage_ray.config import EngineConfig
    from refimage_ray.pipelines.flagship import build_from_pages
    from refimage_ray.query.engine import LocalSearcher

    root = tmp_path_factory.mktemp("bench_oracle")
    c = corpus.generate(3, 150)
    corpus.write_pages(c.pages, str(root / "pages"), 50)
    # reuse a Ray instance another suite's session started; stop only our own
    started = not ray.is_initialized()
    if started:
        ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        idx = str(root / "index")
        build_from_pages(str(root / "pages"), idx, EngineConfig(num_shards=4, salt_buckets=2))
    finally:
        if started:
            ray.shutdown()
    t = pq.read_table(os.path.join(idx, "docs"), columns=["url", "doc_id"])
    id_of = dict(zip(t["url"].to_pylist(), t["doc_id"].to_pylist()))
    ids = [id_of[u] for u in c.pages["url"].to_pylist()]
    docs = unique_docs(ids, c.pages["text"].to_pylist())
    return LocalSearcher(idx), Oracle(docs, dict(zip(ids, c.pages["lang"].to_pylist())))


def test_oracle_agrees_with_engine(built):
    s, o = built
    assert s.n_docs == o.n
    ranked = sorted(o.df, key=lambda t: (-o.df[t], t))
    queries = [ranked[0], ranked[5] + " " + ranked[400], " ".join(ranked[10:14]),
               ranked[1] + " " + ranked[2]]
    for q in queries:
        for mode in ("or", "and"):
            got = s.search(q, k=10, mode=mode)
            assert agrees(got, o.search(q, 10, mode), o.scores(q, mode)) is None, (q, mode)
        assert s.count(q) == o.count(q)
    got = s.search(ranked[3], k=10, where=[("lang", "=", "en")])
    assert agrees(got, o.search(ranked[3], 10, lang="en"), o.scores(ranked[3])) is None


def test_agrees_rejects_a_wrong_score(built):
    s, o = built
    q = sorted(o.df, key=lambda t: -o.df[t])[0]
    got = s.search(q, k=5)
    bad = [(got[0][0], got[0][1] * 1.001)] + got[1:]
    assert agrees(bad, o.search(q, 5), o.scores(q)) is not None
