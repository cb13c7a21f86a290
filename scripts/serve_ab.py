"""Paired A/B of two checkouts' servers: one artifact, one client.

    python scripts/serve_ab.py TREE_A TREE_B [--ingest] [--seed N] [--requests N]

Builds perfbench's serving artifact once (its corpus for ``--seed``,
this checkout's pipeline), then starts perfbench's server launcher
(``serve.make_server``) once per tree, each importing that tree's
``refimage_ray``.  One closed-loop client sends perfbench's read mix
(with ``--ingest``, the ingest mix: adds, their follow-up reads and the
``/reload`` resets) to both servers, each request to one side and then
the same request to the other, the side that goes first alternating,
so drift of the host lands on both sides alike.  Client and servers
share one CPU, as in perfbench.  Prints p50, p90 and mean latency (ms)
per side and their ratio B/A; exits 1 if any request failed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import common  # noqa: E402
import corpus  # noqa: E402
import wl_serve  # noqa: E402
from oracle import Oracle, unique_docs  # noqa: E402
from wl_serve import Loop, Mix  # noqa: E402

WARMUP = 100  # requests per side before the timed ones


def build(run: common.Run):
    """The perfbench artifact and its oracle (as ``run_workload``)."""
    import pyarrow.parquet as pq
    import ray

    from refimage_ray.config import EngineConfig
    from refimage_ray.pipelines.flagship import build_from_pages

    c = corpus.generate(run.seed, wl_serve.SERVE_PAGES)
    pages, idx = os.path.join(run.work, "pages"), os.path.join(run.work, "index")
    corpus.write_pages(c.pages, pages, rows_per_file=125)
    common.ray_start()
    build_from_pages(pages, idx, EngineConfig(num_shards=8, salt_buckets=4), resume=False)
    ray.shutdown()
    id_of = dict(zip(*[pq.read_table(os.path.join(idx, "docs"), columns=["url", "doc_id"])[k]
                       .to_pylist() for k in ("url", "doc_id")]))
    ids = [id_of[u] for u in c.pages["url"].to_pylist()]
    oracle = Oracle(unique_docs(ids, c.pages["text"].to_pylist()),
                    dict(zip(ids, c.pages["lang"].to_pylist())))
    return idx, oracle


def step(loop: Loop, i: int) -> None:
    """Request ``i`` of ``Loop.go``'s sequence."""
    if not loop.ingest or i % (wl_serve.MIX_READS + 1) < wl_serve.MIX_READS:
        loop._read(*loop.mix.next())
    else:
        loop._add()
        if loop.n_adds % wl_serve.EPISODE_ADDS == 0:
            loop._reset()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--ingest", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, default=4000, help="timed requests per side")
    a = ap.parse_args()
    run = common.Run("serve_ab", a.seed, 0, False)
    idx, oracle = build(run)
    common.pin_one_cpu()
    servers = []
    try:
        for tree in (a.tree_a, a.tree_b):
            os.environ["PYTHONPATH"] = os.path.abspath(tree)
            servers.append(wl_serve.Server(idx, False))
        loops = [Loop(run, srv, Mix(a.seed, oracle, list(corpus.LANG_MIX), a.ingest),
                      a.ingest, oracle) for srv in servers]
        for i in range(WARMUP + a.requests):
            if i == WARMUP:
                for lp in loops:
                    lp.q_lat.clear()
                    lp.add_lat.clear()
            for lp in loops if i % 2 == 0 else loops[::-1]:
                step(lp, i)
    finally:
        for srv in servers:
            srv.stop()
        run.cleanup()
    stats = []
    for name, tree, lp in zip("AB", (a.tree_a, a.tree_b), loops):
        ms = [x * 1e3 for x in lp.q_lat + lp.add_lat]
        stats.append((common.median(ms), common.pct(ms, 90), sum(ms) / len(ms)))
        print(f"{name} {tree}: n={len(ms)} p50 %.3f  p90 %.3f  mean %.3f ms" % stats[-1])
    print("B/A   p50 %.3f  p90 %.3f  mean %.3f" % tuple(b / x for x, b in zip(*stats)))
    for problem in run.problems:
        print("failed:", problem)
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
