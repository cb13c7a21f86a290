"""Cost of the ``/search`` hit-row join, for repeated and for cold rows.

Usage:
    python scripts/join_cost.py --traffic {cold,repeat} [--rows 50000]
        [--requests 5000] [--seed 1]

Serves a synthetic docs store with the benchmark artifact's docs schema
(``url, warc_ts, lang, content_hash, content_key, content_key2,
doc_len, n_chars``; empty ``text``) through ``serve.make_server`` with a
stub searcher, so the request time is HTTP, routing and the join, with
no scoring.  Each request gets 10 hits:

- ``cold``: the store swept in a seeded random order, so no hit row
  repeats and every row is joined for the first time (long-tail
  traffic, or a ``docs/`` snapshot replaced between requests);
- ``repeat``: hits drawn from 500 rows, so after warm-up every row has
  been joined before (the benchmark's ``search`` traffic hits 490 of
  its 500 stored rows).

One closed-loop client, one connection per request, in the server's
process.  Prints, over the timed requests (the first ``--requests //
10`` are untimed), request p50/p90 (ms), the handler's p50/p90 (ms:
routing, join and write, without the client and connection set-up) and
the process's RSS growth per distinct row they hit, read after a
garbage collection and a release of Arrow's unused pool memory.  With
``--traffic cold`` and the default sizes every row is hit once.  The
script uses only ``make_server``, so running it in two checkouts
compares their joins.
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import http.client
import json
import os
import shutil
import tempfile
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

K = 10
SETTLE_S = 5.0
LANGS = ["en", "de", "fr", "es", "zh", "ja", "ru", "pt"]


def _rss_mb() -> float:
    gc.collect()
    pa.default_memory_pool().release_unused()
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def write_store(index_dir: str, rows: int, rng) -> np.ndarray:
    """One parquet file of ``rows`` docs; returns the doc ids."""
    ids = rng.choice(2**62, size=rows, replace=False).astype(np.int64)
    lang = rng.integers(0, len(LANGS), rows)
    base = dt.datetime(2025, 8, 1)
    # every eighth timestamp on a whole second (str() drops the micros)
    us = rng.integers(0, 10**12, rows)
    us[::8] -= us[::8] % 10**6
    t = pa.table({
        "url": [f"https://s{i % 8}.example/{LANGS[g]}/p{i}" for i, g in enumerate(lang)],
        "warc_ts": pa.array([base + dt.timedelta(microseconds=int(u)) for u in us],
                            pa.timestamp("us")),
        "lang": [LANGS[g] for g in lang],
        "text": [""] * rows,
        "content_hash": [f"{h:032x}" for h in rng.integers(0, 2**63, rows)],
        "content_key": pa.array(rng.integers(0, 2**63, rows), pa.uint64()),
        "content_key2": pa.array(rng.integers(0, 2**63, rows), pa.uint64()),
        "doc_id": pa.array(ids, pa.int64()),
        "doc_len": pa.array(rng.integers(20, 2000, rows), pa.int32()),
        "n_chars": pa.array(rng.integers(100, 20000, rows), pa.int64()),
    })
    os.makedirs(os.path.join(index_dir, "docs"))
    pq.write_table(t, os.path.join(index_dir, "docs", "part-0.parquet"))
    return ids


class StubSearcher:
    """Answers every search with the next ``K`` ids of ``order``."""

    def __init__(self, order: np.ndarray):
        self.order = order.tolist()
        self.i = 0

    def search(self, q, k=10, **kw):
        n = len(self.order)
        hits = [(self.order[(self.i + j) % n], 10.0 - j / 8) for j in range(k)]
        self.i += k
        return hits


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--traffic", choices=("cold", "repeat"), required=True)
    ap.add_argument("--rows", type=int, default=50_000)
    ap.add_argument("--requests", type=int, default=5_000)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()

    from refimage_ray.serve import make_server

    rng = np.random.default_rng(a.seed)
    work = tempfile.mkdtemp(prefix="join_cost_")
    try:
        ids = write_store(work, a.rows, rng)
        if a.traffic == "cold":
            order = rng.permutation(ids)
        else:
            hot = rng.choice(ids, 500, replace=False)
            order = hot[rng.integers(0, len(hot), a.requests * K)]
        srv = make_server(work, port=0, searcher=StubSearcher(order))
        handler_s = []
        get = srv.RequestHandlerClass.do_GET

        def timed_get(self):
            t0 = time.perf_counter()
            get(self)
            handler_s.append(time.perf_counter() - t0)

        srv.RequestHandlerClass.do_GET = timed_get
        th = threading.Thread(target=srv.serve_forever, daemon=True)
        th.start()
        port = srv.server_address[1]
        warm = a.requests // 10
        lat = []
        rss0 = None
        for i in range(a.requests):
            if i == warm:
                # the allocators return what the store's write and load
                # freed over a few seconds; read the base after that
                time.sleep(SETTLE_S)
                rss0 = _rss_mb()
            t0 = time.perf_counter()
            c = http.client.HTTPConnection("127.0.0.1", port)
            c.request("GET", f"/search?q=x&k={K}")
            r = c.getresponse()
            body = r.read()
            c.close()
            if i >= warm:
                lat.append(time.perf_counter() - t0)
            if r.status != 200 or len(json.loads(body)["results"]) != K:
                raise SystemExit(f"request {i}: {r.status} {body[:200]!r}")
        rss1 = _rss_mb()
        srv.shutdown()
        srv.server_close()
        th.join(timeout=30)
        hit = len(set(order[warm * K: a.requests * K].tolist()))
        ms = np.array(lat) * 1e3
        hms = np.array(handler_s[warm:]) * 1e3
        print(json.dumps({
            "traffic": a.traffic, "rows": a.rows, "timed_requests": len(lat),
            "distinct_rows_hit": hit,
            "p50_ms": round(float(np.percentile(ms, 50)), 4),
            "p90_ms": round(float(np.percentile(ms, 90)), 4),
            "handler_p50_ms": round(float(np.percentile(hms, 50)), 4),
            "handler_p90_ms": round(float(np.percentile(hms, 90)), 4),
            "rss_growth_b_per_row_hit": round((rss1 - rss0) * 2**20 / hit, 1),
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
