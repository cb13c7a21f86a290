"""``search`` and ``ingest`` workloads: one closed-loop client against a
benchmark-launched server process.

The client sends the next request only after the previous reply, on a
fresh connection each time (the server closes every connection), with
zero think time.  Callers such as a search box or a retrieval step wait
for each reply, and on one core an open-loop generator would compete
with the server for the processor and measure the scheduler.

``ingest`` mixes ``POST /docs`` batches into the same read mix at a
fixed write share, in episodes of a fixed number of adds; after each
episode ``POST /reload`` drops the NRT buffer, so every episode starts
from the base artifact and ends with the same number of buffered
documents however fast the requests go.  Each batch carries a term
planted in it alone; after each add comes one plain search (the first
search after the add) and then a search for the planted term
(read-your-writes).

The traffic is assumed, not taken from a query log; README.md ("Traffic
assumptions") gives the reason for each value.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from urllib.parse import urlencode

import numpy as np

import common
import corpus
from oracle import Oracle, agrees, unique_docs

SERVE_PAGES = 500
SERVER_STARTS = 3          # set-up is timed on each start; the median is reported
CHECK_PER_KIND = 30        # sampled responses checked against the oracle
K = 10                     # results per page
KINDS = {"or": 0.45, "and": 0.20, "filter": 0.10, "page": 0.05, "dsl": 0.10, "count": 0.10}
WRITE_SHARE = 0.1          # ingest: share of requests that are adds
# each add brings two reads of its own (first search after it, read-your-writes)
MIX_READS = round(1 / WRITE_SHARE) - 3   # read-mix requests before each add
ADD_DOCS = 2               # docs per batch
EPISODE_ADDS = 50          # adds between two resets: 100 docs buffered at most
ACCOUNTED = (0.85, 1.15)   # traced runs: layer self times against the median request
DSL_TEMPLATES = ["{a} AND {b}", "{a} OR {b}^2", "{a} NOT {b}", "{a} AND {b} OR {c}",
                 "{a} #{lang}"]
# The engine refuses doc-value filters (``filter=``, DSL ``#tag``) while
# NRT-added docs are buffered (HTTP 422, "flush() first"), so the ingest
# read mix leaves them out; see README.md.
INGEST_DROP = ("filter",)
HERE = os.path.dirname(os.path.abspath(__file__))


class Mix:
    """Seeded request stream.  Query terms follow a Zipf law over the
    corpus terms ranked by document frequency, so hot and tail terms
    mix in one query; AND queries take their terms from one document so
    that they match."""

    def __init__(self, seed: int, oracle: Oracle, langs: list[str], ingest: bool):
        self.rng = np.random.default_rng([seed, 77])
        kinds = {k: p for k, p in KINDS.items() if not (ingest and k in INGEST_DROP)}
        self.templates = [t for t in DSL_TEMPLATES if not (ingest and "#" in t)]
        ranked = sorted(oracle.df.items(), key=lambda x: (-x[1], x[0]))
        self.terms = [t for t, _ in ranked]
        w = 1.0 / np.arange(1, len(self.terms) + 1)
        self.cdf = np.cumsum(w) / w.sum()
        self.docs = [sorted(c) for c in oracle.tf.values() if len(c) >= 3]
        self.langs = langs
        self.kinds = list(kinds)
        self.kind_p = np.array(list(kinds.values())) / sum(kinds.values())

    def _terms(self, lo: int, hi: int) -> list[str]:
        n = int(self.rng.integers(lo, hi + 1))
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return [self.terms[min(i, len(self.terms) - 1)] for i in idx]

    def plain(self) -> tuple[str, str, dict]:
        return "or", "/search", {"q": " ".join(self._terms(1, 4)), "k": K}

    def next(self) -> tuple[str, str, dict]:
        kind = self.kinds[int(self.rng.choice(len(self.kinds), p=self.kind_p))]
        if kind == "and":
            doc = self.docs[int(self.rng.integers(len(self.docs)))]
            n = int(self.rng.integers(2, 4))
            terms = [doc[i] for i in self.rng.choice(len(doc), size=n, replace=False)]
            return kind, "/search", {"q": " ".join(terms), "k": K, "mode": "and"}
        if kind == "dsl":
            a, b, c = self._terms(3, 3)
            lang = self.langs[int(self.rng.integers(len(self.langs)))]
            tpl = self.templates[int(self.rng.integers(len(self.templates)))]
            return kind, "/dsl", {"q": tpl.format(a=a, b=b, c=c, lang=lang), "limit": K}
        if kind == "count":
            return kind, "/count", {"q": " ".join(self._terms(1, 3))}
        q = {"q": " ".join(self._terms(1, 4)), "k": K}
        if kind == "filter":
            q["filter"] = "lang=" + self.langs[int(self.rng.integers(len(self.langs)))]
        elif kind == "page":
            q["offset"] = int(self.rng.choice([K, 2 * K]))
        return kind, "/search", q


class Client:
    def __init__(self, port: int, trace_rng=None, tag: str = "q"):
        self.port, self.tag = port, tag
        self.n = 0
        self.lat: dict[str, float] = {}  # request id → client latency (s)
        self.trace_rng = trace_rng       # traced runs: trace a random half
        self.traced: set[str] = set()

    def call(self, method: str, path: str, body: bytes | None = None, trace: bool = False):
        """(status, parsed body or None, seconds, request id); status 0
        is a dropped connection."""
        self.n += 1
        rid = f"{self.tag}{self.n}"
        hdr = {"X-Request-Id": rid, "Connection": "close"}
        if body is not None:
            hdr["Content-Type"] = "application/json"
        if trace or (self.trace_rng is not None and self.trace_rng.random() < 0.5):
            hdr["X-Trace"] = "1"
            self.traced.add(rid)
        t0 = time.perf_counter()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            conn.request(method, path, body=body, headers=hdr)
            resp = conn.getresponse()
            raw = resp.read()
            status = resp.status
            conn.close()
        except (OSError, http.client.HTTPException):
            return 0, None, time.perf_counter() - t0, rid
        dt = time.perf_counter() - t0
        self.lat[rid] = dt
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = None
        return status, parsed, dt, rid


class Server:
    """The launcher subprocess (``server.py``)."""

    def __init__(self, index_dir: str, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), index_dir, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server launcher exited before listening")
        self.port = json.loads(line)["port"]

    def send(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def dump(self, path: str) -> None:
        self.send("dump " + path)
        self.proc.stdout.readline()

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("quit")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_and_first_answer(index_dir: str, trace: bool, warm_q: str, lang: str):
    """Server start → first answered (filtered) query, which loads the
    searcher and the doc values the filters use."""
    t0 = time.perf_counter()
    srv = Server(index_dir, trace)
    cl = Client(srv.port, tag="setup")
    st, body, _, _ = cl.call("GET", "/search?" + urlencode({"q": warm_q, "k": K,
                                                            "filter": "lang=" + lang}),
                             trace=trace)
    if st != 200:
        srv.stop()
        raise RuntimeError(f"first query answered {st}")
    return srv, time.perf_counter() - t0


def run_workload(run: common.Run, ingest: bool) -> None:
    import ray

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.fsck import verify_index
    from refimage_ray.pipelines.flagship import build_from_pages

    run.stage("generate")
    c = corpus.generate(run.seed, SERVE_PAGES)
    pages_dir = os.path.join(run.work, "pages")
    corpus.write_pages(c.pages, pages_dir, rows_per_file=125)
    run.stage("corpus_self_check")
    run.attempted += 1
    for problem in corpus.self_check(c, run.seed):
        run.fail(problem)
    run.stage("ray_init")
    ray_s, ray_tmp = common.ray_start()
    run.stage("build_artifact")
    idx = os.path.join(run.work, "index")
    t0 = time.perf_counter()
    res = build_from_pages(pages_dir, idx, EngineConfig(num_shards=8, salt_buckets=4),
                           resume=False)
    build_s = time.perf_counter() - t0
    run.stage("fsck")
    run.attempted += 1
    rep = verify_index(idx, deep=True)
    if not rep["ok"]:
        run.fail(f"fsck: {rep['problems'][:3]}")
    # The traced runs also measure the layers of the build and of the
    # data-prep chain (no workload of their own, see README.md): the
    # build's layers over this artifact (search), the prep chain over
    # this corpus (ingest).
    side: tuple[dict, dict] = ({}, {})
    if run.trace and not ingest:
        import build_layers

        side = build_layers.layer_pass(run, pages_dir, idx, build_s, SERVE_PAGES)
    elif run.trace:
        import prep_layers

        docs_dir = os.path.join(run.work, "docs")
        prep_layers.write_docs(c.pages["text"].to_pylist(), docs_dir)
        side = prep_layers.traced_layers(run, c, c.pages["text"].to_pylist(), docs_dir)
    ray.shutdown()
    # client and server share one CPU from here on (see common.pin_one_cpu)
    cpu = common.pin_one_cpu()

    run.stage("oracle")
    import pyarrow.parquet as pq

    id_of = dict(zip(*[pq.read_table(os.path.join(idx, "docs"), columns=["url", "doc_id"])[k]
                       .to_pylist() for k in ("url", "doc_id")]))
    urls = c.pages["url"].to_pylist()
    ids = [id_of[u] for u in urls]
    docs = unique_docs(ids, c.pages["text"].to_pylist())
    lang_of = dict(zip(ids, c.pages["lang"].to_pylist()))
    oracle = Oracle(docs, lang_of)
    if res.metrics["n_docs"] != len(docs):
        run.fail(f"artifact has {res.metrics['n_docs']} docs, corpus {len(docs)} unique")
    langs = list(corpus.LANG_MIX)
    mix = Mix(run.seed, oracle, langs, ingest)
    run.record = common.host_record(run, {
        "ray_temp_dir": ray_tmp, "corpus": c.params, "unique_docs": len(docs),
        "distinct_terms": len(oracle.df), "postings": int(sum(oracle.df.values())),
        "artifact_bytes": common.dir_bytes(idx), "engine_config": "num_shards=8 salt_buckets=4",
        "client": "closed loop, 1 client, 1 connection per request, zero think time",
        "client_and_server_cpu": cpu,
    })
    ready = []
    for i in range(1 if run.trace else SERVER_STARTS):
        run.stage(f"server_start_{i}")
        if ready:
            srv.stop()
        srv, dt = start_and_first_answer(idx, run.trace, mix.terms[0], "en")
        ready.append(dt)
    try:
        if run.trace:
            _traced(run, srv, mix, ingest, oracle, side)
        else:
            _measured(run, srv, mix, ingest, oracle, common.median(ready), {
                "ray_init_s": (ray_s, "s"), "artifact_build_s": (build_s, "s")})
    finally:
        srv.stop()


class Loop:
    """The closed loop: the read mix, with adds interleaved for ingest."""

    def __init__(self, run, srv, mix, ingest, oracle):
        self.run, self.mix, self.ingest, self.oracle = run, mix, ingest, oracle
        self.cl = Client(srv.port, np.random.default_rng([run.seed, 5]) if run.trace else None)
        self.q_lat: list[float] = []
        self.q_rid: list[str] = []
        self.add_lat: list[float] = []
        self.sampled: list[tuple] = []
        self.per_kind: dict[str, int] = {}
        self.by_kind: dict[str, list] = {}
        self.reads = 0
        self.n_adds = 0
        self.episodes = 0
        if ingest:
            # every episode adds these texts in the same order
            pool = corpus.generate(run.seed, EPISODE_ADDS * ADD_DOCS, first_index=10_000_000)
            self.pool = pool.pages["text"].to_pylist()
            self.next_id = (1 << 62) + (run.seed % 1000) * (1 << 32)
            self.base_ids = set(oracle.tf)

    def _read(self, kind, path, params) -> None:
        st, body, dt, rid = self.cl.call("GET", path + "?" + urlencode(params))
        self.run.attempted += 1
        self.reads += 1
        if st != 200 or body is None:
            self.run.fail(f"{kind} {params} -> {st}")
            return
        self.q_lat.append(dt)
        self.q_rid.append(rid)
        self.by_kind.setdefault(kind, []).append(dt)
        if not self.ingest and kind != "dsl" and self.per_kind.get(kind, 0) < CHECK_PER_KIND:
            self.per_kind[kind] = self.per_kind.get(kind, 0) + 1
            self.sampled.append((kind, params, body))

    def _add(self) -> None:
        b = self.n_adds
        self.n_adds += 1
        token = f"zqb{b}x{self.run.seed}"
        rows = []
        for j in range(ADD_DOCS):
            while self.next_id in self.base_ids:
                self.next_id += 1
            text = self.pool[(b % EPISODE_ADDS) * ADD_DOCS + j]
            rows.append({"doc_id": self.next_id, "text": f"{text}\n\n{token}"})
            self.next_id += 1
        st, body, dt, _ = self.cl.call("POST", "/docs", json.dumps({"docs": rows}).encode())
        self.run.attempted += 1
        if st != 200 or not body or body.get("added") != ADD_DOCS:
            self.run.fail(f"add batch {b} -> {st} {body}")
            return
        self.add_lat.append(dt)
        # the first search after an add pays for the cleared term memo
        self._read(*self.mix.plain())
        # read-your-writes: the planted term finds exactly this batch
        st, body, dt, rid = self.cl.call("GET", "/search?" + urlencode({"q": token, "k": K}))
        self.run.attempted += 1
        self.reads += 1
        got = sorted(r["doc_id"] for r in body["results"]) if st == 200 and body else None
        if got != [r["doc_id"] for r in rows]:
            self.run.fail(f"read-your-writes batch {b}: {got}")
            return
        self.q_lat.append(dt)
        self.q_rid.append(rid)

    def _reset(self) -> None:
        """End of an episode: drop the NRT buffer (the server swaps its
        base searcher back in)."""
        self.episodes += 1
        st, body, _, _ = self.cl.call("POST", "/reload", b"{}")
        self.run.attempted += 1
        if st != 200:
            self.run.fail(f"reload after episode {self.episodes} -> {st} {body}")

    def go(self, seconds: float) -> float:
        """Requests back to back for ``seconds`` of measured time; the
        resets between ingest episodes are left out of it.  Returns the
        measured time."""
        t0 = time.perf_counter()
        paused = 0.0
        step = 0
        while time.perf_counter() - t0 - paused < seconds:
            if not self.ingest or step % (MIX_READS + 1) < MIX_READS:
                self._read(*self.mix.next())
            else:
                self._add()
                if self.n_adds % EPISODE_ADDS == 0:
                    t = time.perf_counter()
                    self._reset()
                    paused += time.perf_counter() - t
            step += 1
        return time.perf_counter() - t0 - paused

    def check(self) -> bool:
        """Sampled responses against the oracle (search workload)."""
        o = self.oracle
        for kind, p, body in self.sampled:
            if kind == "count":
                want = o.count(p["q"])
                if body.get("count") != want:
                    self.run.fail(f"count {p['q']!r}: {body.get('count')} != {want}")
                continue
            mode = p.get("mode", "or")
            lang = p["filter"].split("=", 1)[1] if "filter" in p else None
            want = o.search(p["q"], p["k"], mode, lang, p.get("offset", 0))
            got = [(r["doc_id"], r["score"]) for r in body["results"]]
            why = agrees(got, want, o.scores(p["q"], mode))
            if why:
                self.run.fail(f"{kind} {p}: {why}")
        return bool(self.sampled) or self.ingest


def _measured(run, srv, mix, ingest, oracle, setup_s, prep_times) -> None:
    loop = Loop(run, srv, mix, ingest, oracle)
    run.stage("measure")
    wall = loop.go(run.seconds)
    rss = srv.rss_mb()
    run.stage("check")
    ok = loop.check()
    q_ms = [x * 1e3 for x in loop.q_lat]
    add_ms = [x * 1e3 for x in loop.add_lat]
    named = {**prep_times, "query_p50_ms": (common.median(q_ms), "ms"),
             "query_p99_ms": (common.pct(q_ms, 99), "ms"),
             "query_per_s": (len(q_ms) / wall, "1/s")}
    if ingest:
        named["add_p50_ms"] = (common.median(add_ms), "ms")
        named["add_p90_ms"] = (common.pct(add_ms, 90), "ms")
    common.emit_e2e(run, setup_s, (len(q_ms) + len(add_ms)) / wall, q_ms + add_ms, rss, ok,
                    named, {"reads": loop.reads, "adds": loop.n_adds,
                            "episodes": loop.episodes,
                            "p50_ms_by_kind": {k: common.median(v) * 1e3
                                               for k, v in loop.by_kind.items()},
                            "checked": len(loop.sampled), "wall_s": wall})


def _traced(run, srv, mix, ingest, oracle, side) -> None:
    """A random half of the requests carries ``X-Trace: 1``; their spans
    (plus those of the traced start-up) give the layer metrics, and the
    untraced half gives the tracing overhead under the same state."""
    import layers

    loop = Loop(run, srv, mix, ingest, oracle)
    run.stage("measure")
    loop.go(run.seconds)
    run.stage("dump_spans")
    path = os.path.join(run.work, "spans.json")
    srv.dump(path)
    with open(path) as f:
        dump = json.load(f)
    traced = loop.cl.traced
    traced_lat = {rid: loop.cl.lat[rid] for rid in traced if rid in loop.cl.lat}
    reads = list(zip(loop.q_rid, loop.q_lat))
    metrics, extra = layers.serving(dump, traced_lat,
                                    [dt for rid, dt in reads if rid not in traced],
                                    [dt for rid, dt in reads if rid in traced])
    ok = loop.check()
    # the self times along the request path must add up to the traced
    # median request within 15 %
    run.attempted += 1
    ratio = metrics["trace.p50_accounted_ratio"]
    if not ACCOUNTED[0] <= ratio <= ACCOUNTED[1]:
        run.fail(f"layer self times add up to {ratio:.3f} of the median request")
    layers.emit_layers(run, {**side[0], **metrics}, ok, {**side[1], **extra, "spans": dump})
