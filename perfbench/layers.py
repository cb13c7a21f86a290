"""Per-layer metrics: the fixed list a traced run reports, and the
analysis of the serving spans.

Every traced run reports every metric below; a layer that does no work
in a workload's measured phase reports 0 there.  Module names are the
engine's (``refimage_ray/<module>``); ``trace.*`` describe the traced
run itself.
"""

from __future__ import annotations

from collections import defaultdict

import common
from spans import self_times

PER_LAYER = [
    ("sources.read_s", "s"),
    ("stages.extract.busy_s", "s"),
    ("stages.extract.docs_per_s", "1/s"),
    ("stages.docids.busy_s", "s"),
    ("stages.dedup.busy_s", "s"),
    ("stages.tokenize.busy_s", "s"),
    ("stages.tokenize.postings_per_s", "1/s"),
    ("functions.codec.encode_mb_per_s", "MB/s"),
    ("functions.codec.decode_mb_per_s", "MB/s"),
    ("index.build.docs_write_s", "s"),
    ("index.build.dedup_s", "s"),
    ("index.build.stats_s", "s"),
    ("index.build.hot_s", "s"),
    ("index.build.shuffle_build_s", "s"),
    ("index.build.reducer_busy_s", "s"),
    ("index.build.shuffle_bytes", "bytes"),
    ("index.build.partition_skew_ratio", "ratio"),
    ("index.build.artifact_bytes", "bytes"),
    ("index.build.postings_bytes", "bytes"),
    ("ray.data.floor_s", "s"),
    ("index.reader.load_s", "s"),
    ("index.reader.terms", "count"),
    ("index.reader.postings", "count"),
    ("serve.self_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.add_parse_ms", "ms"),
    ("query.dsl.parse_ms", "ms"),
    ("query.dsl.execute_self_ms", "ms"),
    ("query.engine.search_p50_ms", "ms"),
    ("query.engine.search_p99_ms", "ms"),
    ("query.engine.count_ms", "ms"),
    ("query.engine.postings_per_query", "count"),
    ("query.engine.lookup_docs_ms", "ms"),
    ("index.docvalues.load_s", "s"),
    ("query.nrt.add_ms", "ms"),
    ("query.nrt.first_search_after_add_ms", "ms"),
    ("query.nrt.warm_search_ms", "ms"),
    ("query.nrt.lookup_buffered_ms", "ms"),
    ("query.nrt.buffered_docs", "count"),
    ("pipelines.curate.busy_s", "s"),
    ("pipelines.curate.kept_share", "ratio"),
    ("stages.dedup_near.busy_s", "s"),
    ("stages.dedup_near.candidate_pairs", "count"),
    ("stages.dedup_near.useful_ratio", "ratio"),
    ("stages.lines.busy_s", "s"),
    ("stages.lines.removed_bytes_share", "ratio"),
    ("stages.lm.train_s", "s"),
    ("stages.lm.score_s", "s"),
    ("stages.packing.busy_s", "s"),
    ("stages.packing.fill_ratio", "ratio"),
    ("index.build.docs_per_s", "1/s"),
    ("build.unattributed_s", "s"),
    ("build.unattributed_share", "ratio"),
    ("prep.docs_per_s", "1/s"),
    ("prep.unattributed_s", "s"),
    ("prep.unattributed_share", "ratio"),
    ("prep.overhead_share", "ratio"),
    ("trace.request_p50_ms", "ms"),
    ("trace.self_sum_p50_ms", "ms"),
    ("trace.p50_accounted_ratio", "ratio"),
    ("trace.named_layers_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
]
UNITS = dict(PER_LAYER)
# request-path parts that are not an engine layer: the handler's own
# (unwrapped) time and the client's side of the request
UNNAMED = ("serve.request", "client")


def emit_layers(run, metrics: dict, ok: bool, details: dict) -> None:
    unknown = set(metrics) - set(UNITS)
    if unknown:
        raise KeyError(f"not in PER_LAYER: {sorted(unknown)}")
    full = {name: float(metrics.get(name, 0.0)) for name, _ in PER_LAYER}
    common.emit(run, full, UNITS, ok, details)


def _ms(xs) -> float:
    return common.median([x * 1e3 for x in xs])


def serving(dump: dict, traced_lat: dict, lat_untraced: list, lat_traced: list):
    """Layer metrics from the server's spans.  ``traced_lat`` maps the
    request ids of the traced phase to client latency (seconds)."""
    spans = dump["spans"]
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def dur(s):
        return s[4] - s[3]

    m: dict[str, float] = {}
    load = by_name.get("index.reader.load", [])
    if load:
        m["index.reader.load_s"] = dur(load[0])
        m["index.reader.terms"] = load[0][6].get("terms", 0)
        m["index.reader.postings"] = load[0][6].get("postings", 0)
    c = dump["counters"]
    if c.get("functions.codec.decode.s"):
        m["functions.codec.decode_mb_per_s"] = (
            c["functions.codec.decode.bytes"] / 1e6 / c["functions.codec.decode.s"])
    m["index.docvalues.load_s"] = sum(dur(s) for s in by_name.get("index.docvalues.load", []))

    # request-scoped spans of the traced phase only
    req = {s[0]: s for s in by_name.get("serve.request", []) if s[5] in traced_lat}
    in_req = [s for s in spans if s[5] in traced_lat]
    overhead = [traced_lat[s[5]] - dur(s) for s in req.values()]
    m["serve.self_ms"] = _ms([own[i] for i in req])
    m["serve.client_overhead_ms"] = _ms(overhead)
    m["serve.add_parse_ms"] = _ms([dur(s) for s in in_req if s[2] == "serve.add_parse"])
    m["query.dsl.parse_ms"] = _ms([dur(s) for s in in_req if s[2] == "query.dsl.parse"])
    m["query.dsl.execute_self_ms"] = _ms(
        [own[s[0]] for s in in_req if s[2] == "query.dsl.execute"])
    # /search and /count calls made by the route itself (DSL leaves excluded)
    top = [s for s in in_req if s[1] in req]
    search = [s for s in top if s[2] == "query.engine.search"]
    m["query.engine.search_p50_ms"] = _ms([dur(s) for s in search])
    m["query.engine.search_p99_ms"] = common.pct([dur(s) * 1e3 for s in search], 99)
    m["query.engine.count_ms"] = _ms([dur(s) for s in top if s[2] == "query.engine.count"])
    m["query.engine.postings_per_query"] = common.median(
        [s[6].get("postings", 0) for s in search])
    m["query.engine.lookup_docs_ms"] = _ms(
        [dur(s) for s in in_req if s[2] == "query.engine.lookup_docs"])
    adds = [s for s in in_req if s[2] == "query.nrt.add"]
    m["query.nrt.add_ms"] = _ms([dur(s) for s in adds])
    if adds:
        m["query.nrt.buffered_docs"] = max(s[6].get("buffered", 0) for s in adds)
        m["query.nrt.first_search_after_add_ms"] = _ms(
            [dur(s) for s in search if s[6].get("after_add")])
        m["query.nrt.warm_search_ms"] = _ms(
            [dur(s) for s in search if not s[6].get("after_add")])
    m["query.nrt.lookup_buffered_ms"] = _ms(
        [dur(s) for s in in_req if s[2] == "query.nrt.lookup_buffered"])

    # Over the GET /search requests, each layer's self time per request
    # (0 where the layer is absent).  "serve.request" is the handler's
    # self time, the work no wrapper names, and "client" the client
    # latency outside the handler.
    per_req: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in in_req:
        per_req[s[5]][s[2]] += own[s[0]]
    for s in req.values():
        per_req[s[5]]["client"] = traced_lat[s[5]] - dur(s)
    rids = [s[5] for s in req.values() if s[6].get("route") == "/search"]
    layers = sorted({name for r in rids for name in per_req[r]})
    # Does the request path add up?  Per request the self times plus
    # the client part equal the latency by construction, so the sum of
    # the layers' medians differs from the median request only as a sum
    # of medians differs from a median of sums; the ratio checks the
    # span bookkeeping (no overlap, no lost time), not how much of the
    # request the named layers explain.  That is the named share: the
    # median over requests of the share the named engine layers take.
    self_sum = sum(_ms([per_req[r][name] for r in rids]) for name in layers)
    p50 = _ms([traced_lat[r] for r in rids])
    m["trace.request_p50_ms"] = p50
    m["trace.self_sum_p50_ms"] = self_sum
    m["trace.p50_accounted_ratio"] = self_sum / p50 if p50 else 0.0
    m["trace.named_layers_share"] = common.median(
        [sum(v for name, v in per_req[r].items() if name not in UNNAMED) / traced_lat[r]
         for r in rids])
    a, b = _ms(lat_untraced), _ms(lat_traced)
    m["trace.overhead_share"] = b / a - 1.0 if a else 0.0
    m["trace.spans"] = len(spans)
    extra = {
        "layer_self_p50_ms": {name: _ms([per_req[r][name] for r in rids]) for name in layers},
        "layer_self_mean_ms": {name: 1e3 * sum(per_req[r][name] for r in rids) / max(len(rids), 1)
                               for name in layers},
        "traced_requests": len(rids),
        "untraced_p50_ms": a, "traced_p50_ms": b,
    }
    return m, extra
