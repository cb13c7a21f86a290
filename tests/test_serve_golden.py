"""Response bytes of the benchmark's routes, pinned.

A fixed request sequence runs against a fresh copy of the shared
fixture index; each reply's status, ``Content-Type`` and body must
equal the recorded ``golden/serve_routes.json`` (the ``Date`` and
``Server`` headers vary, so they are left out).  The sequence covers
what ``perfbench`` sends: ``/search`` (or, and, filter, offset),
``/dsl``, ``/count``, ``POST /docs``, ``POST /reload`` and a 422,
plus ``/docs/{id}/similar`` (the third hit-row route) and
``/docs/{id}``.  After those 20 requests every other route answers
once with a success and once with a refusal: each ``/search`` mode,
snippets and rescore, the aggregation and vocabulary routes, the
per-document routes, the NL and percolate routes, an unknown path and
a malformed body.  The routes that change the artifact (``PUT`` metadata,
``DELETE /docs/{id}``) or the percolate rule registry come last.  A
change to how the server dispatches, routes or serializes must leave
these bytes as they are.

The first 17 records were recorded from the thread-per-connection
server, the next three from the warm-worker server with the dict-built
metadata join, before hit rows were pre-rendered, and the rest from the
if-chain router, before routes were dispatched from one table.  A
deliberate change of the response format records them again with a
one-off call to :func:`capture` and shows the JSON diff for review.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "serve_routes.json")

ADD = {"docs": [{"doc_id": 10**12 + 1, "text": "zanzibar quorum raft"},
                {"doc_id": 10**12 + 2, "text": "zanzibar gossip spark"}]}

# (method, path, JSON body or None), sent in order on one server
REQUESTS = [
    ("GET", "/search?q=spark+join&k=10", None),
    ("GET", "/search?q=spark+join&k=10&mode=and", None),
    ("GET", "/search?q=spark+data&k=5&filter=lang%3Den", None),
    ("GET", "/search?q=spark+join&k=5&offset=5", None),
    ("GET", "/dsl?q=spark+OR+join%5E2&limit=10", None),
    ("GET", "/dsl?q=spark+AND+join", None),
    ("GET", "/count?q=spark+join", None),
    ("GET", "/count?q=spark+join&mode=and", None),
    ("GET", "/search?q=spark&k=ten", None),
    ("GET", "/search?q=spark&mode=phrase&offset=-2", None),
    ("POST", "/docs", ADD),
    ("GET", "/search?q=zanzibar+spark&k=10", None),
    ("GET", "/count?q=zanzibar", None),
    ("POST", "/docs", {"docs": [{"doc_id": 10**12 + 1, "text": "again"}]}),
    ("POST", "/reload", {}),
    ("GET", "/search?q=zanzibar&k=10", None),
    ("GET", "/search?q=spark+join&k=10", None),
    ("GET", "/docs/36/similar?k=5", None),
    ("GET", "/docs/36", None),
    ("GET", "/docs/999999/similar", None),
    # every other route, one success and one refusal each (reads first)
    ("GET", "/health", None),
    ("GET", "/stats", None),
    ("GET", "/nosuch", None),
    ("GET", "/docs?limit=3&sort=n_chars&dir=desc", None),
    ("GET", "/docs?sort=nope", None),
    ("GET", "/docs/999999", None),
    ("GET", "/docs/36/metadata", None),
    ("GET", "/dsl-syntax", None),
    ("GET", "/nl/providers", None),
    ("GET", "/explain?q=spark+AND+join", None),
    ("GET", "/explain?q=spark+AND", None),
    ("GET", "/terms?prefix=sp&max=5", None),
    ("GET", "/terms?prefix=w05&max=-1", None),
    ("GET", "/suggest?q=sparc&k=3", None),
    ("GET", "/suggest?q=sparc+jion&mode=phrase", None),
    ("GET", "/suggest?k=3", None),
    ("GET", "/significant?q=spark&sample=50&top=5", None),
    ("GET", "/significant?q=spark&sample=x", None),
    ("GET", "/grouped?q=spark+join&by=lang&k=2", None),
    ("GET", "/grouped?q=spark", None),
    ("GET", "/composite?q=spark&by=lang&size=3", None),
    ("GET", "/composite?q=spark&by=lang&after=%5Ben", None),
    ("GET", "/facets?q=spark&by=lang&hist=doc_len:100", None),
    ("GET", "/facets?dsl=spark+OR+join&by=lang", None),
    ("GET", "/facets?q=spark&hist=doc_len", None),
    ("GET", "/search?q=spark+join&mode=phrase&k=3&slop=2", None),
    ("GET", "/search?q=spark+jo&mode=phrase_prefix&k=3", None),
    ("GET", "/search?q=spark+join&mode=near&window=10&k=3", None),
    ("GET", "/search?q=spa&mode=prefix&k=3", None),
    ("GET", "/search?q=sparc&mode=fuzzy&k=3", None),
    ("GET", "/search?q=sp*k&mode=wildcard&k=3", None),
    ("GET", "/search?q=sp.rk&mode=regex&k=3", None),
    ("GET", "/search?q=spark+join+data&min_match=2&k=3", None),
    ("GET", "/search?q=spark+join&k=3&after=36:0.3215201044020005", None),
    ("GET", "/search?q=spark+join&k=3&decay=n_chars:exp:0:2000:0.5", None),
    ("GET", "/search?q=spark&k=3&order=doc_len:asc&filter=lang%3Den", None),
    ("GET", "/search?q=spark+join&k=3&rescore_window=20", None),
    ("GET", "/search?q=spark+join&k=2&snippets=1&width=60", None),
    ("GET", "/search?q=spark&mode=phrase&filter=lang%3Den", None),
    ("GET", "/search?q=spark&mode=bogus", None),
    ("GET", "/search?q=w050+w100&mode=and&k=-1", None),
    ("GET", "/search?k=3", None),
    ("GET", "/count?q=spark+join&min_match=-3", None),
    ("GET", "/dsl?q=spark+AND", None),
    ("GET", "/docs/36/explain?q=spark+join", None),
    ("GET", "/docs/36/explain", None),
    ("GET", "/docs/36/termvectors", None),
    ("GET", "/docs/999999/termvectors", None),
    ("GET", "/docs/36/file", None),
    ("GET", "/docs/999999/file", None),
    ("GET", "/percolate/rules", None),
    ("POST", "/percolate", {"text": "spark join"}),
    ("POST", "/nl2dsl", {"text": "spark and join"}),
    ("POST", "/nl2dsl", {"text": ""}),
    ("POST", "/nl/switch", {"provider": "rules"}),
    ("POST", "/nl/switch", {"provider": "nosuch"}),
    ("POST", "/docs", "spark"),
    # the routes that change the artifact or the rule registry last
    ("PUT", "/docs/36/metadata", {"lang": "xx"}),
    ("GET", "/docs/36", None),
    ("PUT", "/docs/999999/metadata", {"lang": "xx"}),
    ("DELETE", "/docs/37", None),
    ("DELETE", "/docs/abc", None),
    ("PUT", "/percolate/rules/r1", {"dsl": "spark AND join"}),
    ("PUT", "/percolate/rules/bad", {"dsl": "spark AND"}),
    ("GET", "/percolate/rules", None),
    ("POST", "/percolate", {"text": "spark join here"}),
    ("POST", "/percolate", {"text": ""}),
    ("DELETE", "/percolate/rules/r1", None),
    ("DELETE", "/percolate/rules/r1", None),
]


def capture(index_dir: str) -> list[dict]:
    """Serve ``index_dir`` and return one record per ``REQUESTS`` entry."""
    from refimage_ray.serve import make_server

    srv = make_server(index_dir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    out = []
    try:
        for method, path, body in REQUESTS:
            conn = http.client.HTTPConnection("127.0.0.1",
                                              srv.server_address[1],
                                              timeout=30)
            data = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            r = conn.getresponse()
            out.append({"request": f"{method} {path}", "status": r.status,
                        "content_type": r.getheader("Content-Type"),
                        "body": r.read().decode()})
            conn.close()
    finally:
        srv.shutdown()
        srv.server_close()
        t.join(timeout=30)
    return out


def test_bench_routes_response_bytes_unchanged(built_index, tmp_path):
    d = str(tmp_path / "idx")
    shutil.copytree(built_index[0], d)
    got = capture(d)
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert [g["request"] for g in got] == [g["request"] for g in golden]
    for g, want in zip(got, golden):
        assert g == want, g["request"]

