"""Response bytes of the benchmark's routes, pinned.

A fixed request sequence runs against a fresh copy of the shared
fixture index; each reply's status, ``Content-Type`` and body must
equal the recorded ``golden/serve_routes.json`` (the ``Date`` and
``Server`` headers vary, so they are left out).  The sequence covers
what ``perfbench`` sends: ``/search`` (or, and, filter, offset),
``/dsl``, ``/count``, ``POST /docs``, ``POST /reload`` and a 422,
plus ``/docs/{id}/similar`` (the third hit-row route) and
``/docs/{id}``.  A change to how the server dispatches, routes or
serializes must leave these bytes as they are.

The first 17 records were recorded from the thread-per-connection
server, the last three from the warm-worker server with the dict-built
metadata join, before hit rows were pre-rendered.  A deliberate change
of the response format records them again with a one-off call to
:func:`capture` and shows the JSON diff for review.
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

