"""HTTP serving shim: every route answers from the library entry
points and matches direct library calls."""

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest


@pytest.fixture(scope="module")
def server(ray_session, built_index, tmp_path_factory):
    # private index copy: the PUT/DELETE routes mutate the artifact
    src = built_index[0]
    d = str(tmp_path_factory.mktemp("serve") / "idx")
    shutil.copytree(src, d)
    from refimage_ray.serve import make_server

    srv = make_server(d, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}", d
    srv.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as r:
        return r.status, json.loads(r.read())


def _req(url, method, body=None):
    data = json.dumps(body or {}).encode()
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_health_and_stats(server):
    base, d = server
    st, body = _get(base + "/health")
    assert st == 200 and body["status"] == "ok" and body["n_docs"] > 0
    st, body = _get(base + "/stats")
    assert st == 200 and body["n_docs"] == _get(base + "/health")[1]["n_docs"]


def test_search_matches_library(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=spark+join&k=5")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search("spark join", k=5)
    # metadata joined in
    assert all("url" in r for r in body["results"])


def test_search_rescore_route(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=table+scan&k=5&rescore_window=25"
                    "&rescore_weight=2.0")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search_rescore("table scan", k=5, window=25,
                                   rescore_weight=2.0)
    # rescore composes with neither filter nor order — explicit 422
    try:
        st, _ = _get(base + "/search?q=table+scan&k=5&rescore_window=25"
                     "&filter=lang=en")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_search_expansion_modes(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=spar&k=5&mode=prefix")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search_expanded("prefix", "spar", k=5)
    st, body = _get(base + "/search?q=lime&k=5&mode=fuzzy")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search_expanded("fuzzy", "lime", k=5)
    # a multi-term probe is a client error, not a dropped connection
    try:
        st, _ = _get(base + "/search?q=two+words&mode=prefix")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_search_snippets(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    st, body = _get(base + "/search?q=spark+join&k=3&snippets=1&width=100")
    assert st == 200
    hits = LocalSearcher(d).search("spark join", k=3)
    assert [(r["doc_id"], r["score"]) for r in body["results"]] == hits
    assert all(r["n_matches"] >= 1 and "[" in r["snippet"]
               for r in body["results"])
    assert all(len(r["snippet"]) < 140 for r in body["results"])


def test_dsl_and_errors(server):
    base, d = server
    st, body = _get(base + "/dsl?q=spark+OR+join&limit=3")
    assert st == 200 and len(body["results"]) == 3
    st, body = _req(base + "/dsl?q=", "GET")
    assert st == 422
    st, body = _req(base + "/search?q=x&mode=bogus", "GET")
    assert st == 422


def test_doc_routes(server):
    base, d = server
    doc_id = _get(base + "/search?q=the&k=1")[1]["results"][0]["doc_id"]
    st, meta = _get(f"{base}/docs/{doc_id}")
    assert st == 200 and meta["doc_id"] == str(doc_id)
    # chunked file serving reassembles to the stored text
    with urllib.request.urlopen(f"{base}/docs/{doc_id}/file", timeout=30) as r:
        text = r.read().decode()
    assert len(text) > 0


def test_doc_404(server):
    base, d = server
    st, body = _req(f"{base}/docs/999999999999", "GET")
    assert st == 404


def test_metadata_put_and_delete(server):
    base, d = server
    doc_id = _get(base + "/search?q=data&k=1")[1]["results"][0]["doc_id"]
    st, body = _req(f"{base}/docs/{doc_id}/metadata", "PUT", {"lang": "xx"})
    assert st == 200 and body["updated"] == 1
    assert _get(f"{base}/docs/{doc_id}")[1]["lang"] == "xx"
    st, body = _req(f"{base}/docs/{doc_id}/metadata", "PUT", {"text": "nope"})
    assert st == 422  # immutable column
    st, body = _req(f"{base}/docs/{doc_id}", "DELETE")
    assert st == 200 and body["tombstones"] >= 1


def test_nl2dsl(server):
    base, d = server
    st, body = _req(base + "/nl2dsl", "POST", {"text": "spark but not join"})
    assert st == 200 and "dsl" in body and body["dsl"]
    st, body = _req(base + "/nl2dsl", "POST", {"text": "  "})
    assert st == 422


def test_dsl_syntax_reference(server):
    base, d = server
    st, body = _get(base + "/dsl-syntax")
    assert st == 200
    assert set(body) >= {"syntax_version", "operators", "examples"}
    assert {"AND", "OR", "NOT", "^", "#"} <= set(body["operators"])
    # every published example must actually parse
    from refimage_ray.query.dsl import DSLParser

    for ex in body["examples"]:
        DSLParser().parse(ex["query"])


def test_explain_route(server):
    base, d = server
    st, body = _get(base + "/explain?q=spark+AND+join%5E0.5")
    assert st == 200 and body["plan"]["op"] == "and"
    ops = body["plan"]["operands"]
    assert ops[1]["weight"] == 0.5
    # term routing uses the served index's shard count
    from refimage_ray.index.manifest import load_manifest

    p = load_manifest(d)["config"]["num_shards"]
    assert all(0 <= t["shard"] < p
               for op in ops for t in op["terms"])
    try:
        st, _ = _get(base + "/explain?q=AND(")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_nl_provider_routes(server):
    base, d = server
    st, body = _get(base + "/nl/providers")
    assert st == 200 and body["current_provider"] == "rules"
    names = {p["name"] for p in body["providers"]}
    assert "rules" in names and "echo" in names
    assert all(p["available"] and p["model"] for p in body["providers"])
    # runtime switch is visible on the next listing and affects /nl2dsl
    st, body = _req(base + "/nl/switch", "POST", {"provider": "echo"})
    assert st == 200 and body["current_provider"] == "echo"
    assert _get(base + "/nl/providers")[1]["current_provider"] == "echo"
    # echo passes DSL through verbatim (valid DSL in → same out)
    st, body = _req(base + "/nl2dsl", "POST", {"text": "spark AND join"})
    assert st == 200 and body["dsl"] == "spark AND join"
    st, body = _req(base + "/nl/switch", "POST", {"provider": "nope"})
    assert st == 422
    # restore for other tests
    assert _req(base + "/nl/switch", "POST", {"provider": "rules"})[0] == 200


def test_similar_route(server):
    base, d = server
    doc_id = _get(base + "/search?q=the&k=1")[1]["results"][0]["doc_id"]
    st, body = _get(f"{base}/docs/{doc_id}/similar?k=200")
    assert st == 200 and body["results"]
    # the source doc matches every query term, so it is in the result
    # set (rank-1 is NOT an invariant: BM25 length normalization can
    # put a shorter doc carrying the same top terms above the source)
    assert any(r["doc_id"] == doc_id for r in body["results"])
    st, body = _get(f"{base}/docs/{doc_id}/similar?k=200&self=0")
    assert st == 200 and all(r["doc_id"] != doc_id for r in body["results"])
    st, body = _req(f"{base}/docs/999999999999/similar", "GET")
    assert st == 404


def test_reload_picks_up_tombstones(server):
    base, d = server
    # find a doc, tombstone it, reload: it must vanish from search
    doc_id = _get(base + "/search?q=merge&k=1")[1]["results"][0]["doc_id"]
    _req(f"{base}/docs/{doc_id}", "DELETE")
    # stale snapshot may still return it; after reload it is gone
    st, body = _req(base + "/reload", "POST")
    assert st == 200 and body["reloaded"]
    st, body = _get(base + "/search?q=merge&k=200")
    assert all(r["doc_id"] != doc_id for r in body["results"])


def test_server_over_actor_pool_matches_local(ray_session, built_index):
    """The shim with a DistributedSearcher behind it (the cluster
    deployment) answers /search identically to the local shim."""
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher
    from refimage_ray.serve import make_server

    d = built_index[0]
    dist = DistributedSearcher(d, num_actors=2)
    dist.wait_ready()
    srv = make_server(d, port=0, searcher=dist)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        s = LocalSearcher(d)
        for q in ("spark join", "the data", "stream"):
            st, body = _get(f"{base}/search?q={q.replace(' ', '+')}&k=5")
            assert st == 200
            got = [(r["doc_id"], r["score"]) for r in body["results"]]
            assert got == s.search(q, k=5), q
    finally:
        srv.shutdown()


def test_bad_numeric_params_are_422(server):
    base, d = server
    for path in ("/search?q=spark&k=abc",
                 "/search?q=spark&k=3&snippets=1&width=abc",
                 "/dsl?q=spark&limit=abc",
                 "/dsl?q=spark&threshold=abc",
                 "/explain?q=spark&analyzer=nosuchanalyzer"):
        st, body = _req(base + path, "GET")
        assert st == 422, path
        assert "error" in body, path


def test_malformed_json_body_is_422(server):
    base, d = server
    req = urllib.request.Request(
        base + "/nl2dsl", data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            st, body = r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        st, body = e.code, json.loads(e.read())
    assert st == 422 and "error" in body


def test_reload_rebuilds_via_factory(ray_session, built_index):
    """/reload swaps in a searcher from the SAME factory — a
    distributed deployment stays distributed (regression: it used to
    unconditionally demote to LocalSearcher)."""
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.serve import make_server

    d = built_index[0]
    calls = []

    def factory():
        calls.append(1)
        return LocalSearcher(d)

    srv = make_server(d, port=0, searcher_factory=factory)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        assert len(calls) == 1
        st, body = _req(base + "/reload", "POST")
        assert st == 200 and body["reloaded"]
        assert len(calls) == 2  # rebuilt through the factory
    finally:
        srv.shutdown()


def test_reload_with_bare_injected_searcher_is_409(ray_session, built_index):
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.serve import make_server

    d = built_index[0]
    srv = make_server(d, port=0, searcher=LocalSearcher(d))
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        base = f"http://127.0.0.1:{srv.server_address[1]}"
        st, body = _req(base + "/reload", "POST")
        assert st == 409 and "searcher_factory" in body["error"]
        # the injected snapshot keeps serving
        st, body = _get(base + "/health")
        assert st == 200 and body["status"] == "ok"
    finally:
        srv.shutdown()


def test_search_filter_param(server):
    from urllib.parse import quote

    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    f = quote("lang=en,doc_len>=60")
    st, body = _get(base + f"/search?q=spark+join&k=5&filter={f}")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search(
        "spark join", k=5,
        where=[("lang", "=", "en"), ("doc_len", ">=", 60)],
    )
    # set-membership sugar: lang=en|fr → in
    st, body = _get(base + f"/search?q=spark&k=5&filter={quote('lang=en|fr')}")
    assert [(r["doc_id"], r["score"]) for r in body["results"]] == s.search(
        "spark", k=5, where=[("lang", "in", ["en", "fr"])]
    )
    # malformed condition / unknown column / phrase+filter → 422
    st, _ = _req(base + f"/search?q=spark&filter={quote('lang~en')}", "GET")
    assert st == 422
    st, _ = _req(base + f"/search?q=spark&filter={quote('nope=1')}", "GET")
    assert st == 422
    st, _ = _req(
        base + f"/search?q=spark&mode=phrase&filter={quote('lang=en')}", "GET"
    )
    assert st == 422


def test_facets_route(server):
    from urllib.parse import quote

    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(
        base + "/facets?q=the+data&by=lang&hist=doc_len:50&top=3"
    )
    assert st == 200
    lib = s.facets("the data", by=["lang"], histograms={"doc_len": 50}, top=3)
    assert body["total"] == lib["total"]
    assert [tuple(p) for p in body["facets"]["lang"]] == lib["facets"]["lang"]
    assert [tuple(p) for p in body["histograms"]["doc_len"]] == \
        lib["histograms"]["doc_len"]
    # filtered facet total shrinks consistently
    st, fb = _get(base + f"/facets?q=the+data&by=lang&filter={quote('doc_len>=100')}")
    assert st == 200 and fb["total"] <= body["total"]
    # bad hist spec / empty q → 422
    st, _ = _req(base + "/facets?q=the&hist=doc_len", "GET")
    assert st == 422
    st, _ = _req(base + "/facets?q=", "GET")
    assert st == 422


def test_search_order_param(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=the+data&k=5&order=doc_len:desc")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search("the data", k=5, order_by=("doc_len", "desc"))
    st, _ = _req(base + "/search?q=the&order=doc_len:down", "GET")
    assert st == 422
    st, _ = _req(base + "/search?q=the&mode=phrase&order=doc_len:desc", "GET")
    assert st == 422


def test_search_offset_param(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=the+data&k=5&offset=5")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search("the data", k=5, offset=5)
    st, _ = _req(base + "/search?q=the&offset=-2", "GET")
    assert st == 422


def test_facets_sum_param(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/facets?q=the+data&sum=lang:doc_len&top=3")
    assert st == 200
    lib = s.facets("the data", sums={"lang": "doc_len"}, top=3)
    assert [tuple(p) for p in body["sums"]["lang"]] == lib["sums"]["lang"]
    st, _ = _req(base + "/facets?q=the&sum=lang", "GET")
    assert st == 422


def test_facets_dsl_param(server):
    from urllib.parse import quote

    from refimage_ray.query.dsl import DSLExecutor
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    ex = DSLExecutor(LocalSearcher(d))
    st, body = _get(base + f"/facets?dsl={quote('data NOT spark')}&by=lang")
    assert st == 200
    lib = ex.facets("data NOT spark", by=["lang"])
    assert body["total"] == lib["total"]
    assert [tuple(p) for p in body["facets"]["lang"]] == lib["facets"]["lang"]
    st, _ = _req(base + f"/facets?dsl={quote('AND(')}", "GET")
    assert st == 422


def test_doc_explain_route(server):
    from refimage_ray.query.engine import LocalSearcher, explain_score

    base, d = server
    s = LocalSearcher(d)
    doc_id, score = s.search("spark join", k=1)[0]
    st, body = _get(f"{base}/docs/{doc_id}/explain?q=spark+join")
    assert st == 200
    lib = explain_score(s, "spark join", doc_id)
    assert body["score"] == lib["score"] == score
    assert body["terms"] == lib["terms"]
    st, _ = _req(f"{base}/docs/{doc_id}/explain?q=", "GET")
    assert st == 422


def test_grouped_route(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/grouped?q=the+data&by=lang&k=2")
    assert st == 200
    got = [(r["group"], r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search_grouped("the data", by="lang", k_per_group=2)
    st, _ = _req(base + "/grouped?q=the", "GET")
    assert st == 422
    st, _ = _req(base + "/grouped?q=the&by=doc_len", "GET")
    assert st == 422


def test_suggest_route(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/suggest?q=dat&k=3")
    assert st == 200
    assert body["suggestions"] == s.suggest("dat", max_suggestions=3)
    st, _ = _req(base + "/suggest?q=", "GET")
    assert st == 422
    st, _ = _req(base + "/suggest?q=two+words", "GET")
    assert st == 422


def test_count_route(server):
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/count?q=spark+join")
    assert st == 200 and body["count"] == s.count("spark join")
    st, body = _get(base + "/count?q=spark+join&mode=and")
    assert st == 200 and body["count"] == s.count("spark join", mode="and")
    st, body = _get(base + "/count?q=spark+join&filter=lang%3Den&min_match=2")
    assert st == 200 and body["count"] == s.count(
        "spark join", where=[("lang", "=", "en")], min_match=2
    )
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/count?q=+")
    assert ei.value.code == 422


def test_termvectors_route(server):
    from refimage_ray.query.engine import doc_term_vector

    base, d = server
    doc_id = _get(base + "/search?q=the&k=1")[1]["results"][0]["doc_id"]
    st, body = _get(f"{base}/docs/{doc_id}/termvectors")
    assert st == 200 and body["terms"] == doc_term_vector(d, doc_id)
    tv = body["terms"]
    assert tv == sorted(tv, key=lambda r: r["term"])
    assert all(r["tf"] == len(r["positions"]) for r in tv)
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/docs/999999999999/termvectors")
    assert ei.value.code == 404


def test_significant_terms_route(server):
    from refimage_ray.query.engine import significant_terms, LocalSearcher

    base, d = server
    st, body = _get(base + "/significant?q=spark+join&top=10&min_count=2")
    assert st == 200
    want = significant_terms(LocalSearcher(d), "spark join",
                             min_doc_count=2, top=10)
    got = body["terms"]
    assert [r["term"] for r in got] == [r["term"] for r in want]
    # query terms are over-represented in their own result sample
    assert {"spark", "join"} & {r["term"] for r in got}
    assert all(r["score"] >= 1.0 or True for r in got)
    scores = [r["score"] for r in got]
    assert scores == sorted(scores, reverse=True) or len(set(scores)) < len(scores)
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(base + "/significant?q=+")
    assert ei.value.code == 422


def test_search_decay_param(server):
    from refimage_ray.query.boost import DecaySpec
    from refimage_ray.query.engine import LocalSearcher

    base, d = server
    s = LocalSearcher(d)
    st, body = _get(base + "/search?q=spark+join&k=5&decay=n_chars:exp:0:500")
    assert st == 200
    got = [(r["doc_id"], r["score"]) for r in body["results"]]
    assert got == s.search(
        "spark join", k=5,
        boost=DecaySpec("n_chars", 0.0, 500.0, 0.5, "exp"),
    )
    # malformed spec → 422, not a dropped connection
    import urllib.error

    def _status(url):
        try:
            return _get(url)[0]
        except urllib.error.HTTPError as e:
            return e.code

    assert _status(base + "/search?q=spark&decay=n_chars:exp:0") == 422
    assert _status(base + "/search?q=spark&decay=n_chars:step:0:10") == 422


def test_post_docs_nrt_add(server):
    """POST /docs buffers documents NRT: they hit /search immediately,
    and duplicate ids are a 422."""
    base, d = server
    st, body = _req(
        base + "/docs", "POST",
        {"docs": [
            {"doc_id": 10**12 + 1, "text": "zanzibar quorum raft"},
            {"doc_id": 10**12 + 2, "text": "zanzibar gossip"},
        ]},
    )
    assert st == 200 and body["added"] == 2 and body["buffered"] == 2
    st, res = _get(base + "/search?q=zanzibar&k=5")
    assert st == 200
    ids = [r["doc_id"] for r in res["results"]]
    assert set(ids) == {10**12 + 1, 10**12 + 2}
    # re-add → 422
    st, body = _req(base + "/docs", "POST",
                    {"docs": [{"doc_id": 10**12 + 1, "text": "x"}]})
    assert st == 422
    # malformed payload → 422
    st, body = _req(base + "/docs", "POST", {"docs": "nope"})
    assert st == 422
    # reload restores the plain snapshot (buffer dropped)
    st, body = _req(base + "/reload", "POST")
    assert st == 200
    st, res = _get(base + "/search?q=zanzibar&k=5")
    assert res["results"] == []


def test_percolate_routes(server):
    base, d = server
    # no rules yet → 409
    st, body = _req(base + "/percolate", "POST", {"text": "spark joins"})
    assert st == 409
    # register rules (validated at PUT time)
    st, body = _req(base + "/percolate/rules/r1", "PUT",
                    {"dsl": "spark AND join"})
    assert st == 200 and body["rules"] == 1
    st, body = _req(base + "/percolate/rules/r2", "PUT", {"dsl": "zanzibar"})
    assert st == 200 and body["rules"] == 2
    st, body = _req(base + "/percolate/rules/bad", "PUT", {"dsl": "AND("})
    assert st == 422
    st, body = _get(base + "/percolate/rules")
    assert set(body["rules"]) == {"r1", "r2"}
    # percolate documents against the stored rules
    st, body = _req(base + "/percolate", "POST",
                    {"text": "spark streams join the table"})
    assert st == 200 and body["matches"] == ["r1"]
    st, body = _req(base + "/percolate", "POST", {"text": "plain words"})
    assert st == 200 and body["matches"] == []
    st, body = _req(base + "/percolate", "POST", {"text": "  "})
    assert st == 422
    # delete a rule → stops matching
    st, body = _req(base + "/percolate/rules/r1", "DELETE")
    assert st == 200 and body["deleted"]
    st, body = _req(base + "/percolate/rules/r1", "DELETE")
    assert st == 404
    st, body = _req(base + "/percolate", "POST",
                    {"text": "spark streams join the table"})
    assert st == 200 and body["matches"] == []


def test_facets_date_hist_param(server):
    base, d = server
    # the serve index has no timestamp doc value → clean 422, not garbage
    st, body = _req(base + "/facets?q=the&date_hist=doc_len:month", "GET")
    assert st == 422
    st, _ = _req(base + "/facets?q=the&date_hist=doc_len", "GET")
    assert st == 422  # missing interval


def test_serve_rollover_group(ray_session, tiny_docs, tmp_path):
    """serve --index GROUP_DIR federates the group; /reload makes a
    newly ingested segment visible without a restart."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.rollover import group_searcher, ingest
    from refimage_ray.serve import make_server

    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    gdir = str(tmp_path / "grp")
    n = tiny_docs.num_rows
    ingest(gdir, rd.from_arrow(tiny_docs.slice(0, n // 2)), cfg,
           max_docs=10**9)
    srv = make_server(gdir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        st, h = _get(base + "/health")
        assert st == 200 and h["n_docs"] == n // 2
        st, hits = _get(base + "/search?q=the+data&k=5")
        assert st == 200
        lib = group_searcher(gdir).search("the data", k=5)
        assert [(r["doc_id"], r["score"]) for r in hits["results"]] == lib
        # metadata join federates across parts (url column rides along)
        assert all("url" in r for r in hits["results"])
        # DSL over the federation
        st, d = _get(base + "/dsl?q=spark+OR+join&limit=5")
        assert st == 200 and d["results"]
        # ingest a second segment, then /reload → new docs visible
        ingest(gdir, rd.from_arrow(tiny_docs.slice(n // 2)),
               max_docs=10**9)
        st, _ = _req(base + "/reload", "POST")
        assert st == 200
        st, h2 = _get(base + "/health")
        assert st == 200 and h2["n_docs"] == n
    finally:
        srv.shutdown()


def test_terms_enum_route(server):
    base, d = server
    st, body = _get(base + "/terms?prefix=s&max=10")
    assert st == 200 and body["terms"]
    terms = [t["term"] for t in body["terms"]]
    assert terms == sorted(terms) and len(terms) <= 10
    assert all(t.startswith("s") for t in terms)
    assert all(t["df"] >= 1 for t in body["terms"])
    # df agrees with the library expansion
    from refimage_ray.query.engine import LocalSearcher

    lib = dict(LocalSearcher(d)._expand_pairs("prefix", "s"))
    assert all(lib[t["term"]] == t["df"] for t in body["terms"])


def test_composite_route(server):
    base, d = server
    st, p1 = _get(base + "/composite?q=the&by=lang&size=2")
    assert st == 200 and len(p1["buckets"]) == 2
    assert p1["after_key"] is not None
    st, p2 = _get(base + "/composite?q=the&by=lang&size=2&after="
                  + "|".join(p1["after_key"]))
    assert st == 200
    # pages must not overlap and must continue in key order
    k1 = [tuple(b["key"]) for b in p1["buckets"]]
    k2 = [tuple(b["key"]) for b in p2["buckets"]]
    assert not (set(k1) & set(k2))
    assert k1 + k2 == sorted(k1 + k2)
    try:
        st, _ = _get(base + "/composite?q=the")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_composite_after_cursor_arity_and_json_form(server):
    import urllib.error
    import urllib.parse

    base, d = server
    st, p1 = _get(base + "/composite?q=the&by=lang&size=2")
    assert st == 200 and p1["after_key"] is not None
    # JSON-array form round-trips to the same page as the pipe form
    after_json = urllib.parse.quote(json.dumps(p1["after_key"]))
    st, p2j = _get(base + f"/composite?q=the&by=lang&size=2&after={after_json}")
    st2, p2p = _get(base + "/composite?q=the&by=lang&size=2&after="
                    + "|".join(p1["after_key"]))
    assert st == 200 and st2 == 200 and p2j == p2p
    # wrong-arity cursor (a key value containing '|' mis-split) -> 422
    try:
        st, _ = _get(base + "/composite?q=the&by=lang&size=2&after=a%7Cb")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422
    # a BALANCED bracketed literal is not JSON — it falls back to the
    # pipe form (arity 1 matches by=lang) -> 200
    st, body = _get(base + "/composite?q=the&by=lang&size=2&after=%5Bx%5D")
    assert st == 200
    # but a '['-prefixed value with no closing ']' is a truncated JSON
    # cursor — silently paginating from it would return a wrong page
    try:
        st, _ = _get(base + "/composite?q=the&by=lang&size=2&after=%5Bbad")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_suggest_phrase_route(server):
    import urllib.error

    base, d = server
    # pick a real vocab term, misspell it by one deletion
    st, terms = _get(base + "/terms?prefix=&max=5")
    term = max((t["term"] for t in terms["terms"]), key=len)
    probe = term[:-1] if len(term) > 2 else term
    st, body = _get(base + f"/suggest?q={probe}&mode=phrase")
    assert st == 200 and "suggestion" in body and "score" in body
    # the corrected phrase tokenizes entirely into vocabulary terms OR
    # passes the probe through (no-candidate fallback)
    assert body["suggestion"]
    # term-mode unchanged
    st, body = _get(base + f"/suggest?q={probe}")
    assert st == 200 and "suggestions" in body
    try:
        st, _ = _get(base + "/suggest?q=%20&mode=phrase")
    except urllib.error.HTTPError as e:
        st = e.code
    assert st == 422


def test_search_near_route(server):
    base, d = server
    st, body = _get(base + "/search?q=data+table&k=5&mode=near&window=6")
    assert st == 200
    from refimage_ray.query.engine import LocalSearcher

    lib = LocalSearcher(d).search_near("data table", window=6, k=5)
    assert [(r["doc_id"], r["score"]) for r in body["results"]] == lib


def test_search_phrase_prefix_route(server):
    base, d = server
    st, body = _get(base + "/search?q=data+ta&k=5&mode=phrase_prefix")
    assert st == 200
    from refimage_ray.query.engine import LocalSearcher

    lib = LocalSearcher(d).search_phrase_prefix("data ta", k=5)
    assert [(r["doc_id"], r["score"]) for r in body["results"]] == lib


def test_serve_docpart_artifact_auto_routes(ray_session, tiny_docs,
                                            tmp_path):
    """make_server auto-routes by manifest layout: a doc-partitioned
    artifact gets DocPartSearcher (bench r2: ~1.75x the scatter QPS of
    term-partitioned serving), served hits match the library, /terms
    browses the global vocab, and unsupported surfaces (order_by,
    facets) return structured 422s instead of 500s."""
    import json as _json
    import threading
    import urllib.request

    import ray.data as _rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import (
        DocPartSearcher,
        build_doc_partitioned,
    )
    from refimage_ray.serve import make_server

    d = str(tmp_path / "dp")
    build_doc_partitioned(_rd.from_arrow(tiny_docs), d,
                          EngineConfig(num_shards=4, salt_buckets=2),
                          num_doc_shards=4)
    srv = make_server(d, port=0)
    port = srv.server_address[1]
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        def get(p):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{p}"
                ) as r:
                    return r.status, _json.loads(r.read())
            except urllib.error.HTTPError as e:
                return e.code, _json.loads(e.read())

        st, body = get("/search?q=data+table&k=5")
        assert st == 200
        lib = DocPartSearcher(d).search("data table", k=5)
        assert [(r["doc_id"], r["score"]) for r in body["results"]] == lib
        st, body = get("/terms?prefix=da&max=5")
        assert st == 200 and any(
            x["term"].startswith("da") for x in body["terms"])
        assert get("/count?q=data")[0] == 200
        assert get("/search?q=data&order=warc_ts:desc")[0] == 422
        assert get("/facets?q=data&by=lang")[0] == 422
        st, body = get("/dsl?q=data+OR+table&limit=3")
        assert st == 200 and len(body["results"]) == 3
        # expansion modes take the serve kwargs (where/order/offset)
        for mode in ("prefix", "fuzzy", "wildcard"):
            qq = {"prefix": "da", "fuzzy": "data", "wildcard": "da*"}[mode]
            st, body = get(f"/search?q={qq}&k=3&mode={mode}")
            assert st == 200 and body["results"], mode
        # unsupported surfaces answer structured errors, never a
        # dropped connection: multi-term rescore on a position-free
        # artifact, snippets + /docs/{id} (no docs/ store on this
        # layout); single-term rescore needs no positions and works
        assert get("/search?q=data&rescore_window=20")[0] == 200
        assert get("/search?q=data+table&rescore_window=20")[0] == 422
        assert get("/search?q=data&k=2&snippets=1")[0] == 422
        assert get("/docs/5")[0] == 404
        # every text-store-dependent route answers structurally
        assert get("/docs?limit=5")[0] == 422
        assert get("/docs/5/termvectors")[0] in (404, 422)
        assert get("/docs/5/similar")[0] in (404, 422)
        assert get("/docs/5/file")[0] in (404, 422)
        # NRT add works on the docpart deployment: the buffered doc is
        # searchable immediately and joins the metadata via the buffer
        st, body = _req(f"http://127.0.0.1:{port}/docs", "POST",
                        {"docs": [{"doc_id": 10**12,
                                   "text": "freshly buffered zebraword"}]})
        assert st == 200 and body["added"] == 1
        st, body = get("/search?q=zebraword&k=3")
        assert st == 200
        assert body["results"][0]["doc_id"] == 10**12
        st, body = get("/count?q=zebraword")
        assert st == 200 and body["count"] == 1
        # expansion/phrase on the buffer refuses with a reason
        assert get("/search?q=zebra&mode=prefix")[0] == 422
        # every other GET surface answers structurally after the NRT
        # swap (was: AttributeError dropped the connection)
        for p in ["/facets?q=data&by=lang", "/grouped?q=data&by=lang",
                  "/suggest?q=dat", "/terms?prefix=da",
                  "/search?q=data+ta&mode=phrase_prefix",
                  "/search?q=data+table&rescore_window=20",
                  "/composite?q=data&by=lang"]:
            st, _ = get(p)
            assert st == 422, p
        # a failed add (duplicate id) must NOT degrade the deployment:
        # POST a duplicate to a FRESH docpart server and /facets still
        # answers 422-for-values (not flush-first)
        st, body = _req(f"http://127.0.0.1:{port}/docs", "POST",
                        {"docs": [{"doc_id": 10**12,
                                   "text": "zebraword again"}]})
        assert st == 422 and "already" in body["error"]
    finally:
        srv.shutdown()
        srv.server_close()


def test_docs_listing_route(server):
    """GET /docs — the reference's paginated GET /metadata analog
    (api.py:665-704): limit/offset/sort/dir + total_count; pages are
    disjoint and ordered; bad params answer 422."""
    base, d = server
    st, body = _get(base + "/docs?limit=5&sort=n_chars&dir=desc")
    assert st == 200
    assert body["total_count"] > 5
    assert len(body["docs"]) == 5
    lens = [int(r["n_chars"]) for r in body["docs"]]
    assert lens == sorted(lens, reverse=True)
    # next page is disjoint and continues the order
    st, body2 = _get(base + "/docs?limit=5&offset=5&sort=n_chars&dir=desc")
    assert st == 200
    ids1 = {r["doc_id"] for r in body["docs"]}
    ids2 = {r["doc_id"] for r in body2["docs"]}
    assert not ids1 & ids2
    assert lens[-1] >= max(int(r["n_chars"]) for r in body2["docs"])
    # default sort = doc_id asc
    st, body3 = _get(base + "/docs?limit=3")
    ids = [int(r["doc_id"]) for r in body3["docs"]]
    assert ids == sorted(ids)
    # validation
    import urllib.error

    for bad in ["/docs?sort=nope", "/docs?dir=sideways",
                "/docs?limit=-1"]:
        try:
            st, _ = _get(base + bad)
        except urllib.error.HTTPError as e:
            st = e.code
        assert st == 422, bad


def test_post_docs_concurrent_first_add_loses_nothing(server):
    """Race regression: N concurrent first POST /docs requests on
    concurrent request workers each used to construct a fresh delta searcher
    from the same base — every add answered 200 but only the last
    swap survived, silently dropping the other requests' docs.  The
    construct+add+swap now serializes under add_lock, so every
    acknowledged doc must be searchable."""
    base, d = server
    # make sure we start from a plain snapshot (no delta yet)
    st, _ = _req(base + "/reload", "POST")
    assert st == 200

    results, errors = [], []

    def add(i):
        try:
            st_i, body_i = _req(
                base + "/docs", "POST",
                {"docs": [{"doc_id": 10**12 + 100 + i,
                           "text": f"xylophone concurrent {i}"}]})
            results.append((st_i, body_i))
        except Exception as err:  # noqa: BLE001 — record, assert below
            errors.append(err)

    threads = [threading.Thread(target=add, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert [st for st, _ in results] == [200] * 6
    st, res = _get(base + "/search?q=xylophone&k=20")
    got = {r["doc_id"] for r in res["results"]}
    assert got == {10**12 + 100 + i for i in range(6)}
    # restore the plain snapshot for later tests in this module
    st, _ = _req(base + "/reload", "POST")
    assert st == 200


def test_docs_listing_repeat_uses_cached_sort(server):
    """Paging the same sort twice is identical (the per-(column, dir)
    sorted index is cached rather than re-sorted per request)."""
    base, d = server
    st1, b1 = _get(base + "/docs?limit=4&sort=doc_len&dir=desc")
    st2, b2 = _get(base + "/docs?limit=4&sort=doc_len&dir=desc")
    assert st1 == st2 == 200 and b1 == b2


def test_reload_during_adds_never_resurrects_stale_delta(server):
    """Interlock regression: /reload swaps under add_lock, so an
    in-flight NRT /add can never swap a delta built over the
    PRE-reload base back in after the fresh snapshot lands. Interleave
    adds and reloads; every response must be structured (no 500s) and
    the deployment must stay serveable throughout."""
    base, d = server
    st, _ = _req(base + "/reload", "POST")
    assert st == 200

    stop = threading.Event()
    codes, errors = [], []

    def adder():
        i = 0
        while not stop.is_set():
            try:
                st_i, _ = _req(
                    base + "/docs", "POST",
                    {"docs": [{"doc_id": 2 * 10**12 + i,
                               "text": f"quokka interleaved {i}"}]})
                # 200 (buffered) or 422 (id raced a reload replay) are
                # both structured; anything else is a dropped handler
                codes.append(st_i)
            except Exception as err:  # noqa: BLE001
                errors.append(err)
            i += 1

    t = threading.Thread(target=adder)
    t.start()
    try:
        for _ in range(5):
            st_r, _ = _req(base + "/reload", "POST")
            assert st_r == 200
            st_s, _ = _get(base + "/search?q=data&k=3")
            assert st_s == 200
    finally:
        stop.set()
        t.join()
    assert not errors
    assert codes and all(c in (200, 422) for c in codes)
    # leave a clean snapshot for any later test
    st, _ = _req(base + "/reload", "POST")
    assert st == 200


def test_docs_listing_during_reload_storm(server):
    """GET /docs interleaved with /reload: the listing cache now
    installs under a generation check (a pre-reload snapshot read must
    not be installed after the reload's pop), so every response stays
    200 with a consistent total_count, and the cache still works (and
    repopulates) after the storm."""
    base, d = server
    st0, b0 = _get(base + "/docs?limit=3")
    assert st0 == 200
    total = b0["total_count"]

    stop = threading.Event()
    codes, errors = [], []

    def lister():
        while not stop.is_set():
            try:
                st_i, b_i = _get(base + "/docs?limit=3&sort=doc_len")
                codes.append(st_i)
                assert b_i["total_count"] == total
            except Exception as err:  # noqa: BLE001 — record, assert below
                errors.append(err)

    def reloader():
        for _ in range(4):
            try:
                codes.append(_req(base + "/reload", "POST")[0])
            except Exception as err:  # noqa: BLE001
                errors.append(err)

    threads = [threading.Thread(target=lister) for _ in range(3)]
    threads.append(threading.Thread(target=reloader))
    for t in threads:
        t.start()
    threads[-1].join()
    stop.set()
    for t in threads[:-1]:
        t.join()
    assert not errors
    assert set(codes) == {200}
    st1, b1 = _get(base + "/docs?limit=3")
    assert st1 == 200 and b1["total_count"] == total


def test_warm_search_opens_no_docs_dataset(server, monkeypatch):
    """The metadata join is resident: 50 warm /search requests open the
    docs/ dataset zero times, and a hit-less search skips the join."""
    import pyarrow.dataset as pads

    from refimage_ray.query import engine

    base, d = server
    assert _get(base + "/search?q=data&k=10")[0] == 200  # warm
    opens, sigs = [], []
    real_ds, real_sig = pads.dataset, engine._docs_signature

    def counting_ds(source, *a, **kw):
        if str(source).rstrip("/").endswith("docs"):
            opens.append(source)
        return real_ds(source, *a, **kw)

    monkeypatch.setattr(pads, "dataset", counting_ds)
    monkeypatch.setattr(engine, "_docs_signature",
                        lambda p: sigs.append(p) or real_sig(p))
    queries = ["data", "spark join", "table scan", "the data", "merge"]
    for i in range(50):
        st, body = _get(base + f"/search?q={queries[i % 5].replace(' ', '+')}"
                        "&k=10")
        assert st == 200 and body["results"]
        assert all("url" in r for r in body["results"])
    assert opens == []
    assert len(sigs) == 50  # validated once per request
    st, body = _get(base + "/search?q=qqqqzz&k=10")
    assert st == 200 and body["results"] == []
    assert len(sigs) == 50  # nothing to join: no lookup at all


def test_docs_listing_sees_metadata_put_without_reload(server):
    """GET /docs pages the same resident entry as the join, so a
    metadata PUT shows in the listing on the next request."""
    base, d = server
    st, body = _get(base + "/docs?limit=1")
    doc_id = body["docs"][0]["doc_id"]
    st, _ = _req(f"{base}/docs/{doc_id}/metadata", "PUT",
                 {"url": "https://listed.example/x"})
    assert st == 200
    st, body = _get(base + "/docs?limit=1")
    assert body["docs"][0]["doc_id"] == doc_id
    assert body["docs"][0]["url"] == "https://listed.example/x"
    # the listing's shape: its own columns, not every resident one
    assert {"doc_id", "url", "lang"} <= set(body["docs"][0]) <= {
        "doc_id", "url", "lang", "doc_len", "n_chars", "warc_ts"}


def test_hit_rows_see_metadata_put_without_reload(server):
    """/search and /dsl render hit rows from the resident docs entry; a
    metadata PUT installs a new entry, so the next requests show the new
    value without /reload, and the replaced entry (with its renderings)
    is freed."""
    import gc
    import weakref

    from refimage_ray.query.engine import resident_docs

    base, d = server
    in_dsl = {r["doc_id"] for r in
              _get(base + "/dsl?q=spark+OR+join&limit=10")[1]["results"]}
    doc_id = next(r["doc_id"] for r in
                  _get(base + "/search?q=spark+join&k=10")[1]["results"]
                  if r["doc_id"] in in_dsl)
    old = weakref.ref(resident_docs(d))
    url = "https://rendered.example/new"
    st, _ = _req(f"{base}/docs/{doc_id}/metadata", "PUT", {"url": url})
    assert st == 200
    for path in ("/search?q=spark+join&k=10", "/dsl?q=spark+OR+join&limit=10"):
        st, body = _get(base + path)
        assert st == 200
        rows = [r for r in body["results"] if r["doc_id"] == doc_id]
        assert [r["url"] for r in rows] == [url], path
    gc.collect()
    assert old() is None


_RAY_FREE_SERVE = r"""
import json, sys, threading, urllib.request
from refimage_ray.serve import make_server

srv = make_server(sys.argv[1], port=0)
threading.Thread(target=srv.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{srv.server_address[1]}"

def call(path, body=None):
    req = urllib.request.Request(
        base + path, method="GET" if body is None else "POST",
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as r:
        return json.loads(r.read())

assert call("/search?q=spark+join&k=3")["results"]
call("/dsl?q=spark+OR+join")
assert call("/count?q=spark")["count"] > 0
assert call("/docs", {"docs": [{"doc_id": 10**9, "text": "spark"}]})["added"] == 1
srv.shutdown()
assert "ray" not in sys.modules, sorted(m for m in sys.modules if m.startswith("ray"))
"""


def _run_script(script: str, index_dir: str):
    """Run ``script`` in a fresh interpreter with ``sys.argv[1] =
    index_dir`` and the repository importable."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [root, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    r = subprocess.run([sys.executable, "-c", script, index_dir], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    return r


def test_term_partitioned_serving_never_imports_ray(built_index, tmp_path):
    """A term-partitioned server loads, answers reads and takes an NRT
    add without importing Ray (start-up pays for no unused framework)."""
    d = str(tmp_path / "idx")
    shutil.copytree(built_index[0], d)
    _run_script(_RAY_FREE_SERVE, d)


# --- request workers: reuse, unbounded concurrency, teardown ---------


class _StubSearcher:
    """Just enough searcher for ``/health`` and ``/search``; ``search``
    runs ``on_search(query)`` and returns no hits."""

    n_docs = 0

    def __init__(self, on_search=lambda q: None):
        self.on_search = on_search

    def search(self, query, **kwargs):
        self.on_search(query)
        return []


def _start(srv):
    t = threading.Thread(target=srv.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True)
    t.start()
    return t, f"http://127.0.0.1:{srv.server_address[1]}"


def _record_threads(srv) -> list:
    """The thread of each ``do_GET`` (the object, since the OS reuses
    the idents of ended threads), wrapped the way perfbench wraps it."""
    seen = []
    orig = srv.RequestHandlerClass.do_GET

    def traced(self, _orig=orig):
        seen.append(threading.current_thread())
        return _orig(self)

    srv.RequestHandlerClass.do_GET = traced
    return seen


def _stop(srv, t):
    srv.shutdown()
    srv.server_close()
    t.join(timeout=30)
    assert not t.is_alive()


_SERIAL_REUSE = r"""
import sys, threading, urllib.request
from refimage_ray.serve import make_server

srv = make_server(sys.argv[1], port=0)
seen = []
orig = srv.RequestHandlerClass.do_GET

def traced(self, _orig=orig):
    seen.append(threading.current_thread())
    return _orig(self)

srv.RequestHandlerClass.do_GET = traced
t = threading.Thread(target=srv.serve_forever, daemon=True)
t.start()
url = f"http://127.0.0.1:{srv.server_address[1]}/search?q=spark+join&k=10"
for _ in range(200):
    with urllib.request.urlopen(url, timeout=30) as r:
        assert r.status == 200 and r.read()
srv.shutdown()
srv.server_close()
print(len(seen), len(set(seen)))
"""


def test_serial_requests_reuse_one_warm_worker(built_index):
    """Serial traffic is served by the most recently idle worker: 200
    requests on fresh connections see at most 2 handler threads (the
    second only when a request is dispatched before the previous worker
    is idle again).  Runs in a fresh interpreter, where no unrelated
    threads (the test session's Ray runtime) compete for the interpreter
    lock and hold a finishing worker back from going idle."""
    out = _run_script(_SERIAL_REUSE, built_index[0]).stdout.split()
    requests, threads = int(out[-2]), int(out[-1])
    assert requests == 200
    assert threads <= 2, threads


def test_concurrent_requests_beyond_idle_cap_all_complete(tmp_path):
    """Concurrency is unbounded: cap+4 requests that each wait for all
    the others (a barrier inside the searcher) all answer, which a
    fixed pool of cap workers would deadlock on.  Afterwards at most
    cap workers stay idle; the rest exit."""
    import time

    from refimage_ray.serve import _IDLE_WORKERS, make_server

    n = _IDLE_WORKERS + 4
    barrier = threading.Barrier(n, timeout=60)
    srv = make_server(str(tmp_path), port=0,
                      searcher=_StubSearcher(lambda q: barrier.wait()))
    seen = _record_threads(srv)
    t, base = _start(srv)
    codes = []
    try:
        clients = [threading.Thread(
            target=lambda: codes.append(_get(base + "/search?q=x")[0]))
            for _ in range(n)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=90)
        assert not any(c.is_alive() for c in clients)
        assert codes == [200] * n
        assert len(set(seen)) == n
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and sum(
                th.is_alive() for th in set(seen)) > _IDLE_WORKERS:
            time.sleep(0.01)
        assert sum(th.is_alive() for th in set(seen)) <= _IDLE_WORKERS
    finally:
        _stop(srv, t)


def test_handler_error_keeps_its_worker(tmp_path):
    """A handler that raises something other than ValueError/KeyError
    answers 500 naming the exception type, still reports it through
    ``server.handle_error``, and its worker survives and serves the
    next request."""
    import time

    from refimage_ray.serve import make_server

    def boom(q):
        if q == "boom":
            raise RuntimeError("handler failure")

    srv = make_server(str(tmp_path), port=0, searcher=_StubSearcher(boom))
    reported = []
    srv.handle_error = lambda request, client_address: reported.append(
        client_address)
    seen = _record_threads(srv)
    t, base = _start(srv)
    try:
        assert _req(base + "/search?q=boom", "GET") == (
            500, {"error": "internal error: RuntimeError"})
        failed = seen[0]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not any(
                w is failed for _, w in srv._idle):
            time.sleep(0.01)
        assert len(reported) == 1  # reported before the worker idles
        assert _get(base + "/health") == (200, {"status": "ok",
                                                "n_docs": 0})
        assert seen == [failed, failed]
        assert len(reported) == 1
    finally:
        _stop(srv, t)


def _workers(srv, seen) -> set:
    """Every worker ``srv`` has started: each one that ran a ``do_GET``
    (``seen``, from ``_record_threads``) and each one idle now."""
    with srv._idle_lock:
        return set(seen) | {w for _, w in srv._idle}


def _wait_ended(threads) -> None:
    import time

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            th.is_alive() for th in threads):
        time.sleep(0.01)
    assert not any(th.is_alive() for th in threads)


def test_server_close_ends_every_worker(tmp_path):
    """After ``shutdown()`` and ``server_close()`` every thread the
    server started is gone: idle workers are ended, and busy ones exit
    when their request is done."""
    from refimage_ray.serve import make_server

    entered, gate = threading.Semaphore(0), threading.Event()
    srv = make_server(str(tmp_path), port=0, searcher=_StubSearcher(
        lambda q: (entered.release(), gate.wait(30))))
    seen = _record_threads(srv)
    t, base = _start(srv)
    clients = [threading.Thread(target=_get, args=(base + "/search?q=x",))
               for _ in range(3)]
    for c in clients:
        c.start()
    assert all(entered.acquire(timeout=30) for _ in clients)
    for _ in range(5):
        assert _get(base + "/health")[0] == 200
    workers = _workers(srv, seen)
    assert len(workers) >= 4  # three busy, at least one idle
    _stop(srv, t)
    gate.set()
    for c in clients:
        c.join(timeout=30)
    assert not any(c.is_alive() for c in clients)
    _wait_ended(workers)


def test_shutdown_alone_releases_server_and_workers(tmp_path):
    """``shutdown()`` without ``server_close()`` (as several callers
    stop a server) ends every worker once ``serve_forever`` returns, so
    no parked worker pins the server and its searcher."""
    import gc
    import weakref

    from refimage_ray.serve import _IDLE_WORKERS, make_server

    n = _IDLE_WORKERS + 2
    barrier = threading.Barrier(n, timeout=60)
    srv = make_server(str(tmp_path), port=0,
                      searcher=_StubSearcher(lambda q: barrier.wait()))
    seen = _record_threads(srv)
    t, base = _start(srv)
    clients = [threading.Thread(target=_get, args=(base + "/search?q=x",))
               for _ in range(n)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=90)
    assert not any(c.is_alive() for c in clients)
    for _ in range(5):
        assert _get(base + "/health")[0] == 200
    workers = _workers(srv, seen)
    assert len(workers) == n
    srv.shutdown()
    t.join(timeout=30)
    assert not t.is_alive()
    _wait_ended(workers)
    ref = weakref.ref(srv)
    srv.socket.close()  # the socket only; the workers are already gone
    del srv
    gc.collect()
    assert ref() is None


def test_get_deleted_doc_is_not_found(ray_session, built_index, tmp_path):
    """``DELETE /docs/{id}`` tombstones the doc while ``docs/`` keeps its
    row; ``GET /docs/{id}`` answers 404 for it, before and after
    /reload, and a live doc answers as before."""
    d = str(tmp_path / "idx")
    shutil.copytree(built_index[0], d)
    from refimage_ray.serve import make_server

    t, base = _start(make_server(d, port=0))
    gone, live = [r["doc_id"] for r in
                  _get(base + "/search?q=data&k=2")[1]["results"]]
    before = _get(f"{base}/docs/{live}")
    assert _get(f"{base}/docs/{gone}")[0] == 200
    assert _req(f"{base}/docs/{gone}", "DELETE")[0] == 200
    assert _req(f"{base}/docs/{gone}", "GET") == (404, {"error": "not found"})
    assert _get(f"{base}/docs/{live}") == before
    assert _req(base + "/reload", "POST")[0] == 200
    assert _req(f"{base}/docs/{gone}", "GET") == (404, {"error": "not found"})
    assert _get(f"{base}/docs/{live}") == before


def _raw(base: str, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket and read the whole reply."""
    import socket

    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(data)
        out = b""
        while chunk := s.recv(65536):
            out += chunk
    return out


def test_request_head_lowercase_content_length(server):
    """Header names are case-insensitive: a lowercase
    ``content-length`` delivers the body of a ``POST /docs``, in a head
    of 99 header lines, the most the stdlib accepts."""
    base, _ = server
    body = json.dumps({"docs": [{"doc_id": 10**12 + 77,
                                 "text": "lowercase header probe"}]}).encode()
    filler = b"".join(b"x-f%d: 1\r\n" % i for i in range(96))
    out = _raw(base, b"POST /docs HTTP/1.1\r\nhost: x\r\n" + filler
               + b"content-type: application/json\r\n"
               b"content-length: %d\r\n\r\n" % len(body) + body)
    head, _, reply = out.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200 OK\r\n")
    assert json.loads(reply)["added"] == 1


# a request head the server refuses (each sent whole: the server reads
# every byte of it before answering) → the status line's code
_BAD_HEADS = {
    "100 headers": b"".join(b"X-H%d: 1\r\n" % i for i in range(100))
    + b"\r\n",
    "101 headers": b"".join(b"X-H%d: 1\r\n" % i for i in range(101)),
    "65537-byte line": b"X-Big: " + b"a" * (65537 - 9) + b"\r\n",
    "no colon": b"Host x\r\n",
    "obs-fold": b"X-A: 1\r\n folded\r\n",
}


@pytest.mark.parametrize("name,code", [
    ("100 headers", 431), ("101 headers", 431), ("65537-byte line", 431),
    ("no colon", 400),
    ("obs-fold", 400), ("HTTP/2.0", 505), ("HTTP/0.9", 400),
])
def test_request_head_refusals(server, name, code):
    base, _ = server
    if name == "HTTP/2.0":
        data = b"GET /health HTTP/2.0\r\n"
    elif name == "HTTP/0.9":
        data = b"GET /health\r\n"
    else:
        data = b"GET /health HTTP/1.1\r\n" + _BAD_HEADS[name]
    assert _raw(base, data).startswith(b"HTTP/1.0 %d " % code)
    # the server goes on answering
    assert _get(base + "/health")[0] == 200


class _Writes:
    """A handler's ``wfile`` that records each write."""

    def __init__(self, w, log: list) -> None:
        self.w, self.log = w, log

    @property
    def closed(self):
        return self.w.closed

    def write(self, b):
        self.log.append(bytes(b))
        return self.w.write(b)

    def flush(self):
        self.w.flush()

    def close(self):
        self.w.close()


def _stdlib_head(code: int, length: int) -> bytes:
    """The head ``BaseHTTPRequestHandler`` writes for a JSON reply."""
    import io
    from http.server import BaseHTTPRequestHandler

    h = BaseHTTPRequestHandler.__new__(BaseHTTPRequestHandler)
    h.request_version, h.requestline = "HTTP/1.0", "GET / HTTP/1.0"
    h.client_address = ("127.0.0.1", 0)
    h.log_message = lambda *a: None
    h.wfile = io.BytesIO()
    h.send_response(code)
    h.send_header("Content-Type", "application/json")
    h.send_header("Content-Length", str(length))
    h.end_headers()
    return h.wfile.getvalue()


def test_response_head_is_the_stdlib_head_in_one_write(tmp_path):
    """A 200 and a 422 carry the head the stdlib's ``send_response``,
    ``send_header`` and ``end_headers`` write (the ``Date`` value
    aside), and head and body leave in a single write."""
    import email.utils
    import re
    import time

    from refimage_ray.serve import make_server

    def mask(head):
        return re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", head)

    srv = make_server(str(tmp_path), port=0, searcher=_StubSearcher())
    writes = []
    setup = srv.RequestHandlerClass.setup

    def recording_setup(self):
        setup(self)
        self.wfile = _Writes(self.wfile, writes)

    srv.RequestHandlerClass.setup = recording_setup
    t, base = _start(srv)
    try:
        for path, code in (("/search?q=x", 200), ("/search?q=x&k=-1", 422)):
            writes.clear()
            out = _raw(base, b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n"
                       % path.encode())
            head, body = out.split(b"\r\n\r\n", 1)
            assert writes == [out]
            date = re.search(rb"\r\nDate: ([^\r]*)", head)[1]
            when = email.utils.parsedate_to_datetime(date.decode())
            assert abs(when.timestamp() - time.time()) < 60
            assert mask(head + b"\r\n\r\n") == mask(
                _stdlib_head(code, len(body)))
        assert body == json.dumps(
            {"error": "bad parameter: k must be >= 0, got -1"}).encode()
    finally:
        _stop(srv, t)
