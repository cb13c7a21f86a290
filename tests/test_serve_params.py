"""Request validation at the serve boundary.

Every query parameter goes through one reader with a declared lower
bound, so a negative size is refused with 422 ``bad parameter: …`` on
every route, on both index layouts, instead of slicing the answer.
``count`` checks ``min_match`` as ``search`` does, and a request body
that is not a JSON object, or whose text field is not a string, answers
422 ``bad request: …``, not 500.  So does a ``POST /docs`` doc_id
outside int64 (``bad docs payload: …``) and a DSL operand that holds
no terms (``((``).
"""

from __future__ import annotations

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest

# (route, size parameter, a valid value, served by the doc-partitioned
# layout): the valid request answers 200 wherever the layout serves the
# route, and -1 answers 422.  The doc-partitioned layout keeps no docs/
# store (similar, significant, snippets, listing) and this build no
# value columns (grouped, facets).
SIZES = [
    ("/search?q=data+table", "k", "3", True),
    ("/dsl?q=data+OR+table", "limit", "3", True),
    ("/terms?prefix=da", "max", "3", True),
    ("/docs/5/similar?self=1", "k", "3", False),
    ("/grouped?q=data&by=lang", "k", "2", False),
    ("/suggest?q=dat", "k", "3", True),
    ("/significant?q=data", "top", "3", False),
    ("/significant?q=data", "sample", "20", False),
    ("/facets?q=data&by=lang", "top", "2", False),
    ("/search?q=data&k=2&snippets=1", "width", "40", False),
    ("/docs?sort=doc_id", "limit", "2", False),
    ("/docs?sort=doc_id", "offset", "1", False),
]


def _call(url: str, method: str = "GET", data: bytes | None = None):
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def _serve(index_dir: str):
    from refimage_ray.serve import make_server

    srv = make_server(index_dir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    return srv, t, f"http://127.0.0.1:{srv.server_address[1]}"


@pytest.fixture(scope="module")
def layouts(ray_session, built_index, tiny_docs, tmp_path_factory):
    """``{layout: (base URL, index dir)}``: a copy of the shared
    term-partitioned index, and a doc-partitioned build of the same
    docs."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import build_doc_partitioned

    root = tmp_path_factory.mktemp("params")
    term = str(root / "term")
    shutil.copytree(built_index[0], term)
    dp = str(root / "docpart")
    build_doc_partitioned(rd.from_arrow(tiny_docs), dp,
                          EngineConfig(num_shards=4, salt_buckets=2),
                          num_doc_shards=4)
    servers = {name: _serve(d) for name, d in (("term", term),
                                               ("docpart", dp))}
    yield {"term": (servers["term"][2], term),
           "docpart": (servers["docpart"][2], dp)}
    for srv, t, _ in servers.values():
        srv.shutdown()
        srv.server_close()
        t.join(timeout=30)


@pytest.mark.parametrize("layout", ["term", "docpart"])
@pytest.mark.parametrize("path,param,good,docpart", SIZES,
                         ids=[f"{p.split('?')[0]}-{n}" for p, n, *_ in SIZES])
def test_negative_size_is_refused(layouts, layout, path, param, good,
                                  docpart):
    base = layouts[layout][0]
    if layout == "term" or docpart:
        st, body = _call(f"{base}{path}&{param}={good}")
        assert st == 200, body
    assert _call(f"{base}{path}&{param}=-1") == (
        422, {"error": f"bad parameter: {param} must be >= 0, got -1"})


@pytest.mark.parametrize("layout", ["term", "docpart"])
def test_terms_and_suggest_answer_alike_on_both_layouts(layouts, layout):
    """``/terms`` browses the vocabulary with the raw lowercased prefix
    on both layouts (an empty prefix lists every term, one with a space
    matches none), and ``suggest`` refuses an empty or two-word input
    with one text."""
    from refimage_ray.index.docpart import DocPartSearcher
    from refimage_ray.query.engine import LocalSearcher

    base, index_dir = layouts[layout]
    vocab = LocalSearcher(layouts["term"][1]).terms
    st, body = _call(base + "/terms?prefix=&max=1000000")
    assert st == 200
    assert body == {"terms": [{"term": t, "df": vocab[t].df}
                              for t in sorted(vocab)]}
    assert _call(base + "/terms?prefix=new%20york") == (200, {"terms": []})
    s = (LocalSearcher if layout == "term" else DocPartSearcher)(index_dir)
    for bad in ("", "two words"):
        with pytest.raises(ValueError) as err:
            s.suggest(bad)
        assert str(err.value) == f"suggest takes exactly one term, got {bad!r}"


@pytest.mark.parametrize("layout", ["term", "docpart"])
def test_zero_k_answers_no_results(layouts, layout):
    assert _call(layouts[layout][0] + "/search?q=data&k=0") == (
        200, {"results": []})


def test_count_checks_min_match_like_search(layouts):
    """``count`` refuses the ``min_match`` values ``search`` refuses,
    on the term layout, the doc-partitioned layout and NRT."""
    import pyarrow as pa

    from refimage_ray.index.docpart import DocPartSearcher
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.nrt import DeltaSearcher, DocPartDeltaSearcher

    term, dp = layouts["term"][1], layouts["docpart"][1]
    add = pa.table({"doc_id": pa.array([10**12], pa.int64()),
                    "text": ["spark join zanzibar"]})
    searchers = [LocalSearcher(term), DocPartSearcher(dp)]
    searchers.append(DeltaSearcher(term, base=searchers[0]))
    searchers.append(DocPartDeltaSearcher(dp, base=DocPartSearcher(dp)))
    for s in searchers[2:]:
        s.add(add)
    for s in searchers:
        name = type(s).__name__
        for m in (-3, 0):
            with pytest.raises(ValueError, match="min_match must be >= 1"):
                s.search("spark join", k=5, min_match=m)
            with pytest.raises(ValueError, match="min_match must be >= 1"):
                s.count("spark join", min_match=m)
        with pytest.raises(ValueError, match="applies to mode='or'"):
            s.count("spark join", mode="and", min_match=2)
        # m=1 is plain OR; m=2 narrows the count to the searched set
        assert s.count("spark join", min_match=1) == s.count("spark join"), name
        assert s.count("spark join", min_match=2) == len(
            s.search("spark join", k=10**6, min_match=2)), name


def test_count_route_refuses_bad_min_match(layouts):
    for base, _ in layouts.values():
        for m in ("-3", "0"):
            assert _call(f"{base}/count?q=data+table&min_match={m}") == (
                422, {"error": f"min_match must be >= 1, got {m}"})
        st, body = _call(f"{base}/count?q=data+table&min_match=2")
        assert st == 200 and body["count"] > 0


# (method, path, body, refusal): a body that is not a JSON object, and a
# text field of another JSON type
BAD_BODIES = [
    (method, path, body, "the body must be a JSON object, got "
     + type(json.loads(body)).__name__)
    for method, path in [("POST", "/docs"), ("POST", "/percolate"),
                         ("PUT", "/docs/5/metadata")]
    for body in [b'"spark"', b"[1, 2]", b"3", b"null"]
] + [
    ("POST", "/percolate", b'{"text": 5}', "text must be a string, got int"),
    ("POST", "/nl2dsl", b'{"text": 5}', "text must be a string, got int"),
    ("PUT", "/percolate/rules/x", b'{"dsl": 5}',
     "dsl must be a string, got int"),
]


@pytest.mark.parametrize("method,path,body,refusal", BAD_BODIES, ids=[
    f"{m}-{p}-{b.decode()}" for m, p, b, _ in BAD_BODIES])
def test_non_object_body_is_refused(layouts, method, path, body, refusal):
    st, got = _call(layouts["term"][0] + path, method, body)
    assert (st, got) == (422, {"error": f"bad request: {refusal}"})


@pytest.mark.parametrize("doc_id", ["1e30", "1e999"])
def test_add_with_doc_id_outside_int64_is_refused(layouts, doc_id):
    body = f'{{"docs": [{{"doc_id": {doc_id}, "text": "a"}}]}}'.encode()
    st, got = _call(layouts["term"][0] + "/docs", "POST", body)
    assert st == 422 and got["error"].startswith("bad docs payload: "), got


@pytest.mark.parametrize("layout", ["term", "docpart"])
@pytest.mark.parametrize("path", ["/dsl?q=((", "/facets?dsl=(("])
def test_dsl_operand_without_terms_is_refused(layouts, layout, path):
    assert _call(layouts[layout][0] + path) == (
        422, {"error": "no terms or tags in operand: '(('"})
