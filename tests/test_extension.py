"""Extension surface: analyzer/scorer registries, explain plan,
pagination validation (reference plugin-registry + validation analogs)."""

import pytest

from refimage_ray.extension import (
    ANALYZERS,
    SCORERS,
    explain,
    get_analyzer,
    get_scorer,
    register_analyzer,
)
from refimage_ray.functions.text import tokenize


def test_default_analyzer_matches_engine_tokenizer():
    s = "The quick-BROWN fox 42x"
    assert get_analyzer("default").tokenize(s) == tokenize(s)


def test_char3gram_analyzer():
    assert get_analyzer("char3gram").tokenize("ab sparkly") == [
        "ab", "spa", "par", "ark", "rkl", "kly",
    ]


def test_unknown_names_raise():
    with pytest.raises(KeyError, match="unknown analyzer"):
        get_analyzer("nope")
    with pytest.raises(KeyError, match="unknown scorer"):
        get_scorer("nope")


def test_scorer_protocol_default_matches_shared_definition():
    from refimage_ray.query.scorer import bm25_weight, idf

    sc = get_scorer("bm25")
    assert sc.idf(5, 100) == idf(5, 100)
    assert sc.weight(2.0, 30.0, 25.0) == bm25_weight(2.0, 30.0, 25.0, 1.2, 0.75)


def test_alternative_scorer_registered():
    sc = get_scorer("bm25l")
    assert sc.weight(2.0, 30.0, 25.0) > 0


def test_runtime_registration():
    @register_analyzer
    class Upper:
        name = "upper-test"

        def tokenize(self, text):
            return text.upper().split()

    assert get_analyzer("upper-test").tokenize("a b") == ["A", "B"]
    del ANALYZERS["upper-test"]


def test_explain_plan_shape():
    plan = explain("spark AND join NOT slow #en", num_shards=16)
    assert plan["plan"]["op"] == "and"
    text_node = plan["plan"]["operands"][0]
    assert text_node["op"] == "text"
    assert text_node["terms"][0]["term"] == "spark"
    assert 0 <= text_node["terms"][0]["shard"] < 16
    not_node = plan["plan"]["operands"][1]
    assert not_node["op"] == "not"
    # the #en tag rides inside the NOT's exclude operand (implicit AND)
    assert "exclude" in not_node


@pytest.mark.parametrize("query,kind,arg", [
    ("spar*", "prefix", "spar"),
    ("lime~", "fuzzy", "lime"),
    ("ne?w*k", "wildcard", "ne?w*k"),
    ('REGEX("[a-z]*ow")', "regex", "[a-z]*ow"),
])
def test_explain_names_expansion_leaf_by_kind(query, kind, arg):
    assert explain(query)["plan"] == {"op": kind, "arg": arg, "weight": 1.0}


def test_list_docs_page_validation(ray_session):
    from refimage_ray.pipelines.corpus import list_docs_page

    with pytest.raises(ValueError, match="invalid sort_by"):
        list_docs_page("/root/testdata/sf0.001", sort_by="evil; DROP")
    with pytest.raises(ValueError, match="invalid sort_order"):
        list_docs_page("/root/testdata/sf0.001", sort_order="sideways")
    with pytest.raises(ValueError, match="non-negative"):
        list_docs_page("/root/testdata/sf0.001", limit=-1)
    page = list_docs_page("/root/testdata/sf0.001", limit=5, offset=2,
                          sort_by="doc_id", sort_order="asc")
    assert page["doc_id"].to_pylist() == [2, 3, 4, 5, 6]


def test_pluggable_scorer_end_to_end(ray_session, built_index):
    """search(scorer='bm25l') recomputes weights from stored (tf, dl)
    — ranks shift but doc coverage stays sane; default path unchanged."""
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher

    s = LocalSearcher(built_index[0])
    base = s.search("the data join", k=20)
    alt = s.search("the data join", k=20, scorer="bm25l")
    assert base and alt
    assert [d for d, _ in base] != [] and len(alt) == len(base)
    assert {d for d, _ in alt} & {d for d, _ in base}  # overlapping doc sets
    assert alt != base  # different scoring family → different scores
    with pytest.raises(KeyError):
        s.search("x", scorer="nope")
    # distributed path supports plugin scorers too (ships tf/dl arrays)
    d = DistributedSearcher(built_index[0], num_actors=2)
    assert d.search("the data join", k=20, scorer="bm25l") == alt


# --- NL -> DSL provider layer (reference llm.py analog) ---


def test_nl_provider_registry_and_switching():
    from refimage_ray.query.nl import ProviderError, ProviderManager

    mgr = ProviderManager()
    assert "rules" in mgr.get_available_providers()
    assert "echo" in mgr.get_available_providers()
    assert mgr.get_current_provider() == "rules"
    mgr.switch_provider("echo")
    assert mgr.get_current_provider() == "echo"
    with pytest.raises(ProviderError):
        mgr.switch_provider("nope")


def test_nl_custom_provider_pluggable():
    from refimage_ray.query.nl import (
        BaseProvider,
        Message,
        ProviderManager,
        ProviderResponse,
        register_provider,
        text_to_dsl,
    )

    @register_provider
    class Fixed(BaseProvider):
        name = "fixed"

        def generate(self, messages, **kw):
            return ProviderResponse('TEXT("spark")', self.name, "m")

        def get_model_name(self):
            return "m"

    try:
        assert text_to_dsl("anything", ProviderManager(), provider="fixed") == 'TEXT("spark")'
    finally:
        from refimage_ray.query.nl import PROVIDERS

        PROVIDERS.pop("fixed", None)


def test_nl_rules_match_reference_example_shapes():
    from refimage_ray.query.nl import text_to_dsl

    assert text_to_dsl("cats") == 'TEXT("cats")'
    assert text_to_dsl("red cars or blue cars") == 'OR(TEXT("red cars"), TEXT("blue cars"))'
    assert (
        text_to_dsl("beaches at sunset without people")
        == 'EXCLUDE(TEXT("beaches at sunset"), TEXT("people"))'
    )
    assert (
        text_to_dsl("dogs and cats playing together")
        == 'AND(TEXT("dogs"), TEXT("cats playing together"))'
    )
    out = text_to_dsl("very important: mountains, somewhat important: snow")
    assert out == 'AND(WEIGHT(TEXT("mountains"), 1.8), WEIGHT(TEXT("snow"), 0.8))'


def test_nl_output_validated_by_parser():
    from refimage_ray.query.dsl import DSLParseError
    from refimage_ray.query.nl import ProviderManager, text_to_dsl

    mgr = ProviderManager()
    # echo passes an already-DSL string through unchanged
    assert text_to_dsl('TEXT("x")', mgr, provider="echo") == 'TEXT("x")'
    # invalid provider output must raise, not reach the engine
    with pytest.raises(DSLParseError):
        text_to_dsl("TEXT(", mgr, provider="echo")


def test_nl_roundtrip_membership_matches_handwritten_dsl(ray_session, built_index):
    """NL -> DSL string -> AST -> execution must equal the hand-written
    DSL for the same intent (the round-trip done-criterion)."""
    from refimage_ray.query.dsl import DSLExecutor
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.nl import text_to_dsl

    index_dir, _, _ = built_index
    ex = DSLExecutor(LocalSearcher(index_dir))

    cases = [
        ("spark or join", "spark OR join"),
        ("merge without sort", "merge NOT sort"),
        ("table and scan", "table AND scan"),
    ]
    for nl, handwritten in cases:
        dsl = text_to_dsl(nl)
        got = ex.execute_query(dsl, limit=100000)
        want = ex.execute_query(handwritten, limit=100000)
        assert got == want, (nl, dsl)


def test_nl_rules_phrase_and_proximity(built_index):
    from refimage_ray.query.dsl import DSLExecutor, DSLParser, PhraseQuery
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.nl import ProviderManager, text_to_dsl

    mgr = ProviderManager()
    dsl = text_to_dsl('find the exact phrase "big data" please', mgr)
    assert dsl == 'PHRASE("big data")'
    node = DSLParser().parse(dsl)
    assert isinstance(node, PhraseQuery) and node.slop == 0

    dsl2 = text_to_dsl('"data join" within 2 words', mgr)
    assert dsl2 == 'PHRASE("data join", 2)'
    node2 = DSLParser().parse(dsl2)
    assert isinstance(node2, PhraseQuery) and node2.slop == 2

    # NL -> DSL -> execution == the direct library call
    s = LocalSearcher(built_index[0])
    got = DSLExecutor(s).execute_query(dsl2, limit=10)
    want = s.search_phrase("data join", k=10, slop=2)
    assert [d for d, _ in got] == [d for d, _ in want]


def test_nl_unordered_proximity_rules():
    """Quoted span + an any-order marker converts to NEAR (unordered),
    with "within N words" setting the window; without the marker the
    ordered PHRASE conversion is unchanged."""
    from refimage_ray.query.dsl import DSLParser, NearQuery, PhraseQuery
    from refimage_ray.query.nl import text_to_dsl

    conv = lambda t: text_to_dsl(t)  # noqa: E731
    assert conv('"data table" within 4 words in any order') == \
        'NEAR("data table", 4)'
    assert conv('"data table" near each other') == 'NEAR("data table")'
    assert conv('"data table" within 4 words') == 'PHRASE("data table", 4)'
    node = DSLParser().parse(conv('"data table" close together'))
    assert isinstance(node, NearQuery)
    assert isinstance(
        DSLParser().parse(conv('"data table"')), PhraseQuery
    )


def test_http_provider_mock_transport_roundtrip():
    """HTTPProvider with an injected transport: request carries the
    model/messages/auth contract, both response shapes parse, and
    text_to_dsl validates the converted output through the parser."""
    from refimage_ray.query.nl import (
        HTTPProvider, Message, ProviderError, ProviderManager, text_to_dsl,
    )

    seen = {}

    def transport(url, headers, payload, timeout):
        seen.update(url=url, headers=headers, payload=payload,
                    timeout=timeout)
        return {"choices": [{"message":
                             {"content": ' AND(TEXT("a"), TEXT("b")) '}}],
                "usage": {"total_tokens": 7}}

    p = HTTPProvider({"base_url": "http://llm.example/v1/",
                      "api_key": "k", "model": "m",
                      "transport": transport, "timeout_sec": 5})
    r = p.generate([Message("system", "s"), Message("user", "a and b")],
                   max_tokens=32)
    assert r.content == 'AND(TEXT("a"), TEXT("b"))'
    assert r.tokens_used == 7 and r.model == "m"
    assert seen["url"] == "http://llm.example/v1/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer k"
    assert seen["payload"]["model"] == "m"
    assert seen["payload"]["messages"][1]["content"] == "a and b"
    assert seen["payload"]["max_tokens"] == 32
    assert seen["timeout"] == 5.0

    # ollama/local response shape (reference llm.py:145-170)
    p2 = HTTPProvider({"base_url": "http://llm.example",
                       "endpoint": "/api/generate",
                       "transport": lambda *a: {"response": 'TEXT("x")'}})
    assert p2.generate([Message("user", "x")]).content == 'TEXT("x")'

    # manager: http available only when configured; switching works;
    # text_to_dsl round-trips the provider output through the parser
    m = ProviderManager(config={"http": {
        "base_url": "http://llm.example", "transport": transport}})
    assert "http" in m.get_available_providers()
    m.switch_provider("http")
    assert text_to_dsl("anything", manager=m) == 'AND(TEXT("a"), TEXT("b"))'

    # unconfigured -> skipped, not fatal (reference llm.py:320-362)
    m2 = ProviderManager()
    assert "http" not in m2.get_available_providers()
    assert "rules" in m2.get_available_providers()

    # bad output is rejected by the parser round-trip
    m3 = ProviderManager(config={"http": {
        "base_url": "http://llm.example",
        "transport": lambda *a: {"response": "NOT-A-DSL(("}}})
    m3.switch_provider("http")
    import pytest as _pytest

    with _pytest.raises(Exception):
        text_to_dsl("anything", manager=m3)

    # transport errors surface as ProviderError
    def boom(*a):
        raise OSError("connection refused")

    p3 = HTTPProvider({"base_url": "http://x", "transport": boom})
    with _pytest.raises(ProviderError, match="request failed"):
        p3.generate([Message("user", "q")])
    with _pytest.raises(ProviderError, match="base_url"):
        HTTPProvider({})


def test_http_provider_bad_response_shapes_raise_provider_error():
    """Structurally unexpected endpoint responses surface as
    ProviderError (the contract serve's /nl2dsl handler catches), not
    AttributeError/TypeError."""
    import pytest as _pytest

    from refimage_ray.query.nl import HTTPProvider, Message, ProviderError

    shapes = [
        {"choices": ["text"]},                       # choice not a dict
        {"choices": [{"message": "hi"}]},            # message a string
        {"choices": [{}]},                           # no message
        {"choices": []},                             # empty choices
        ["not", "a", "dict"],                        # non-dict body
        {"usage": "weird"},                          # no content at all
    ]
    for shape in shapes:
        p = HTTPProvider({"base_url": "http://x",
                          "transport": lambda *a, s=shape: s})
        with _pytest.raises(ProviderError):
            p.generate([Message("user", "q")])
