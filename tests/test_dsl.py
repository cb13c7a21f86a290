"""DSL parser AST-shape tests (mirroring the reference's parser tests,
/root/reference/tests/test_basic.py:247-304) + execution membership
conformance vs the oracle (FIXTURES invariant 4)."""

import pytest

from refimage_ray.query.dsl import (
    AndQuery,
    DSLExecutor,
    DSLParseError,
    DSLParser,
    NotQuery,
    OrQuery,
    TagFilter,
    TextQuery,
)
from refimage_ray.query.engine import LocalSearcher


@pytest.fixture(scope="module")
def parser():
    return DSLParser()


# ---- parser: exact AST node types and operand counts ----

def test_parse_simple_text(parser):
    node = parser.parse("sunset beach")
    assert isinstance(node, TextQuery)
    assert node.text == "sunset beach"
    assert node.weight == 1.0


def test_parse_tag_only(parser):
    node = parser.parse("#en")
    assert isinstance(node, TagFilter)
    assert node.tags == ["en"]


def test_parse_implicit_and_text_tag(parser):
    node = parser.parse("sunset #en")
    assert isinstance(node, AndQuery)
    assert len(node.operands) == 2
    assert isinstance(node.operands[0], TextQuery)
    assert isinstance(node.operands[1], TagFilter)


def test_parse_weight(parser):
    node = parser.parse("fast query^0.8")
    assert isinstance(node, TextQuery)
    assert node.weight == pytest.approx(0.8)


def test_parse_and(parser):
    node = parser.parse("window AND stream")
    assert isinstance(node, AndQuery) and len(node.operands) == 2


def test_parse_or_of_ands(parser):
    node = parser.parse("a AND b OR c AND d")
    assert isinstance(node, OrQuery) and len(node.operands) == 2
    assert all(isinstance(op, AndQuery) for op in node.operands)


def test_parse_not(parser):
    node = parser.parse("table scan NOT slow")
    assert isinstance(node, NotQuery)
    assert isinstance(node.base, TextQuery) and isinstance(node.exclude, TextQuery)


def test_parse_precedence_or_lowest(parser):
    node = parser.parse("x NOT y OR z")
    assert isinstance(node, OrQuery)
    assert isinstance(node.operands[0], NotQuery)


def test_parse_empty_raises(parser):
    with pytest.raises(DSLParseError):
        parser.parse("   ")
    with pytest.raises(DSLParseError):
        parser.parse("x AND ")


def test_operand_without_tokens_is_refused():
    """Under the searcher's tokenizer, a text operand with no tokens
    adds no leaf: alone it is refused, beside another leaf it drops."""
    import re

    from refimage_ray.functions.text import tokenize

    p = DSLParser(tokenize)
    for q, op in (("((", "(("), ("data AND ((", "(("), ("!! OR data", "!!")):
        with pytest.raises(DSLParseError, match=re.escape(
                f"no terms or tags in operand: '{op}'")):
            p.parse(q)
    assert p.parse('"big data" ((') == p.parse('"big data"')
    assert p.parse("(data)") == TextQuery("(data)")


# ---- execution: membership conformance (reference set semantics) ----

@pytest.fixture(scope="module")
def executor(built_index):
    return DSLExecutor(LocalSearcher(built_index[0]))


def _ids(results):
    return {d for d, _ in results}


# NOTE: leaf candidate k equals the context limit (reference semantics:
# dsl.py:80-84 uses context['limit'] as the leaf's top-k) — so membership
# equivalence holds when limit exceeds the match count; use a large limit.
BIG = 100000


def test_and_is_intersection(executor):
    a = _ids(executor.execute_query("merge", limit=BIG))
    b = _ids(executor.execute_query("sort", limit=BIG))
    both = _ids(executor.execute_query("merge AND sort", limit=BIG))
    assert both == (a & b)


def test_or_is_union(executor):
    a = _ids(executor.execute_query("merge", limit=BIG))
    b = _ids(executor.execute_query("sort", limit=BIG))
    assert _ids(executor.execute_query("merge OR sort", limit=BIG)) == (a | b)


def test_not_is_difference(executor):
    a = _ids(executor.execute_query("merge", limit=BIG))
    b = _ids(executor.execute_query("sort", limit=BIG))
    assert _ids(executor.execute_query("merge NOT sort", limit=BIG)) == (a - b)


def test_tag_filter_lang(executor, tiny_docs):
    en_docs = {
        d for d, l in zip(tiny_docs["doc_id"].to_pylist(),
                          tiny_docs["lang"].to_pylist())
        if l == "en"
    }
    got = _ids(executor.execute_query("#en", limit=10000))
    assert got == en_docs


def test_text_and_tag(executor, tiny_docs):
    text_hits = _ids(executor.execute_query("spark", limit=BIG))
    en_docs = {
        d for d, l in zip(tiny_docs["doc_id"].to_pylist(),
                          tiny_docs["lang"].to_pylist())
        if l == "en"
    }
    assert _ids(executor.execute_query("spark #en", limit=BIG)) == text_hits & en_docs


def test_weight_scales_scores(executor):
    plain = executor.execute_query("spark", limit=10)
    weighted = executor.execute_query("spark^0.5", limit=10)
    assert [d for d, _ in plain] == [d for d, _ in weighted]
    for (d1, s1), (d2, s2) in zip(plain, weighted):
        assert s2 == pytest.approx(s1 * 0.5)


def test_limit_truncates(executor):
    assert len(executor.execute_query("the", limit=5)) == 5


# ---- function-style grammar (reference defines it for LLM output at
# llm.py:399-425 but never implements a parser — we complete it) ----

def test_func_text(parser):
    node = parser.parse('TEXT("sunset beach")')
    assert isinstance(node, TextQuery) and node.text == "sunset beach"


def test_func_nested(parser):
    node = parser.parse('AND(TEXT("a"), OR(TEXT("b"), TEXT("c")))')
    assert isinstance(node, AndQuery) and len(node.operands) == 2
    assert isinstance(node.operands[1], OrQuery)


def test_func_exclude_weight_tag(parser):
    node = parser.parse('EXCLUDE(WEIGHT(TEXT("x"), 0.8), TAG("en"))')
    assert isinstance(node, NotQuery)
    assert node.base.weight == pytest.approx(0.8)
    assert isinstance(node.exclude, TagFilter) and node.exclude.tags == ["en"]


def test_func_bare_strings_coerce(parser):
    node = parser.parse('AND("a", "b")')
    assert isinstance(node, AndQuery)
    assert all(isinstance(o, TextQuery) for o in node.operands)


def test_func_errors(parser):
    for bad in ['TEXT()', 'AND(TEXT("a"))', 'WEIGHT(TEXT("a"))',
                'TEXT("a"', 'TEXT("a") trailing', 'OR(TEXT("a"), 3)']:
        with pytest.raises(DSLParseError):
            parser.parse(bad)


def test_func_equivalent_to_infix(executor):
    infix = executor.execute_query("merge AND sort", limit=BIG)
    func = executor.execute_query('AND(TEXT("merge"), TEXT("sort"))', limit=BIG)
    assert _ids(infix) == _ids(func)


def test_operator_words_inside_quoted_phrase_are_literal():
    """Regression: the infix parser split on AND/OR/NOT before
    extracting quoted phrases, so '"rock AND roll"' silently became a
    bag-of-words AND instead of an exact phrase."""
    from refimage_ray.query.dsl import (
        AndQuery, DSLParser, NotQuery, OrQuery, PhraseQuery, TextQuery,
    )

    p = DSLParser()
    assert p.parse('"rock AND roll"') == PhraseQuery("rock AND roll")
    n = p.parse('"rock AND roll" OR jazz')
    assert isinstance(n, OrQuery)
    assert n.operands[0] == PhraseQuery("rock AND roll")
    assert n.operands[1] == TextQuery("jazz")
    n = p.parse('spark AND "the OR gate" NOT stream')
    assert isinstance(n, AndQuery)
    assert n.operands[0] == TextQuery("spark")
    assert n.operands[1] == NotQuery(
        base=PhraseQuery("the OR gate"), exclude=TextQuery("stream")
    )


def test_near_function_grammar(parser, built_index):
    """NEAR("a b", W) executes via search_near; default window 5;
    bad arity rejected."""
    from refimage_ray.query.dsl import NearQuery

    node = parser.parse('NEAR("data table", 4)')
    assert isinstance(node, NearQuery) and node.window == 4
    assert parser.parse('NEAR("data table")').window == 5
    s = LocalSearcher(built_index[0])
    got = DSLExecutor(s).execute_query('NEAR("data table", 4)', limit=10)
    want = s.search_near("data table", window=4, k=10)
    assert got == want and got  # non-empty on the fixture corpus
    with pytest.raises(DSLParseError, match="NEAR"):
        parser.parse('NEAR("a", "b")')
    with pytest.raises(DSLParseError, match="NEAR"):
        parser.parse("NEAR()")


def test_negative_proximity_params_rejected_at_parse(parser):
    # the numeric-literal parser already refuses a leading '-'; the
    # explicit range checks guard programmatic float args
    with pytest.raises(DSLParseError):
        parser.parse('NEAR("a b", -1)')
    with pytest.raises(DSLParseError):
        parser.parse('PHRASE("a b", -1)')
