"""Term-expansion queries: prefix, fuzzy (Levenshtein ≤ 1), synonyms.

Contract under test: every expanded query is EXACTLY equivalent to an
OR query over its expansion — so each test reduces expansion + scoring
to the already-verified disjunctive search path, plus independent
checks of the expansion itself (brute-force vocabulary scans, naive
DP edit distance).
"""

from __future__ import annotations

import pytest

from refimage_ray.query.dsl import (
    AndQuery,
    DSLParser,
    ExpandQuery,
    TagFilter,
)
from refimage_ray.query.engine import DistributedSearcher, LocalSearcher
from refimage_ray.query.expand import (
    build_deletes_index,
    cap_expansion,
    edit_distance_leq1,
    expand_synonyms,
    fuzzy_matches,
    prefix_matches,
)


def _naive_lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# --- pure expansion functions ---


def test_prefix_matches_edges():
    vocab = ["app", "apple", "apply", "banana", "z", "zz"]
    assert prefix_matches(vocab, "app") == ["app", "apple", "apply"]
    assert prefix_matches(vocab, "appl") == ["apple", "apply"]
    assert prefix_matches(vocab, "") == vocab
    assert prefix_matches(vocab, "c") == []
    assert prefix_matches(vocab, "z") == ["z", "zz"]  # last-char bump edge
    assert prefix_matches(vocab, "banana") == ["banana"]  # exact == prefix
    # un-bumpable last char (U+10FFFF): chr(ord+1) would raise, so the
    # tail-scan path must take over
    top = chr(0x10FFFF)
    vocab2 = sorted(["a", "a" + top, "a" + top + "x", "a" + top + top, "b"])
    assert prefix_matches(vocab2, "a" + top) == sorted(
        ["a" + top, "a" + top + "x", "a" + top + top])
    assert prefix_matches(vocab2, top) == []


def test_edit_distance_leq1_vs_naive_dp():
    words = ["", "a", "ab", "ba", "abc", "acb", "abcd", "xbc", "abx",
             "aabc", "abcc", "bc", "ac", "abd", "zzzz"]
    for a in words:
        for b in words:
            assert edit_distance_leq1(a, b) == (_naive_lev(a, b) <= 1), (a, b)


def test_fuzzy_matches_equals_brute_force():
    vocab = ["line", "like", "lime", "time", "list", "link", "in", "io",
             "spark", "spar", "sparks", "parks", "park"]
    idx = build_deletes_index(vocab)
    for q in ["lime", "spark", "park", "li", "xyzzy", "i"]:
        brute = sorted(t for t in vocab if _naive_lev(q, t) <= 1)
        assert fuzzy_matches(idx, q) == brute, q


def test_fuzzy_rejects_transpositions():
    # "ab"→"ba" shares deletion variants but plain Levenshtein is 2
    idx = build_deletes_index(["ba"])
    assert fuzzy_matches(idx, "ab") == []


def test_cap_expansion_deterministic():
    pairs = [("c", 5), ("a", 5), ("b", 9), ("d", 1)]
    assert cap_expansion(pairs, 2) == ["a", "b"]  # b df=9, then a<c tie at 5
    assert cap_expansion(pairs, 0) == ["a", "b", "c", "d"]  # <=0 = uncapped
    assert cap_expansion(pairs, 99) == ["a", "b", "c", "d"]


def test_expand_synonyms_tokenizes_values():
    out = expand_synonyms(
        ["db", "x"], {"db": ["Data-Base"], "zz": ["never"]},
        lambda s: [w for w in s.lower().replace("-", " ").split()],
    )
    assert out == ["base", "data", "db", "x"]


# --- engine equivalence: expanded == explicit OR query ---


@pytest.fixture(scope="module")
def local(built_index):
    return LocalSearcher(built_index[0])


def _vocab(local):
    return sorted(local.terms)


def test_search_prefix_equals_or_query(local):
    matches = prefix_matches(_vocab(local), "s")
    assert len(matches) > 2
    expanded = local.search_expanded("prefix", "s", k=20)
    explicit = local.search(" ".join(matches), k=20, mode="or")
    assert expanded == explicit


def test_search_fuzzy_equals_or_query(local):
    idx = build_deletes_index(local.terms)
    # pick a probe one edit from at least one real term
    probe = "lime"
    matches = fuzzy_matches(idx, probe)
    assert matches, "fixture vocab should contain a distance-1 match"
    assert local.search_expanded("fuzzy", probe, k=20) == local.search(
        " ".join(matches), k=20, mode="or"
    )


def test_search_fuzzy_vs_naive_dp_expansion(local):
    probe = "lime"
    brute = sorted(t for t in _vocab(local) if _naive_lev(probe, t) <= 1)
    assert brute == fuzzy_matches(build_deletes_index(local.terms), probe)


def test_search_prefix_no_match_empty(local):
    assert local.search_expanded("prefix", "qqqxyz", k=10) == []


def test_expansion_probe_must_be_single_term(local):
    with pytest.raises(ValueError):
        local.search_expanded("prefix", "two words")
    with pytest.raises(ValueError):
        local.search_expanded("fuzzy", "")


def test_max_expansions_cap(local):
    vocab = _vocab(local)
    matches = prefix_matches(vocab, "s")
    assert len(matches) > 2
    pairs = [(t, local.terms[t].df) for t in matches]
    capped_terms = cap_expansion(pairs, 2)
    assert local.search_expanded(
        "prefix", "s", k=20, max_expansions=2
    ) == local.search(" ".join(capped_terms), k=20, mode="or")


def test_synonyms_equal_union_query(local):
    hits = local.search("spark", k=20, synonyms={"spark": ["merge", "sort"]})
    assert hits == local.search("spark merge sort", k=20, mode="or")
    # unknown synonym keys are inert
    assert local.search("spark", k=20, synonyms={"zzz": ["x"]}) == local.search(
        "spark", k=20
    )


def test_synonyms_requires_or_mode(local):
    with pytest.raises(ValueError):
        local.search("spark", mode="and", synonyms={"spark": ["merge"]})


def test_distributed_expansion_matches_local(ray_session, built_index, local):
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    for kind, probe in (("prefix", "s"), ("fuzzy", "lime")):
        assert d.search_expanded(kind, probe, k=15) == \
            local.search_expanded(kind, probe, k=15)
    assert d.search("spark", k=15, synonyms={"spark": ["merge"]}) == local.search(
        "spark", k=15, synonyms={"spark": ["merge"]}
    )


def test_docpart_expansion_matches_term_partitioned(
    ray_session, tiny_docs, tmp_path, local
):
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned

    cfg = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)
    out = str(tmp_path / "dp")
    build_doc_partitioned(rd.from_arrow(tiny_docs), out, cfg, num_doc_shards=4)
    dp = DocPartSearcher(out)
    for kind, probe in (("prefix", "s"), ("fuzzy", "lime")):
        assert dp.search_expanded(kind, probe, k=15) == \
            local.search_expanded(kind, probe, k=15)


# --- DSL integration ---


def test_dsl_prefix_and_fuzzy_tokens():
    p = DSLParser()
    node = p.parse("spar* AND #en")
    assert isinstance(node, AndQuery)
    assert node.operands[0] == ExpandQuery("prefix", "spar")
    assert isinstance(node.operands[1], TagFilter)
    node = p.parse("lime~")
    assert node == ExpandQuery("fuzzy", "lime")


def test_dsl_function_grammar_expansion():
    p = DSLParser()
    node = p.parse('PREFIX("spar")')
    assert node == ExpandQuery("prefix", "spar")
    node = p.parse('WEIGHT(FUZZY("lime"), 2.0)')
    assert node == ExpandQuery("fuzzy", "lime", 2.0)


def test_dsl_executor_prefix_membership(local):
    from refimage_ray.query.dsl import DSLExecutor

    ex = DSLExecutor(local)
    got = {d for d, _ in ex.execute_query("spar*", limit=10**6)}
    matches = prefix_matches(_vocab(local), "spar")
    want = {d for d, _ in local.search(" ".join(matches), k=10**6, mode="or")}
    assert got == want


def test_suggest_all_searchers(ray_session, built_index, tmp_path):
    """Did-you-mean: exact hit first, then df desc; identical across
    local / distributed / both docpart searchers."""
    import ray.data as rd

    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )
    from refimage_ray.index.reader import staged_docs
    from refimage_ray.query.engine import DistributedSearcher, LocalSearcher

    index_dir, cfg, _ = built_index
    s = LocalSearcher(index_dir)
    # "dat" is not in the vocab; data/date-like neighbors are
    sug = s.suggest("dat", max_suggestions=5)
    assert sug and all(x["df"] > 0 for x in sug)
    dfs = [x["df"] for x in sug]
    assert dfs == sorted(dfs, reverse=True)
    assert not any(x["exact"] for x in sug)
    # exact vocabulary term ranks first and is flagged
    sug2 = s.suggest("data")
    assert sug2[0]["term"] == "data" and sug2[0]["exact"]
    # unknown gibberish -> empty; multi-token input -> error
    assert s.suggest("qqqqzzzz") == []
    with pytest.raises(ValueError):
        s.suggest("two words")

    d = DistributedSearcher(index_dir, num_actors=3)
    d.wait_ready()
    assert d.suggest("dat", 5) == sug

    doc_dir = str(tmp_path / "dp")
    build_doc_partitioned(
        staged_docs(index_dir, columns=["doc_id", "text"]), doc_dir, cfg,
        num_doc_shards=4,
    )
    assert DocPartSearcher(doc_dir).suggest("dat", 5) == sug
    dd = DistributedDocPartSearcher(doc_dir, num_actors=2)
    dd.wait_ready()
    assert dd.suggest("dat", 5) == sug


# --- wildcard / regex expansion ---


def test_wildcard_matches_equals_fnmatch():
    import fnmatch

    from refimage_ray.query.expand import wildcard_matches

    vocab = sorted(["scan", "small", "spark", "stream", "slow", "sort",
                    "net", "network", "newark", "notwork", "nk"])
    for pat in ["s?a*", "n*k", "*ow*", "ne?w*k", "scan", "*", "?", "q*"]:
        brute = sorted(t for t in vocab if fnmatch.fnmatchcase(t, pat))
        assert wildcard_matches(vocab, pat) == brute, pat


def test_regex_matches_anchored():
    from refimage_ray.query.expand import regex_matches

    vocab = sorted(["row", "slow", "window", "rowdy", "crow", "spark"])
    assert regex_matches(vocab, "[a-z]*ow") == ["crow", "row", "slow", "window"]
    # anchored both ends: "rowdy" must not match "row"
    assert regex_matches(vocab, "row") == ["row"]
    assert regex_matches(vocab, "s.*k") == ["spark"]


def test_search_wildcard_equals_or_query(local):
    from refimage_ray.query.expand import wildcard_matches

    matches = wildcard_matches(_vocab(local), "s?a*")
    assert len(matches) >= 2
    assert local.search_expanded("wildcard", "s?a*", k=20) == local.search(
        " ".join(matches), k=20, mode="or"
    )
    # pure-prefix glob == the dedicated prefix path
    assert local.search_expanded("wildcard", "s*", k=20) == \
        local.search_expanded("prefix", "s", k=20)
    assert local.search_expanded("wildcard", "qq*zz", k=10) == []


def test_search_regex_equals_or_query(local):
    from refimage_ray.query.expand import regex_matches

    matches = regex_matches(_vocab(local), "[a-z]*ow")
    assert matches
    assert local.search_expanded("regex", "[a-z]*ow", k=20) == local.search(
        " ".join(matches), k=20, mode="or"
    )


def test_wildcard_regex_probe_validation(local):
    with pytest.raises(ValueError):
        local.search_expanded("regex", "[unclosed")
    with pytest.raises(ValueError):
        local.search_expanded("wildcard", "")
    # uppercase glob lowercases (terms are lowercase)
    assert local.search_expanded("wildcard", "S?A*", k=5) == \
        local.search_expanded("wildcard", "s?a*", k=5)


def test_distributed_wildcard_regex_match_local(ray_session, built_index, local):
    d = DistributedSearcher(built_index[0], num_actors=3)
    d.wait_ready()
    for kind, probe in (("wildcard", "s?a*"), ("regex", "[a-z]*ow")):
        assert d.search_expanded(kind, probe, k=15) == \
            local.search_expanded(kind, probe, k=15)


def test_docpart_wildcard_regex_match_local(
    ray_session, tiny_docs, tmp_path, local
):
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned

    cfg = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)
    out = str(tmp_path / "dpw")
    build_doc_partitioned(rd.from_arrow(tiny_docs), out, cfg, num_doc_shards=4)
    dp = DocPartSearcher(out)
    for kind, probe in (("wildcard", "s?a*"), ("regex", "[a-z]*ow")):
        assert dp.search_expanded(kind, probe, k=15) == \
            local.search_expanded(kind, probe, k=15)


def test_dsl_wildcard_tokens():
    p = DSLParser()
    # mid-token glob → wildcard; single trailing star stays prefix
    node = p.parse("s?a* AND spar*")
    assert isinstance(node, AndQuery)
    assert node.operands == [ExpandQuery("wildcard", "s?a*"),
                             ExpandQuery("prefix", "spar")]
    node = p.parse('WILDCARD("ne?w*k")')
    assert node == ExpandQuery("wildcard", "ne?w*k")
    node = p.parse('WEIGHT(REGEX("[a-z]*ow"), 3.0)')
    assert node == ExpandQuery("regex", "[a-z]*ow", 3.0)


def test_dsl_executor_wildcard_membership(local):
    from refimage_ray.query.dsl import DSLExecutor
    from refimage_ray.query.expand import wildcard_matches

    ex = DSLExecutor(local)
    got = {d for d, _ in ex.execute_query("s?a*", limit=10**6)}
    matches = wildcard_matches(_vocab(local), "s?a*")
    want = {d for d, _ in local.search(" ".join(matches), k=10**6, mode="or")}
    assert got == want


# --- one expansion operator on every searcher ---

# a term no tiny-corpus doc holds, within one edit of "spark": each
# probe below matches it and base-vocabulary terms alike
BUFFER_ONLY = "spaark"
KIND_PROBES = [("prefix", "sp"), ("fuzzy", "spark"), ("wildcard", "sp*k"),
               ("regex", "sp.*k")]


@pytest.fixture(scope="module")
def every_searcher(ray_session, tiny_docs, tmp_path_factory):
    """The same corpus behind every searcher flavor: term and
    doc-partitioned builds of it, a federation of the term build, and
    an NRT buffer over a build of the first 200 docs that holds the
    rest plus a doc with :data:`BUFFER_ONLY`."""
    import pyarrow as pa
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.build import build_index
    from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned
    from refimage_ray.query.multi import MultiSearcher
    from refimage_ray.query.nrt import DeltaSearcher

    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    extra = pa.table({
        "doc_id": pa.array([10**6], pa.int64()),
        "text": [f"{BUFFER_ONLY} spark data"],
        "url": ["https://extra.example/1"], "lang": ["en"],
    })
    corpus = pa.concat_tables([tiny_docs, extra])
    root = tmp_path_factory.mktemp("every_searcher")
    term, doc, base = (str(root / n) for n in ("term", "doc", "base"))
    build_index(rd.from_arrow(corpus), term, cfg)
    build_doc_partitioned(rd.from_arrow(corpus), doc, cfg, num_doc_shards=4)
    build_index(rd.from_arrow(corpus.slice(0, 200)), base, cfg)
    delta = DeltaSearcher(base)
    delta.add(corpus.slice(200).select(["doc_id", "text"]))
    assert BUFFER_ONLY not in delta.base.terms
    return {"local": LocalSearcher(term), "docpart": DocPartSearcher(doc),
            "multi": MultiSearcher([term]), "delta": delta}


@pytest.mark.parametrize("kind,probe", KIND_PROBES,
                         ids=[k for k, _ in KIND_PROBES])
def test_search_expanded_identical_on_every_searcher(every_searcher, kind,
                                                     probe):
    want_pairs = every_searcher["local"]._expand_pairs(kind, probe)
    want_hits = every_searcher["local"].search_expanded(kind, probe, k=20)
    assert BUFFER_ONLY in dict(want_pairs)
    assert want_hits
    for name, s in every_searcher.items():
        assert s._expand_pairs(kind, probe) == want_pairs, name
        assert s.search_expanded(kind, probe, k=20) == want_hits, name
