"""Percolator (reverse search) tests.

The ground truth for every leaf family is the FORWARD search path: a
document matches a stored query iff the DSL executor's membership over
an index of the same corpus contains it.  Plus closed-form checks for
the distance-≤1 regex and the phrase mask vs the engine's text-fallback
containment.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.query.expand import edit_distance_leq1, lev1_regex
from refimage_ray.stages.percolate import (
    PERCOLATE_SCHEMA,
    Percolator,
    _BatchContext,
    _phrase_mask,
    percolate,
)

CFG = EngineConfig(num_shards=8, salt_buckets=4, hot_df_fraction=0.05)


def test_lev1_regex_matches_edit_distance():
    import re

    vocab = [
        "spark", "spork", "sprk", "sparks", "park", "stark", "spar",
        "a", "", "ab", "ba", "abc", "acb", "data", "date", "dta",
        "join", "jon", "joint", "jjoin", "xyz",
    ]
    for probe in ["spark", "a", "ab", "join", "data", "abc"]:
        rx = re.compile(lev1_regex(probe))
        got = {t for t in vocab if rx.search(t)}
        want = {t for t in vocab if edit_distance_leq1(probe, t)}
        assert got == want, (probe, got ^ want)


@pytest.fixture(scope="module")
def searcher(built_index):
    from refimage_ray.query.engine import LocalSearcher

    return LocalSearcher(built_index[0])


PERC_CASES = [
    "spark AND data",
    "spark OR stream",
    "data NOT join",
    '"merge sort"',
    '"table scan"~1',
    "str*",
    "spork~",
    "s?ark",
    "spark #en",
    "#fr OR #de",
    'OR(TEXT("cache disk"), PREFIX("str"))',
]


def test_percolator_matches_forward_search(ray_session, tiny_docs, searcher):
    """Every stored rule's percolated doc set == the DSL executor's
    membership through the real index (forward/reverse identity)."""
    from refimage_ray.query.dsl import DSLExecutor

    ex = DSLExecutor(searcher)
    queries = {f"q{i}": q for i, q in enumerate(PERC_CASES)}
    got = (
        percolate(rd.from_arrow(tiny_docs), queries, CFG, concurrency=(1, 2))
        .sort(["query_id", "doc_id"])
        .take_all()
    )
    by_q: dict[str, list[int]] = {qid: [] for qid in queries}
    for r in got:
        by_q[r["query_id"]].append(r["doc_id"])
    for qid, q in queries.items():
        want = sorted(d for d, _ in ex.execute_query(q, limit=10**9))
        assert by_q[qid] == want, (q, by_q[qid], want)


def test_phrase_mask_vs_text_fallback(tiny_docs):
    from refimage_ray.functions.text import tokenize
    from refimage_ray.query.dsl import PhraseQuery
    from refimage_ray.query.engine import _contains_phrase

    batch = tiny_docs.slice(0, 120)
    texts = batch["text"].to_pylist()
    for phrase, slop in [("merge sort", 0), ("table scan", 1), ("data join", 2)]:
        ctx = _BatchContext(batch, CFG)
        got = _phrase_mask(PhraseQuery(phrase, 1.0, slop), ctx)
        want = np.array(
            [
                _contains_phrase(tokenize(t), tokenize(phrase), slop)
                for t in texts
            ]
        )
        assert (got == want).all(), (phrase, slop)


def test_percolator_edge_batches():
    p = Percolator({"q": "spark"}, CFG)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert p(empty).schema.equals(PERCOLATE_SCHEMA)
    nomatch = pa.table(
        {"doc_id": pa.array([7], pa.int64()), "text": pa.array(["zzz qqq"])}
    )
    assert p(nomatch).num_rows == 0
    tokenless = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array(["!!! ???"])}
    )
    assert p(tokenless).num_rows == 0


def test_tag_query_requires_lang_column():
    p = Percolator({"q": "spark #en"}, CFG)
    batch = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array(["spark"])}
    )
    with pytest.raises(ValueError, match="lang"):
        p(batch)


def test_percolate_no_expansion_cap():
    """Percolation is boolean membership: a prefix rule matches every
    doc containing ANY matching term, even past the search operators'
    ``max_expansions=128`` default cap."""
    from refimage_ray.query.expand import cap_expansion

    n = 130
    terms = [f"net{i}" for i in range(n)]
    assert len(cap_expansion([(t, 1) for t in terms], 128)) < n
    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    docs = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([f"{t} filler" for t in terms]),
        }
    )
    p = Percolator({"q": "net*"}, cfg)
    assert p(docs).num_rows == n


def test_near_mask_vs_text_fallback(tiny_docs):
    from refimage_ray.functions.text import tokenize
    from refimage_ray.query.dsl import NearQuery
    from refimage_ray.query.engine import _contains_near
    from refimage_ray.stages.percolate import _near_mask

    batch = tiny_docs.slice(0, 120)
    texts = batch["text"].to_pylist()
    for q, w in [("merge sort", 3), ("table scan", 0), ("data join scan", 6)]:
        ctx = _BatchContext(batch, CFG)
        got = _near_mask(NearQuery(q, w), ctx)
        want = np.array(
            [_contains_near(tokenize(t), tokenize(q), w) for t in texts]
        )
        assert (got == want).all(), (q, w)


def test_percolator_near_rule_matches_forward(ray_session, tiny_docs, searcher):
    import ray.data as rd

    from refimage_ray.stages.percolate import Percolator

    rule = 'NEAR("data table", 4)'
    out = rd.from_arrow(tiny_docs).map_batches(
        Percolator({"r": rule}, CFG), batch_format="pyarrow"
    ).take_all()
    reverse = {r["doc_id"] for r in out if r["query_id"] == "r"}
    forward = {d for d, _ in searcher.search_near("data table", window=4,
                                                  k=10**6)}
    assert reverse == forward
