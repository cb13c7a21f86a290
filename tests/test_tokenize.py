"""Unit tests: tokenizer — Arrow vectorized path vs pure-Python
definition (the index/query symmetry invariant, SURVEY.md §2.2 M5/M8)."""

import pyarrow as pa

from refimage_ray.functions.text import term_counts, tokenize
from refimage_ray.stages.tokenize import (
    doc_lengths,
    doc_stats_batch,
    tokenize_batch,
)


def _batch(texts):
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )


def test_tokenize_python():
    assert tokenize("The quick-BROWN fox,fox! 42x") == [
        "the", "quick", "brown", "fox", "fox", "42x",
    ]
    assert tokenize("") == []
    assert tokenize("  \t ") == []


def test_batch_matches_python(tiny_pages):
    texts = tiny_pages["text"].to_pylist()[:50]
    out = tokenize_batch(_batch(texts))
    got = {}
    for row in out.to_pylist():
        got.setdefault(row["doc_id"], {})[row["term"]] = row["tf"]
    for i, t in enumerate(texts):
        assert got.get(i, {}) == dict(term_counts(t)), f"doc {i}"


def test_dl_column_consistent():
    texts = ["a b c", "x-y z2", "", "the the the"]
    out = tokenize_batch(_batch(texts))
    dls = doc_lengths(pa.array(texts, pa.string()))
    assert list(dls) == [len(tokenize(t)) for t in texts]
    for row in out.to_pylist():
        assert row["dl"] == dls[row["doc_id"]]


def test_doc_stats_batch():
    b = _batch(["a b c", "hello world"])
    s = doc_stats_batch(b)
    assert s["doc_len"].to_pylist() == [3, 2]
    assert s["n_chars"].to_pylist() == [5, 11]


def test_empty_text_produces_no_postings():
    out = tokenize_batch(_batch(["", "   ", "a"]))
    assert out.num_rows == 1
    assert out["term"].to_pylist() == ["a"]


def test_term_hash_stable():
    from refimage_ray.functions.hashing import blake2b64, hash_string_array

    out = tokenize_batch(_batch(["spark join spark"]))
    for row in out.to_pylist():
        assert row["term_hash"] == blake2b64(row["term"])
    arr = pa.array(["x", "y", "x"], pa.string())
    h = hash_string_array(arr)
    assert h[0] == h[2] != h[1]


class TestTermFilter:
    """Analysis chain (term_filter): stemmer rules, vectorized-path
    parity, build/query symmetry, doc_len invariance."""

    def test_s_stem_rules(self):
        from refimage_ray.functions.text import s_stem

        cases = {
            "tables": "table",      # es-rule
            "queries": "query",     # ies -> y
            "movies": "movy",       # ies -> y (rule is mechanical)
            "joins": "join",        # bare s
            "glass": "glass",       # ss guard
            "virus": "virus",       # us guard
            "s": "s",               # len guard keeps token non-empty
            "is": "i",              # bare s, len 2
            "goes": "goes",         # oes guard
            "sees": "sees",         # ees guard
            "table": "table",       # no suffix
        }
        for w, want in cases.items():
            assert s_stem(w) == want, (w, s_stem(w), want)

    def test_vectorized_filter_matches_python(self):
        import pyarrow as pa

        from refimage_ray.functions.text import (
            apply_term_filter_array, s_stem,
        )

        words = ["tables", "queries", "joins", "glass", "s", "x",
                 "tables", "virus", "is", "windows"]
        arr = pa.array(words, pa.string())
        got = apply_term_filter_array(arr, "s_stem").to_pylist()
        assert got == [s_stem(w) for w in words]

    def test_tokenize_applies_filter(self):
        from refimage_ray.functions.text import tokenize

        assert tokenize("Tables AND queries!", term_filter="s_stem") == [
            "table", "and", "query",
        ]

    def test_stemmed_index_query_symmetry(self, ray_session, tmp_path):
        """Build with term_filter=s_stem -> plural query terms reach
        singular docs; searcher scores equal the Python oracle exactly;
        doc_len unchanged vs the unstemmed build (count invariance)."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from refimage_ray.config import EngineConfig
        from refimage_ray.index.build import build_index
        from refimage_ray.query.engine import LocalSearcher
        from refimage_ray.query.oracle import BM25Oracle

        texts = [
            "the table joins two tables",
            "a query joins the index",
            "windows and doors",
            "one window and one door",
            "nothing relevant here",
        ]
        docs = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })
        pq.write_table(docs, str(tmp_path / "docs.parquet"))
        cfg = EngineConfig(num_shards=4, salt_buckets=2,
                           term_filter="s_stem")
        idx = str(tmp_path / "idx")
        build_index(rd.read_parquet(str(tmp_path / "docs.parquet")), idx, cfg)
        s = LocalSearcher(idx)
        assert s.term_filter == "s_stem"  # manifest round-trip
        # plural query, singular docs: "windows" stems to "window"
        hits = s.search("windows", k=5)
        ids = {d for d, _ in hits}
        assert {2, 3} <= ids
        # exact score parity with the Python oracle under the same cfg
        oracle = BM25Oracle(list(enumerate(texts)), cfg=cfg)
        for q in ("windows", "tables query", "door AND window".lower()):
            got = s.search(q, k=5)
            want = oracle.search(q, k=5)
            assert got == want, (q, got, want)

    def test_doc_len_invariant_under_filter(self, ray_session):
        import pyarrow as pa

        from refimage_ray.config import EngineConfig
        from refimage_ray.stages.tokenize import tokenize_batch

        b = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["tables tables queries", "a b s ss"]),
        })
        plain = tokenize_batch(b, EngineConfig())
        stem = tokenize_batch(b, EngineConfig(term_filter="s_stem"))
        import numpy as np

        for t in (plain, stem):
            dl = {r["doc_id"]: r["dl"] for r in t.to_pylist()}
            assert dl == {0: 3, 1: 4}
        # and the stemmed postings merged tfs: tables+queries -> 2 terms
        terms0 = {r["term"]: r["tf"] for r in stem.to_pylist()
                  if r["doc_id"] == 0}
        assert terms0 == {"table": 2, "query": 1}

    def test_unknown_filter_rejected(self):
        import pytest

        from refimage_ray.config import EngineConfig

        with pytest.raises(ValueError, match="term_filter"):
            EngineConfig(term_filter="porter")
