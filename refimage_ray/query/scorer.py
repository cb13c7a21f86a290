"""BM25 scoring — the single definition shared by engine and oracle.

Score(d, q) = Σ_{t ∈ unique(q), sorted} idf(t) · w(t, d)
  idf(t)  = ln(1 + (N − df + 0.5) / (df + 0.5))        (Lucene variant, ≥ 0)
  w(t, d) = tf / (tf + k1·(1 − b + b·dl/avgdl))        (precomputed at build)

Determinism contract (SURVEY.md §7.3 "rank-identity under floating
point"): float64 throughout; per-document accumulation happens in
**ascending unique-term order**; ties broken by (score desc, doc_id
asc).  Both the distributed engine and the pure-Python oracle follow
exactly this contract, which is what makes bit-identical rank/score
comparison possible (reference analog: exact self-match assertions,
``/root/reference/tests/test_driver_real.py:139-144``).

Reference analog of w/idf: cosine similarity + [0,1] mapping as the
score function (``/root/reference/src/refimage/models/clip_model.py:237-281``).
"""

from __future__ import annotations

import math

import numpy as np


def idf(df: int, n_docs: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_weight(tf, dl, avgdl: float, k1: float, b: float):
    """Term-frequency impact; works on scalars and numpy arrays (f64)."""
    return tf / (tf + k1 * (1.0 - b + b * dl / avgdl))


def query_terms(tokens: list[str]) -> list[str]:
    """Canonical query-term list: unique, ascending (the accumulation
    order of the determinism contract)."""
    return sorted(set(tokens))


def check_page(k, offset=0) -> int:
    """The page of every top-k operator, checked at one site on both
    layouts: ``k`` and ``offset`` are non-negative ints (a negative
    ``k`` would reach :func:`topk_select`'s ``[:k]`` slice).  Returns
    ``k + offset``, the top the page is cut from."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a non-negative int, got {k!r}")
    if not isinstance(offset, int) or offset < 0:
        raise ValueError(f"offset must be a non-negative int, got {offset!r}")
    return k + offset


def topk_select(
    doc_ids: np.ndarray, scores: np.ndarray, k: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """threshold filter + (score desc, doc_id asc) top-k.

    Uses argpartition for the bounded selection (the heap analog:
    reference's FAISS ``index.search(q, k)``,
    ``/root/reference/src/refimage/search/__init__.py:243-261``) and a
    full deterministic sort only over the k survivors.
    """
    if threshold > 0.0:
        keep = scores >= threshold
        doc_ids, scores = doc_ids[keep], scores[keep]
    n = len(doc_ids)
    if k > 0 and n > k * 4 and n > 1024:
        # k-th largest score (descending index k-1 is exact under
        # np.partition); keep EVERY doc scoring >= it so boundary ties
        # all survive into the deterministic lexsort.  argpartition's
        # slice beyond index k is unordered, so slicing [:k+extra]
        # would drop tied docs nondeterministically.
        kth_val = -np.partition(-scores, k - 1)[k - 1]
        keep = scores >= kth_val
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]
