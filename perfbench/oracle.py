"""BM25 reference over the generated texts, written apart from the
engine's scoring code: plain Python counters, no Arrow, no Ray.

It follows the ranking definition the engine documents (Lucene idf
``ln(1 + (N - df + 0.5) / (df + 0.5))``, term weight
``tf / (tf + k1 * (1 - b + b * dl / avgdl))`` with k1 = 1.2,
b = 0.75, per-document sums in ascending term order, ties by doc id)
and is checked against the engine within a float tolerance, so a
change in summation order does not read as a wrong result.
"""

from __future__ import annotations

import math
import re
from collections import Counter

TOKEN_RE = re.compile(r"[a-z0-9]+")
K1, B = 1.2, 0.75
REL_TOL = 1e-9


def tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def unique_docs(ids, texts):
    """Exact-duplicate removal as the engine defines it: one document
    per distinct text, the smallest doc id wins."""
    best: dict[str, int] = {}
    for d, t in zip(ids, texts):
        if t not in best or d < best[t]:
            best[t] = d
    return {d: t for t, d in best.items()}


class Oracle:
    def __init__(self, docs: dict[int, str], langs: dict[int, str] | None = None):
        self.langs = langs or {}
        self.tf: dict[int, Counter] = {}
        self.df: Counter = Counter()
        self.post: dict[str, list[int]] = {}
        total = 0
        for d, text in docs.items():
            c = Counter(tokens(text))
            self.tf[d] = c
            total += sum(c.values())
            for t in c:
                self.df[t] += 1
                self.post.setdefault(t, []).append(d)
        self.n = len(docs)
        self.avgdl = total / self.n if self.n else 1.0
        self.dl = {d: sum(c.values()) for d, c in self.tf.items()}

    def idf(self, t: str) -> float:
        df = self.df[t]
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def scores(self, query: str, mode: str = "or") -> dict[int, float]:
        terms = sorted(set(tokens(query)))
        acc: dict[int, float] = {}
        for t in terms:
            idf = self.idf(t) if t in self.df else 0.0
            for d in self.post.get(t, ()):
                tf = self.tf[d][t]
                w = tf / (tf + K1 * (1.0 - B + B * self.dl[d] / self.avgdl))
                acc[d] = acc.get(d, 0.0) + idf * w
        if mode == "and":
            acc = {d: s for d, s in acc.items() if all(self.tf[d][t] for t in terms)}
        return acc

    def search(self, query: str, k: int, mode: str = "or", lang: str | None = None,
               offset: int = 0) -> list[tuple[int, float]]:
        acc = self.scores(query, mode)
        if lang is not None:
            acc = {d: s for d, s in acc.items() if self.langs.get(d) == lang}
        items = sorted(acc.items(), key=lambda x: (-x[1], x[0]))
        return items[offset : offset + k]

    def count(self, query: str, mode: str = "or") -> int:
        return len(self.scores(query, mode))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def agrees(got: list[tuple[int, float]], want: list[tuple[int, float]],
           all_scores: dict[int, float]) -> str | None:
    """None when an engine top-k equals the reference top-k up to float
    tolerance; ties within tolerance may order either way."""
    if len(got) != len(want):
        return f"{len(got)} hits, expected {len(want)}"
    for (gd, gs), (wd, ws) in zip(got, want):
        if not close(gs, ws):
            return f"score {gs!r} where {ws!r} expected (doc {wd})"
        if gd != wd and not (gd in all_scores and close(all_scores[gd], ws)):
            return f"doc {gd} where {wd} expected"
    return None
