"""User-extension surface — pluggable analyzers and scorers.

Reference analog: the LLM-provider plugin ABC + registry with runtime
switching (``/root/reference/src/refimage/llm.py:47-66,310-395``) and
the config-selected index strategy (``config.py:50-52`` declares
flat/ivf/hnsw with only flat implemented).  Our equivalents:

- :class:`Analyzer` — tokenization strategy; the default must stay
  byte-compatible with ``functions/text.py`` (index/query symmetry).
- :class:`Scorer` — scoring function family (idf + term-frequency
  impact); default BM25, a BM25F-ish field-boost variant included as
  the proof the seam works.
- registries keyed by name with a decorator, mirroring the reference's
  enum-keyed provider map.
- :func:`explain` — query → execution-plan dict (the analog of the
  conversion/debug endpoints, ``api.py:160-229``).

New query operators = new ``QueryNode`` subclasses (``query/dsl.py``),
exactly like the reference's ``QueryNode`` ABC (``dsl.py:24-47``).
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

from refimage_ray.functions.hashing import blake2b64
from refimage_ray.functions.text import tokenize as _default_tokenize


class Analyzer(Protocol):
    name: str

    def tokenize(self, text: str) -> list[str]: ...


class Scorer(Protocol):
    name: str

    def idf(self, df: int, n_docs: int) -> float: ...

    def weight(self, tf: float, dl: float, avgdl: float) -> float: ...


ANALYZERS: dict[str, "Analyzer"] = {}
SCORERS: dict[str, "Scorer"] = {}


def register_analyzer(cls: type) -> type:
    ANALYZERS[cls.name] = cls()
    return cls


def register_scorer(cls: type) -> type:
    SCORERS[cls.name] = cls()
    return cls


@register_analyzer
class DefaultAnalyzer:
    """lowercase + [a-z0-9]+ — THE index/query tokenization."""

    name = "default"

    def tokenize(self, text: str) -> list[str]:
        return _default_tokenize(text)


@register_analyzer
class NGramAnalyzer:
    """Character 3-gram analyzer (substring-ish matching).  Example of
    an alternative analyzer plugged through the same seam."""

    name = "char3gram"

    def tokenize(self, text: str) -> list[str]:
        toks = _default_tokenize(text)
        out = []
        for t in toks:
            if len(t) <= 3:
                out.append(t)
            else:
                out.extend(t[i : i + 3] for i in range(len(t) - 2))
        return out


@register_scorer
class BM25Scorer:
    name = "bm25"
    k1, b = 1.2, 0.75

    def idf(self, df: int, n_docs: int) -> float:
        return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))

    def weight(self, tf: float, dl: float, avgdl: float) -> float:
        return tf / (tf + self.k1 * (1.0 - self.b + self.b * dl / avgdl))


@register_scorer
class BM25LScorer:
    """BM25L-style variant (longer-doc friendly) — demonstrates a
    second scorer behind the protocol; not the correctness default."""

    name = "bm25l"
    k1, b, delta = 1.2, 0.75, 0.5

    def idf(self, df: int, n_docs: int) -> float:
        return math.log((n_docs + 1.0) / (df + 0.5))

    def weight(self, tf: float, dl: float, avgdl: float) -> float:
        c = tf / (1.0 - self.b + self.b * dl / avgdl)
        return (self.k1 + 1.0) * (c + self.delta) / (self.k1 + c + self.delta)


def get_analyzer(name: str) -> Analyzer:
    if name not in ANALYZERS:
        raise KeyError(f"unknown analyzer {name!r}; have {sorted(ANALYZERS)}")
    return ANALYZERS[name]


def get_scorer(name: str) -> Scorer:
    if name not in SCORERS:
        raise KeyError(f"unknown scorer {name!r}; have {sorted(SCORERS)}")
    return SCORERS[name]


def explain(query: str, num_shards: int = 32, analyzer: str = "default") -> dict:
    """Query → execution plan (parse tree, term routing, operator kinds).

    Debug surface analog of the reference's conversion endpoints
    (text→vector / dsl→vector, ``api.py:160-229``): exposes the
    pipeline stages individually without executing them.
    """
    from refimage_ray.query.dsl import (
        AndQuery,
        DSLParser,
        ExpandQuery,
        NotQuery,
        OrQuery,
        TagFilter,
        TextQuery,
    )

    an = get_analyzer(analyzer)

    def node_plan(node) -> dict:
        if isinstance(node, TextQuery):
            terms = sorted(set(an.tokenize(node.text)))
            return {
                "op": "text",
                "text": node.text,
                "weight": node.weight,
                "terms": [
                    {"term": t, "shard": blake2b64(t) % num_shards} for t in terms
                ],
            }
        if isinstance(node, TagFilter):
            return {"op": "tag_filter", "tags": node.tags, "mode": node.mode}
        if isinstance(node, ExpandQuery):
            return {"op": node.kind, "arg": node.arg, "weight": node.weight}
        if isinstance(node, AndQuery):
            return {"op": "and", "operands": [node_plan(o) for o in node.operands]}
        if isinstance(node, OrQuery):
            return {"op": "or", "operands": [node_plan(o) for o in node.operands]}
        if isinstance(node, NotQuery):
            return {
                "op": "not",
                "base": node_plan(node.base),
                "exclude": node_plan(node.exclude),
            }
        return {"op": type(node).__name__}

    tree = DSLParser().parse(query)
    return {"query": query, "analyzer": analyzer, "plan": node_plan(tree)}
