"""Query DSL — parser + set-algebra executor over BM25 result sets.

A from-scratch re-expression of the reference's query surface
(``/root/reference/src/refimage/dsl.py``): free-text terms, ``#tag``
filters, ``^0.8`` weights, infix ``AND`` / ``OR`` / ``NOT`` with
precedence OR < AND < NOT (the reference parser splits in exactly that
order, ``dsl.py:368-399``), and implicit AND between text and tags in
a simple query (``dsl.py:350-366``).

Semantics:

- leaves produce *scored* doc lists — ``TextQuery`` = top-k BM25
  search with ``k = context limit`` (reference: ``dsl.py:80-84``),
  ``TagFilter`` = metadata predicate on ``lang`` (the reference scans
  metadata then filters tags, ``dsl.py:128-153``; our tag namespace is
  the ``lang`` column per SURVEY.md §2.9).
- internal nodes: AND = intersection, OR = union, NOT = difference —
  *membership identical to the reference*
  (``dsl.py:191-196,227-234,280-282``).  Documented deviation: the
  reference drops scores inside AND/OR (returns bare id sets); we keep
  scores (AND = sum, OR = max, NOT = base score) so ranking survives
  the algebra.
- ``^w`` multiplies a leaf's scores then re-sorts (reference weighted
  re-sort, ``dsl.py:87-96``).
- final: threshold filter + (score desc, doc_id asc) sort + limit
  (``dsl.py:479-480``).

The parser runs on the driver; set ops run on numpy doc_id arrays.
The executor's public method is ``execute_query`` — mirroring the
reference's *tested* contract (``dsl.py:432-438``; the endpoint-side
``execute`` call is a latent defect we do not reproduce, SURVEY §3.3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads

from refimage_ray.query.expand import EXPANSION_KINDS

TAG_RE = re.compile(r"#(\w+)")
PHRASE_RE = re.compile(r'"([^"]*)"')
# quoted phrase + optional proximity suffix: "a b"~2 (slop=2); used at
# leaf-build time — parse()'s stash masking keeps using PHRASE_RE, so
# the ~N suffix survives masking and is picked up here
PHRASE_SLOP_RE = re.compile(r'"([^"]*)"(?:~(\d+))?')
WEIGHT_RE = re.compile(r"\^(\d*\.?\d+)")
OP_RE = re.compile(r"\b(AND|OR|NOT)\b")
PREFIX_TOKEN_RE = re.compile(r"(\w+)\*")
FUZZY_TOKEN_RE = re.compile(r"(\w+)~")
# any token containing a glob metachar (superset of the prefix form;
# extracted in one pass, then classified: single trailing `*` → the
# cheaper prefix expansion, anything else → a wildcard one)
WILD_TOKEN_RE = re.compile(r"([\w*?]*[*?][\w*?]*)")


class QueryNode:
    """Abstract AST node (reference: ``dsl.py:24-47``).  ``execute``
    returns ``{doc_id: score}``."""

    def execute(self, ctx: "DSLContext") -> dict[int, float]:
        raise NotImplementedError


@dataclass
class TextQuery(QueryNode):
    text: str
    weight: float = 1.0

    def execute(self, ctx):
        hits = ctx.searcher.search(
            self.text, k=ctx.limit, threshold=ctx.min_score, mode="or"
        )
        return {d: s * self.weight for d, s in hits}


@dataclass
class PhraseQuery(QueryNode):
    """Phrase leaf (quoted in the infix grammar — ``"a b"~2`` for
    proximity — ``PHRASE("a b", 2)`` in the function grammar) — beyond
    the reference's surface; executed via conjunctive candidates +
    ordered-proximity verification (``slop`` = max interleaved tokens
    per consecutive pair; 0 = exact adjacency)."""

    text: str
    weight: float = 1.0
    slop: int = 0

    def execute(self, ctx):
        hits = ctx.searcher.search_phrase(
            self.text, k=ctx.limit, threshold=ctx.min_score, slop=self.slop
        )
        return {d: s * self.weight for d, s in hits}


@dataclass
class NearQuery(QueryNode):
    """Unordered-proximity leaf (``NEAR("a b", 4)`` in the function
    grammar): all distinct terms within a ``window``-token span in any
    order — the order-free complement of :class:`PhraseQuery`
    (``engine.search_near``)."""

    text: str
    window: int = 5
    weight: float = 1.0

    def execute(self, ctx):
        hits = ctx.searcher.search_near(
            self.text, self.window, k=ctx.limit, threshold=ctx.min_score
        )
        return {d: s * self.weight for d, s in hits}


@dataclass
class ExpandQuery(QueryNode):
    """Vocabulary-expansion leaf — beyond the reference's surface.
    ``kind`` is one of ``expand.EXPANSION_KINDS``: prefix (``netw*``
    infix / ``PREFIX("netw")``), fuzzy (``aple~`` / ``FUZZY("aple")``,
    Levenshtein distance 1), wildcard (``ne?w*k`` /
    ``WILDCARD("ne?w*k")``, SQL ``LIKE`` semantics) or regex
    (``REGEX("ne.w[o0]rk")``, function grammar only — regex metachars
    clash with the infix operators).  Expands ``arg`` against the
    index's term dictionary and scores the expansion disjunctively
    (``search_expanded``)."""

    kind: str
    arg: str
    weight: float = 1.0

    def execute(self, ctx):
        hits = ctx.searcher.search_expanded(
            self.kind, self.arg, k=ctx.limit, threshold=ctx.min_score
        )
        return {d: s * self.weight for d, s in hits}


@dataclass
class TagFilter(QueryNode):
    tags: list[str]
    mode: str = "any"  # any | all (reference: dsl.py:102-156)
    weight: float = 1.0

    def execute(self, ctx):
        langs = ctx.doc_langs()
        tags = [t.strip().lower() for t in self.tags]  # reference: dsl.py:117
        if self.mode == "all" and len(tags) > 1:
            return {}  # one lang column → can't satisfy two distinct tags
        mask = np.isin(langs["lang"], np.asarray(tags))
        return {int(d): 1.0 * self.weight for d in langs["doc_id"][mask]}


@dataclass
class AndQuery(QueryNode):
    operands: list[QueryNode] = field(default_factory=list)

    def execute(self, ctx):
        results = [op.execute(ctx) for op in self.operands]
        if not results:
            return {}
        common = set(results[0])
        for r in results[1:]:
            common &= set(r)
        return {d: sum(r[d] for r in results) for d in common}


@dataclass
class OrQuery(QueryNode):
    operands: list[QueryNode] = field(default_factory=list)

    def execute(self, ctx):
        out: dict[int, float] = {}
        for op in self.operands:
            for d, s in op.execute(ctx).items():
                if d not in out or s > out[d]:
                    out[d] = s
        return out


@dataclass
class NotQuery(QueryNode):
    base: QueryNode
    exclude: QueryNode

    def execute(self, ctx):
        base = self.base.execute(ctx)
        excl = self.exclude.execute(ctx)
        return {d: s for d, s in base.items() if d not in excl}


class DSLParseError(ValueError):
    pass


FUNC_RE = re.compile(
    r"^\s*(TEXT|AND|OR|NOT|EXCLUDE|WEIGHT|TAG|PHRASE|NEAR|PREFIX|FUZZY"
    r"|WILDCARD|REGEX)\s*\(", re.S
)


class DSLParser:
    """Infix grammar → AST (reference: ``dsl.py:288-399``), plus the
    function-style grammar the reference *defines* for LLM output but
    never implements a parser for (``llm.py:399-425``):
    ``TEXT("x")``, ``AND(e, ...)``, ``OR(e, ...)``,
    ``EXCLUDE(base, excluded)``, ``WEIGHT(e, w)``, ``TAG("en")``.

    ``tokenize`` is the searcher's query tokenizer: a text operand it
    reduces to no tokens (``((``) adds no text leaf, so an operand with
    nothing else is refused.  Without it every non-blank text counts.
    """

    def __init__(self, tokenize=None) -> None:
        self._tokenize = tokenize

    def parse(self, query: str) -> QueryNode:
        query = query.strip()
        if not query:
            raise DSLParseError("empty query")
        if FUNC_RE.match(query):
            node, rest = self._parse_func(query)
            if rest.strip():
                raise DSLParseError(f"trailing input after expression: {rest!r}")
            return node
        # protect quoted phrases BEFORE the operator split: AND/OR/NOT
        # inside quotes are literal phrase words, not operators (else
        # '"rock AND roll"' silently degrades to a bag-of-words AND)
        stash: list[str] = []

        def _stash(m: "re.Match[str]") -> str:
            stash.append(m.group(1))
            return f'"\x00{len(stash) - 1}\x00"'

        masked = PHRASE_RE.sub(_stash, query)
        self._phrase_stash = stash
        try:
            if OP_RE.search(masked):
                return self._parse_or(masked)
            return self._parse_simple(masked)
        finally:
            self._phrase_stash = []

    # --- function-style grammar (recursive descent) ---

    def _parse_func(self, s: str) -> tuple[QueryNode, str]:
        m = FUNC_RE.match(s)
        if not m:
            raise DSLParseError(f"expected FUNC( at: {s[:40]!r}")
        name = m.group(1)
        rest = s[m.end():]
        args: list = []
        while True:
            rest = rest.lstrip()
            if not rest:
                raise DSLParseError("unterminated call")
            if rest[0] == ")":
                rest = rest[1:]
                break
            if rest[0] == ",":
                rest = rest[1:]
                continue
            if rest[0] in "\"'":
                quote = rest[0]
                end = rest.find(quote, 1)
                if end < 0:
                    raise DSLParseError("unterminated string literal")
                args.append(rest[1:end])
                rest = rest[end + 1:]
            elif FUNC_RE.match(rest):
                node, rest = self._parse_func(rest)
                args.append(node)
            else:
                lit = re.match(r"[\d.]+", rest)
                if not lit:
                    raise DSLParseError(f"unexpected token at: {rest[:20]!r}")
                args.append(float(lit.group(0)))
                rest = rest[lit.end():]
        return self._build_func(name, args), rest

    def _build_func(self, name: str, args: list) -> QueryNode:
        def as_node(a):
            if isinstance(a, QueryNode):
                return a
            if isinstance(a, str):
                return TextQuery(a)
            raise DSLParseError(f"expected expression, got {a!r}")

        if name == "TEXT":
            if len(args) != 1 or not isinstance(args[0], str):
                raise DSLParseError("TEXT() takes one string")
            return TextQuery(args[0])
        if name == "PHRASE":
            if (
                not args or not isinstance(args[0], str) or len(args) > 2
                or (len(args) == 2 and not isinstance(args[1], float))
            ):
                raise DSLParseError(
                    "PHRASE() takes one string and an optional numeric slop"
                )
            slop = int(args[1]) if len(args) == 2 else 0
            if slop < 0:
                raise DSLParseError("PHRASE() slop must be >= 0")
            return PhraseQuery(args[0], slop=slop)
        if name == "NEAR":
            if (
                not args or not isinstance(args[0], str) or len(args) > 2
                or (len(args) == 2 and not isinstance(args[1], float))
            ):
                raise DSLParseError(
                    "NEAR() takes one string and an optional numeric window"
                )
            window = int(args[1]) if len(args) == 2 else 5
            if window < 0:
                raise DSLParseError("NEAR() window must be >= 0")
            if window > 2**31 - 1:
                # engine tag-block invariant (positions + window < 2^31)
                raise DSLParseError(
                    f"NEAR() window must be <= {2**31 - 1}")
            return NearQuery(args[0], window=window)
        if name.lower() in EXPANSION_KINDS:
            if len(args) != 1 or not isinstance(args[0], str):
                raise DSLParseError(f"{name}() takes one string")
            return ExpandQuery(name.lower(), args[0])
        if name == "TAG":
            if not args or not all(isinstance(a, str) for a in args):
                raise DSLParseError("TAG() takes strings")
            return TagFilter(list(args), "any")
        if name == "AND":
            if len(args) < 2:
                raise DSLParseError("AND() needs ≥2 operands")
            return AndQuery([as_node(a) for a in args])
        if name == "OR":
            if len(args) < 2:
                raise DSLParseError("OR() needs ≥2 operands")
            return OrQuery([as_node(a) for a in args])
        if name in ("NOT", "EXCLUDE"):
            if len(args) != 2:
                raise DSLParseError(f"{name}() takes (base, excluded)")
            return NotQuery(as_node(args[0]), as_node(args[1]))
        if name == "WEIGHT":
            if len(args) != 2 or not isinstance(args[1], float):
                raise DSLParseError("WEIGHT() takes (expr, number)")
            node = as_node(args[0])
            if isinstance(
                node, (TextQuery, TagFilter, PhraseQuery, ExpandQuery)
            ):
                node.weight = args[1]
                return node
            raise DSLParseError("WEIGHT() applies to leaf nodes")
        raise DSLParseError(f"unknown function {name}")

    # --- operator levels: OR (loosest) → AND → NOT (tightest) ---

    def _parse_or(self, q: str) -> QueryNode:
        parts = re.split(r"\bOR\b", q)
        if len(parts) > 1:
            return OrQuery([self._parse_and(p) for p in parts])
        return self._parse_and(q)

    def _parse_and(self, q: str) -> QueryNode:
        parts = re.split(r"\bAND\b", q)
        if len(parts) > 1:
            return AndQuery([self._parse_not(p) for p in parts])
        return self._parse_not(q)

    def _parse_not(self, q: str) -> QueryNode:
        parts = re.split(r"\bNOT\b", q)
        node = self._parse_simple(parts[0])
        for ex in parts[1:]:
            node = NotQuery(base=node, exclude=self._parse_simple(ex))
        return node

    # --- leaves ---

    def _parse_simple(self, q: str) -> QueryNode:
        q = q.strip()
        if not q:
            raise DSLParseError("empty operand")
        weight = 1.0
        wm = WEIGHT_RE.search(q)
        if wm:
            weight = float(wm.group(1))
            q = WEIGHT_RE.sub("", q)
        phrases = PHRASE_SLOP_RE.findall(q)  # [(content, slop_digits)]
        q = PHRASE_SLOP_RE.sub("", q)
        # restore phrases masked by parse() (quoted-operator protection)
        stash = getattr(self, "_phrase_stash", [])
        phrases = [
            (
                stash[int(m.group(1))]
                if (m := re.fullmatch("\x00(\\d+)\x00", p))
                and int(m.group(1)) < len(stash)
                else p,
                int(slop_s) if slop_s else 0,
            )
            for p, slop_s in phrases
        ]
        # expansion tokens before tags/text (their trailing * / ~ would
        # otherwise be stripped by the tokenizer and silently degrade
        # to exact-term queries)
        wilds = WILD_TOKEN_RE.findall(q)
        q = WILD_TOKEN_RE.sub("", q)
        # classify: `word*` (one trailing star, no other metachar) keeps
        # the dedicated prefix path; every other glob shape is a wildcard
        prefixes = [w[:-1] for w in wilds
                    if w.endswith("*") and re.fullmatch(r"\w+\*", w)]
        wildcards = [w for w in wilds if not re.fullmatch(r"\w+\*", w)]
        fuzzies = FUZZY_TOKEN_RE.findall(q)
        q = FUZZY_TOKEN_RE.sub("", q)
        tags = TAG_RE.findall(q)
        text = TAG_RE.sub("", q).strip()
        leaves: list[QueryNode] = []
        if text and (self._tokenize is None or self._tokenize(text)):
            leaves.append(TextQuery(text, weight))
        for ph, slop in phrases:
            if ph.strip():
                leaves.append(PhraseQuery(ph, weight, slop))
        for kind, probes in (("prefix", prefixes), ("wildcard", wildcards),
                             ("fuzzy", fuzzies)):
            leaves += [ExpandQuery(kind, a, weight) for a in probes]
        if tags:
            leaves.append(TagFilter(tags, "any", weight))
        if not leaves:
            raise DSLParseError(f"no terms or tags in operand: {q!r}")
        if len(leaves) == 1:
            return leaves[0]
        return AndQuery(leaves)  # implicit AND (reference: dsl.py:350-366)


class DSLContext:
    def __init__(self, searcher, limit: int, threshold: float, min_score: float):
        self.searcher = searcher
        self.limit = limit
        self.threshold = threshold
        self.min_score = min_score
        self._langs = None

    def doc_langs(self):
        if self._langs is None:
            s = self.searcher
            if getattr(s, "all_ids", None) is not None and hasattr(
                s, "doc_values"
            ):
                # reuse the searcher's resident doc values (loaded once
                # per searcher) instead of re-scanning docs/ metadata
                # per executor — same rows, rank order
                dv = s.doc_values(["lang"])
                c = dv.cols["lang"]
                self._langs = {
                    "doc_id": dv.all_ids,
                    "lang": np.where(
                        c.values >= 0, c.categories[c.values], ""
                    ),
                }
            else:  # searchers without a resident universe (shard views)
                import os

                ds = pads.dataset(os.path.join(s.index_dir, "docs"))
                t = ds.to_table(columns=["doc_id", "lang"])
                self._langs = {
                    "doc_id": t["doc_id"].to_numpy(),
                    "lang": np.asarray(t["lang"].to_pylist()),
                }
        return self._langs


class DSLExecutor:
    """Parse → execute tree → threshold/sort/truncate
    (reference: ``dsl.py:402-483``)."""

    def __init__(self, searcher) -> None:
        self.searcher = searcher
        self.parser = DSLParser(getattr(searcher, "_tokenize", None))

    def execute_query(
        self, query_string: str, limit: int = 50, threshold: float = 0.0
    ) -> list[tuple[int, float]]:
        node = self.parser.parse(query_string)
        ctx = DSLContext(self.searcher, limit=limit, threshold=threshold, min_score=0.0)
        scored = node.execute(ctx)
        items = [(d, s) for d, s in scored.items() if s >= threshold]
        items.sort(key=lambda x: (-x[1], x[0]))
        return items[:limit]

    def facets(
        self,
        query_string: str,
        by: "list[str] | None" = None,
        histograms: "dict[str, float] | None" = None,
        sums: "dict[str, str] | None" = None,
        top: "int | None" = None,
        where=None,
        date_histograms: "dict[str, str] | None" = None,
    ) -> dict:
        """Facet panel over a DSL query's FULL membership (leaves run
        unbounded so set algebra sees complete id sets, mirroring the
        membership pipelines) — aggregation itself is the searcher's
        doc-value kernels (``engine.facet_panel``)."""
        import numpy as np

        from refimage_ray.query.engine import facet_panel

        node = self.parser.parse(query_string)
        ctx = DSLContext(self.searcher, limit=10**9, threshold=0.0,
                         min_score=0.0)
        ids = np.sort(np.fromiter(node.execute(ctx).keys(), np.int64))
        ranks = self.searcher._ranks_of(ids)
        return facet_panel(self.searcher, ranks, by, histograms, sums, top,
                           where, date_histograms)
