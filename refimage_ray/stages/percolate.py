"""Percolator — reverse search: a STORED query set matched against a
streaming corpus (the Elasticsearch percolate-query analog).  The
reference searches forward only (``/root/reference/src/refimage/
api.py:273-348``); this is the inverse primitive a training-data
ingest pipeline needs to ROUTE incoming webtext to curation /
alerting rules expressed in the same DSL the search side speaks.

Scale shape (100 TB honest): the query set is the SMALL side — parsed
and compiled ONCE per worker in ``Percolator.__init__`` (actor pool);
documents stream through ``map_batches`` and never shuffle.  Per batch
the text is tokenized ONCE with the same Arrow kernels as the index
build (``stages.tokenize._flat_tokens``), dictionary-encoded, and each
query leaf reduces to a numpy boolean mask over batch rows:

- exact terms: one ``np.isin`` over the int32 code array;
- prefix / wildcard / fuzzy / regex leaves: ONE vectorized Arrow
  string kernel over the batch's UNIQUE terms (the dictionary), then
  the same code-isin — fuzzy uses ``expand.lev1_regex`` (a closed-form
  distance-≤1 alternation) so no per-term Python loop exists;
- phrases / proximity: the tagged sorted-intersection chain — the same
  shape as ``engine._verify_phrase_positions`` — over candidate rows
  that already contain every phrase token;
- ``#tag`` leaves: an ``np.isin`` over the batch's ``lang`` column;
- AND / OR / NOT: boolean mask algebra.

Output is ``(query_id, doc_id)`` match pairs — tiny relative to the
corpus, safe to sort/aggregate downstream.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.functions.text import tokenize
from refimage_ray.query.dsl import (
    AndQuery,
    DSLParser,
    ExpandQuery,
    NotQuery,
    OrQuery,
    NearQuery,
    PhraseQuery,
    QueryNode,
    TagFilter,
    TextQuery,
)
from refimage_ray.query.expand import lev1_regex, normalize_probe, wildcard_to_regex

PERCOLATE_SCHEMA = pa.schema(
    [pa.field("query_id", pa.string()), pa.field("doc_id", pa.int64())]
)

_SHIFT = np.int64(1) << np.int64(32)


class _BatchContext:
    """Lazy per-batch tokenization shared by every query's evaluation.

    ``codes``/``parent`` come flat in row order (rows ascending,
    positions ascending within a row) — the phrase chain depends on
    that ordering.
    """

    def __init__(self, batch: pa.Table, cfg: EngineConfig) -> None:
        self.batch = batch
        self.cfg = cfg
        self.n = batch.num_rows
        self._tok: tuple[np.ndarray, np.ndarray, pa.Array] | None = None
        self._pos: np.ndarray | None = None

    def tokens(self) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        """(codes, parent_rows, dictionary) — dictionary = the batch's
        unique terms; codes index into it."""
        if self._tok is None:
            from refimage_ray.stages.tokenize import _flat_tokens

            flat, parent = _flat_tokens(self.batch["text"], self.cfg)
            enc = flat.dictionary_encode()
            if isinstance(enc, pa.ChunkedArray):  # pragma: no cover
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            self._tok = (codes, parent, enc.dictionary)
        return self._tok

    def positions(self) -> np.ndarray:
        """Token position within its row (same construction as
        ``tokenize_batch``'s positional path)."""
        if self._pos is None:
            _, parent, _ = self.tokens()
            counts = np.bincount(parent, minlength=self.n)
            starts = np.zeros(self.n, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            self._pos = np.arange(len(parent), dtype=np.int64) - starts[parent]
        return self._pos

    # -- term-id resolution ------------------------------------------------
    def ids_of_terms(self, terms: list[str]) -> np.ndarray:
        _, _, dictionary = self.tokens()
        if not terms or len(dictionary) == 0:
            return np.empty(0, np.int64)
        idx = pc.index_in(
            pa.array(sorted(set(terms)), pa.string()), value_set=dictionary
        )
        idx = pc.filter(idx, pc.is_valid(idx))
        return idx.to_numpy(zero_copy_only=False).astype(np.int64)

    def ids_matching_regex(self, anchored: str) -> np.ndarray:
        """Dictionary term-ids fully matching ``anchored`` (a
        ``^(?:...)$`` pattern).  Arrow's RE2 kernel first; Python
        ``re`` fallback for constructs RE2 rejects (lookaround etc.),
        keeping parity with ``expand.regex_matches``."""
        _, _, dictionary = self.tokens()
        if len(dictionary) == 0:
            return np.empty(0, np.int64)
        try:
            hit = pc.match_substring_regex(dictionary, pattern=anchored)
            return np.flatnonzero(
                hit.to_numpy(zero_copy_only=False).astype(bool)
            ).astype(np.int64)
        except pa.ArrowInvalid:
            rx = re.compile(anchored)
            vals = dictionary.to_pylist()
            return np.array(
                [i for i, t in enumerate(vals) if t is not None and rx.search(t)],
                dtype=np.int64,
            )

    def mask_of_term_ids(self, ids: np.ndarray) -> np.ndarray:
        """Rows containing ANY of the dictionary term-ids."""
        mask = np.zeros(self.n, dtype=bool)
        if len(ids):
            codes, parent, _ = self.tokens()
            mask[parent[np.isin(codes, ids)]] = True
        return mask


def _tag_mask(node: TagFilter, ctx: _BatchContext) -> np.ndarray:
    if "lang" not in ctx.batch.column_names:
        raise ValueError(
            "percolating a #tag query needs a 'lang' column in the batch"
        )
    tags = [t.strip().lower() for t in node.tags]
    if node.mode == "all" and len(tags) > 1:  # one lang column (dsl.TagFilter)
        return np.zeros(ctx.n, dtype=bool)
    langs = np.asarray(ctx.batch["lang"].to_numpy(zero_copy_only=False))
    return np.isin(langs, np.asarray(tags))


def _phrase_mask(node: PhraseQuery, ctx: _BatchContext) -> np.ndarray:
    """Ordered-proximity containment per row — the tagged-int chain of
    ``engine._verify_phrase_positions`` restricted to rows that pass
    the conjunctive prefilter."""
    toks = tokenize(node.text, ctx.cfg.token_pattern)
    if not toks:
        return np.ones(ctx.n, dtype=bool)  # mirrors engine._contains_phrase
    uniq = sorted(set(toks))
    tids: dict[str, int] = {}
    for t in uniq:
        ids = ctx.ids_of_terms([t])
        if len(ids) == 0:  # token absent from the whole batch
            return np.zeros(ctx.n, dtype=bool)
        tids[t] = int(ids[0])
    cand = np.ones(ctx.n, dtype=bool)
    for t in uniq:
        cand &= ctx.mask_of_term_ids(np.array([tids[t]], dtype=np.int64))
    rows = np.flatnonzero(cand)
    if len(rows) == 0 or len(toks) == 1:
        return cand
    codes, parent, _ = ctx.tokens()
    pos = ctx.positions()
    candpos = np.full(ctx.n, -1, dtype=np.int64)
    candpos[rows] = np.arange(len(rows), dtype=np.int64)
    in_cand = candpos[parent] >= 0
    seg = {}
    for t in uniq:
        sel = (codes == tids[t]) & in_cand
        seg[t] = candpos[parent[sel]] * _SHIFT + pos[sel]
    alive = seg[toks[0]]
    for t in toks[1:]:
        nxt = seg[t]
        parts = [
            probe[np.isin(probe, nxt)]
            for d in range(1, node.slop + 2)
            for probe in (alive + np.int64(d),)
        ]
        alive = np.unique(np.concatenate(parts)) if parts else alive[:0]
        if len(alive) == 0:
            break
    keep = np.zeros(ctx.n, dtype=bool)
    if len(alive):
        keep[rows[np.unique(alive // _SHIFT)]] = True
    return keep


def _near_mask(node, ctx: _BatchContext) -> np.ndarray:
    """Unordered-proximity containment per row — the anchor identity
    of ``engine._verify_near_positions`` over the batch's tagged token
    streams (some position ``p`` with every distinct term in
    ``[p, p + window]``)."""
    toks = tokenize(node.text, ctx.cfg.token_pattern)
    if not toks:
        return np.ones(ctx.n, dtype=bool)
    uniq = sorted(set(toks))
    tids: dict[str, int] = {}
    for t in uniq:
        ids = ctx.ids_of_terms([t])
        if len(ids) == 0:
            return np.zeros(ctx.n, dtype=bool)
        tids[t] = int(ids[0])
    cand = np.ones(ctx.n, dtype=bool)
    for t in uniq:
        cand &= ctx.mask_of_term_ids(np.array([tids[t]], dtype=np.int64))
    rows = np.flatnonzero(cand)
    if len(rows) == 0 or len(uniq) == 1:
        return cand
    codes, parent, _ = ctx.tokens()
    pos = ctx.positions()
    candpos = np.full(ctx.n, -1, dtype=np.int64)
    candpos[rows] = np.arange(len(rows), dtype=np.int64)
    in_cand = candpos[parent] >= 0
    seg = {}
    for t in uniq:
        sel = (codes == tids[t]) & in_cand
        seg[t] = np.sort(candpos[parent[sel]] * _SHIFT + pos[sel])
    anchors = np.unique(np.concatenate(list(seg.values())))
    alive = np.ones(len(anchors), dtype=bool)
    w = np.int64(node.window)
    for t in uniq:
        s = seg[t]
        j = np.searchsorted(s, anchors, side="left")
        alive &= (j < len(s)) & (s[np.minimum(j, len(s) - 1)] <= anchors + w)
    keep = np.zeros(ctx.n, dtype=bool)
    hit = anchors[alive]
    if len(hit):
        keep[rows[np.unique(hit // _SHIFT)]] = True
    return keep


#: expansion kind → the anchored regex over the batch dictionary that
#: matches exactly the terms its normalized probe expands to
_KIND_REGEX = {
    "prefix": lambda probe: "^" + re.escape(probe),
    "fuzzy": lev1_regex,
    "wildcard": lambda probe: "^(?:" + wildcard_to_regex(probe) + ")$",
    "regex": lambda probe: f"^(?:{probe})$",
}


def _eval(node: QueryNode, ctx: _BatchContext) -> np.ndarray:
    """Boolean membership mask over the batch's rows.  Weights are
    irrelevant for percolation (boolean matching, like ES percolate)."""
    if isinstance(node, TextQuery):
        toks = tokenize(node.text, ctx.cfg.token_pattern)
        return ctx.mask_of_term_ids(ctx.ids_of_terms(toks))  # disjunctive
    if isinstance(node, NearQuery):
        return _near_mask(node, ctx)
    if isinstance(node, PhraseQuery):
        return _phrase_mask(node, ctx)
    if isinstance(node, ExpandQuery):
        probe = normalize_probe(
            node.kind, node.arg, lambda s: tokenize(s, ctx.cfg.token_pattern)
        )
        return ctx.mask_of_term_ids(
            ctx.ids_matching_regex(_KIND_REGEX[node.kind](probe))
        )
    if isinstance(node, TagFilter):
        return _tag_mask(node, ctx)
    if isinstance(node, AndQuery):
        masks = [_eval(op, ctx) for op in node.operands]
        if not masks:
            return np.zeros(ctx.n, dtype=bool)
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return out
    if isinstance(node, OrQuery):
        out = np.zeros(ctx.n, dtype=bool)
        for op in node.operands:
            out |= _eval(op, ctx)
        return out
    if isinstance(node, NotQuery):
        return _eval(node.base, ctx) & ~_eval(node.exclude, ctx)
    raise TypeError(f"percolator cannot evaluate {type(node).__name__}")


class Percolator:
    """``map_batches`` callable: compile the stored query set once per
    actor, emit ``(query_id, doc_id)`` pairs per batch.  Queries may
    use either DSL grammar (infix or function-style)."""

    def __init__(
        self, queries: dict[str, str], cfg: EngineConfig = DEFAULT_CONFIG
    ) -> None:
        parser = DSLParser()
        self.cfg = cfg
        self.compiled: list[tuple[str, QueryNode]] = [
            (qid, parser.parse(q)) for qid, q in sorted(queries.items())
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return PERCOLATE_SCHEMA.empty_table()
        ctx = _BatchContext(batch, self.cfg)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for qid, ast in self.compiled:
            mask = _eval(ast, ctx)
            if mask.any():
                hits = doc_ids[mask]
                out_q.append(np.full(len(hits), qid, dtype=object))
                out_d.append(hits)
        if not out_q:
            return PERCOLATE_SCHEMA.empty_table()
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.string()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )


def percolate(
    docs,
    queries: dict[str, str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    concurrency: tuple[int, int] | int | None = (1, 8),
):
    """Match a documents Dataset (``doc_id``, ``text``[, ``lang``])
    against ``queries`` (query_id → DSL string).  Returns a streaming
    Dataset of ``(query_id, doc_id)`` pairs — the corpus is read once,
    never shuffled, and the match set is the only thing that moves."""
    return docs.map_batches(
        Percolator,
        fn_constructor_args=(queries, cfg),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
