"""Top-k BM25 query serving — local searcher + shard actor pool.

Reference analog: the query server holding the FAISS index resident in
memory and answering top-k with a score threshold
(``/root/reference/src/refimage/search/__init__.py:202-266``), plus
the metadata join that drops ids without metadata
(``/root/reference/src/refimage/api.py:575-588``).

Two serving modes:

- :class:`LocalSearcher` — whole index in-process (tests, small
  corpora, the oracle comparison path).
- :class:`DistributedSearcher` — an actor pool; each actor loads the
  posting lists of its assigned term-shards **once in __init__** (the
  load-once pattern of the reference's CLIP model,
  ``clip_model.py:36-83``) and serves per-term postings; the driver
  merges and scores in the canonical term order so results are
  bit-identical to the oracle regardless of actor count.

Scoring paths (all bit-identical; asserted three ways in tests):

- disjunctive DEFAULT: dense-rank TAAT — a load-time rank remap of
  posting doc_ids against the sorted corpus universe lets each term's
  contributions land in a dense float64 score array by fancy indexing;
  no per-query sort/unique/searchsorted (``_score_disjunctive_dense``).
- disjunctive sparse fallbacks (driver-merge serving, oracle paths):
  factorize+bincount TAAT, a MaxScore-pruned variant that skips
  non-essential posting unions then rescores candidates exactly, and a
  Block-Max MaxScore variant (``prune="blockmax"``) that additionally
  drops candidates by per-block upper bounds before the exact rescore.
- conjunctive (AND): candidate list from the rarest term, then
  vectorized galloping (binary-search) intersection against the other
  lists using the per-block ``block_last_doc`` fences to locate blocks
  — the block-max/skip-list machinery of the index format.
"""

from __future__ import annotations

import json as _json
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads

from refimage_ray.functions.hashing import blake2b64
from refimage_ray.functions.text import tokenize
from refimage_ray.index.reader import (
    IndexReader,
    TermPostings,
    attach_ranks,
    load_doc_universe,
)
from refimage_ray.query.expand import ExpansionOps, cap_expansion, expand_vocab
from refimage_ray.query.scorer import idf as _idf
from refimage_ray.query.scorer import check_page, query_terms, topk_select


def _score_disjunctive(
    term_map: dict[str, TermPostings], terms: list[str], n_docs: int,
    idf_fn=_idf,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical-order TAAT accumulation → (doc_ids, scores)."""
    parts_ids, parts_scores = [], []
    for term in terms:  # `terms` is already sorted unique
        p = term_map.get(term)
        if p is None or p.df == 0:
            continue
        parts_ids.append(p.doc_ids)
        parts_scores.append(idf_fn(p.df, n_docs) * p.weights)
    if not parts_ids:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    all_ids = np.concatenate(parts_ids)
    all_scores = np.concatenate(parts_scores)
    # hash-based accumulation (pd.factorize + bincount) is ~6× faster
    # than sort-based np.unique on stopword-sized unions, and both add
    # per doc in array order → BIT-identical float sums (tested)
    import pandas as pd

    codes, uniq = pd.factorize(all_ids, sort=False)
    scores = np.bincount(codes, weights=all_scores)
    return uniq.astype(np.int64), scores


def _score_disjunctive_dense(
    term_map: dict[str, TermPostings],
    terms: list[str],
    n_docs: int,
    n_universe: int,
    idf_fn=_idf,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense score-array TAAT over load-time ranks → (RANKS, scores).

    Each term's contribution lands by fancy indexing (``ranks`` are
    unique within a posting list, so ``+=`` is exact); terms are
    visited in ascending order, so every doc's float64 additions happen
    in exactly the order of the determinism contract — bit-identical to
    the factorize and MaxScore paths (asserted in tests).  Cost is
    O(Σ df) writes + one O(universe) scan: no per-query sort, unique,
    or binary search, which is what dominates stopword-sized unions.
    """
    base = _acquire_dense_buffer(n_universe)
    scores = base[:n_universe]
    # BM25 contributions are strictly positive (Lucene idf > 0,
    # weights > 0), so score > 0 IS the membership test and the second
    # (bool) scatter can be skipped; plugin scorers may emit zero or
    # negative contributions → keep an explicit touched mask for them.
    positive = idf_fn is _idf
    touched = None if positive else np.zeros(n_universe, bool)
    hit = False
    try:
        for term in terms:  # ascending unique terms → canonical float sums
            p = term_map.get(term)
            if p is None or p.df == 0 or p.ranks is None:
                continue
            scores[p.ranks] += idf_fn(p.df, n_docs) * p.weights
            if touched is not None:
                touched[p.ranks] = True
            hit = True
        if not hit:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        idx = np.flatnonzero(scores if touched is None else touched)
        out = scores[idx]  # fancy indexing copies — safe to reset below
        return idx, out
    finally:
        # restore the pooled buffer's all-zero contract by resetting
        # ONLY the touched positions (O(candidates), not O(universe));
        # on an interrupted scatter the touch set is unknown → full wipe
        if hit:
            try:
                scores[idx] = 0.0
            except NameError:
                scores[:] = 0.0
        _release_dense_buffer(base)


import threading as _threading

# Process-wide free-list of all-zero buffers (NOT thread-local: the
# HTTP shim's request workers are reused but unbounded in number — a
# burst starts new ones and the extras exit — so a per-thread pool
# would re-pay the O(universe) zeros on each new worker and pin one
# buffer per idle worker).
# acquire pops a fitting buffer or allocates; release returns it with
# the all-zero contract restored by the caller.  Bounded so a burst of
# concurrent queries can't pin unbounded memory.
_DENSE_POOL_LOCK = _threading.Lock()
_DENSE_POOL: "list[np.ndarray]" = []
_DENSE_POOL_MAX = 4


def _acquire_dense_buffer(n: int) -> np.ndarray:
    """Pop a reusable all-zero float64 buffer of length ≥ n (or
    allocate one).  A fresh ``np.zeros(universe)`` per query is an
    O(universe) allocate+memset (32 MB at 4M docs) that dominates
    small-query latency; the pool amortizes it to O(candidates) per
    query (the caller resets exactly the positions it touched, then
    calls :func:`_release_dense_buffer`)."""
    with _DENSE_POOL_LOCK:
        for i, b in enumerate(_DENSE_POOL):
            if len(b) >= n:
                return _DENSE_POOL.pop(i)
    return np.zeros(max(n, 1), np.float64)


def _release_dense_buffer(buf: np.ndarray) -> None:
    with _DENSE_POOL_LOCK:
        if len(_DENSE_POOL) < _DENSE_POOL_MAX:
            _DENSE_POOL.append(buf)
            # retain the largest buffers so a big-universe searcher's
            # buffer isn't evicted by small test indexes
            _DENSE_POOL.sort(key=len, reverse=True)
            del _DENSE_POOL[_DENSE_POOL_MAX:]


def _check_min_match(min_match, mode: str) -> "int | None":
    """``min_match`` checked for ``search`` and ``count`` alike: the
    Lucene minimum_should_match analog keeps docs matching at least m
    DISTINCT query terms (an OR whose membership is tightened), so it
    must be >= 1 and applies to mode='or'.  m=1 is plain OR and comes
    back None, which keeps the pruned fast paths."""
    if min_match is None:
        return None
    min_match = int(min_match)
    if min_match < 1:
        raise ValueError(f"min_match must be >= 1, got {min_match}")
    if mode != "or":
        raise ValueError("min_match applies to mode='or'")
    return None if min_match == 1 else min_match


def _gallop_member(p: TermPostings, candidates: np.ndarray) -> np.ndarray:
    """Membership mask of candidates in p.doc_ids, using block fences
    to narrow then binary search within (vectorized skip + search)."""
    if len(p.block_last_doc) > 1:
        blk = np.searchsorted(p.block_last_doc, candidates)
        in_range = blk < len(p.block_last_doc)
    else:
        in_range = np.ones(len(candidates), dtype=bool)
    idx = np.searchsorted(p.doc_ids, candidates)
    ok = (idx < len(p.doc_ids)) & in_range
    ok[ok] = p.doc_ids[idx[ok]] == candidates[ok]
    return ok


def _maxscore_candidates(
    term_map: dict[str, TermPostings], terms: list[str], n_docs: int,
    k: int, threshold: float, idf_fn,
) -> tuple[list, float, "np.ndarray | None"]:
    """MaxScore phase 1, shared by both pruned kernels: ``(infos, θ,
    candidates)``.  ``infos`` holds ``(term, postings, idf, ub = idf ·
    max_weight)`` per matching query term, in query-term order; θ is a
    lower bound on the kth final score (the kth-largest single-term
    contribution of the strongest term, or ``threshold``); candidates
    are the union of the essential lists (the minimal prefix by
    descending ub whose remaining suffix sums below θ), or None when
    fewer than k survive (nothing to prune)."""
    infos = []
    for t in terms:
        p = term_map.get(t)
        if p is None or p.df == 0:
            continue
        t_idf = idf_fn(p.df, n_docs)
        infos.append((t, p, t_idf, t_idf * p.max_weight))
    if not infos:
        return infos, threshold, np.zeros(0, np.int64)
    by_ub = sorted(infos, key=lambda x: (-x[3], x[0]))

    contrib1 = by_ub[0][2] * by_ub[0][1].weights
    if len(contrib1) >= k > 0:
        theta = float(-np.partition(-contrib1, k - 1)[k - 1])
    else:
        theta = float("-inf")
    theta = max(theta, threshold)

    ubs = np.array([x[3] for x in by_ub])
    suffix = np.concatenate((np.cumsum(ubs[::-1])[::-1], [0.0]))
    # minimal essential prefix: suffix sum strictly below θ is prunable
    j = len(by_ub)
    for i in range(1, len(by_ub) + 1):
        if suffix[i] < theta:
            j = i
            break
    cand = np.unique(np.concatenate([x[1].doc_ids for x in by_ub[:j]]))
    return infos, theta, (cand if len(cand) >= k else None)


def _rescore(infos: list, cand: np.ndarray) -> np.ndarray:
    """Exact scores of ``cand`` over every term of ``infos``,
    accumulated in query-term order → canonical float sums."""
    scores = np.zeros(len(cand), np.float64)
    for _, p, t_idf, _ in infos:
        idx = np.searchsorted(p.doc_ids, cand)
        ok = idx < len(p.doc_ids)
        ok[ok] = p.doc_ids[idx[ok]] == cand[ok]
        scores[ok] += t_idf * p.weights[idx[ok]]
    return scores


def _topk_disjunctive_pruned(
    term_map: dict[str, TermPostings],
    terms: list[str],
    n_docs: int,
    k: int,
    threshold: float,
    idf_fn=_idf,
) -> tuple[np.ndarray, np.ndarray]:
    """MaxScore-style top-k with EXACT results.

    Terms are ranked by upper bound ``ub = idf · max_weight`` (the
    term-level block-max metadata).  A lower bound θ on the final kth
    score comes from the kth-largest single-term contribution of the
    strongest term; every term in the maximal suffix with Σub < θ is
    *non-essential* — a doc appearing only there can never reach the
    top-k.  Candidates = union of essential postings; candidates are
    then EXACTLY rescored against all query terms in ascending-term
    order (the determinism contract), so results are bit-identical to
    the unpruned path — asserted in tests.  The win: stopword-sized
    lists are never unioned, only probed by binary search.
    """
    infos, _, cand = _maxscore_candidates(term_map, terms, n_docs, k,
                                          threshold, idf_fn)
    if cand is None:  # not enough candidates → no pruning possible
        return _score_disjunctive(term_map, terms, n_docs, idf_fn)
    return cand, _rescore(infos, cand)


def _topk_disjunctive_blockmax(
    term_map: dict[str, TermPostings],
    terms: list[str],
    n_docs: int,
    k: int,
    threshold: float,
    idf_fn=_idf,
) -> tuple[np.ndarray, np.ndarray]:
    """Block-Max MaxScore top-k with EXACT results — the block-level
    refinement the index's per-block metadata exists for (reference
    north-star: per-block max-score metadata for block-max WAND).

    Phase 1 (term-level MaxScore, as `_topk_disjunctive_pruned`):
    partition terms into essential/non-essential by upper bound
    ``ub = idf · max_weight`` against θ (kth-largest single-term
    contribution of the strongest term); candidates = union of the
    essential lists.

    Phase 2 (block-level): per candidate, an upper bound on its FINAL
    score — for every query term, ``idf · block_max_weight[block
    containing the candidate]`` (a per-block bound, found by one
    searchsorted against the ``block_last_doc`` fences — O(log
    n_blocks) per probe instead of O(log df) for the exact weight).
    Candidates whose bound falls strictly below θ are dropped before
    the exact rescore.

    Exactness: θ is a valid lower bound on the kth final score (a
    doc's float64 final sum of non-negative contributions is ≥ each
    individual contribution, by monotonicity of round-to-nearest).
    The bound accumulates per term in ascending-term order — the same
    order as the exact rescore — and each per-term bound term ≥ the
    exact contribution, so by monotone rounding the accumulated bound
    is ≥ the final score, bitwise.  A dropped candidate therefore has
    final score < θ ≤ kth score and cannot enter the top-k even via
    the (score desc, doc_id asc) tie-break.  Survivors are rescored
    exactly → bit-identical to the unpruned path (asserted in tests).
    """
    infos, theta, cand = _maxscore_candidates(term_map, terms, n_docs, k,
                                              threshold, idf_fn)
    if cand is None:  # not enough candidates → no pruning possible
        return _score_disjunctive(term_map, terms, n_docs, idf_fn)

    # per-candidate upper bound, ascending-term order (= rescore order).
    # Every term is bounded at BLOCK granularity — one searchsorted
    # against the (df/block_size)-long fence array per term, O(log
    # n_blocks) per probe, much cheaper than the O(log df) exact probe
    # the rescore pays — so the bound pass costs a small fraction of
    # the rescore it saves.
    bound = np.zeros(len(cand), np.float64)
    for t, p, t_idf, _ in infos:  # infos is already in ascending-term order
        blk = np.searchsorted(p.block_last_doc, cand)
        ok = blk < len(p.block_last_doc)
        ub_t = np.zeros(len(cand), np.float64)
        ub_t[ok] = t_idf * p.block_max_weight[blk[ok]]
        bound += ub_t
    cand = cand[bound >= theta]
    return cand, _rescore(infos, cand)


def _score_conjunctive(
    term_map: dict[str, TermPostings], terms: list[str], n_docs: int,
    idf_fn=_idf,
) -> tuple[np.ndarray, np.ndarray]:
    plists = []
    for term in terms:
        p = term_map.get(term)
        if p is None or p.df == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        plists.append((term, p))
    # drive from the rarest list (classic conjunctive optimization)
    driver = min(plists, key=lambda tp: tp[1].df)[1]
    candidates = driver.doc_ids
    for term, p in plists:
        if p is driver:
            continue
        candidates = candidates[_gallop_member(p, candidates)]
        if len(candidates) == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
    scores = np.zeros(len(candidates), np.float64)
    for term, p in plists:  # ascending term order → canonical float sums
        idx = np.searchsorted(p.doc_ids, candidates)
        scores += idf_fn(p.df, n_docs) * p.weights[idx]
    return candidates, scores


class _SearcherBase(ExpansionOps):
    n_docs: int
    avgdl: float = 1.0
    # sorted doc_id universe for dense-rank TAAT (None → sparse paths)
    all_ids: "np.ndarray | None" = None
    # the artifact's token_pattern (from its manifest) — query-side
    # tokenization must match what the BUILD tokenized with, or terms
    # indexed under a custom pattern become unreachable
    token_pattern: "str | None" = None
    # the artifact's post-tokenize term transform (analysis chain) —
    # same symmetry requirement as token_pattern
    term_filter: str = "none"

    def _tokenize(self, text: str) -> list[str]:
        return tokenize(text, self.token_pattern, self.term_filter)

    def _term_map(self, terms: list[str]) -> dict[str, TermPostings]:
        raise NotImplementedError

    # --- doc values (query-time metadata filters + facets) ---

    def doc_values(self, columns: list[str]):
        """Rank-aligned doc-value columns, loaded lazily ONCE per
        searcher and extended column-by-column on first use (the
        load-once residency class of ``all_ids`` itself) — see
        ``index/docvalues.py``.  Requires a resident doc_id universe
        (``MultiSearcher`` and value-less docpart shard views have
        none): masks and facet kernels are universe-rank-aligned."""
        if self.all_ids is None or not hasattr(self, "index_dir"):
            raise ValueError(
                "doc values require a searcher with a resident doc_id "
                "universe and an index_dir"
            )
        from refimage_ray.index.docvalues import load_doc_values

        have = getattr(self, "_dv", None)
        need = [c for c in columns if have is None or c not in have.cols]
        if need:
            fresh = load_doc_values(self.index_dir, need, self.all_ids)
            if have is None:
                self._dv = have = fresh
            else:
                have.cols.update(fresh.cols)
        return self._dv

    def _ranks_of(self, ids: np.ndarray) -> np.ndarray:
        """Universe ranks of candidate doc_ids (candidates always come
        from posting lists, which load-time validation guarantees are a
        subset of the universe)."""
        if self.all_ids is None:
            raise ValueError(
                "filtered/faceted search requires a searcher with a "
                "resident doc_id universe (doc-value masks are rank-aligned)"
            )
        return np.searchsorted(self.all_ids, ids)

    def _doc_texts(self, ids: np.ndarray) -> dict:
        """doc_id → stored text for ``ids``, from the artifact's
        ``docs/`` store — the text-verify fallback of the positional
        operators (phrase, phrase_prefix, near, rescore) on an artifact
        built without positions."""
        index_dir = getattr(self, "index_dir", None)
        if index_dir is None:
            raise ValueError(
                "this searcher has no docs/ text store to verify against; "
                "build the artifact with store_positions=True"
            )
        t = pads.dataset(os.path.join(index_dir, "docs")).to_table(
            columns=["doc_id", "text"],
            filter=pc.field("doc_id").isin(ids.tolist()))
        return dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    def _match_ranks_scores(
        self,
        term_map: "dict[str, TermPostings]",
        terms: list[str],
        mode: str,
        idf_fn=_idf,
    ) -> tuple[np.ndarray, np.ndarray]:
        """EXACT full match set as (universe ranks, scores) — the basis
        for filtered top-k and facet rollups.  Pruned evaluation is
        deliberately not used here: MaxScore's θ is a bound on the kth
        UNFILTERED score, and a filter can push the true filtered kth
        score below θ, making the pruned candidate set incomplete."""
        if mode == "and":
            ids, scores = _score_conjunctive(term_map, terms, self.n_docs, idf_fn)
            return self._ranks_of(ids), scores
        if self.all_ids is not None and all(
            term_map[t].ranks is not None for t in terms if t in term_map
        ):
            return _score_disjunctive_dense(
                term_map, terms, self.n_docs, len(self.all_ids), idf_fn
            )
        ids, scores = _score_disjunctive(term_map, terms, self.n_docs, idf_fn)
        return self._ranks_of(ids), scores

    def _min_match_mask(
        self,
        term_map: "dict[str, TermPostings]",
        terms: list[str],
        ranks: np.ndarray,
        m: int,
    ) -> np.ndarray:
        """Boolean mask over candidate ``ranks``: does the doc match at
        least ``m`` distinct query terms?  Counting is one concatenate
        + unique over the query terms' posting ranks — O(query posting
        mass), the same order as scoring itself."""
        parts = []
        for t in terms:  # terms is already unique (query_terms)
            p = term_map.get(t)
            if p is None or p.df == 0:
                continue
            parts.append(
                p.ranks if p.ranks is not None else self._ranks_of(p.doc_ids)
            )
        return _count_mask(parts, ranks, m)

    def _rescore_map(
        self, term_map: dict[str, TermPostings], scorer_name: str,
        terms: "list[str] | None" = None,
    ) -> dict[str, TermPostings]:
        """Plugin-scorer path: recompute per-posting weights from the
        stored (tf, dl) columns with an alternative Scorer — the
        end-to-end payoff of persisting ``dls`` in the artifact.
        idf is swapped per-call in the scoring functions via df, so
        only weights need rebuilding here.  ``terms`` restricts the
        rescore to the QUERY's terms — LocalSearcher's term_map is the
        whole vocabulary, and rescoring it all would be O(total
        postings) per query."""
        from dataclasses import replace

        from refimage_ray.extension import get_scorer

        sc = get_scorer(scorer_name)
        if terms is not None:
            term_map = {t: term_map[t] for t in terms if t in term_map}
        out = {}
        for t, p in term_map.items():
            if p.dls is None:
                raise ValueError(
                    "index lacks per-posting doc lengths; rebuild to use "
                    f"scorer={scorer_name!r}"
                )
            w = sc.weight(
                p.tfs.astype(np.float64), p.dls.astype(np.float64), self.avgdl
            )
            out[t] = replace(p, weights=w, max_weight=float(w.max()) if len(w) else 0.0)
        return out

    def search(
        self,
        query: str,
        k: int = 10,
        threshold: float = 0.0,
        mode: str = "or",
        prune: "bool | str" = True,  # False | True (MaxScore) | "blockmax"
        scorer: str = "bm25",
        synonyms: "dict[str, list[str]] | None" = None,
        where=None,  # [(col, op, value), ...] | {col: value} doc-value filter
        order_by: "tuple[str, str] | None" = None,  # (col, "asc"|"desc")
        offset: int = 0,
        min_match: int | None = None,  # ≥m distinct query terms (OR only)
        after: "tuple[float, int] | None" = None,  # (score, doc_id) cursor
        boost=None,  # DecaySpec — multiplicative doc-value decay
    ) -> list[tuple[int, float]]:
        # pagination (LIMIT k OFFSET n over the same total order): fetch
        # the top (k+offset) and slice — every scoring path's ordering
        # is total and deterministic (score desc then doc_id asc, or
        # the order_by key), so page boundaries never shift between
        # requests against the same artifact
        kk = check_page(k, offset)
        terms = query_terms(self._tokenize(query))
        if synonyms:
            # synonym expansion widens the match set, which only has a
            # well-defined meaning disjunctively (an AND over the union
            # would *require* every synonym — the opposite of intent)
            if mode != "or":
                raise ValueError("synonyms expansion requires mode='or'")
            from refimage_ray.query.expand import expand_synonyms

            terms = expand_synonyms(terms, synonyms, self._tokenize)
        term_map = self._term_map(terms)
        return self._finish_search(
            term_map, terms, kk, threshold, mode, prune, scorer,
            where, order_by, min_match, after, boost,
        )[offset:]

    def search_weighted(
        self,
        pairs: "list[tuple[str, float]]",
        k: int = 10,
        threshold: float = float("-inf"),
    ) -> list[tuple[int, float]]:
        """Exact weighted disjunctive top-k (Lucene boosted-OR):
        ``score(d) = Σ_t w_t · idf_t · tfnorm(d, t)``.

        Unlike the DSL's ``^w`` leaves — which score each leaf's own
        top-``limit`` hits and merge, an approximation whenever a doc
        is in no leaf's prefix but its SUM is top-k — this is ONE
        exact TAAT pass over the query terms' postings, so it admits
        a full SQL value oracle.  Backs :func:`more_like_this`.
        Duplicate terms sum their weights; weights must be > 0 (the
        positive-contribution membership contract of BM25 scoring).

        Reference analog: weighted multi-tag search
        (``/root/reference/src/refimage/dsl.py`` weight nodes), made
        exact at the postings level.
        """
        check_page(k)
        wmap: dict[str, float] = {}
        for t, w in pairs:
            if not (w > 0):
                raise ValueError(f"weight for {t!r} must be > 0, got {w}")
            wmap[t] = wmap.get(t, 0.0) + float(w)
        if not wmap:
            return []
        terms = sorted(wmap)
        term_map = self._term_map(terms)
        parts_ids, parts_scores = [], []
        for term in terms:  # ascending unique → canonical float sums
            p = term_map.get(term)
            if p is None or p.df == 0:
                continue
            parts_ids.append(p.doc_ids)
            # (w·idf) scalar first, then the tfnorm vector — the same
            # association as the oracle's (qw * idf) * tfnorm
            parts_scores.append(
                (wmap[term] * _idf(p.df, self.n_docs)) * p.weights
            )
        if not parts_ids:
            return []
        import pandas as pd

        codes, uniq = pd.factorize(np.concatenate(parts_ids), sort=False)
        scores = np.bincount(codes, weights=np.concatenate(parts_scores))
        ids, sc = topk_select(uniq.astype(np.int64), scores, k, threshold)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    def _finish_search(
        self,
        term_map: "dict[str, TermPostings]",
        terms: list[str],
        k: int,
        threshold: float,
        mode: str,
        prune: "bool | str",
        scorer: str,
        where=None,
        order_by: "tuple[str, str] | None" = None,
        min_match: int | None = None,
        after: "tuple[float, int] | None" = None,
        boost=None,  # DecaySpec
    ) -> list[tuple[int, float]]:
        """Scoring half of :meth:`search` — separated so batch serving
        (``search_many``) can overlap many queries' postings RPCs
        before scoring each.  The disjunctive kernel is chosen from the
        lists, not by the caller: dense-rank TAAT when ``prune`` is the
        default ``True``, the universe is resident, every query term
        carries ranks and the query's posting mass is at least 1/32 of
        the universe; otherwise the sparse kernel ``prune`` names."""
        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        if after is not None:
            # search_after cursor (deep pagination): the strict
            # continuation of the (score desc, doc_id asc) total order
            # past the cursor — O(k) per page regardless of depth,
            # unlike offset's k+offset fetch.  The cursor is a
            # (doc_id, score) pair, i.e. EXACTLY a hit tuple, so
            # ``after=page[-1]`` continues a page.  Scores are
            # bit-stable across requests (deterministic accumulation
            # order), so the float equality in the tie arm is exact.
            try:
                a_id, a_score = int(after[0]), float(after[1])
            except (TypeError, ValueError, IndexError):
                raise ValueError(
                    f"after must be a (doc_id, score) hit tuple, got {after!r}"
                )
            if order_by is not None:
                raise ValueError(
                    "after= cursors the score order; it cannot combine "
                    "with order_by"
                )
            after = (a_id, a_score)
        min_match = _check_min_match(min_match, mode)
        idf_fn = _idf
        if scorer != "bm25":
            term_map = self._rescore_map(term_map, scorer, terms)
            from refimage_ray.extension import get_scorer

            idf_fn = get_scorer(scorer).idf
        if (min_match is not None or after is not None) and \
                where is None and order_by is None and boost is None:
            # exact evaluation + count/cursor mask (pruned θ bounds only
            # the unconstrained OR, so pruning is bypassed — same
            # argument as doc-value filters below).  Id-based, so it
            # works on searchers without a resident rank universe too.
            if mode == "and":
                ids, scores = _score_conjunctive(term_map, terms,
                                                 self.n_docs, idf_fn)
            else:
                ids, scores = _score_disjunctive(term_map, terms,
                                                 self.n_docs, idf_fn)
            if min_match is not None:
                parts = [term_map[t].doc_ids for t in terms
                         if t in term_map and term_map[t].df > 0]
                keep = _count_mask(parts, ids, min_match)
                ids, scores = ids[keep], scores[keep]
            if after is not None:
                keep = _after_mask(ids, scores, after)
                ids, scores = ids[keep], scores[keep]
            ids, scores = topk_select(ids, scores, k, threshold)
            return list(zip(ids.tolist(), scores.tolist()))
        if where is not None or order_by is not None or boost is not None:
            # doc-value filter / field ordering / decay boost: exact full
            # evaluation, then an O(candidates) rank-aligned mask probe,
            # then top-k.  The pruned strategies are bypassed on purpose —
            # their θ bound is valid only against the unfiltered,
            # unboosted corpus (see _match_ranks_scores), and field
            # ordering isn't score-correlated at all.
            from refimage_ray.index.docvalues import where_columns

            cols = set(where_columns(where)) if where is not None else set()
            order_keys: "list[tuple[str, str]]" = []
            if order_by is not None:
                order_keys = _normalize_order_by(order_by)
                cols.update(c for c, _ in order_keys)
            if boost is not None:
                cols.add(boost.col)
            dv = self.doc_values(sorted(cols))
            ranks, scores = self._match_ranks_scores(
                term_map, terms, mode, idf_fn
            )
            if min_match is not None:
                keep = self._min_match_mask(term_map, terms, ranks, min_match)
                ranks, scores = ranks[keep], scores[keep]
            if where is not None:
                keep = dv.mask(where)[ranks]
                ranks, scores = ranks[keep], scores[keep]
            if boost is not None:
                # multiplicative decay BEFORE threshold/cursor/top-k:
                # those all gate on the FINAL score order
                scores = scores * boost.factors(dv.cols[boost.col], ranks)
            if after is not None:  # order_by+after already rejected
                keep = _after_mask(self.all_ids[ranks], scores, after)
                ranks, scores = ranks[keep], scores[keep]
            if order_by is None:
                # ranks sort like doc_ids (all_ids is sorted), so
                # topk_select's (score desc, id asc) tie-break holds
                ranks, scores = topk_select(ranks, scores, k, threshold)
                return list(zip(self.all_ids[ranks].tolist(), scores.tolist()))
            # field ordering (ORDER BY col1 dir1[, col2 dir2, ...],
            # doc_id ASC LIMIT k): threshold gates on score EXACTLY
            # like topk_select (only when > 0, so plugin scorers with
            # zero/negative contributions keep the same match set with
            # or without ordering); sort keys are doc-value columns.
            # Integer keys (incl. timestamp µs) sort as int64 — no
            # float round-trip, so nearby timestamps never reorder;
            # categorical codes sort lexicographically (the dictionary
            # is sorted), nulls always last in either direction of
            # their own key.
            if threshold > 0.0:
                m = scores >= threshold
                ranks, scores = ranks[m], scores[m]
            keys = [
                _order_key(dv.cols[ocol], ranks, odir)
                for ocol, odir in order_keys
            ]
            # np.lexsort: LAST key is primary → doc_id tiebreak first,
            # then the order columns reversed
            sel = np.lexsort(tuple([ranks] + keys[::-1]))[:k]
            ranks, scores = ranks[sel], scores[sel]
            return list(zip(self.all_ids[ranks].tolist(), scores.tolist()))
        use_dense = (
            # a string prune value (e.g. "blockmax") is an explicitly
            # requested evaluation strategy — only the default
            # prune=True may auto-route to the dense fast path
            prune is True
            and self.all_ids is not None
            # check only the QUERY's terms — LocalSearcher's term_map is
            # the whole vocabulary and an all-values scan would cost
            # O(|vocab|) per query
            and all(
                term_map[t].ranks is not None for t in terms if t in term_map
            )
            # cost-based switch: the dense pass pays an O(universe)
            # candidate scan regardless of query size, so when the
            # query's posting mass is a tiny fraction of the universe
            # the MaxScore-pruned sparse path wins (measured crossover
            # ≈ universe/32 total df at 4M docs; both paths are
            # bit-identical, so this is latency-only)
            and sum(term_map[t].df for t in terms if t in term_map) * 32
            >= len(self.all_ids)
        )
        if mode == "and":
            ids, scores = _score_conjunctive(term_map, terms, self.n_docs, idf_fn)
        elif use_dense:
            # dense-rank TAAT (resident-index fast path); ranks sort
            # like doc_ids, so topk_select's tie-break is unchanged
            ranks, scores = _score_disjunctive_dense(
                term_map, terms, self.n_docs, len(self.all_ids), idf_fn
            )
            ranks, scores = topk_select(ranks, scores, k, threshold)
            return list(zip(self.all_ids[ranks].tolist(), scores.tolist()))
        elif prune == "blockmax":
            ids, scores = _topk_disjunctive_blockmax(
                term_map, terms, self.n_docs, k, threshold, idf_fn
            )
        elif prune:
            ids, scores = _topk_disjunctive_pruned(
                term_map, terms, self.n_docs, k, threshold, idf_fn
            )
        else:
            ids, scores = _score_disjunctive(term_map, terms, self.n_docs, idf_fn)
        ids, scores = topk_select(ids, scores, k, threshold)
        return list(zip(ids.tolist(), scores.tolist()))

    def search_phrase(
        self,
        phrase: str,
        k: int = 10,
        threshold: float = 0.0,
        offset: int = 0,
        slop: int = 0,
    ) -> list[tuple[int, float]]:
        """Phrase top-k: conjunctive candidates from the index, then
        ordered-proximity verification — ``slop=0`` is the exact phrase
        (adjacent tokens), ``slop=s`` allows up to ``s`` interleaved
        tokens per consecutive pair, IN ORDER (the match-phrase
        proximity knob; unlike Lucene's edit-distance slop, reordering
        never matches).  Verification runs against the positional index
        when present, else the stored text (tokenized with THE
        tokenizer, so index/verify symmetry holds).  Scores are the
        BM25 scores of the phrase's terms.

        Scale note: text-fallback verification fetches candidate texts
        — fine while conjunctive candidate sets are modest; the
        positional index is the scale path.
        """
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        kk = check_page(k, offset)
        phrase_tokens = self._tokenize(phrase)
        if not phrase_tokens:
            return []
        terms = query_terms(phrase_tokens)
        term_map = self._term_map(terms)
        cand, scores = _score_conjunctive(term_map, terms, self.n_docs)
        if len(cand) == 0:
            return []
        positional = all(
            t in term_map and term_map[t].positions is not None for t in terms
        )
        if positional:
            keep = _verify_phrase_positions(term_map, phrase_tokens, cand, slop)
        else:
            # fallback: fetch candidate texts and re-tokenize (exact, but
            # requires the docs artifact; positional indexes skip this IO)
            ok_ids = {
                d for d, txt in self._doc_texts(cand).items()
                if _contains_phrase(self._tokenize(txt), phrase_tokens, slop)
            }
            keep = np.array([d in ok_ids for d in cand.tolist()], dtype=bool)
        ids, sc = topk_select(cand[keep], scores[keep], kk, threshold)
        return list(zip(ids.tolist(), sc.tolist()))[offset:]

    def search_phrase_prefix(
        self,
        phrase: str,
        k: int = 10,
        threshold: float = 0.0,
        offset: int = 0,
        slop: int = 0,
        max_expansions: int = 128,
    ) -> list[tuple[int, float]]:
        """Search-as-you-type phrase top-k (the ES
        ``match_phrase_prefix`` analog): the LAST token is a prefix,
        expanded against the term dictionary (the deterministic
        ``cap_expansion`` rule), and each expansion completes the
        phrase; a doc scores the MAX over its matching completions.

        Exact: postings for the head terms AND every completion are
        resolved in ONE ``_term_map`` round (one scatter on the
        distributed searchers); each completion's conjunctive
        candidates verify against the shared positional postings (or,
        on position-free artifacts, against candidate texts fetched
        ONCE for the union across completions), and full match sets
        merge under max-score before a single global top-k cut."""
        kk = check_page(k, offset)
        toks = self._tokenize(phrase)
        if not toks:
            return []
        head, last = toks[:-1], toks[-1]
        expansions = cap_expansion(self._expand_pairs("prefix", last),
                                   max_expansions)
        if not expansions:
            return []
        # resolve ALL postings once (one scatter round on distributed
        # searchers) instead of a full search_phrase per completion —
        # this is the per-keystroke hot path
        term_map = self._term_map(sorted({*head, *expansions}))
        per_exp: list[tuple[str, np.ndarray, np.ndarray]] = []
        for e in expansions:
            toks_e = [*head, e]
            cand, scores = _score_conjunctive(
                term_map, query_terms(toks_e), self.n_docs
            )
            if len(cand):
                per_exp.append((e, cand, scores))
        if not per_exp:
            return []
        texts_toks: "dict[int, list[str]] | None" = None
        if not all(
            term_map[t].positions is not None
            for e, _, _ in per_exp for t in query_terms([*head, e])
        ):
            # text fallback: ONE docs fetch + tokenize for the union
            # of candidates across completions
            union = np.unique(np.concatenate([c for _, c, _ in per_exp]))
            texts_toks = {d: self._tokenize(txt)
                          for d, txt in self._doc_texts(union).items()}
        best: dict[int, float] = {}
        for e, cand, scores in per_exp:
            toks_e = [*head, e]
            if texts_toks is None:
                keep = _verify_phrase_positions(term_map, toks_e, cand, slop)
            else:
                keep = np.array(
                    [_contains_phrase(texts_toks.get(d, []), toks_e, slop)
                     for d in cand.tolist()],
                    dtype=bool,
                )
            for d, s in zip(cand[keep].tolist(), scores[keep].tolist()):
                if d not in best or s > best[d]:
                    best[d] = s
        if not best:
            return []
        ids = np.fromiter(best.keys(), np.int64, len(best))
        sc = np.fromiter(best.values(), np.float64, len(best))
        out_ids, out_sc = topk_select(ids, sc, kk, threshold)
        return list(zip(out_ids.tolist(), out_sc.tolist()))[offset:]

    def search_near(
        self,
        query: str,
        window: int,
        k: int = 10,
        threshold: float = 0.0,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        """Unordered proximity top-k (classic boolean-IR ``NEAR/W``,
        the order-free complement of :meth:`search_phrase`): candidate
        matches iff SOME choice of one position per distinct query term
        spans at most ``window`` (max − min ≤ window), in ANY order.
        Scores are the terms' BM25 scores, like phrase search.

        Verification is exact and vectorized via the anchor identity:
        a qualifying window's minimum is some term's position ``p``, so
        the doc matches iff for some position ``p`` every term has a
        position in ``[p, p + window]`` — one searchsorted probe per
        term over tagged position streams, never a per-candidate loop.
        Text fallback (no positional index) re-tokenizes candidates,
        same as phrase search.
        """
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if window > 2**31 - 1:
            # positions and window must stay < 2^31 so `anchors + w`
            # can't cross the 2^32 candidate-tag block (see
            # _verify_near_positions); also keeps np.int64(window)
            # from raising OverflowError past 2^63
            raise ValueError(
                f"window must be <= {2**31 - 1}, got {window}")
        kk = check_page(k, offset)
        terms = query_terms(self._tokenize(query))
        if not terms:
            return []
        term_map = self._term_map(terms)
        cand, scores = _score_conjunctive(term_map, terms, self.n_docs)
        if len(cand) == 0:
            return []
        positional = all(
            t in term_map and term_map[t].positions is not None for t in terms
        )
        if positional:
            keep = _verify_near_positions(term_map, terms, cand, window)
        else:
            ok_ids = {
                d for d, txt in self._doc_texts(cand).items()
                if _contains_near(self._tokenize(txt), terms, window)
            }
            keep = np.array([d in ok_ids for d in cand.tolist()], dtype=bool)
        ids, sc = topk_select(cand[keep], scores[keep], kk, threshold)
        return list(zip(ids.tolist(), sc.tolist()))[offset:]

    def search_rescore(
        self,
        query: str,
        k: int = 10,
        window: int = 50,
        query_weight: float = 1.0,
        rescore_weight: float = 1.0,
        threshold: float = 0.0,
        mode: str = "or",
    ) -> list[tuple[int, float]]:
        """Two-phase ranking (the ES ``rescore`` window): exact BM25
        top-``window`` first, then the window is re-ranked by
        ``query_weight·bm25 + rescore_weight·prox`` where the proximity
        signal ``prox(d) = 1/(1+g)`` and ``g`` is the minimum
        |pos_i − pos_j| over all unordered pairs of distinct query
        terms both present in ``d`` (docs with <2 distinct query terms
        get prox = 0).  The expensive positional pass touches only
        ``window`` docs — the two-phase point.

        ``k <= window`` is required: docs outside the window are never
        rescored, so returning them would mix scoring domains (ES
        leaves that merge ambiguous; we forbid it).

        Positions come from the positional index when present
        (vectorized tagged-array nearest-neighbor, no per-candidate
        Python), else from re-tokenized candidate texts (bounded by
        ``window``, the same fallback class as ``search_phrase``).
        """
        check_page(k)
        if k > window:
            raise ValueError(f"k ({k}) must be <= window ({window})")
        base = self.search(query, k=window, threshold=threshold, mode=mode)
        if not base:
            return []
        terms = query_terms(self._tokenize(query))

        def gaps_of(cand_s: np.ndarray) -> np.ndarray:
            if len(terms) < 2:
                return np.full(len(cand_s), np.inf)
            term_map = self._term_map(terms)
            positional = all(
                term_map[t].positions is not None
                for t in terms if t in term_map
            )
            if positional:
                return _min_pair_gaps_positions(term_map, terms, cand_s)
            return _min_pair_gaps_texts(
                self._doc_texts(cand_s), terms, cand_s, self._tokenize
            )

        return _rescore_combine(base, gaps_of, k, query_weight,
                                rescore_weight)

    def search_grouped(
        self,
        query: str,
        by: str,
        k_per_group: int = 3,
        mode: str = "or",
        where=None,
        threshold: float = 0.0,
        groups: "list[str] | None" = None,
    ) -> list[tuple[str, int, float]]:
        """Grouped top-k: the best ``k_per_group`` hits per value of a
        categorical doc-value column (the ES ``top_hits``
        sub-aggregation / result-diversification shape — one result
        block per language, per source, ...).

        Exact: one full evaluation (facets' cost model), then a single
        lexsort by (group, score desc, doc_id asc) and a vectorized
        per-group prefix take — no per-group loop.  Null-valued docs
        form no group; ``groups`` restricts output to listed values.
        Returns ``(group_value, doc_id, score)`` rows, groups in
        dictionary (lexicographic) order, hits ranked within group.
        """
        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        from refimage_ray.index.docvalues import where_columns

        cols = sorted(
            {by} | (set(where_columns(where)) if where is not None else set())
        )
        dv = self.doc_values(cols)
        c = dv.cols[by]
        if not c.is_categorical:
            raise ValueError(f"search_grouped needs a categorical column, "
                             f"{by!r} is numeric")
        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        ranks, scores = self._match_ranks_scores(term_map, terms, mode)
        if where is not None:
            keep = dv.mask(where)[ranks]
            ranks, scores = ranks[keep], scores[keep]
        if threshold > 0.0:  # topk_select parity
            keep = scores >= threshold
            ranks, scores = ranks[keep], scores[keep]
        codes = c.values[ranks]
        keep = codes >= 0  # null group values form no group
        if groups is not None:
            idx = np.searchsorted(c.categories, groups)
            wanted = np.asarray(
                [int(i) for i, g in zip(idx, groups)
                 if i < len(c.categories) and c.categories[i] == g],
                dtype=codes.dtype,
            )
            keep &= np.isin(codes, wanted)
        ranks, scores, codes = ranks[keep], scores[keep], codes[keep]
        if len(ranks) == 0:
            return []
        order = np.lexsort((ranks, -scores, codes))
        ranks, scores, codes = ranks[order], scores[order], codes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1]))
        )
        pos = np.arange(len(codes)) - np.repeat(
            starts, np.diff(np.concatenate((starts, [len(codes)])))
        )
        take = pos < k_per_group
        ids = self.all_ids[ranks[take]]
        return [
            (str(c.categories[g]), int(d), float(s))
            for g, d, s in zip(codes[take].tolist(), ids.tolist(),
                               scores[take].tolist())
        ]

    def count(
        self,
        query: str,
        mode: str = "or",
        where=None,
        min_match: "int | None" = None,
    ) -> int:
        """Exact number of matching documents — the hit-count surface
        (Elasticsearch ``_count``; the reference reports result counts
        on its list endpoints, ``api.py:397-409``).  Membership is
        mode-exact (OR = any query term, AND = all), optionally
        narrowed by ``min_match`` (≥m distinct query terms, OR only)
        and a ``where`` doc-value predicate.  No scoring, no top-k:
        one exact membership evaluation + O(candidates) mask probes."""
        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        min_match = _check_min_match(min_match, mode)
        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        if where is None:
            # rank-free path: plain counts must work on searchers with
            # no resident doc_id universe (e.g. value-less docpart
            # shard views) — ids suffice when no doc-value mask probes
            if mode == "and":
                ids, _ = _score_conjunctive(term_map, terms, self.n_docs)
            else:
                ids, _ = _score_disjunctive(term_map, terms, self.n_docs)
            if min_match is not None:
                parts = [term_map[t].doc_ids for t in terms
                         if t in term_map and term_map[t].df > 0]
                ids = ids[_count_mask(parts, ids, min_match)]
            return int(len(ids))
        ranks, _ = self._match_ranks_scores(term_map, terms, mode)
        if min_match is not None:
            ranks = ranks[self._min_match_mask(term_map, terms, ranks, min_match)]
        from refimage_ray.index.docvalues import where_columns

        dv = self.doc_values(sorted(set(where_columns(where))))
        ranks = ranks[dv.mask(where)[ranks]]
        return int(len(ranks))

    def facets(
        self,
        query: str,
        by: "list[str] | None" = None,
        mode: str = "or",
        where=None,
        histograms: "dict[str, float] | None" = None,
        top: int | None = None,
        sums: "dict[str, str] | None" = None,
        date_histograms: "dict[str, str] | None" = None,
        percentiles: "dict[str, list[float]] | None" = None,
    ) -> dict:
        """Facet aggregation over the FULL match set (not just top-k) —
        what a search UI renders beside the hit list (Elasticsearch
        terms/histogram aggregations; the reference's nearest analog is
        TagFilter's whole-table metadata scan, ``dsl.py:128-153``,
        repaid here by resident doc values).

        ``by``: categorical columns → (value, count) sorted count desc.
        ``histograms``: {numeric column: bucket width} → ascending
        fixed-width buckets.  ``sums``: {categorical column: numeric
        column} → per-bucket SUM of the numeric column (the ES
        sub-aggregation shape, e.g. tokens per language).  ``where``
        pre-filters the match set with the same predicate language as
        filtered search.  Membership is mode-exact (OR = any query
        term, AND = all terms); thresholds don't apply — facets count
        matches, not scores.

        Cost: one exact evaluation (the same work an unpruned query
        does) + one bincount per facet column over the match ranks.
        """
        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        ranks, _ = self._match_ranks_scores(term_map, terms, mode)
        return facet_panel(self, ranks, by, histograms, sums, top, where,
                           date_histograms, percentiles)

    def composite(
        self,
        query: str,
        by: list[str],
        size: int = 10,
        after: "tuple | None" = None,
        mode: str = "or",
        where=None,
    ) -> dict:
        """ES ``composite`` aggregation over the match set: distinct
        key-tuple buckets of the given categorical doc-value columns,
        ordered by key ASC and paged with an exclusive ``after``
        cursor — aggregation pagination that stays bounded regardless
        of bucket cardinality (unlike ``facets(top=...)``, which ranks
        by count and cannot page).  Returns ``{"buckets": [...],
        "after_key": tuple | None}``.
        """
        from refimage_ray.index.docvalues import where_columns

        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        ranks, _ = self._match_ranks_scores(term_map, terms, mode)
        cols = sorted(
            set(by) | (set(where_columns(where)) if where is not None
                       else set())
        )
        dv = self.doc_values(cols)
        if where is not None:
            ranks = ranks[dv.mask(where)[ranks]]
        buckets, after_key = dv.composite_counts(list(by), ranks, size, after)
        return {"buckets": buckets, "after_key": after_key}

    def composite_all(
        self,
        query: str,
        by: list[str],
        mode: str = "or",
        after: "tuple | None" = None,
        where=None,
    ) -> list[dict]:
        """EVERY composite bucket past the cursor — no size bound.

        The scatter primitive behind the doc-partitioned layout's
        exact composite paging: a size-bounded per-shard page
        truncates other shards' counts for boundary keys (the ES
        ``shard_size`` problem), so each shard instead returns its
        FULL ``(key, count)`` list after ``after`` and the caller
        merges additively before cutting the page.  Bounded by the
        distinct key-tuple count (the same cardinality assumption
        facets make), not by the match size.
        """
        return self.composite(
            query, by, size=2**62, after=after, mode=mode, where=where
        )["buckets"]

    def define_runtime_field(
        self, name: str, sources: "list[str]", fn
    ) -> None:
        """ES runtime-field analog: register a computed numeric doc
        value (``fn({source: ndarray}) -> ndarray``) that then behaves
        like any stored column in ``where`` / ``order_by`` / facets /
        percentiles.  Evaluated ONCE per searcher (cached DVColumn) —
        query-time cost is identical to a stored value."""
        from refimage_ray.index.docvalues import add_computed_column

        dv = self.doc_values(sources)  # loads sources, returns the store
        add_computed_column(dv, name, sources, fn)

    def match_values(
        self,
        query: str,
        cols: "list[str]",
        mode: str = "or",
        where=None,
        cap: int = 1_000_000,
    ) -> dict:
        """Gather the match set's raw numeric doc values (nulls
        dropped) — the primitive behind the doc-partitioned percentile
        path: each shard gathers ITS match values (bounded by ``cap``),
        the driver concatenates and rank-selects.  Raises when the
        match set exceeds ``cap`` — an unbounded gather is exactly the
        driver materialization this engine avoids everywhere else."""
        from refimage_ray.index.docvalues import where_columns

        if mode not in ("or", "and"):
            raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        ranks, _ = self._match_ranks_scores(term_map, terms, mode)
        need = sorted(
            set(cols) | (set(where_columns(where)) if where else set())
        )
        dv = self.doc_values(need)
        if where is not None:
            ranks = ranks[dv.mask(where)[ranks]]
        if len(ranks) > cap:
            raise ValueError(
                f"match set ({len(ranks)}) exceeds the gather cap ({cap})"
            )
        return {c: dv.numeric_values(c, ranks) for c in cols}

    def _match_numeric(self, query: str, col: str, mode, where) -> np.ndarray:
        """Match-set values of one numeric column (nulls dropped), NO
        cap — internal primitive of the bounded-exchange percentile
        rounds below (the values never leave this shard; only
        O(buckets) summaries do)."""
        from refimage_ray.index.docvalues import where_columns

        terms = query_terms(self._tokenize(query))
        term_map = self._term_map(terms)
        ranks, _ = self._match_ranks_scores(term_map, terms, mode)
        need = sorted({col} | (set(where_columns(where)) if where else set()))
        dv = self.doc_values(need)
        if where is not None:
            ranks = ranks[dv.mask(where)[ranks]]
        v = dv.numeric_values(col, ranks)
        # NaN-valued (non-null) entries would poison the bounds round
        # (min/max) and never land in any [lo, hi] bucket — exclude
        # them up front (SQL ORDER BY semantics, same rule as
        # stages/selection.kth_smallest)
        return v[~np.isnan(v)] if v.dtype.kind == "f" else v

    def match_value_stats(
        self, query: str, col: str, mode: str = "or", where=None
    ) -> tuple[int, float, float]:
        """(n_valid, min, max) of the match set's values — the O(1)
        bounds round of the histogram-bisection percentile path (the
        above-cap alternative to :meth:`match_values`)."""
        v = self._match_numeric(query, col, mode, where)
        if len(v) == 0:
            return 0, float("nan"), float("nan")
        return int(len(v)), float(v.min()), float(v.max())

    def match_value_histogram(
        self, query: str, col: str, mode: str, where,
        lo: float, hi: float, buckets: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One histogram-bisection round: per-bucket (count, data-min,
        data-max) of the match values inside [lo, hi] — O(buckets)
        returned regardless of match-set size."""
        from refimage_ray.stages.selection import local_histogram_pass

        v = self._match_numeric(query, col, mode, where)
        _, counts, bmin, bmax = local_histogram_pass(v, lo, hi, buckets)
        return counts, bmin, bmax

    def match_value_bucket(
        self, query: str, col: str, mode: str, where,
        lo: float, hi: float, buckets: int, j: int,
    ) -> np.ndarray:
        """The surviving bucket's values (the final collect round —
        bounded by the driver's collect_cap check before it asks)."""
        from refimage_ray.stages.selection import local_collect_pass

        v = self._match_numeric(query, col, mode, where)
        return local_collect_pass(v, lo, hi, buckets, j)


def facet_panel(
    searcher,
    ranks: np.ndarray,
    by: "list[str] | None" = None,
    histograms: "dict[str, float] | None" = None,
    sums: "dict[str, str] | None" = None,
    top: int | None = None,
    where=None,
    date_histograms: "dict[str, str] | None" = None,
    percentiles: "dict[str, list[float]] | None" = None,
) -> dict:
    """Aggregation tail shared by :meth:`_SearcherBase.facets` and
    ``DSLExecutor.facets``: given match ranks, apply an optional
    doc-value filter and compute the requested counts / histograms /
    metric sums from the searcher's resident doc values."""
    from refimage_ray.index.docvalues import where_columns

    by = list(by or [])
    histograms = dict(histograms or {})
    sums = dict(sums or {})
    date_histograms = dict(date_histograms or {})
    percentiles = dict(percentiles or {})
    cols = sorted(
        set(by) | set(histograms) | set(sums) | set(sums.values())
        | set(date_histograms) | set(percentiles)
        | (set(where_columns(where)) if where is not None else set())
    )
    dv = searcher.doc_values(cols) if cols else None
    if where is not None:
        ranks = ranks[dv.mask(where)[ranks]]
    out = {
        "total": int(len(ranks)),
        "facets": {c: dv.facet_counts(c, ranks, top) for c in by},
        "histograms": {
            c: dv.facet_histogram(c, ranks, w) for c, w in histograms.items()
        },
    }
    if date_histograms:
        out["date_histograms"] = {
            c: dv.facet_date_histogram(c, ranks, iv)
            for c, iv in date_histograms.items()
        }
    if percentiles:
        out["percentiles"] = {
            c: dv.facet_percentiles(c, ranks, qs)
            for c, qs in percentiles.items()
        }
    if sums:
        out["sums"] = {
            c: dv.facet_sums(c, vc, ranks, top) for c, vc in sums.items()
        }
    return out


def _normalize_order_by(order_by) -> list[tuple[str, str]]:
    """Canonical ``[(col, dir), ...]`` from the accepted sugar: a
    single ``(col, dir)`` tuple, or a list of them (multi-key sort —
    the ES ``sort`` array shape)."""
    if (
        isinstance(order_by, (tuple, list))
        and len(order_by) == 2
        and all(isinstance(x, str) for x in order_by)
    ):
        order_by = [tuple(order_by)]
    out = []
    for item in order_by:
        ocol, odir = item
        if odir not in ("asc", "desc"):
            raise ValueError(
                f"order_by direction must be 'asc' or 'desc', got {odir!r}"
            )
        out.append((ocol, odir))
    if not out:
        raise ValueError("order_by needs at least one (column, direction)")
    return out


def _order_key(c, ranks: np.ndarray, odir: str) -> np.ndarray:
    """One order column → a sortable key over the candidate ranks
    (int64 for integer/categorical columns, nulls pushed last)."""
    key = c.values[ranks]
    if key.dtype.kind in "iu" or c.is_categorical:
        key = key.astype(np.int64)
    nm = c.null_mask()
    null = nm[ranks] if nm is not None else None
    if odir == "desc":
        key = -key
    if null is not None and null.any():
        # key is already a private copy (fancy indexing above)
        key[null] = (
            np.iinfo(np.int64).max if key.dtype.kind == "i" else np.inf
        )
    return key


def _verify_phrase_positions(
    term_map: dict[str, TermPostings], phrase_tokens: list[str],
    cand: np.ndarray, slop: int = 0,
) -> np.ndarray:
    """Proximity verification from the positional index: candidate doc
    matches iff the phrase tokens occur IN ORDER with each consecutive
    gap in [1, slop+1] — slop=0 is exact adjacency, slop=s allows up to
    s interleaved tokens per step (ordered proximity; unlike Lucene's
    edit-distance sloppy phrase, reordering never matches — documented
    choice, SQL-oracle-expressible).

    Vectorized over ALL candidates at once: each term's candidate
    positions are gathered ragged-flat, tagged with the candidate index
    in the high int64 bits (positions are int32 < 2^31 « the 2^32
    shift), so per phrase step the chain extension is slop+1 sorted-set
    intersections, never a per-candidate Python loop.  ``alive`` holds
    the tagged positions of the CURRENT token's chain ends."""
    from refimage_ray.index.pack import ragged_take

    nc = len(cand)
    shift = np.int64(1) << np.int64(32)
    seg: dict[str, np.ndarray] = {}
    for t in set(phrase_tokens):
        p = term_map[t]
        lens = p.tfs.astype(np.int64)
        idx = np.searchsorted(p.doc_ids, cand)  # cand ⊆ doc_ids (conjunctive)
        labels = np.repeat(np.arange(nc, dtype=np.int64), lens[idx])
        seg[t] = labels * shift + ragged_take(p.positions, lens, idx).astype(np.int64)
    alive = seg[phrase_tokens[0]]
    for t in phrase_tokens[1:]:
        nxt = seg[t]
        parts = [
            probe[np.isin(probe, nxt)]
            for d in range(1, slop + 2)
            for probe in (alive + np.int64(d),)
        ]
        alive = np.unique(np.concatenate(parts)) if parts else alive[:0]
        if len(alive) == 0:
            break
    keep = np.zeros(nc, dtype=bool)
    keep[alive // shift] = True
    return keep


def _verify_near_positions(
    term_map: dict[str, TermPostings], terms: list[str],
    cand: np.ndarray, window: int,
) -> np.ndarray:
    """Unordered-window verification from the positional index: doc
    matches iff some anchor position ``p`` (any term's occurrence) has
    every term occurring in ``[p, p + window]``.

    Tagged int64 streams like ``_verify_phrase_positions`` (candidate
    index in the high bits; ``p + window`` stays inside the tag block
    because positions and window are < 2^31 « the 2^32 shift).  Per
    term: one ``searchsorted(left)`` of all anchors into the term's
    sorted stream + an upper-bound check — O((Σtf)·m·log) vectorized,
    no per-candidate Python."""
    from refimage_ray.index.pack import ragged_take

    nc = len(cand)
    shift = np.int64(1) << np.int64(32)
    seg: dict[str, np.ndarray] = {}
    for t in set(terms):
        p = term_map[t]
        lens = p.tfs.astype(np.int64)
        idx = np.searchsorted(p.doc_ids, cand)  # cand ⊆ doc_ids
        labels = np.repeat(np.arange(nc, dtype=np.int64), lens[idx])
        seg[t] = labels * shift + ragged_take(
            p.positions, lens, idx
        ).astype(np.int64)
    anchors = np.unique(np.concatenate(list(seg.values())))
    alive = np.ones(len(anchors), dtype=bool)
    w = np.int64(window)
    for t in set(terms):
        s = seg[t]  # sorted: labels ascend, positions ascend within
        j = np.searchsorted(s, anchors, side="left")
        has = (j < len(s)) & (s[np.minimum(j, len(s) - 1)] <= anchors + w)
        alive &= has
    keep = np.zeros(nc, dtype=bool)
    keep[(anchors[alive] // shift)] = True
    return keep


def _contains_near(tokens: list[str], terms: list[str], window: int) -> bool:
    """Text-fallback twin of ``_verify_near_positions``."""
    occ = {t: [i for i, tok in enumerate(tokens) if tok == t]
           for t in set(terms)}
    if any(not v for v in occ.values()):
        return False
    anchors = sorted({i for v in occ.values() for i in v})
    for p in anchors:
        if all(
            any(p <= q <= p + window for q in v) for v in occ.values()
        ):
            return True
    return False


def _rescore_combine(
    base: list, gaps_of, k: int,
    query_weight: float, rescore_weight: float,
) -> list[tuple[int, float]]:
    """Shared tail of every two-phase rescore (term layout, docpart
    in-process, docpart distributed): ``base`` is the exact BM25
    top-window, ``gaps_of(cand_sorted)`` returns each candidate's min
    pairwise term-position gap (inf = no proximity signal), and the
    combined ``query_weight·bm25 + rescore_weight·prox`` top-k comes
    back under the standard (score desc, doc_id asc) order.  One copy
    keeps the cross-layout bit-parity the tests certify."""
    cand = np.array([d for d, _ in base], dtype=np.int64)
    base_sc = np.array([s for _, s in base], dtype=np.float64)
    order = np.argsort(cand)
    g = gaps_of(cand[order])
    prox = np.zeros(len(cand))
    finite = np.isfinite(g)
    prox[finite] = 1.0 / (1.0 + g[finite])
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    combined = query_weight * base_sc + rescore_weight * prox[inv]
    ids, sc = topk_select(cand, combined, k, float("-inf"))
    return [(int(d), float(s)) for d, s in zip(ids, sc)]


def _min_pair_gaps_positions(
    term_map: dict[str, TermPostings], terms: list[str], cand: np.ndarray,
) -> np.ndarray:
    """Per-candidate minimum |pos_i − pos_j| over unordered pairs of
    distinct query terms (the rescore proximity basis), from the
    positional index.  ``cand`` must be sorted ascending; candidates
    need NOT contain every term (disjunctive windows).

    Same tagged-int64 trick as ``_verify_phrase_positions``: positions
    carry their candidate index in the high bits, so each pair costs
    two searchsorted passes + one scatter-min — no per-candidate loop.
    """
    from refimage_ray.index.pack import ragged_take

    nc = len(cand)
    shift = np.int64(1) << np.int64(32)
    seg: dict[str, np.ndarray] = {}
    for t in query_terms(terms):
        p = term_map.get(t)
        if p is None or p.positions is None or p.df == 0:
            continue
        idx = np.searchsorted(p.doc_ids, cand)
        idx_c = np.minimum(idx, len(p.doc_ids) - 1)
        valid = p.doc_ids[idx_c] == cand
        if not valid.any():
            continue
        lens = p.tfs.astype(np.int64)
        sel = idx[valid]
        labels = np.repeat(
            np.flatnonzero(valid).astype(np.int64), lens[sel]
        )
        seg[t] = labels * shift + ragged_take(
            p.positions, lens, sel
        ).astype(np.int64)
    g = np.full(nc, np.inf)
    present = [t for t in sorted(seg) if len(seg[t])]
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            a, b = seg[present[i]], seg[present[j]]
            pos = np.searchsorted(b, a)
            # right neighbor: first b >= a (distance b - a)
            m = pos < len(b)
            same = np.zeros(len(a), dtype=bool)
            same[m] = (b[pos[m]] >> np.int64(32)) == (a[m] >> np.int64(32))
            if same.any():
                d = (b[pos[same]] - a[same]).astype(np.float64)
                np.minimum.at(g, (a[same] >> np.int64(32)), d)
            # left neighbor: last b < a (distance a - b)
            m = pos > 0
            same = np.zeros(len(a), dtype=bool)
            same[m] = (b[pos[m] - 1] >> np.int64(32)) == (
                a[m] >> np.int64(32)
            )
            if same.any():
                d = (a[same] - b[pos[same] - 1]).astype(np.float64)
                np.minimum.at(g, (a[same] >> np.int64(32)), d)
    return g


def _min_pair_gaps_texts(
    texts: dict, terms: list[str], cand: np.ndarray, tokenize,
) -> np.ndarray:
    """Text-fallback twin of ``_min_pair_gaps_positions``: each
    candidate's min pairwise gap from its re-tokenized text (``texts``:
    doc_id → text, bounded by the rescore window)."""
    tset = set(query_terms(terms))
    g = np.full(len(cand), np.inf)
    for ci, d in enumerate(cand.tolist()):
        toks = tokenize(texts.get(d, ""))
        occ = {t_: [] for t_ in tset}
        for i, tok in enumerate(toks):
            if tok in tset:
                occ[tok].append(i)
        present = [o for o in occ.values() if o]
        best = np.inf
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                for pi in present[i]:
                    for pj in present[j]:
                        best = min(best, abs(pi - pj))
        g[ci] = best
    return g


def _contains_phrase(tokens: list[str], phrase: list[str], slop: int = 0) -> bool:
    """Ordered-proximity containment (text-fallback twin of
    ``_verify_phrase_positions``): consecutive gaps in [1, slop+1]."""
    m = len(phrase)
    if m == 0:
        return True
    occ: list[list[int]] = [
        [i for i, tok in enumerate(tokens) if tok == t] for t in phrase
    ]
    alive = occ[0]
    for nxt in occ[1:]:
        if not alive:
            return False
        ok = set(alive)
        alive = [q for q in nxt if any(q - d in ok for d in range(1, slop + 2))]
    return bool(alive)


def _count_mask(parts: list, cand: np.ndarray, m: int) -> np.ndarray:
    """Mask over ``cand``: appears in at least ``m`` of the ``parts``
    arrays (each holding unique keys).  One concatenate + unique —
    O(query posting mass), same order as scoring."""
    if len(parts) < m:  # can't possibly reach m matches
        return np.zeros(len(cand), bool)
    uniq, counts = np.unique(np.concatenate(parts), return_counts=True)
    # every candidate comes from these same posting lists, so the
    # searchsorted position is always an exact hit
    return counts[np.searchsorted(uniq, cand)] >= m


def _after_mask(
    ids: np.ndarray, scores: np.ndarray, after: "tuple[int, float]"
) -> np.ndarray:
    """Strictly-after-the-cursor mask in the (score desc, doc_id asc)
    total order: score < cursor score, or equal score with a larger
    doc_id.  ``after`` is a (doc_id, score) hit tuple."""
    a_id, a_score = after
    return (scores < a_score) | ((scores == a_score) & (ids > a_id))


class LocalSearcher(_SearcherBase):
    """Whole index resident in one process (reference: FAISS + id list,
    ``search/__init__.py:57-60``)."""

    def __init__(self, index_dir: str) -> None:
        reader = IndexReader(index_dir)
        self.terms = reader.load_shards(None)
        self.n_docs = reader.n_docs
        self.avgdl = reader.avgdl
        self.token_pattern = reader.manifest["config"].get("token_pattern")
        self.term_filter = reader.manifest["config"].get("term_filter", "none")
        self.index_dir = index_dir
        self._expand_cache: dict = {}
        self.all_ids = load_doc_universe(index_dir)
        attach_ranks(self.terms, self.all_ids)

    def _term_map(self, terms: list[str]) -> dict[str, TermPostings]:
        return self.terms

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        return expand_vocab(self.terms, lambda t: self.terms[t].df,
                            self._expand_cache, kind, probe)


class ShardSearcher:
    """Actor body: loads assigned shards once, serves raw per-term postings."""

    def __init__(self, index_dir: str, shards: list[int]) -> None:
        self.terms = IndexReader(index_dir).load_shards(shards)
        self._expand_cache: dict = {}
        # every shard actor ranks against the SAME sorted universe (one
        # narrow docs/ column read), so the driver can merge rank-space
        # scores from any actor subset
        attach_ranks(self.terms, load_doc_universe(index_dir))

    def expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        """Expansion probe against THIS actor's resident vocabulary —
        term-hash routing scatters a prefix/fuzzy match set across
        shards, so the driver broadcasts the probe and unions."""
        return expand_vocab(self.terms, lambda t: self.terms[t].df,
                            self._expand_cache, kind, probe)

    def term_postings(self, terms: list[str]) -> dict[str, tuple]:
        out = {}
        for t in terms:
            p = self.terms.get(t)
            if p is not None:
                out[t] = (p.df, p.doc_ids, p.weights, p.max_weight,
                          p.block_last_doc, p.block_max_weight, p.tfs, p.dls,
                          p.positions, p.ranks)
        return out


class DistributedSearcher(_SearcherBase):
    """Shard-actor pool + driver-side canonical merge.

    Shard routing is a pure function of the term
    (``blake2b64(term) % P``), so the driver contacts only the actors
    owning the query's terms — no broadcast, no shuffle at query time.

    A driver-side LRU (``cache_bytes``, default 256 MB) keeps recently
    fetched postings (and negative entries for absent terms): real
    query logs are heavily term-skewed, so the popular terms' postings
    stop being re-shipped per query.  Results are identical with the
    cache on or off (the artifact is immutable per index_dir; postings
    are read-only after load) — set ``cache_bytes=0`` to disable.
    """

    def __init__(self, index_dir: str, num_actors: int = 4,
                 cache_bytes: int = 256 * 1024 * 1024,
                 max_restarts: int = 2) -> None:
        from collections import OrderedDict

        import ray

        self._cache: "OrderedDict[str, TermPostings | None]" = OrderedDict()
        self._cache_bytes = 0
        self._cache_cap = int(cache_bytes)
        # serve.py shares one searcher across its request worker
        # threads; the LRU's move_to_end / insert / evict
        # sequences are not atomic under the GIL
        self._cache_lock = _threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        reader = IndexReader(index_dir)
        self.index_dir = index_dir
        self.n_docs = reader.n_docs
        self.avgdl = reader.avgdl
        self.token_pattern = reader.manifest["config"].get("token_pattern")
        self.term_filter = reader.manifest["config"].get("term_filter", "none")
        self.num_shards = reader.num_shards
        shards = reader.shards()
        num_actors = max(1, min(num_actors, max(1, len(shards))))
        assignment: list[list[int]] = [[] for _ in range(num_actors)]
        for s in shards:
            assignment[s % num_actors].append(s)
        # ShardSearcher is stateless-after-load of an IMMUTABLE
        # artifact, so actor restart + task retry are idempotent: a
        # worker/node death mid-serving re-loads the same shards and
        # re-answers the same postings RPC (constructor args are tiny
        # — inlined in the task spec, never lost with the object store)
        actor_cls = ray.remote(
            max_restarts=max_restarts,
            max_task_retries=max_restarts and -1,
        )(ShardSearcher)
        self.actors = [
            actor_cls.remote(index_dir, shs) for shs in assignment
        ]
        self.num_actors = num_actors
        self.all_ids = load_doc_universe(index_dir)

    def wait_ready(self, warm_hot_terms: bool = True) -> None:
        """Block until every shard actor has finished loading.

        Actor construction is async: ``__init__`` returns after the
        ``.remote()`` calls, while each actor is still reading its
        shards.  A query that happens to touch a still-loading actor
        blocks on that load — measured as sub-second "query latency"
        in early benches.  Serving layers should call this once before
        accepting traffic (the postings-resident-in-actors contract).

        ``warm_hot_terms`` additionally prefetches the manifest's
        salted hot-term list into the driver LRU — the build already
        identified the corpus's stopword-class terms, which are exactly
        the postings every realistic query mix re-touches."""
        import ray

        ray.get([a.term_postings.remote([]) for a in self.actors])
        if warm_hot_terms and self._cache_cap:
            from refimage_ray.index.manifest import load_manifest

            hot = load_manifest(self.index_dir)["stats"].get("hot_terms") or []
            if hot:
                self._term_map(sorted(hot))

    @staticmethod
    def _postings_nbytes(p: "TermPostings | None") -> int:
        if p is None:
            return 64  # negative entry: bookkeeping only
        n = 0
        for arr in (p.doc_ids, p.weights, p.tfs, p.dls, p.positions,
                    p.ranks, p.block_last_doc, p.block_max_weight):
            if arr is not None:
                n += arr.nbytes
        return n + 64

    def _issue_term_map(self, terms: list[str]) -> tuple:
        """Fire the per-actor postings RPCs for cache-missing terms
        WITHOUT blocking — returns the bundle for
        :meth:`_gather_term_map`."""
        cached: dict[str, TermPostings] = {}
        missing: list[str] = []
        with self._cache_lock:
            for t in terms:
                if self._cache_cap and t in self._cache:
                    self._cache.move_to_end(t)
                    self.cache_hits += 1
                    v = self._cache[t]
                    if v is not None:  # None = cached absence
                        cached[t] = v
                else:
                    self.cache_misses += 1
                    missing.append(t)
        by_actor: dict[int, list[str]] = {}
        for t in missing:
            shard = blake2b64(t) % self.num_shards
            by_actor.setdefault(shard % self.num_actors, []).append(t)
        futures = [
            self.actors[a].term_postings.remote(ts) for a, ts in by_actor.items()
        ]
        return futures, cached, missing

    def _gather_term_map(self, bundle: tuple) -> dict[str, TermPostings]:
        import ray

        futures, cached, missing = bundle
        merged: dict[str, TermPostings] = dict(cached)
        fetched: dict[str, TermPostings] = {}
        for res in ray.get(futures):
            for t, (df, ids, w, mw, bl, bm, tfs, dls, poss, rks) in res.items():
                tp = TermPostings(
                    df=df, doc_ids=ids, weights=w, tfs=tfs,
                    max_weight=mw, block_last_doc=bl, block_max_weight=bm,
                    dls=dls, positions=poss, ranks=rks,
                )
                merged[t] = tp
                fetched[t] = tp
        if self._cache_cap:
            with self._cache_lock:
                for t in missing:
                    v = fetched.get(t)
                    if t in self._cache:  # duplicate in-flight request
                        continue
                    self._cache[t] = v
                    self._cache_bytes += self._postings_nbytes(v)
                while self._cache_bytes > self._cache_cap and self._cache:
                    _, old = self._cache.popitem(last=False)
                    self._cache_bytes -= self._postings_nbytes(old)
        return merged

    def _term_map(self, terms: list[str]) -> dict[str, TermPostings]:
        return self._gather_term_map(self._issue_term_map(terms))

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        """Scatter the expansion probe to every shard actor (the match
        set is term-hash-scattered), union the per-shard (term, df)
        pairs.  Each shard owns a disjoint term set, so the union is a
        plain concatenation — no dedup or df merge needed."""
        import ray

        out: list[tuple[str, int]] = []
        for res in ray.get(
            [a.expand_pairs.remote(kind, probe) for a in self.actors]
        ):
            out.extend(res)
        return out

    def search_many(
        self,
        queries: list[str],
        k: int = 10,
        threshold: float = 0.0,
        mode: str = "or",
        prune: "bool | str" = True,
        scorer: str = "bm25",
        where=None,
        order_by=None,
    ) -> list[list[tuple[int, float]]]:
        """Pipelined batch serving: every query's postings RPCs are in
        flight before the first result is scored (scatter all, then
        gather+score in order) — per-query results identical to
        :meth:`search`.  The term-partitioned analog of
        ``DistributedDocPartSearcher.search_many``."""
        check_page(k)
        per_query = [query_terms(self._tokenize(q)) for q in queries]
        # ONE postings fetch for the batch's unique terms: real query
        # batches are term-skewed, and issuing per query would re-ship
        # every repeated term's posting list (the cache only fills at
        # gather time, so in-flight duplicates all miss)
        union = sorted({t for terms in per_query for t in terms})
        tmap = self._term_map(union)
        return [
            self._finish_search(
                tmap, terms, k, threshold, mode, prune, scorer, where,
                order_by,
            )
            for terms in per_query
        ]


def more_like_this(
    searcher,
    doc_id: int,
    k: int = 10,
    top_terms: int = 10,
    exclude_self: bool = False,
) -> list[tuple[int, float]]:
    """Relevance-feedback "similar documents" (the classic
    more-like-this): the doc's highest tf·idf terms become a weighted
    OR query over the SAME index, executed EXACTLY through
    :meth:`_SearcherBase.search_weighted` (one TAAT pass — not the
    DSL's per-leaf-truncated ``^w`` merge), so distributed == local
    holds by construction and the whole operator admits a full SQL
    value oracle.  Exact duplicates of the doc score identically to
    the doc itself (same tf vector).

    Reference analog: ``POST /search/image`` — find items similar to a
    stored one (``/root/reference/src/refimage/api.py:433-474``, CLIP
    vector of the stored image as the query); here the "vector" is the
    doc's top tf-idf terms.  Raises ``KeyError`` for unknown ids.
    """
    from collections import Counter

    from refimage_ray.functions.text import tokenize

    rows = lookup_docs(
        searcher.index_dir, [doc_id], columns=["doc_id", "text"]
    ).to_pylist()
    if not rows:
        raise KeyError(f"doc_id {doc_id} not found")
    tf = Counter(tokenize(rows[0]["text"],
                          getattr(searcher, "token_pattern", None),
                          getattr(searcher, "term_filter", "none")))
    if not tf:
        return []
    tm = searcher._term_map(sorted(tf))
    n = searcher.n_docs
    scored = []
    for t, f in tf.items():
        p = tm.get(t)
        if p is None:
            continue
        # the engine/oracle-shared idf definition (query/scorer.py) —
        # term selection must track any future change to it
        scored.append((f * _idf(p.df, n), t))
    if not scored:
        return []
    scored.sort(key=lambda x: (-x[0], x[1]))
    top = scored[:top_terms]
    # wmax normalization keeps weights on the ES-boost scale (max 1.0);
    # idf > 0 and tf >= 1 guarantee wmax > 0 here
    wmax = top[0][0]
    hits = searcher.search_weighted(
        [(t, w / wmax) for w, t in top], k=k + (1 if exclude_self else 0)
    )
    if exclude_self:
        hits = [(d, s) for d, s in hits if d != doc_id][:k]
    return hits


def explain_score(
    searcher, query: str, doc_id: int, mode: str = "or"
) -> dict:
    """Per-term score breakdown for one document — the Lucene
    ``explain`` API analog (the reference exposes conversion/debug
    endpoints in the same spirit, ``api.py:160-229``).

    Returns ``{"doc_id", "score", "mode", "terms": [{term, tf, df,
    idf, weight, contribution}, ...]}`` where contributions are the
    EXACT float64 addends of the scoring paths, listed in ascending
    term order (the determinism contract) — so accumulating them in
    list order reproduces the search score bit-for-bit (asserted in
    tests).  A term the doc doesn't contain appears with tf=0 and
    contribution 0.0; under ``mode='and'`` a missing term zeroes the
    whole score (conjunctive semantics)."""
    terms = query_terms(searcher._tokenize(query))
    term_map = searcher._term_map(terms)
    n = searcher.n_docs
    rows = []
    score = 0.0
    missing = False
    for t in terms:  # ascending unique terms → canonical float sums
        p = term_map.get(t)
        row = {"term": t, "tf": 0, "df": 0, "idf": 0.0, "weight": 0.0,
               "contribution": 0.0}
        if p is not None and p.df > 0:
            row["df"] = int(p.df)
            row["idf"] = float(_idf(p.df, n))
            i = int(np.searchsorted(p.doc_ids, doc_id))
            if i < len(p.doc_ids) and p.doc_ids[i] == doc_id:
                row["tf"] = int(p.tfs[i])
                row["weight"] = float(p.weights[i])
                row["contribution"] = row["idf"] * row["weight"]
                score += row["contribution"]
            else:
                missing = True
        else:
            missing = True
        rows.append(row)
    if mode == "and" and missing:
        score = 0.0
    return {"doc_id": int(doc_id), "score": float(score), "mode": mode,
            "terms": rows}


# what ``json.dumps`` writes for a str key or value (``ensure_ascii``)
_json_str = _json.encoder.encode_basestring_ascii


def meta_fragment(row: dict) -> str:
    """The ``"k": "v", …`` inside of a hit's JSON object for one
    metadata row: every field but ``doc_id`` as ``str(v)``, in column
    order, escaped as ``json.dumps`` escapes.  A stored ``score`` field
    comes first: it takes the hit score's place, as merging the row
    over ``{"doc_id", "score"}`` would.  ``""`` when the row holds only
    ``doc_id``."""
    keys = [k for k in row if k != "doc_id"]
    if "score" in row:
        keys.remove("score")
        keys.insert(0, "score")
    return ", ".join([_json_str(k) + ": " + _json_str(str(row[k]))
                      for k in keys])


class ResidentDocs:
    """One immutable snapshot of a ``docs/`` store's non-text columns,
    sorted by ``doc_id`` (stable, so a doc_id stored twice keeps its
    file order).  ``sig`` is the :func:`_docs_signature` it was loaded
    under; ``sorts`` memoizes ``GET /docs`` listing orders per
    ``(column, dir)`` and ``frags`` maps a row position to its
    :func:`meta_fragment`, rendered on the row's first hit, so it grows
    with the rows hit, not the rows stored (≈420 B of RSS per row hit on
    the benchmark artifact's docs schema, whose resident table takes
    ≈120 B per row; ``scripts/join_cost.py`` measures it).  Both are pure
    functions of the immutable table, so concurrent fills write equal
    values and need no lock; they live and die with the entry."""

    __slots__ = ("sig", "table", "ids", "sorts", "frags", "__weakref__")

    def __init__(self, sig: tuple, table):
        self.sig = sig
        self.table = table
        self.ids = table["doc_id"].to_numpy().astype(np.int64, copy=False)
        self.sorts: dict = {}
        self.frags: dict = {}

    def rows_of(self, doc_ids) -> np.ndarray:
        """Row positions of every stored row whose doc_id is requested,
        in doc_id order (``isin`` semantics: a requested id repeated
        counts once, a stored duplicate comes back twice)."""
        want = np.unique(np.asarray(doc_ids, dtype=np.int64))
        lo = np.searchsorted(self.ids, want, "left")
        n = np.searchsorted(self.ids, want, "right") - lo
        start = np.cumsum(n) - n
        return np.repeat(lo - start, n) + np.arange(int(n.sum()))

    def fragments(self, doc_ids) -> dict:
        """``doc_id → meta_fragment`` for the requested ids that are
        stored (inner join); a doc_id stored twice renders its last row
        in file order, the one a ``{doc_id: row}`` dict over
        :meth:`rows_of` keeps.  Each row renders once per snapshot."""
        if not len(self.ids):
            return {}
        want = np.asarray(doc_ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, want, "right") - 1
        ok = self.ids[pos] == want  # pos -1 reads the largest id: no match
        ids, rows = want[ok].tolist(), pos[ok].tolist()
        frags = self.frags
        todo = sorted({r for r in rows if r not in frags})
        if todo:
            for r, row in zip(todo, self.table.take(todo).to_pylist()):
                frags[r] = meta_fragment(row)
        return {d: frags[r] for d, r in zip(ids, rows)}


_RESIDENT_LOCK = _threading.Lock()
_RESIDENT: "dict[str, ResidentDocs]" = {}


def _docs_signature(docs_dir: str) -> tuple:
    """``(name, inode, size, mtime_ns)`` of every entry in ``docs/``:
    atomic rewrites (new inode), lifecycle adds and compaction all
    change it.  Raises ``FileNotFoundError`` when there is no store."""
    out = []
    with os.scandir(docs_dir) as it:
        for e in it:
            st = e.stat()
            out.append((e.name, st.st_ino, st.st_size, st.st_mtime_ns))
    return tuple(sorted(out))


def resident_docs(index_dir: str) -> ResidentDocs:
    """The resident narrow docs table of ``index_dir``, loaded once per
    ``docs/`` signature and re-validated (a few stats) on every call,
    so metadata rewrites, adds and compaction are visible on the next
    call without a reload hook.  The text column is never resident.
    The lock covers only the install, never the read."""
    docs_dir = os.path.join(index_dir, "docs")
    sig = _docs_signature(docs_dir)
    ent = _RESIDENT.get(docs_dir)
    if ent is not None and ent.sig == sig:
        return ent
    # signature first, then the read: the loaded rows are at least as
    # new as ``sig``, so a write racing the read only costs a reload
    ds = pads.dataset(docs_dir)
    t = ds.to_table(columns=[c for c in ds.schema.names if c != "text"])
    ent = ResidentDocs(sig, t.take(pc.sort_indices(t["doc_id"])).combine_chunks())
    with _RESIDENT_LOCK:
        _RESIDENT[docs_dir] = ent
    return ent


def lookup_docs(index_dir: str, doc_ids: list[int], columns: list[str] | None = None):
    """Broadcast/map-side metadata join for a (tiny) top-k result set.

    Inner-join semantics — ids without metadata are dropped, mirroring
    the reference skipping missing records
    (reference ``api.py:461-474``).  Rows come back in doc_id order.

    Without ``text`` in ``columns`` (the default is every non-text
    column) the join is a ``searchsorted`` + ``take`` on the
    :func:`resident_docs` table: its cost follows ``len(doc_ids)``, not
    the store's size — doc ids are hashes, so a parquet filter prunes
    no row group and would decode the whole store per call.  Requests
    for ``text`` scan ``docs/`` with a pushed-down ``isin`` filter; text
    is never made resident.  A missing ``docs/`` (doc-partitioned
    layout) raises ``FileNotFoundError``.
    """
    if columns and "text" in columns:
        ds = pads.dataset(os.path.join(index_dir, "docs"))
        return ds.to_table(columns=columns, filter=pc.field("doc_id").isin(doc_ids))
    ent = resident_docs(index_dir)
    t = ent.table.select(columns) if columns else ent.table
    return t.take(ent.rows_of(doc_ids))


def significant_terms(
    searcher,
    query: str,
    sample_n: int = 200,
    min_doc_count: int = 3,
    top: int = 20,
    mode: str = "or",
) -> list[dict]:
    """Terms over-represented in the query's result sample vs the
    corpus (the ES ``significant_terms`` aggregation, sampler-scoped
    as ES recommends): score = (df_fg / n_sample) / (df_bg / N) —
    the relative-risk heuristic, deterministic and oracle-exact.

    The foreground is the top-``sample_n`` hits (the engine's total
    order makes the sample deterministic); foreground dfs come from
    tokenizing just those texts (index tokenizer — symmetry), the
    background dfs from the index's term dictionary.  Driver-side work
    is sample-bounded by construction.

    Requires a searcher over the TERM-partitioned artifact (sample
    texts come from its ``docs/`` store via ``lookup_docs``); the
    doc-partitioned layout keeps no text, so it has no significant-
    terms path — same constraint as phrase's text-fallback verify."""
    if not hasattr(searcher, "index_dir"):
        raise ValueError(
            "significant_terms needs a searcher with a docs/ artifact "
            "(term-partitioned layout)"
        )
    hits = searcher.search(query, k=sample_n, mode=mode)
    ids = [d for d, _ in hits]
    if not ids:
        return []
    t = lookup_docs(searcher.index_dir, ids, columns=["doc_id", "text"])
    ns = t.num_rows
    from collections import Counter

    fg: Counter = Counter()
    for txt in t["text"].to_pylist():
        fg.update(set(searcher._tokenize(txt)))
    terms = sorted(fg)
    tm = searcher._term_map(terms)
    n_bg = float(searcher.n_docs)
    out = []
    for term in terms:
        f = int(fg[term])
        if f < min_doc_count:
            continue
        p = tm.get(term)
        if p is None or p.df == 0:
            continue
        score = (f / ns) / (p.df / n_bg)
        out.append(
            {"term": term, "doc_count": f, "bg_count": int(p.df),
             "score": score}
        )
    out.sort(key=lambda r: (-r["score"], r["term"]))
    return out[:top]


def doc_term_vector(index_dir: str, doc_id: int) -> list[dict]:
    """Per-document term vector (the ES ``_termvectors`` analog):
    ``[{term, tf, positions}]`` in ascending term order, tokenized with
    the artifact's own pattern (index/verify symmetry), text fetched
    by ``lookup_docs``'s pushed-down text scan.  Raises
    ``KeyError`` for unknown ids (the 404 analog)."""
    import os

    from refimage_ray.functions.text import tokenize
    from refimage_ray.index.manifest import load_manifest

    t = lookup_docs(index_dir, [int(doc_id)], columns=["doc_id", "text"])
    if t.num_rows == 0:
        raise KeyError(f"doc_id {doc_id} not found")
    man = load_manifest(os.path.join(index_dir)) or {}
    pattern = (man.get("config") or {}).get("token_pattern")
    tfilt = (man.get("config") or {}).get("term_filter", "none")
    toks = tokenize(t["text"][0].as_py(), pattern, tfilt)
    acc: dict[str, list[int]] = {}
    for i, tok in enumerate(toks):
        acc.setdefault(tok, []).append(i)
    return [
        {"term": term, "tf": len(ps), "positions": ps}
        for term, ps in sorted(acc.items())
    ]


def stream_doc_bytes(index_dir: str, doc_id: int, chunk_size: int = 65536):
    """Chunked streaming read of one stored document's content — the
    blob-serving analog of the reference's ranged file response
    (``/root/reference/src/refimage/api.py:944-954``: FileResponse
    streams the stored image bytes).

    A pushed-down ``doc_id`` filter over the text column (hash ids
    defeat row-group pruning, so this scans ``docs/``; text is never
    resident), then the UTF-8 payload is yielded in
    ``chunk_size``-byte chunks so a serving layer can stream a large
    document without holding it whole.  Raises ``KeyError`` for an
    unknown doc_id (the 404 analog).
    """
    import os

    ds = pads.dataset(os.path.join(index_dir, "docs"))
    t = ds.to_table(columns=["text"], filter=pc.field("doc_id") == doc_id)
    if t.num_rows == 0:
        raise KeyError(f"doc_id {doc_id} not found")
    payload = t["text"][0].as_py().encode("utf-8")
    for off in range(0, len(payload), chunk_size):
        yield payload[off : off + chunk_size]
