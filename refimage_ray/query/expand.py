"""Query-time term expansion: prefix, fuzzy (edit-distance ≤ 1),
wildcard, regex, synonyms.

The reference's query surface matches exact terms only
(``/root/reference/src/refimage/dsl.py`` — free text, tags, boolean
ops); these are the classic full-text extensions layered on top
(the analogs of Lucene's prefix, fuzzy, wildcard and regexp queries
and its synonym filter), re-expressed for a sharded vocabulary:

- every expansion is resolved against a *resident term dictionary*
  (a shard actor's, the whole index's, the doc-partitioned layout's
  global ``terms/`` table or the NRT buffer's) by one dispatcher,
  :func:`expand_vocab` (prefix, wildcard, regex: binary search over a
  sorted vocab; fuzzy: a SymSpell-style deletion-neighborhood index) —
  the probe structures are built lazily ONCE per dictionary on first
  use, never per query;
- the caller unions per-shard matches, caps them deterministically
  (df desc, term asc — prefer frequent terms, like Lucene's
  ``maxExpansions``), and scores the expanded set through the ordinary
  disjunctive BM25 path (:class:`ExpansionOps`, written once for every
  searcher).

So an expanded query is *exactly equivalent* to an OR query over its
expansion — which is what makes the SQL oracles possible
(``term LIKE 'p%'`` / ``levenshtein(term, q) <= 1`` feeding the same
BM25 formula).
"""

from __future__ import annotations

import re
from bisect import bisect_left

from refimage_ray.query.scorer import check_page


def prefix_matches(vocab_sorted: list[str], prefix: str) -> list[str]:
    """All vocabulary terms starting with ``prefix`` (sorted input →
    one binary search + a contiguous slice; no scan)."""
    if not prefix:
        return list(vocab_sorted)
    lo = bisect_left(vocab_sorted, prefix)
    if ord(prefix[-1]) >= 0x10FFFF:  # un-bumpable last char: scan the tail
        return [t for t in vocab_sorted[lo:] if t.startswith(prefix)]
    # the exclusive upper bound of the prefix range: bump the last char
    hi = bisect_left(vocab_sorted, prefix[:-1] + chr(ord(prefix[-1]) + 1), lo)
    return vocab_sorted[lo:hi]


def deletes1(term: str) -> list[str]:
    """All single-character deletions of ``term`` (unique, order-free)."""
    return list({term[:i] + term[i + 1:] for i in range(len(term))})


def build_deletes_index(vocab) -> dict[str, list[str]]:
    """SymSpell-style neighborhood index for max edit distance 1:
    maps every term AND every single-deletion variant of it to the
    terms that produce it.  Size ≈ Σ(len(term)+1) entries — built once
    per shard actor, amortized over all fuzzy queries."""
    idx: dict[str, list[str]] = {}
    for t in vocab:
        idx.setdefault(t, []).append(t)
        for v in deletes1(t):
            idx.setdefault(v, []).append(t)
    return idx


def edit_distance_leq1(a: str, b: str) -> bool:
    """Plain Levenshtein distance ≤ 1 (no transposition — matches
    DuckDB's ``levenshtein`` so the SQL oracles agree).  O(len)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # now la <= lb; walk to the first mismatch, then align the tails
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    if i == la:  # a is a prefix of b → distance = lb - la (0 or 1)
        return True
    if la == lb:  # one substitution: tails after i must match
        return a[i + 1:] == b[i + 1:]
    # one insertion in b: skip b[i], tails must match
    return a[i:] == b[i + 1:]


def fuzzy_matches(deletes_index: dict[str, list[str]], term: str) -> list[str]:
    """Vocabulary terms within Levenshtein distance 1 of ``term``
    (including the exact term).  Candidates come from the deletion
    neighborhood (term itself + its single deletions); each candidate
    is then verified with the real distance check — the neighborhood
    over-generates (e.g. transpositions share a deletion variant but
    are distance 2)."""
    cands: set[str] = set()
    for v in [term, *deletes1(term)]:
        cands.update(deletes_index.get(v, ()))
    return sorted(c for c in cands if edit_distance_leq1(term, c))


def lev1_regex(term: str) -> str:
    """Anchored regex alternation matching EXACTLY the strings within
    Levenshtein distance ≤ 1 of ``term`` (same metric as
    ``edit_distance_leq1`` — no transposition): the exact term, every
    single deletion, every single substitution (one position → ``.``),
    and every single insertion (``.`` between any two positions).
    O(len) branches — lets a batch-local vocabulary be fuzzy-matched
    with ONE vectorized regex kernel instead of a per-term Python loop
    (``stages.percolate`` uses this against each batch's dictionary)."""
    esc = [re.escape(ch) for ch in term]
    branches = ["".join(esc)]  # exact
    for i in range(len(term)):  # deletion of position i
        branches.append("".join(esc[:i] + esc[i + 1:]))
    for i in range(len(term)):  # substitution at position i
        branches.append("".join(esc[:i] + ["."] + esc[i + 1:]))
    for i in range(len(term) + 1):  # insertion before position i
        branches.append("".join(esc[:i] + ["."] + esc[i:]))
    return "^(?:" + "|".join(dict.fromkeys(branches)) + ")$"


def wildcard_to_regex(pattern: str) -> str:
    """Glob → regex translation for wildcard term queries (Lucene's
    wildcard-query semantics): ``*`` = any run (incl. empty), ``?`` =
    exactly one char, everything else literal.  Mirrors SQL ``LIKE``
    (``%`` / ``_``) exactly, which is what makes the value oracle
    possible."""
    return "".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
        for ch in pattern
    )


def literal_prefix(pattern: str) -> str:
    """The literal run before the first wildcard metachar — used to
    narrow the vocabulary scan to the prefix range (one binary search)
    before regex verification."""
    for i, ch in enumerate(pattern):
        if ch in "*?":
            return pattern[:i]
    return pattern


def wildcard_matches(vocab_sorted: list[str], pattern: str) -> list[str]:
    """Vocabulary terms matching a glob pattern.  The leading literal
    prefix bounds the candidate range (same trick as
    :func:`prefix_matches`); a compiled full-match regex verifies —
    so ``net*`` costs the same as a prefix query and only a leading
    wildcard pays the full-vocab scan (exactly Lucene's cost model)."""
    rx = re.compile(wildcard_to_regex(pattern))
    cands = prefix_matches(vocab_sorted, literal_prefix(pattern))
    return [t for t in cands if rx.fullmatch(t)]


def regex_matches(vocab_sorted: list[str], pattern: str) -> list[str]:
    """Vocabulary terms fully matching ``pattern`` (Lucene RegexpQuery
    analog: anchored at both ends).  Full dictionary scan with one
    compiled regex — the resident vocab is small relative to postings,
    and unlike Lucene we have no FST to intersect; a literal-prefix
    fast path applies when the pattern starts with plain characters."""
    rx = re.compile(pattern)
    # narrow by any leading literal chars (conservative: stop at the
    # first regex metacharacter)
    pre = []
    for ch in pattern:
        if ch in r".^$*+?{}[]()|\\":
            break
        pre.append(ch)
    cands = prefix_matches(vocab_sorted, "".join(pre))
    return [t for t in cands if rx.fullmatch(t)]


#: The expansion kinds, in the order the operators document them.
EXPANSION_KINDS = ("prefix", "fuzzy", "wildcard", "regex")

#: kind → matcher over the sorted vocabulary (fuzzy probes the
#: deletion-neighborhood index instead)
_SORTED_MATCHERS = {
    "prefix": prefix_matches,
    "wildcard": wildcard_matches,
    "regex": regex_matches,
}


def expand_vocab(vocab, df_of, cache: dict, kind: str,
                 probe: str) -> list[tuple[str, int]]:
    """(term, df) pairs of the ``vocab`` terms a NORMALIZED probe
    (:func:`normalize_probe`) matches, in term order — the one
    expansion dispatch every searcher uses.

    ``vocab`` is any collection of the dictionary's terms (a resident
    term → postings map, the global ``terms/`` table, the NRT buffer's
    term → df map); it is read only to build the probe structures,
    which go into the caller's ``cache`` on first use (sorted vocab for
    prefix/wildcard/regex, deletion index for fuzzy) and are reused
    for as long as the caller keeps that cache.  ``df_of`` maps a
    matched term to its document frequency."""
    if kind == "fuzzy":
        if "deletes" not in cache:
            cache["deletes"] = build_deletes_index(vocab)
        matched = fuzzy_matches(cache["deletes"], probe)
    elif kind in _SORTED_MATCHERS:
        if "vocab" not in cache:
            cache["vocab"] = sorted(vocab)
        matched = _SORTED_MATCHERS[kind](cache["vocab"], probe)
    else:
        raise ValueError(f"unknown expansion kind {kind!r}")
    return [(t, int(df_of(t))) for t in matched]


def normalize_probe(kind: str, arg: str, tokenize_fn) -> str:
    """Normalize an expansion probe the way the engine normalizes
    query text — shared by every searcher flavor so term-partitioned,
    doc-partitioned and local expansion agree.

    prefix/fuzzy probes are single *terms*: run them through the
    artifact's tokenizer (index/query symmetry).  wildcard probes are
    lowercased but NOT tokenized (the metachars would be stripped);
    regex probes pass through verbatim — indexed terms are lowercase,
    so a pattern with uppercase literals simply matches nothing, while
    lowercasing the pattern could flip escape classes (``\\D`` →
    ``\\d``)."""
    if kind in ("prefix", "fuzzy"):
        toks = tokenize_fn(arg)
        if len(toks) != 1:
            raise ValueError(f"{kind} query takes exactly one term, got {arg!r}")
        return toks[0]
    if kind == "wildcard":
        probe = arg.lower()
    elif kind == "regex":
        probe = arg
        try:
            re.compile(probe)
        except re.error as e:
            raise ValueError(f"invalid regex query {arg!r}: {e}") from e
    else:
        raise ValueError(f"unknown expansion kind {kind!r}")
    if not probe:
        raise ValueError(f"{kind} query must be non-empty")
    return probe


def cap_expansion(pairs: list[tuple[str, int]], max_expansions: int) -> list[str]:
    """Deterministic expansion cap (the Lucene maxExpansions analog;
    the operators default to 128): keep the ``max_expansions`` most
    frequent terms (df desc, term asc tie-break), return them term-
    sorted (the engine's canonical query-term order).  <=0 disables
    the cap."""
    if max_expansions <= 0 or len(pairs) <= max_expansions:
        return sorted(t for t, _ in pairs)
    pairs = sorted(pairs, key=lambda p: (-p[1], p[0]))[:max_expansions]
    return sorted(t for t, _ in pairs)


def rank_suggestions(
    pairs: list[tuple[str, int]], exact_term: str, max_suggestions: int
) -> list[dict]:
    """Did-you-mean ranking shared by every searcher flavor: exact
    vocabulary hit first, then df desc, term asc."""
    pairs = sorted(pairs, key=lambda p: (p[0] != exact_term, -p[1], p[0]))
    return [
        {"term": t, "df": int(df), "exact": t == exact_term}
        for t, df in pairs[:max_suggestions]
    ]


def expand_synonyms(
    terms: list[str], mapping: dict[str, list[str]], tokenize_fn
) -> list[str]:
    """Union of the query terms and their synonyms, each synonym run
    through the SAME tokenizer as the query (index/query symmetry —
    a synonym like "Data-Base" must match the indexed term form)."""
    out: set[str] = set(terms)
    for t in terms:
        for syn in mapping.get(t, ()):
            out.update(tokenize_fn(syn))
    return sorted(out)


class ExpansionOps:
    """The vocabulary-expansion operators, written once for every
    searcher flavor (``engine._SearcherBase`` and the doc-partitioned
    coordinator inherit them).  A subclass supplies ``_tokenize`` (the
    artifact's analyzer), ``search`` and :meth:`_expand_pairs`."""

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        """(term, df) pairs of the vocabulary terms an ALREADY
        normalized expansion probe matches (:func:`expand_vocab` over
        the searcher's dictionary)."""
        raise NotImplementedError

    def search_expanded(
        self, kind: str, arg: str, /, k: int = 10, threshold: float = 0.0,
        max_expansions: int = 128, where=None, order_by=None,
        offset: int = 0,
    ) -> list[tuple[int, float]]:
        """Expansion top-k: ``arg`` is expanded against the term
        dictionary and the expansion (capped by :func:`cap_expansion`)
        is scored as an ordinary disjunctive query — results identical
        to ``search(" ".join(expansion))``.  ``kind`` is one of
        :data:`EXPANSION_KINDS`:

        - ``prefix`` (``netw*``): the terms starting with ``arg``;
        - ``fuzzy`` (``aple~``): the terms within Levenshtein distance
          1 of ``arg``;
        - ``wildcard`` (``ne?w*k``): a glob — ``*`` any run, ``?`` one
          char, exactly SQL ``LIKE``'s ``%``/``_``; a leading literal
          bounds the vocabulary scan to a prefix range;
        - ``regex``: the terms fully matching an anchored regex (terms
          are lowercase, so patterns should be too)."""
        check_page(k, offset)
        probe = normalize_probe(kind, arg, self._tokenize)
        terms = cap_expansion(self._expand_pairs(kind, probe), max_expansions)
        if not terms:
            return []
        # expanded terms are tokens, so the joined string re-tokenizes
        # to exactly this set, in the order query_terms gives
        return self.search(" ".join(terms), k=k, threshold=threshold,
                           mode="or", where=where, order_by=order_by,
                           offset=offset)

    def suggest(self, term: str, max_suggestions: int = 5) -> list[dict]:
        """Spell suggestion ("did you mean"): vocabulary terms within
        Levenshtein ≤ 1 of the input, ranked (exact first, then df
        desc, term asc) with their document frequencies — the fuzzy
        machinery's user-facing completion (Lucene's
        DirectSpellChecker shape).  Empty list = no nearby vocabulary
        term; an exact vocabulary hit ranks first by definition."""
        toks = self._tokenize(term)
        if len(toks) != 1:
            raise ValueError(f"suggest takes exactly one term, got {term!r}")
        return rank_suggestions(self._expand_pairs("fuzzy", toks[0]),
                                toks[0], max_suggestions)
