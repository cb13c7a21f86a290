"""Text normalization / tokenization — the pure-Python reference path.

The single source of truth for token semantics: lowercase, then extract
``[a-z0-9]+`` runs.  The vectorized Arrow implementation in
``stages/tokenize.py`` and the SQL oracles
(``regexp_extract_all(lower(text), '[a-z0-9]+')``) must agree with
this function token-for-token; unit tests enforce it.

Reference analog: normalization applied identically at store and query
time (``/root/reference/src/refimage/dsl.py:117``,
``models/schemas.py:28-34``) — index/query asymmetry is the classic
full-text bug, so there is exactly one definition.
"""

from __future__ import annotations

import re
from collections import Counter

_TOKEN_RE = re.compile(r"[a-z0-9]+")


from functools import lru_cache


@lru_cache(maxsize=16)
def _compiled(pattern: str) -> "re.Pattern[str]":
    return re.compile(pattern)


def tokenize(
    text: str, pattern: str | None = None, term_filter: str = "none"
) -> list[str]:
    """Normalize + tokenize one string (driver/oracle/query-side).

    ``pattern`` overrides the default token regex — searchers pass the
    ``token_pattern`` recorded in the index manifest so an index built
    with a custom pattern is queried with the SAME tokenizer
    (index/query symmetry must hold per-artifact, not just for the
    default config).  ``term_filter`` names a post-tokenize term
    transform from :data:`TERM_FILTERS` (the Lucene analysis-chain
    analog) — likewise recorded in the manifest and applied on both
    sides."""
    rx = _TOKEN_RE if pattern is None else _compiled(pattern)
    toks = rx.findall(text.lower())
    fn = TERM_FILTERS[term_filter]
    return toks if fn is None else [fn(t) for t in toks]


def s_stem(w: str) -> str:
    """Harman's S-stemmer (1991) — the minimal plural stemmer: three
    ordered suffix rules, no dictionary.  Chosen over Porter because
    every rule is a plain suffix test expressible IDENTICALLY in SQL
    (CASE + LIKE), so stemmed indexes keep full value oracles.  The
    ``len > 1`` guard on the bare-s rule keeps the token non-empty
    (token count, hence doc_len, is invariant under the filter)."""
    # each suffix branch is FINAL: a word that matches a suffix but
    # hits its exception stays unchanged (the exceptions protect words
    # like 'goes'/'sees' — falling through to the bare-s rule would
    # strip them anyway)
    if w.endswith("ies"):
        return w if w.endswith(("eies", "aies")) else w[:-3] + "y"
    if w.endswith("es"):
        return w if w.endswith(("aes", "ees", "oes")) else w[:-1]
    if w.endswith("s"):
        keep = len(w) == 1 or w.endswith(("us", "ss"))
        return w if keep else w[:-1]
    return w


#: registered post-tokenize term transforms (name → fn or None).  The
#: name is persisted in the index manifest; searchers resolve it at
#: load so query terms go through the SAME chain the build did.
TERM_FILTERS: dict[str, "object"] = {
    "none": None,
    "s_stem": s_stem,
}


def apply_term_filter_array(flat, name: str):
    """Vectorized term-filter application for the Arrow tokenize path:
    dictionary-encode the flat term column, transform only the UNIQUE
    terms in Python, scatter back with ``take`` — O(unique) Python work
    per batch, not O(tokens)."""
    import pyarrow as pa

    fn = TERM_FILTERS[name]
    if fn is None:
        return flat
    dct = flat.dictionary_encode()
    if isinstance(dct, pa.ChunkedArray):
        dct = dct.combine_chunks()
    mapped = pa.array(
        [fn(u) for u in dct.dictionary.to_pylist()], pa.string()
    )
    return mapped.take(dct.indices)


def term_counts(text: str) -> Counter:
    """Per-document term frequencies (the tokenizer's pre-aggregation)."""
    return Counter(tokenize(text))
