"""Seeded web-text corpus for the benchmark.

The engine sees only what :func:`write_pages` writes: parquet files in
the ``input_hint`` pages schema ``url, warc_ts, html, text, lang``.
Everything else here (the planted duplicate pairs, the per-site
boilerplate, the generation parameters) stays with the benchmark and is
used only to check the engine's outputs.

Shape of the corpus, chosen so that vocabulary-bound and
duplication-bound costs show (the engine's own ``synthesize_pages``
draws from 200 terms):

- content terms: truncated Zipf (s = ``ZIPF_S``) over ``VOCAB_RANKS``
  ranks, so distinct terms grow with corpus size (Heaps-like);
- document length: log-normal with a long tail;
- html: several ``<p>`` paragraphs per page, inline ``<b>``/``<a>``
  markup, and HTML entities (``&amp;``, ``&lt;``, accented letters,
  numeric CJK code points), so extraction runs its general path and
  not only its one-paragraph fast path;
- each site has its own boilerplate paragraphs;
- planted exact duplicates (same text, other url) and near-duplicates
  (same site, a few content words replaced), recorded as pairs;
- a skewed language mix, about half ``en``; each language's text
  carries that language's function words, lowercase ASCII, as the
  engine's stopword ratio and marker-word language ID read them.
"""

from __future__ import annotations

import hashlib
import html as _html
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

ZIPF_S = 1.1
VOCAB_RANKS = 100_000
EPOCH_US = 1_754_006_400_000_000  # fixed; generation never reads the clock
EXACT_FRAC = 0.02  # pages that copy an earlier page's text exactly
NEAR_FRAC = 0.03   # pages that copy one with 1 % of its content words replaced

LANG_MIX = {"en": 0.50, "es": 0.13, "de": 0.12, "fr": 0.11, "zh": 0.07, "ja": 0.07}

# function words per language (lowercase ASCII tokens)
STOPWORDS = {
    "en": ("the of and to in is was for with that it on as are this a an "
           "or at by from be not").split(),
    "es": "el la de que y en los del se las por un con una su para".split(),
    "de": "der die und das von zu mit den nicht ist im ein auf".split(),
    "fr": "le la de et les des en un une du que pour dans ce il".split(),
    "zh": [],
    "ja": [],
}
# words whose accented letters become named or numeric entities in html
ACCENTED = {
    "es": ["año", "niño", "corazón", "señal", "través"],
    "de": ["über", "größe", "schön", "mädchen", "straße"],
    "fr": ["café", "élève", "façade", "crème", "très"],
}
CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 400)]
SYMBOLS = ["R&D", "Q&A", "a < b", "x > y", "AT&T"]

_CONS = "bcdfghjklmnprstvz"
_VOW = "aeiou"
_SYL = [c + v + e for c in _CONS for v in _VOW for e in "klmnrst"]  # 595
_RESERVED = {w for ws in STOPWORDS.values() for w in ws}


def word_of_rank(r: int) -> str:
    """Deterministic, collision-free word for a Zipf rank (0-based):
    base-595 digits as consonant-vowel-consonant syllables, never a
    function word of any language."""
    syl = []
    r += 1
    while r:
        r, d = divmod(r - 1, len(_SYL))
        syl.append(_SYL[d])
    w = "".join(reversed(syl))
    return w + "q" if w in _RESERVED else w


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -s
    c = np.cumsum(w)
    return c / c[-1]


_CDF = None


def zipf_ranks(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws from the truncated Zipf over ``VOCAB_RANKS`` ranks
    (0-based ranks; rank 0 is the most frequent content term)."""
    global _CDF
    if _CDF is None:
        _CDF = _zipf_cdf(VOCAB_RANKS, ZIPF_S)
    return np.searchsorted(_CDF, rng.random(size), side="right").astype(np.int64)


class Words:
    """Rank → word with a per-corpus memo (drawn ranks repeat a lot)."""

    def __init__(self) -> None:
        self._memo: dict[int, str] = {}

    def __call__(self, ranks) -> list[str]:
        m = self._memo
        out = []
        for r in ranks.tolist():
            w = m.get(r)
            if w is None:
                w = m[r] = word_of_rank(r)
            out.append(w)
        return out


def _paragraphs(rng, words: Words, lang: str, n_tokens: int, stop_rate: float) -> list[list[str]]:
    """Content paragraphs as token lists (display tokens, which may
    carry accents, CJK or symbols; the engine's tokenizer reads only
    ``[a-z0-9]+`` runs out of them)."""
    toks = words(zipf_ranks(rng, n_tokens))
    stops = STOPWORDS[lang]
    if stops and stop_rate > 0:
        is_stop = rng.random(n_tokens) < stop_rate
        picks = rng.integers(0, len(stops), size=n_tokens)
        toks = [stops[p] if s else t for t, s, p in zip(toks, is_stop.tolist(), picks.tolist())]
    if lang in ACCENTED:
        acc = ACCENTED[lang]
        for i in np.flatnonzero(rng.random(n_tokens) < 0.02).tolist():
            toks[i] = acc[int(rng.integers(len(acc)))]
    if lang in ("zh", "ja"):
        for i in np.flatnonzero(rng.random(n_tokens) < 0.5).tolist():
            toks[i] = "".join(CJK[int(c)] for c in rng.integers(0, len(CJK), size=2))
    for i in np.flatnonzero(rng.random(n_tokens) < 0.004).tolist():
        toks[i] = SYMBOLS[int(rng.integers(len(SYMBOLS)))]
    paras = []
    i = 0
    while i < n_tokens:
        n = int(rng.integers(25, 121))
        paras.append(toks[i : i + n])
        i += n
    return paras


def _esc(tok: str, rng_bit: bool) -> str:
    s = _html.escape(tok, quote=False)
    if s.isascii():
        return s
    # non-ASCII letters: numeric entity on some pages, raw UTF-8 on others
    if rng_bit:
        return "".join(f"&#{ord(c)};" if ord(c) > 127 else c for c in s)
    return s


def render_html(title: str, nav: list[str], paras: list[list[str]], markup_seed: int) -> bytes:
    """Paragraph token lists → page html.  Extraction must give back
    ``"\\n\\n".join(" ".join(p) for p in paras)`` byte for byte."""
    mk = np.random.default_rng(markup_seed)
    body = []
    for p in paras:
        ent = bool(mk.random() < 0.5)
        toks = [_esc(t, ent) for t in p]
        # inline markup on a few words (stripped by extraction)
        for i in np.flatnonzero(mk.random(len(toks)) < 0.03).tolist():
            toks[i] = (f"<b>{toks[i]}</b>" if mk.random() < 0.5
                       else f'<a href="/t/{i}">{toks[i]}</a>')
        body.append('<p class="c">' + " ".join(toks) + "</p>")
    navh = "".join(f'<li><a href="/{n}">{n}</a></li>' for n in nav)
    return (
        f'<html><head><meta charset="utf-8"><title>{_html.escape(title)}</title>'
        f"</head><body><nav><ul>{navh}</ul></nav><div class=\"main\">"
        + "\n".join(body)
        + "</div></body></html>"
    ).encode("utf-8")


def text_of(paras: list[list[str]]) -> str:
    return "\n\n".join(" ".join(p) for p in paras)


class Corpus:
    """Generated pages plus the ground truth the checks use."""

    def __init__(self, pages: pa.Table, exact_pairs, near_pairs, params: dict):
        self.pages = pages
        self.exact_pairs = exact_pairs  # [(i, j)] page indices, text_j == text_i
        self.near_pairs = near_pairs    # [(i, j)] page indices, j edits i
        self.params = params

    def digest(self) -> str:
        h = hashlib.sha256()
        for col in ("url", "text", "lang"):
            for v in self.pages[col].to_pylist():
                h.update(v.encode())
                h.update(b"\0")
        for t in self.pages["html"].to_pylist():
            h.update(t)
        return h.hexdigest()


def generate(seed: int, n_pages: int, *, first_index: int = 0) -> Corpus:
    """Deterministic in ``(seed, n_pages, first_index)``."""
    rng = np.random.default_rng([seed, n_pages, first_index])
    words = Words()
    langs = list(LANG_MIX)
    page_lang = rng.choice(len(langs), size=n_pages, p=list(LANG_MIX.values()))
    # sites: each has one language, nav links and its own boilerplate
    # paragraphs
    n_sites = max(6, n_pages // 50)
    site_lang = np.arange(n_sites) % len(langs)
    site_boiler, site_nav = [], []
    for s in range(n_sites):
        lang = langs[int(site_lang[s])]
        bp = _paragraphs(rng, words, lang, int(rng.integers(40, 90)), 0.3)
        site_boiler.append(bp[:2])
        site_nav.append(words(rng.integers(0, 2000, size=4)))
    sites_of = {li: np.flatnonzero(site_lang == li) for li in range(len(langs))}
    # log-normal content lengths (median ~130 tokens, long tail)
    lengths = np.clip(rng.lognormal(4.9, 0.8, size=n_pages), 8, 4000).astype(int)
    # per-doc function-word rate: most pages prose-like, some list/spam pages
    stop_rate = np.where(rng.random(n_pages) < 0.12, 0.01, rng.uniform(0.18, 0.4, n_pages))
    n_exact = int(n_pages * EXACT_FRAC)
    n_near = int(n_pages * NEAR_FRAC)
    roles = np.zeros(n_pages, np.int8)  # 0 original, 1 exact copy, 2 near copy
    copy_idx = rng.permutation(np.arange(n_pages // 4, n_pages))[: n_exact + n_near]
    roles[copy_idx[:n_exact]] = 1
    roles[copy_idx[n_exact:]] = 2

    urls, htmls, texts, out_langs, sites, boiler = [], [], [], [], [], []
    content: list[list[list[str]]] = []
    exact_pairs, near_pairs = [], []
    for i in range(n_pages):
        gi = first_index + i
        role = int(roles[i])
        src = None
        if role:
            # copy an earlier original page
            src = int(rng.integers(0, i))
            while roles[src] != 0:
                src = int(rng.integers(0, i))
            if role == 2 and sum(len(p) for p in content[src]) < 60:
                role, src = 0, None
        if src is None:
            li = int(page_lang[i])
            site = int(rng.choice(sites_of[li]))
            paras = _paragraphs(rng, words, langs[li], int(lengths[i]), float(stop_rate[i]))
        else:
            li = langs.index(out_langs[src])
            site = sites[src] if role == 2 else int(rng.choice(sites_of[li]))
            paras = [list(p) for p in content[src]]
            if role == 2:
                n_tok = sum(len(p) for p in paras)
                n_sub = max(2, int(n_tok * 0.01))
                flat = [(a, b) for a, p in enumerate(paras) for b in range(len(p))]
                for k in rng.choice(len(flat), size=n_sub, replace=False).tolist():
                    a, b = flat[k]
                    paras[a][b] = word_of_rank(VOCAB_RANKS + gi * 8 + k % 8)
        content.append(paras)
        lang = langs[li]
        if role == 1:
            full = texts[src]
            page_paras = [p.split(" ") for p in full.split("\n\n")]
            boiler.append(boiler[src])
        else:
            # a near copy keeps its source's boilerplate choice
            has = boiler[src] if role == 2 else bool(rng.random() < 0.85)
            boiler.append(has)
            page_paras = paras + (site_boiler[site] if has else [])
            full = text_of(page_paras)
        url = f"https://s{site}.example/{lang}/p{gi}"
        urls.append(url)
        texts.append(full)
        out_langs.append(lang)
        sites.append(site)
        htmls.append(render_html(f"page {gi}", site_nav[site], page_paras,
                                 (seed * 1_000_003 + gi) & 0x7FFFFFFF))
        if role == 1:
            exact_pairs.append((src, i))
        elif role == 2:
            near_pairs.append((src, i))
    ts = (EPOCH_US + (first_index + np.arange(n_pages, dtype=np.int64)) * 137_000_000
          + rng.integers(0, 1_000_000, size=n_pages)).astype("datetime64[us]")
    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(out_langs, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )
    params = {
        "seed": seed, "pages": n_pages, "first_index": first_index,
        "zipf_s": ZIPF_S, "vocab_ranks": VOCAB_RANKS, "sites": n_sites,
        "exact_dups": len(exact_pairs), "near_dups": len(near_pairs),
        "lang_mix": LANG_MIX,
    }
    return Corpus(pages, exact_pairs, near_pairs, params)


def self_check(c: Corpus, seed: int, sample: int = 64) -> list[str]:
    """Problems found (empty when sound): on a seeded sample of urls
    the engine's extractor gives back the generated text byte for byte;
    planted pairs are recorded and are what they claim to be."""
    from refimage_ray.stages.extract import extract_text_batch

    problems = []
    rng = np.random.default_rng([seed, 99])
    idx = np.sort(rng.choice(c.pages.num_rows, size=min(sample, c.pages.num_rows), replace=False))
    part = c.pages.take(pa.array(idx))
    got = extract_text_batch(part.select(["url", "warc_ts", "html", "lang"]))["text"].to_pylist()
    for url, want, have in zip(part["url"].to_pylist(), part["text"].to_pylist(), got):
        if have != want:
            problems.append(f"extracted text differs for {url}")
    texts = c.pages["text"].to_pylist()
    for i, j in c.exact_pairs:
        if texts[i] != texts[j]:
            problems.append(f"exact pair ({i}, {j}) differs")
    for i, j in c.near_pairs:
        if texts[i] == texts[j]:
            problems.append(f"near pair ({i}, {j}) is exact")
    return problems


def write_pages(pages: pa.Table, out_dir: str, rows_per_file: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fi, start in enumerate(range(0, pages.num_rows, rows_per_file)):
        p = os.path.join(out_dir, f"pages-{fi:05d}.parquet")
        pq.write_table(pages.slice(start, rows_per_file), p)
        paths.append(p)
    return paths
