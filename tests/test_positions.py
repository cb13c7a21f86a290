"""Positional index (cfg.store_positions): phrase scale path."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.build import build_index
from refimage_ray.index.pack import ragged_take
from refimage_ray.query.engine import LocalSearcher
from tests.conftest import FIXTURE_QUERIES

POS_CFG = EngineConfig(num_shards=4, salt_buckets=2, store_positions=True)
PLAIN_CFG = EngineConfig(num_shards=4, salt_buckets=2)


def test_ragged_take():
    flat = np.array([10, 11, 20, 30, 31, 32], np.int32)
    lens = np.array([2, 1, 3], np.int64)
    assert ragged_take(flat, lens, np.array([2, 0])).tolist() == [30, 31, 32, 10, 11]
    assert ragged_take(flat, lens, np.array([], np.int64)).tolist() == []


@pytest.fixture(scope="module")
def pos_indexes(ray_session, tiny_docs, tmp_path_factory):
    root = tmp_path_factory.mktemp("posidx")
    dp, dn = str(root / "pos"), str(root / "plain")
    build_index(rd.from_arrow(tiny_docs), dp, POS_CFG)
    build_index(rd.from_arrow(tiny_docs), dn, PLAIN_CFG)
    return dp, dn


def test_positions_stored_and_scores_unchanged(pos_indexes):
    dp, dn = pos_indexes
    sp, sn = LocalSearcher(dp), LocalSearcher(dn)
    assert all(p.positions is not None for p in sp.terms.values())
    assert all(p.positions is not None and len(p.positions) == int(p.tfs.sum())
               for p in sp.terms.values())
    for q in FIXTURE_QUERIES:
        assert sp.search(q, k=10) == sn.search(q, k=10), q


def test_positions_are_ascending_token_offsets(pos_indexes, tiny_docs):
    from refimage_ray.functions.text import tokenize

    dp, _ = pos_indexes
    sp = LocalSearcher(dp)
    texts = tiny_docs["text"].to_pylist()
    term, p = next(iter(sorted(sp.terms.items())))
    off = np.concatenate(([0], np.cumsum(p.tfs)))
    for j, d in enumerate(p.doc_ids.tolist()[:10]):
        got = p.positions[off[j]:off[j + 1]].tolist()
        exp = [i for i, tok in enumerate(tokenize(texts[d])) if tok == term]
        assert got == exp, (term, d)


def test_phrase_via_positions_equals_text_verify(pos_indexes, tiny_docs):
    from refimage_ray.functions.text import tokenize

    dp, dn = pos_indexes
    sp, sn = LocalSearcher(dp), LocalSearcher(dn)
    texts = tiny_docs["text"].to_pylist()
    toks = tokenize(texts[7])
    phrases = [
        f"{toks[0]} {toks[1]}",
        f"{toks[2]} {toks[3]} {toks[4]}",
        "nonexistent sequence entirely",
        toks[0],  # single-token phrase == conjunctive membership
    ]
    for ph in phrases:
        assert sp.search_phrase(ph, k=10000) == sn.search_phrase(ph, k=10000), ph


def test_positional_merge_preserves_phrases(ray_session, tiny_docs, tmp_path):
    """Merging positional delta indexes keeps positions intact: phrase
    results on merged == monolithic positional build."""
    from refimage_ray.functions.text import tokenize
    from refimage_ray.index.lifecycle import merge_indexes

    n = tiny_docs.num_rows
    a, b = tiny_docs.slice(0, n // 2), tiny_docs.slice(n // 2)
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    dm, dfull = str(tmp_path / "m"), str(tmp_path / "full")
    build_index(rd.from_arrow(a), da, POS_CFG)
    build_index(rd.from_arrow(b), db, POS_CFG)
    build_index(rd.from_arrow(tiny_docs), dfull, POS_CFG)
    merge_indexes([da, db], dm, POS_CFG)
    sm, sf = LocalSearcher(dm), LocalSearcher(dfull)
    assert all(p.positions is not None for p in sm.terms.values())
    texts = tiny_docs["text"].to_pylist()
    toks = tokenize(texts[n // 2 + 3])  # doc from the second half
    for ph in (f"{toks[0]} {toks[1]}", f"{toks[3]} {toks[4]} {toks[5]}"):
        assert sm.search_phrase(ph, k=10000) == sf.search_phrase(ph, k=10000), ph
    for q in FIXTURE_QUERIES[:4]:
        assert sm.search(q, k=10) == sf.search(q, k=10), q


def test_mixed_positional_merge_refused(ray_session, tiny_docs, tmp_path):
    from refimage_ray.index.lifecycle import merge_indexes

    n = tiny_docs.num_rows
    a, b = tiny_docs.slice(0, n // 2), tiny_docs.slice(n // 2)
    da, db = str(tmp_path / "pa"), str(tmp_path / "pb")
    build_index(rd.from_arrow(a), da, POS_CFG)
    build_index(rd.from_arrow(b), db, PLAIN_CFG)
    with pytest.raises(Exception, match="positional"):
        merge_indexes([da, db], str(tmp_path / "out"), POS_CFG)


def test_slop_positions_equals_text_verify(pos_indexes, tiny_docs):
    from refimage_ray.functions.text import tokenize

    dp, dn = pos_indexes
    sp, sn = LocalSearcher(dp), LocalSearcher(dn)
    texts = tiny_docs["text"].to_pylist()
    toks = tokenize(texts[7])
    # t0 ? t2 matches at slop>=1 in doc 7 by construction
    probes = [
        (f"{toks[0]} {toks[2]}", 1),
        (f"{toks[0]} {toks[2]}", 0),
        (f"{toks[0]} {toks[3]}", 2),
        (f"{toks[0]} {toks[2]} {toks[4]}", 1),
        ("nonexistent sequence entirely", 3),
    ]
    for ph, slop in probes:
        got = sp.search_phrase(ph, k=10000, slop=slop)
        want = sn.search_phrase(ph, k=10000, slop=slop)
        assert got == want, (ph, slop)


def test_slop_semantics_hand_built(ray_session, tmp_path):
    """Ordered proximity on a hand-built corpus: gaps within slop
    match, reordering and over-gap never do; slop composes per step."""
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [
            "alpha beta gamma",        # adjacent
            "alpha filler beta end",   # gap 1
            "beta alpha",              # reversed
            "alpha x y z beta",        # gap 3
        ],
    })
    d = str(tmp_path / "slopidx")
    build_index(rd.from_arrow(docs), d, POS_CFG)
    s = LocalSearcher(d)

    def ids(ph, slop):
        return sorted(d for d, _ in s.search_phrase(ph, k=100, slop=slop))

    assert ids("alpha beta", 0) == [0]
    assert ids("alpha beta", 1) == [0, 1]
    assert ids("alpha beta", 3) == [0, 1, 3]
    assert ids("beta alpha", 0) == [2]      # order matters
    assert ids("alpha gamma", 0) == []      # non-adjacent at slop 0
    assert ids("alpha gamma", 1) == [0]
    # 3-token chain: alpha..beta gap 1 then beta..? none in doc 1
    assert ids("alpha beta end", 0) == []
    assert ids("alpha beta end", 1) == [1]
    with pytest.raises(ValueError):
        s.search_phrase("a b", slop=-1)


def test_dsl_slop_syntax(pos_indexes):
    from refimage_ray.query.dsl import DSLExecutor, DSLParser, PhraseQuery

    dp, _ = pos_indexes
    s = LocalSearcher(dp)
    node = DSLParser().parse('"data join"~2')
    assert isinstance(node, PhraseQuery) and node.slop == 2
    node_f = DSLParser().parse('PHRASE("data join", 2)')
    assert isinstance(node_f, PhraseQuery) and node_f.slop == 2
    # executes like the library call
    ex = DSLExecutor(s)
    got = ex.execute_query('"data join"~2', limit=10)
    want = s.search_phrase("data join", k=10, slop=2)
    assert [d for d, _ in got] == [d for d, _ in want]
    # exact phrase unchanged
    assert DSLParser().parse('"data join"').slop == 0


def test_docpart_phrase_matches_term_layout(ray_session, tiny_docs, tmp_path):
    """Doc-partitioned phrase search (per-shard positional verify +
    exact disjoint merge) ≡ the term-partitioned LocalSearcher, for
    exact and sloppy phrases; artifacts without positions refuse."""
    from refimage_ray.functions.text import tokenize
    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )

    dt = str(tmp_path / "term")
    dd = str(tmp_path / "doc")
    dplain = str(tmp_path / "plain")
    build_index(rd.from_arrow(tiny_docs), dt, POS_CFG)
    build_doc_partitioned(rd.from_arrow(tiny_docs), dd, POS_CFG,
                          num_doc_shards=4)
    build_doc_partitioned(rd.from_arrow(tiny_docs), dplain, PLAIN_CFG,
                          num_doc_shards=4)

    st = LocalSearcher(dt)
    sd = DocPartSearcher(dd)
    sx = DistributedDocPartSearcher(dd, num_actors=2)
    sx.wait_ready()

    texts = tiny_docs["text"].to_pylist()
    toks = tokenize(texts[7])
    probes = [
        (f"{toks[0]} {toks[1]}", 0),
        (f"{toks[0]} {toks[2]}", 1),
        (f"{toks[0]} {toks[3]}", 2),
        (f"{toks[2]} {toks[3]} {toks[4]}", 0),
        ("nonexistent sequence entirely", 2),
    ]
    for ph, slop in probes:
        want = st.search_phrase(ph, k=10000, slop=slop)
        assert sd.search_phrase(ph, k=10000, slop=slop) == want, (ph, slop)
        assert sx.search_phrase(ph, k=10000, slop=slop) == want, (ph, slop)

    splain = DocPartSearcher(dplain)
    with pytest.raises(ValueError, match="store_positions"):
        splain.search_phrase("a b")


def _brute_near(texts, terms, window):
    from refimage_ray.functions.text import tokenize

    out = set()
    for d, txt in enumerate(texts):
        toks = tokenize(txt)
        occ = {t: [i for i, w in enumerate(toks) if w == t]
               for t in set(terms)}
        if any(not v for v in occ.values()):
            continue
        import itertools
        for combo in itertools.product(*occ.values()):
            if max(combo) - min(combo) <= window:
                out.add(d)
                break
    return out


def test_near_matches_brute_force_and_text_fallback(pos_indexes, tiny_docs):
    """search_near == an exhaustive position-combination oracle, on
    BOTH verify paths (positional index and text fallback)."""
    dp, dn = pos_indexes
    sp, sn = LocalSearcher(dp), LocalSearcher(dn)
    texts = tiny_docs["text"].to_pylist()
    for q, w in [("the data", 3), ("data table scan", 5),
                 ("spark join", 0), ("spark join", 8)]:
        want = _brute_near(texts, q.split(), w)
        got_pos = {d for d, _ in sp.search_near(q, window=w, k=10**6)}
        got_txt = {d for d, _ in sn.search_near(q, window=w, k=10**6)}
        assert got_pos == want, (q, w, "positional")
        assert got_txt == want, (q, w, "text-fallback")


def test_near_supersets_ordered_phrase(pos_indexes):
    """Every ordered slop-s phrase match is a near match at window
    covering the phrase extent (order-free is weaker)."""
    dp, _ = pos_indexes
    sp = LocalSearcher(dp)
    phrase, slop = "data join", 2
    m = len(phrase.split())
    window = (m - 1) * (slop + 1)
    ph = {d for d, _ in sp.search_phrase(phrase, k=10**6, slop=slop)}
    nr = {d for d, _ in sp.search_near(phrase, window=window, k=10**6)}
    assert ph <= nr


def test_near_single_term_equals_conjunctive(pos_indexes):
    dp, _ = pos_indexes
    sp = LocalSearcher(dp)
    assert sp.search_near("data", window=0, k=25) == sp.search(
        "data", k=25, mode="and"
    )


def test_near_distributed_matches_local(pos_indexes):
    from refimage_ray.query.engine import DistributedSearcher

    dp, _ = pos_indexes
    sp = LocalSearcher(dp)
    d = DistributedSearcher(dp, num_actors=2)
    d.wait_ready()
    assert d.search_near("data table", window=4, k=20) == sp.search_near(
        "data table", window=4, k=20
    )


def test_near_rejects_negative_window(pos_indexes):
    dp, _ = pos_indexes
    with pytest.raises(ValueError, match="window"):
        LocalSearcher(dp).search_near("a b", window=-1)


def test_docpart_near_matches_term_layout(ray_session, tiny_docs, tmp_path):
    """Doc-partitioned NEAR/W ≡ the term-partitioned LocalSearcher on
    both docpart transports; position-free artifacts refuse."""
    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )

    dt = str(tmp_path / "term")
    dd = str(tmp_path / "doc")
    dplain = str(tmp_path / "plain")
    build_index(rd.from_arrow(tiny_docs), dt, POS_CFG)
    build_doc_partitioned(rd.from_arrow(tiny_docs), dd, POS_CFG,
                          num_doc_shards=4)
    build_doc_partitioned(rd.from_arrow(tiny_docs), dplain, PLAIN_CFG,
                          num_doc_shards=4)

    st = LocalSearcher(dt)
    sd = DocPartSearcher(dd)
    sx = DistributedDocPartSearcher(dd, num_actors=2)
    sx.wait_ready()

    for q, w in [("data table", 4), ("the data scan", 6),
                 ("spark join", 0), ("nonexistent sequence entirely", 3)]:
        want = st.search_near(q, window=w, k=10000)
        assert sd.search_near(q, window=w, k=10000) == want, (q, w)
        assert sx.search_near(q, window=w, k=10000) == want, (q, w)

    with pytest.raises(ValueError, match="store_positions"):
        DocPartSearcher(dplain).search_near("a b", window=2)


def test_phrase_prefix_matches_manual_expansion(pos_indexes, tiny_docs):
    """search_phrase_prefix == max-merge over per-expansion phrase
    searches with the same deterministic cap — on both artifacts
    (positional verify and text fallback)."""
    from refimage_ray.query.expand import cap_expansion

    for d in pos_indexes:
        s = LocalSearcher(d)
        probe, k = "data ta", 12
        exps = cap_expansion(s._expand_pairs("prefix", "ta"), 128)
        assert exps, "fixture corpus lost its ta* terms"
        best = {}
        for e in exps:
            for doc, sc in s.search_phrase(f"data {e}", k=k):
                if doc not in best or sc > best[doc]:
                    best[doc] = sc
        want = sorted(best.items(), key=lambda t: (-t[1], t[0]))[:k]
        assert s.search_phrase_prefix(probe, k=k) == want


def test_phrase_prefix_exact_term_is_subset(pos_indexes):
    """Completing the prefix to one exact term can only lose matches:
    phrase("data table") ⊆ phrase_prefix("data ta") membership."""
    dp, _ = pos_indexes
    s = LocalSearcher(dp)
    exact = {d for d, _ in s.search_phrase("data table", k=10**6)}
    pref = {d for d, _ in s.search_phrase_prefix("data ta", k=10**6)}
    assert exact <= pref


def test_phrase_prefix_empty_cases(pos_indexes):
    dp, _ = pos_indexes
    s = LocalSearcher(dp)
    assert s.search_phrase_prefix("zzqq", k=5) == []  # no expansion
    assert s.search_phrase_prefix("!!!", k=5) == []   # no tokens


def test_docpart_phrase_prefix_matches_term_layout(ray_session, tiny_docs,
                                                   tmp_path):
    """Doc-partitioned match_phrase_prefix ≡ the term-partitioned
    LocalSearcher on both docpart transports (global-vocabulary
    completion set, per-completion scatter-gather, max-merge)."""
    from refimage_ray.index.docpart import (
        DistributedDocPartSearcher,
        DocPartSearcher,
        build_doc_partitioned,
    )

    dt = str(tmp_path / "term")
    dd = str(tmp_path / "doc")
    build_index(rd.from_arrow(tiny_docs), dt, POS_CFG)
    build_doc_partitioned(rd.from_arrow(tiny_docs), dd, POS_CFG,
                          num_doc_shards=4)
    st = LocalSearcher(dt)
    sd = DocPartSearcher(dd)
    sx = DistributedDocPartSearcher(dd, num_actors=2)
    sx.wait_ready()
    for probe in ["data ta", "the d", "zzqq"]:
        want = st.search_phrase_prefix(probe, k=25)
        assert sd.search_phrase_prefix(probe, k=25) == want, probe
        assert sx.search_phrase_prefix(probe, k=25) == want, probe


def test_docpart_phrase_prefix_stemmed_parity(ray_session, tmp_path):
    """On an s_stem artifact the phrase-prefix probe must be stemmed
    the same way in both layouts (term layout stems via
    _SearcherBase._tokenize; docpart tokenizes with its manifest
    term_filter) — a plural-form last token otherwise
    returns different completions per layout."""
    from refimage_ray.index.docpart import (
        DocPartSearcher,
        build_doc_partitioned,
    )

    docs = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array([
            "scan the tables quickly",
            "scan the tablet screen",
            "join tables and tables again",
            "unrelated words entirely",
        ]),
        "url": pa.array([f"u{i}" for i in range(4)]),
        "lang": pa.array(["en"] * 4),
    })
    cfg = EngineConfig(num_shards=2, salt_buckets=1, store_positions=True,
                       term_filter="s_stem")
    dt, dd = str(tmp_path / "term"), str(tmp_path / "doc")
    build_index(rd.from_arrow(docs), dt, cfg)
    build_doc_partitioned(rd.from_arrow(docs), dd, cfg, num_doc_shards=2)
    st, sd = LocalSearcher(dt), DocPartSearcher(dd)
    # "tables" stems to "table" -> prefix-matches {table, tablet};
    # an unstemmed probe would match only "tablet"-side vocab entries
    for probe in ["scan the tables", "join tables"]:
        want = st.search_phrase_prefix(probe, k=25)
        assert want, probe  # non-vacuous: the stemmed probe matches
        assert sd.search_phrase_prefix(probe, k=25) == want, probe
    # single-term expansion probes (prefix/fuzzy) go through the same
    # normalize path — check suggest-adjacent prefix search parity too
    want = st.search_expanded("prefix", "tables", k=25)
    assert sd.search_expanded("prefix", "tables", k=25) == want


def test_near_window_clamped(pos_indexes):
    """Oversized windows are rejected with ValueError (serve maps it
    to 422) BEFORE any int64 tag arithmetic can overflow."""
    from refimage_ray.query.dsl import DSLParseError, DSLParser

    dp, _ = pos_indexes
    s = LocalSearcher(dp)
    with pytest.raises(ValueError, match="window must be <="):
        s.search_near("data table", window=2**31)
    with pytest.raises(ValueError):
        s.search_near("data table", window=2**63)  # not OverflowError
    # largest legal window still works
    s.search_near("data table", window=2**31 - 1)
    with pytest.raises(DSLParseError, match="window must be <="):
        DSLParser().parse(f'NEAR("data table", {2**31})')
