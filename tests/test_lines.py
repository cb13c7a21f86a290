"""Line/segment-level dedup (stages/lines.py) vs a naive Python
reference: segmentation parity, drop_all / keep_first semantics,
cleaned-text reconstruction, block-layout invariance, and the shared
128-bit pair-membership probe."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from refimage_ray.functions.arrays import sorted_pair_membership
from refimage_ray.stages.lines import (
    _segment_arrays,
    duplicated_segments,
    line_dedup,
)


def _naive_segments(text: str, seg_words: int | None, delimiter: str | None):
    if delimiter is not None:
        return text.split(delimiter)
    words = text.split(" ")
    return [
        " ".join(words[i : i + seg_words])
        for i in range(0, len(words), seg_words)
    ]


def _naive_dedup(rows, seg_words, delimiter, min_count, mode):
    """rows: list of (doc_id, text) — reference semantics."""
    occs = []  # (doc, idx, seg)
    for doc, text in rows:
        for i, s in enumerate(_naive_segments(text, seg_words, delimiter)):
            occs.append((doc, i, s))
    from collections import Counter

    cnt = Counter(s for _, _, s in occs)
    winners = {}
    for doc, i, s in sorted(occs):
        if cnt[s] >= min_count and s not in winners:
            winners[s] = (doc, i)
    out = {}
    sep = delimiter if delimiter is not None else " "
    for doc, text in rows:
        segs = _naive_segments(text, seg_words, delimiter)
        kept = []
        removed = 0
        for i, s in enumerate(segs):
            dup = cnt[s] >= min_count
            if dup and (mode == "drop_all" or winners[s] != (doc, i)):
                removed += 1
            else:
                kept.append(s)
        out[doc] = (len(segs), removed, len(sep.join(kept)), sep.join(kept))
    return out


def _corpus() -> pa.Table:
    texts = [
        "a b c d e f g",            # windows of 3: 'a b c','d e f','g'
        "a b c x y z",              # shares 'a b c'
        "d e f d e f",              # 'd e f' twice in one doc
        "unique words only here now",
        "",                         # one empty segment
        "a b c",                    # third 'a b c'
    ]
    return pa.table(
        {
            "doc_id": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
            "text": pa.array(texts),
        }
    )


@pytest.mark.parametrize("mode", ["drop_all", "keep_first"])
def test_line_dedup_matches_naive(ray_session, mode):
    tbl = _corpus()
    rows = list(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    want = _naive_dedup(rows, 3, None, 2, mode)
    res = (
        line_dedup(
            rd.from_arrow(tbl), seg_words=3, min_count=2, mode=mode,
            return_text=True,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    assert len(res) == len(want)
    for doc, (n_seg, removed, kept_chars, kept_text) in want.items():
        r = res.loc[doc]
        assert (r["n_seg"], r["n_removed"], r["kept_chars"], r["text"]) == (
            n_seg, removed, kept_chars, kept_text,
        ), (doc, mode)


def test_delimiter_mode_matches_naive(ray_session):
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "nav bar\ncontent one\nfooter",
                    "nav bar\ncontent two\nfooter",
                    "content three",
                ]
            ),
        }
    )
    rows = list(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    want = _naive_dedup(rows, None, "\n", 2, "drop_all")
    res = (
        line_dedup(
            rd.from_arrow(tbl), delimiter="\n", min_count=2,
            mode="drop_all", return_text=True,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    for doc, (n_seg, removed, kept_chars, kept_text) in want.items():
        r = res.loc[doc]
        assert (r["n_seg"], r["n_removed"], r["kept_chars"], r["text"]) == (
            n_seg, removed, kept_chars, kept_text,
        )


def test_segment_batch_parity(ray_session, tiny_docs):
    sub = tiny_docs.select(["doc_id", "text"]).slice(0, 40)
    segs, parent, seg_idx, _ = _segment_arrays(sub["text"], 20, None)
    doc = sub["doc_id"].to_numpy()[parent].tolist()
    segs, seg_idx = segs.to_pylist(), seg_idx.tolist()
    k = 0
    for d, text in zip(sub["doc_id"].to_pylist(), sub["text"].to_pylist()):
        for i, s in enumerate(_naive_segments(text, 20, None)):
            assert (doc[k], seg_idx[k], segs[k]) == (d, i, s)
            k += 1
    assert k == len(segs)


def test_block_layout_invariance(ray_session):
    """Same corpus, 1 block vs many blocks → identical results (the
    count pass's per-batch combiner must be layout-independent)."""
    tbl = _corpus()
    one = (
        line_dedup(rd.from_arrow(tbl), seg_words=3, min_count=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    many = (
        line_dedup(
            rd.from_arrow(tbl).repartition(6), seg_words=3, min_count=2
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert one.equals(many)


def test_keep_first_winner_is_global_min(ray_session):
    """Winner = lexicographic (doc_id, seg_idx) min across blocks."""
    tbl = pa.table(
        {
            # doc order reversed vs id order: winner must be id-min,
            # not arrival-min
            "doc_id": pa.array([30, 20, 10], pa.int64()),
            "text": pa.array(["z z dup seg", "z z dup seg", "z z dup seg"]),
        }
    )
    dup = duplicated_segments(
        rd.from_arrow(tbl).repartition(3), seg_words=4, min_count=2
    ).to_pandas()
    assert len(dup) == 1
    assert (dup["n"][0], dup["win_doc"][0], dup["win_seg"][0]) == (3, 10, 0)


def test_sorted_pair_membership_hi_collisions():
    ehi = np.array([5, 5, 5, 9], dtype=np.uint64)
    elo = np.array([1, 4, 7, 2], dtype=np.uint64)
    hi = np.array([5, 5, 5, 9, 9, 3], dtype=np.uint64)
    lo = np.array([4, 5, 7, 2, 3, 1], dtype=np.uint64)
    member, idx = sorted_pair_membership(ehi, elo, hi, lo, return_index=True)
    assert member.tolist() == [True, False, True, True, False, False]
    assert idx[member].tolist() == [1, 2, 3]


# hi drawn from a few values (long multi-row runs, the (doc_id, segment)
# probe shape) including ones above 2^63, so uint64 order matters
_U64 = st.sampled_from([0, 1, 7, 2**63 - 1, 2**63, 2**64 - 1])
_LO = st.integers(0, 2**64 - 1) | st.integers(0, 5)


@given(
    keys=st.lists(st.tuples(_U64, _LO), max_size=40),
    probes=st.lists(st.tuples(_U64, _LO), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_sorted_pair_membership_matches_set_reference(keys, probes):
    """Mask and index agree with a set-of-tuples reference: a member's
    index points at the first row holding its (hi, lo) pair."""
    ehi = np.array([h for h, _ in keys], dtype=np.uint64)
    elo = np.array([lo for _, lo in keys], dtype=np.uint64)
    o = np.lexsort((elo, ehi))
    ehi, elo = ehi[o], elo[o]
    hi = np.array([h for h, _ in probes], dtype=np.uint64)
    lo = np.array([lo for _, lo in probes], dtype=np.uint64)
    member, idx = sorted_pair_membership(ehi, elo, hi, lo, return_index=True)
    rows = list(zip(ehi.tolist(), elo.tolist()))
    ref = set(rows)
    assert member.tolist() == [p in ref for p in probes]
    assert idx[member].tolist() == [rows.index(p) for p in probes if p in ref]


def test_min_count_three(ray_session):
    """min_count above 2: pairs survive, triples are stripped."""
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["p q", "p q", "p q"]),
        }
    )
    res = (
        line_dedup(rd.from_arrow(tbl), seg_words=2, min_count=3)
        .to_pandas()
    )
    assert res["n_removed"].sum() == 3
    res2 = (
        line_dedup(rd.from_arrow(tbl), seg_words=2, min_count=4)
        .to_pandas()
    )
    assert res2["n_removed"].sum() == 0


def test_bad_mode_raises(ray_session):
    with pytest.raises(ValueError):
        line_dedup(rd.from_arrow(_corpus()), mode="nope")


def test_bad_method_raises(ray_session):
    with pytest.raises(ValueError, match="method"):
        line_dedup(rd.from_arrow(_corpus()), method="bogus")


def _sorted_rows(ds):
    return sorted(ds.take_all(), key=lambda r: r["doc_id"])


@pytest.mark.parametrize("mode", ["drop_all", "keep_first"])
def test_line_dedup_join_matches_broadcast(ray_session, mode):
    """method='join' (no dup-set driver materialization: bucketed
    hash_join + tag-union bucket rebuild) == the broadcast path, row
    for row, in both modes, with the cleaned text."""
    ds = rd.from_arrow(_corpus()).repartition(3)
    a = _sorted_rows(line_dedup(
        ds, seg_words=3, min_count=2, mode=mode, return_text=True,
        method="broadcast",
    ))
    b = _sorted_rows(line_dedup(
        ds, seg_words=3, min_count=2, mode=mode, return_text=True,
        method="join",
    ))
    assert a == b


def test_line_dedup_join_delimiter_mode(ray_session):
    """Join path parity in delimiter (real web line) mode too."""
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "nav bar\ncontent one\nfooter",
            "nav bar\ncontent two\nfooter",
            "content three",
        ]),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    a = _sorted_rows(line_dedup(
        ds, delimiter="\n", min_count=2, return_text=True,
        method="broadcast",
    ))
    b = _sorted_rows(line_dedup(
        ds, delimiter="\n", min_count=2, return_text=True, method="join",
    ))
    assert a == b


@pytest.mark.parametrize("mode", ["drop_all", "keep_first"])
def test_line_dedup_auto_boundary_identity(ray_session, mode):
    """method='auto' picks broadcast at/below the segment threshold and
    join above it — identical rows either side of the boundary."""
    ds = rd.from_arrow(_corpus()).repartition(3)
    want = _sorted_rows(line_dedup(
        ds, seg_words=3, min_count=2, mode=mode, return_text=True,
        method="broadcast",
    ))
    hi = _sorted_rows(line_dedup(
        ds, seg_words=3, min_count=2, mode=mode, return_text=True,
        method="auto", auto_broadcast_max_segments=10**6,
    ))
    lo = _sorted_rows(line_dedup(
        ds, seg_words=3, min_count=2, mode=mode, return_text=True,
        method="auto", auto_broadcast_max_segments=0,
    ))
    assert hi == want
    assert lo == want


def test_line_dedup_join_no_driver_collect(ray_session, monkeypatch):
    """When auto picks the join path, the dup set never reaches the
    driver (to_pandas poisoned for the whole run)."""
    import ray.data

    def boom(self, *a, **k):  # pragma: no cover - fires only on a bug
        raise AssertionError("driver materialization in join line-dedup")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", boom)
    out = line_dedup(
        rd.from_arrow(_corpus()).repartition(3), seg_words=3, min_count=2,
        method="auto", auto_broadcast_max_segments=0,
    ).take_all()
    assert len(out) == _corpus().num_rows


# --- overlapping chunking (RAG passage prep) ---

def test_chunk_batch_matches_naive(ray_session):
    from refimage_ray.stages.lines import chunk_batch

    texts = ["a b c d e f g", "x y", "", "one two three four five"]
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(texts)})
    for size, stride in ((4, 2), (3, 3), (2, 5), (10, 1)):
        got = chunk_batch(tbl, size=size, stride=stride).to_pydict()
        k = 0
        for doc, t in zip([1, 2, 3, 4], texts):
            w = t.split(" ")
            for ci, s in enumerate(range(0, len(w), stride)):
                want = " ".join(w[s:s + size])
                assert (
                    got["doc_id"][k], got["chunk_idx"][k],
                    got["n_words"][k], got["chunk"][k],
                ) == (doc, ci, min(size, len(w) - s), want), (size, stride)
                k += 1
        assert k == len(got["chunk"])


def test_chunk_docs_streaming(ray_session):
    import ray.data as rd

    from refimage_ray.stages.lines import chunk_docs

    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                    "text": pa.array(["w " * 99 + "w"] * 50)})
    out = chunk_docs(rd.from_arrow(tbl).repartition(5),
                     size=64, stride=32).to_pandas()
    assert len(out) == 50 * 4  # ceil(100/32) starts per doc
    assert set(out.groupby("doc_id")["n_words"].apply(tuple)) == {
        (64, 64, 36, 4)
    }


def test_chunk_validation(ray_session):
    from refimage_ray.stages.lines import chunk_batch

    with pytest.raises(ValueError):
        chunk_batch(_corpus(), size=0)
    with pytest.raises(ValueError):
        chunk_batch(_corpus(), stride=0)


def test_line_dedup_join_negative_doc_ids(ray_session):
    """Negative doc ids: the join-path removal sort must order in
    uint64-view space (the probe's binary-search space) or removals
    for negative ids are silently lost — broadcast/join parity is the
    oracle."""
    tbl = pa.table({
        "doc_id": pa.array([-5, -2, 3], pa.int64()),
        "text": pa.array(["dup seg one x", "dup seg one y",
                          "dup seg one z"]),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    for mode in ("drop_all", "keep_first"):
        a = _sorted_rows(line_dedup(
            ds, seg_words=3, min_count=2, mode=mode, return_text=True,
            method="broadcast",
        ))
        b = _sorted_rows(line_dedup(
            ds, seg_words=3, min_count=2, mode=mode, return_text=True,
            method="join",
        ))
        assert a == b, mode
        assert sum(r["n_removed"] for r in a) > 0  # the probe has teeth


def test_cast_large_string_chunked_roundtrip():
    from refimage_ray.functions.arrays import cast_large_string_chunked

    vals = ["", "ab", "c" * 1000, "d", "e" * 10]
    arr = pa.array(vals, pa.large_string())
    out = cast_large_string_chunked(arr, max_chunk_bytes=64)
    assert out.type == pa.string()
    assert out.to_pylist() == vals
    assert out.num_chunks > 1  # the cap actually split
    empty = cast_large_string_chunked(pa.array([], pa.large_string()))
    assert empty.type == pa.string() and len(empty) == 0
