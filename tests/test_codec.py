"""Unit tests: varbyte/delta codecs (SURVEY.md §5 layer 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimage_ray.functions.codec import (
    decode_f64,
    decode_postings,
    delta_decode,
    delta_encode,
    encode_f64,
    encode_postings,
    varbyte_decode,
    varbyte_encode,
)


def test_varbyte_known_values():
    # 0 → 1 byte; 127 → 1 byte; 128 → 2 bytes
    assert varbyte_encode(np.array([0], np.uint64)) == b"\x00"
    assert varbyte_encode(np.array([127], np.uint64)) == b"\x7f"
    assert varbyte_encode(np.array([128], np.uint64)) == b"\x80\x01"
    assert list(varbyte_decode(b"\x80\x01")) == [128]


def test_varbyte_empty():
    assert varbyte_encode(np.array([], np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=500)
)
@settings(max_examples=50, deadline=None)
def test_varbyte_roundtrip(values):
    a = np.array(values, np.uint64)
    assert np.array_equal(varbyte_decode(varbyte_encode(a)), a)


def test_varbyte_ten_byte_values():
    # 2**63 and above need a 10th byte (7 * 9 = 63 bits)
    a = np.array([2**64 - 1, 0, 2**63, 2**63 - 1, 2**64 - 2], np.uint64)
    buf = varbyte_encode(a)
    assert len(varbyte_encode(a[:1])) == 10
    assert np.array_equal(varbyte_decode(buf), a)


def test_varbyte_truncated_stream_raises():
    buf = varbyte_encode(np.array([5, 300], np.uint64))
    with pytest.raises(ValueError, match="inside a value"):
        varbyte_decode(buf[:-1])


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_varbyte_decode_of_concatenated_blobs(rows):
    """Blobs are self-delimiting: decoding a whole column's buffer at
    once equals concatenating the per-blob decodes, and the terminator
    bytes between the row offsets count each row's values (what the
    columnar index load relies on)."""
    from refimage_ray.index.reader import _row_counts

    blobs = [varbyte_encode(np.array(r, np.uint64)) for r in rows]
    buf = np.frombuffer(b"".join(blobs), np.uint8)
    want = [varbyte_decode(b) for b in blobs]
    got = varbyte_decode(buf)
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.concatenate(want) if want else got[:0])
    offsets = np.cumsum([0] + [len(b) for b in blobs])
    assert _row_counts(buf, offsets, "x").tolist() == [len(r) for r in rows]


@given(
    st.sets(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300)
)
@settings(max_examples=50, deadline=None)
def test_postings_roundtrip(ids):
    a = np.array(sorted(ids), np.uint64)
    out = decode_postings(encode_postings(a))
    assert out.dtype == np.int64
    assert np.array_equal(out, a.astype(np.int64))


def test_delta_strided_docids():
    # strided-dense ids (docids.py): big jumps between partitions
    ids = np.array([5, 6, 7, 2**32, 2**32 + 1, 3 * 2**32], np.uint64)
    assert np.array_equal(delta_decode(delta_encode(ids)), ids)
    assert np.array_equal(decode_postings(encode_postings(ids)), ids.astype(np.int64))


def test_f64_roundtrip():
    w = np.array([0.0, 0.5, 1.0 / 3.0, 1e-300], np.float64)
    assert np.array_equal(decode_f64(encode_f64(w)), w)


@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=60),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_slice_varbyte_equals_encode_of_slice(values, data):
    """slice_varbyte's contract: a byte slice of the full encoding is
    bit-identical to encoding the value slice directly (what the pack
    combiners rely on to encode once per batch and slice per gkey)."""
    from refimage_ray.functions.codec import (
        slice_varbyte,
        varbyte_encode_with_offsets,
    )

    a = np.asarray(values, dtype=np.uint64)
    buf, ends = varbyte_encode_with_offsets(a)
    s = data.draw(st.integers(0, len(a)))
    e = data.draw(st.integers(s, len(a)))
    assert slice_varbyte(buf, ends, s, e) == varbyte_encode(a[s:e])


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e3, max_value=1e3),
             min_size=0, max_size=50),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_topk_candidates_superset_property(scores, k):
    """_topk_candidates must return a superset of every valid top-k set:
    all indices scoring strictly above the k-th largest, plus every
    index tied with it."""
    from refimage_ray.stages.ann import _topk_candidates

    s = np.asarray(scores, dtype=np.float64)
    sel = set(_topk_candidates(s, k).tolist())
    if len(s) <= k:
        assert sel == set(range(len(s)))
        return
    kth = np.sort(s)[len(s) - k]
    must_have = {i for i, v in enumerate(s) if v >= kth}
    assert sel == must_have
