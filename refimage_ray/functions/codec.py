"""Vectorized varbyte / delta codecs for posting lists.

Standard inverted-index compression (delta-gap + variable-byte, see
e.g. Manning/Raghavan/Schütze IR book ch.5): doc_ids are stored as
first-order deltas, each delta as little-endian 7-bit groups with a
continuation bit on every byte except the last of a value.

All functions are numpy-vectorized (no Python loop over values — only
over the ≤10 byte positions of a u64), so encoding runs inside
``map_groups`` reducers at memory bandwidth rather than interpreter
speed.  Reference analog: the FAISS index's packed float32 matrix is
the reference's only compressed/columnar artifact
(``/root/reference/src/refimage/search/__init__.py:188-193``); posting
lists are our equivalent.
"""

from __future__ import annotations

import numpy as np

_U7 = np.uint64(7)
_MASK = np.uint64(0x7F)


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode a non-negative integer array to varbyte bytes.

    Thin wrapper over :func:`varbyte_encode_with_offsets` — one body
    for the codec, so the two can never drift (``slice_varbyte``'s
    contract is that a slice equals ``varbyte_encode(values[s:e])``).
    """
    return varbyte_encode_with_offsets(values)[0].tobytes()


def varbyte_encode_with_offsets(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode once, return ``(bytes_u8, value_byte_ends)``.

    Varbyte is per-value independent, so the encoding of any value
    RANGE equals a byte slice of the full encoding — callers that need
    many per-segment blobs (the pack combiner emits one per gkey)
    encode the whole batch once and slice, instead of paying the numpy
    call overhead per segment.  ``value_byte_ends[i]`` is the byte
    offset one past value ``i``; segment ``[s, e)`` of the value array
    is ``bytes_u8[ends[s-1] : ends[e-1]]`` (0 for s == 0).
    """
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return np.zeros(0, np.uint8), np.zeros(0, np.int64)
    ngroups = np.ones(a.shape, dtype=np.int64)
    tmp = a >> _U7
    while tmp.any():
        ngroups += tmp > 0
        tmp >>= _U7
    ends = np.cumsum(ngroups)
    starts = ends - ngroups
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    vals = a.copy()
    for k in range(int(ngroups.max())):
        mask = ngroups > k
        out[starts[mask] + k] = (vals[mask] & _MASK).astype(np.uint8)
        vals[mask] >>= _U7
    cont = np.ones(out.shape, dtype=bool)
    cont[ends - 1] = False
    out[cont] |= 0x80
    return out, ends


def slice_varbyte(
    buf: np.ndarray, ends: np.ndarray, s: int, e: int
) -> bytes:
    """Byte slice of values [s, e) from a varbyte_encode_with_offsets
    result (equals varbyte_encode(values[s:e]))."""
    b0 = 0 if s == 0 else int(ends[s - 1])
    b1 = 0 if e == 0 else int(ends[e - 1])
    return buf[b0:b1].tobytes()


def varbyte_decode(buf: bytes) -> np.ndarray:
    """Decode varbyte bytes back to a uint64 array.

    Values are self-delimiting, so ``buf`` may be any concatenation of
    encoded blobs (a whole Arrow column's data buffer): the result is
    the concatenation of the per-blob decodes.  Raises ``ValueError``
    when the stream ends inside a value (a truncated blob)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    term = (b & 0x80) == 0  # last byte of each value
    if not term[-1]:
        raise ValueError("varbyte stream ends inside a value")
    ends = np.flatnonzero(term)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    value_id = np.zeros(b.size, dtype=np.int64)
    np.cumsum(term[:-1], out=value_id[1:])
    shift = (np.arange(b.size, dtype=np.int64) - starts[value_id]).astype(np.uint64) * _U7
    groups = (b & np.uint8(0x7F)).astype(np.uint64) << shift
    return np.bitwise_or.reduceat(groups, starts)


def delta_encode(sorted_ids: np.ndarray) -> np.ndarray:
    """First-order deltas of a strictly-increasing int array (first kept)."""
    a = np.ascontiguousarray(sorted_ids, dtype=np.uint64)
    if a.size == 0:
        return a
    d = np.empty_like(a)
    d[0] = a[0]
    np.subtract(a[1:], a[:-1], out=d[1:])
    return d


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.ascontiguousarray(deltas, dtype=np.uint64), dtype=np.uint64)


def encode_postings(doc_ids: np.ndarray) -> bytes:
    """delta + varbyte encode a sorted doc_id array."""
    return varbyte_encode(delta_encode(doc_ids))


def decode_postings(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_postings`; returns int64 doc_ids."""
    return delta_decode(varbyte_decode(buf)).astype(np.int64)


def encode_f64(values: np.ndarray) -> bytes:
    """Pack float64 array to little-endian bytes (per-posting weights)."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def decode_f64(buf: bytes) -> np.ndarray:
    return np.frombuffer(buf, dtype="<f8")
