"""Small shared numpy set/array utilities."""

from __future__ import annotations

import numpy as np


def sorted_membership(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` are present in ``sorted_arr``
    (which must be sorted ascending).  Binary search + bounds-clamped
    equality — the single definition of the idiom used by the loser /
    tombstone / metadata-update filters."""
    if len(sorted_arr) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    return (pos < len(sorted_arr)) & (
        sorted_arr[np.minimum(pos, len(sorted_arr) - 1)] == values
    )


def _records(hi: np.ndarray, lo: np.ndarray, dtype: np.dtype) -> np.ndarray:
    rec = np.empty(len(hi), dtype)
    rec["hi"] = hi
    rec["lo"] = lo
    return rec


def sorted_pair_membership(
    sorted_hi: np.ndarray,
    sorted_lo: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    return_index: bool = False,
):
    """Membership of 128-bit keys carried as (hi, lo) u64 halves against
    a ``np.lexsort((lo, hi))``-ordered broadcast set — the single
    definition of the double-binary-search probe used by the
    cross-crawl dedup filter and the line-dedup rebuild pass.

    Returns a boolean mask; with ``return_index=True`` also the
    position of each member in the sorted arrays (undefined where the
    mask is False) so callers can gather per-key side data (e.g. the
    keep-first winner of a duplicated segment).
    """
    n = len(hi)
    member = np.zeros(n, dtype=bool)
    idx = np.zeros(n, dtype=np.int64)
    if len(sorted_hi) and n:
        left = np.searchsorted(sorted_hi, hi, side="left")
        right = np.searchsorted(sorted_hi, hi, side="right")
        width = right - left
        one = width == 1
        hit = np.zeros(n, dtype=bool)
        hit[one] = sorted_lo[left[one]] == lo[one]
        member[one] = hit[one]
        idx[one] = left[one]
        # probes in multi-row hi runs (rare for hash halves; the rule
        # for (doc_id, segment) keys): one searchsorted over (hi, lo)
        # records, whose field-wise order IS the lexsort order.  Built
        # only when needed — probing every key this way is ~2x slower
        # than the hi-only pass when hi never repeats.
        multi = np.flatnonzero(width > 1)
        if len(multi):
            dt = np.dtype([("hi", sorted_hi.dtype), ("lo", sorted_lo.dtype)])
            keys = _records(sorted_hi, sorted_lo, dt)
            probe = _records(hi[multi], lo[multi], dt)
            j = np.searchsorted(keys, probe)
            found = j < len(keys)
            found[found] = keys[j[found]] == probe[found]
            member[multi] = found
            idx[multi[found]] = j[found]
    if return_index:
        return member, idx
    return member


def _sum_rows(rows: list[dict], key_fn) -> dict:
    """Sum a list of same-schema partial rows in canonical key order
    (float addition isn't associative — the order IS the contract).
    List/array columns sum elementwise; scalars add."""
    rows = sorted(rows, key=key_fn)
    out: dict = {}
    for c in rows[0]:
        vals = [r[c] for r in rows]
        if isinstance(vals[0], (list, np.ndarray)):
            out[c] = np.sum(
                np.stack([np.asarray(v) for v in vals]), axis=0
            ).tolist()
        else:
            acc = vals[0]
            for v in vals[1:]:
                acc = acc + v
            out[c] = acc
    return out


def canonical_tree_sum(
    partials_ds,
    key_fn,
    *,
    driver_cap: int = 4096,
    branch: int = 256,
    max_rounds: int = 8,
) -> "dict | None":
    """Deterministic sum-reduce of a partial-rows Dataset (the reduce
    tail of k-means / PCA / the classifier gate: one row per block, all
    columns pure sums).

    ≤ ``driver_cap`` rows: collect and sum driver-side in ``key_fn``
    order — bit-identical to the historical driver reduce.  Above the
    cap (the >10⁵-block regime at 100 TB, where even one row per block
    is too much driver traffic): distributed tree rounds — rows bucket
    by ``md5(key) % B`` (CONTENT-keyed, so the tree shape — hence the
    float summation order — depends only on the partial rows
    themselves, never on block layout or cluster size), each bucket
    sums in key order inside ``map_groups``, and rounds repeat until
    the survivors fit the driver.  ``branch`` bounds bucket fan-in, so
    each round shrinks the row count ~branch× and ships only combined
    rows.

    Returns the single fully-combined row (or None for an empty
    dataset).  Caller's ``key_fn`` must produce a total order on rows
    (include every column — ties would otherwise leave the float order
    ambiguous).
    """
    import hashlib

    import pyarrow as pa

    # Materialize once: partials are tiny (one sum-row per block), but
    # the upstream map is the full corpus pass — count() + take_all()
    # on the lazy Dataset would execute it twice per call (2x every GD
    # / k-means iteration).  After this, count/take are free.
    partials_ds = partials_ds.materialize()
    n = partials_ds.count()
    if n == 0:
        return None
    rounds = 0
    while n > driver_cap and rounds < max_rounds:
        n_buckets = max(1, -(-n // branch))

        def bucket_of(rows_tbl: "pa.Table", _nb=n_buckets) -> "pa.Table":
            rows = rows_tbl.to_pylist()
            b = [
                int.from_bytes(
                    hashlib.md5(repr(key_fn(r)).encode()).digest()[:8],
                    "big",
                ) % _nb
                for r in rows
            ]
            return rows_tbl.append_column(
                "__ctr_bucket", pa.array(b, pa.int64())
            )

        def combine(group: "pa.Table") -> "pa.Table":
            rows = group.drop_columns(["__ctr_bucket"]).to_pylist()
            merged = _sum_rows(rows, key_fn)
            return pa.table(
                {c: [merged[c]] for c in rows[0]},
                schema=group.drop_columns(["__ctr_bucket"]).schema,
            )

        partials_ds = (
            partials_ds.map_batches(bucket_of, batch_format="pyarrow")
            .groupby("__ctr_bucket")
            .map_groups(combine, batch_format="pyarrow")
        ).materialize()
        n = partials_ds.count()
        rounds += 1
    rows = partials_ds.take_all()
    return _sum_rows(rows, key_fn) if rows else None

def splitmix64_bucket(ids: np.ndarray, buckets: int) -> np.ndarray:
    """Content-keyed bucket of int64 ids: vectorized splitmix64-style
    finalizer over the id bits — ONE definition shared by the
    tag-union join paths (``stages/spans.py``, ``stages/lines.py``)
    so co-bucketing stays consistent and independent of block layout."""
    x = np.asarray(ids, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(buckets)).astype(np.int64)


def cast_large_string_chunked(arr, max_chunk_bytes: int = 1 << 29):
    """``large_string`` array → ``string`` CHUNKED array, slicing at
    row boundaries so no single chunk's value buffer exceeds the int32
    offset range (a plain ``pc.cast(large -> string)`` raises on >2 GiB
    total bytes — exactly the regime the large_string intermediates in
    the join-path text rebuilds exist for)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return pa.chunked_array([], pa.string())
    # value byte offset per row (large_string offsets are int64)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                            count=n + 1, offset=arr.offset * 8)
    chunks = []
    start = 0
    while start < n:
        # furthest end whose byte span stays under the cap (always
        # advance at least one row; a single >cap row still fits int32
        # offsets as the sole row of its chunk iff < 2 GiB — enforced
        # by Arrow itself, which is the correct loud failure there)
        end = int(np.searchsorted(
            offsets, offsets[start] + max_chunk_bytes, side="right"
        )) - 1
        end = max(end, start + 1)
        chunks.append(pc.cast(arr.slice(start, end - start), pa.string()))
        start = end
    return pa.chunked_array(chunks)
