"""Corpus-level line/segment deduplication (CCNet / MassiveText style).

Web corpora are full of boilerplate repeated across millions of pages
(nav bars, cookie banners, footers).  CCNet deduplicates at paragraph
granularity by hash; MassiveText/RefinedWeb strip lines duplicated
across documents.  Reference analog: exact whole-document dedup via
the ``file_hash UNIQUE`` constraint
(``/root/reference/src/refimage/storage.py:89``) — this module is the
same idea at sub-document granularity.

Distributed shape (three narrow stages, the corpus text never
shuffles):

1. **segment** — one vectorized pass per batch turns each doc into
   ``(doc_id, seg_idx, segment)`` rows.  Segments are either
   delimiter-split lines (``delimiter="\\n"`` for real web text) or
   fixed ``seg_words``-word windows (deterministic pseudo-paragraphs
   for corpora without line structure — also what the SQL oracle
   mirrors).  The whole batch is segmented with Arrow list kernels
   (``split_pattern`` → offset arithmetic → ``binary_join``): no
   per-row Python.
2. **count** — per-batch ``np.unique``-style combiner shrinks each
   batch to (hash → count, lexicographic-min occurrence) partials,
   then ONE groupby over the 128-bit segment hash (two u64 halves,
   same full-hash discipline as the loser scan) sums counts and takes
   the global keep-first winner.  Only ~32 B/segment-partial moves.
3. **rebuild** — the duplicated-segment set (boilerplate is tiny
   relative to the corpus) broadcasts once via ``ray.put``; a second
   map over the docs re-segments, probes the sorted halves with a
   double binary search, and emits per-doc stats (and optionally the
   cleaned text).

Modes:
- ``drop_all``  — every occurrence of a globally-duplicated segment is
  removed (CCNet boilerplate removal; order-free).
- ``keep_first`` — the globally (doc_id, seg_idx)-smallest occurrence
  survives (MassiveText "all but one" semantics).

Scale note: the broadcast dup set is ~(boilerplate rate · corpus
segments) entries.  ``line_dedup(method="auto")`` counts it once and
broadcasts only under ``auto_broadcast_max_segments``; past the cap it
switches to the fully-distributed ``method="join"`` variant (bucketed
``hash_join`` of segment-occurrence rows against the dup-segment
Dataset + a tag-union bucket groupby for the rebuild — the
``stages/spans.py`` scale path), so a pathologically-duplicated corpus
can never OOM the driver here.  Results are identical on both paths
(asserted by test).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from refimage_ray.functions.arrays import (
    sorted_pair_membership,
    splitmix64_bucket,
)
from refimage_ray.functions.hashing import md5_halves_string_array


def _segment_arrays(
    text: pa.Array | pa.ChunkedArray,
    seg_words: int,
    delimiter: str | None,
):
    """Vectorized segmentation of a text column.

    Returns ``(segs, parent, seg_idx, n_segs)``: the flat segment
    strings, each segment's row index within the batch, its 0-based
    index within its doc, and the per-row segment counts.
    """
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    parts = pc.split_pattern(text, delimiter if delimiter is not None else " ")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    lengths = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    lengths = lengths.astype(np.int64)
    flat = pc.list_flatten(parts)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    n_rows = len(lengths)
    starts = np.cumsum(lengths) - lengths
    if delimiter is not None:
        # each delimiter-split element IS a segment
        parent = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        seg_idx = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(
            starts, lengths
        )
        return flat, parent, seg_idx, lengths
    w = int(seg_words)
    n_segs = (lengths + w - 1) // w  # lengths >= 1: '' splits to ['']
    total = int(n_segs.sum())
    parent = np.repeat(np.arange(n_rows, dtype=np.int64), n_segs)
    seg_idx = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(n_segs) - n_segs, n_segs
    )
    # each segment = words [i*w, min((i+1)*w, len)) of its doc; in the
    # flattened word array that's one offsets list → a single
    # binary_join call rebuilds every segment string at once
    word_start = starts[parent] + seg_idx * w
    offsets = np.append(word_start, int(lengths.sum()))
    lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    segs = pc.binary_join(lst, " ")
    if isinstance(segs, pa.ChunkedArray):
        segs = segs.combine_chunks()
    return segs, parent, seg_idx, n_segs


def chunk_batch(
    batch: pa.Table,
    *,
    size: int = 64,
    stride: int = 32,
    text_col: str = "text",
    doc_col: str = "doc_id",
) -> pa.Table:
    """Overlapping word-window chunking (RAG / retrieval-passage prep):
    chunk ``i`` of a doc covers words ``[i·stride, i·stride + size)``;
    starts advance by ``stride`` while ``start < len(words)`` (so the
    rule matches the SQL oracle exactly; trailing chunks are ragged).

    Unlike the disjoint segmenter, overlapping windows can't share one
    offsets array — the chunk word indices are gathered with a
    repeat/arange take, then ONE ``binary_join`` rebuilds every chunk
    string.  Fully vectorized.
    """
    if size < 1 or stride < 1:
        raise ValueError(f"size/stride must be >= 1 (got {size}/{stride})")
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    words = pc.split_pattern(text, " ")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    lengths = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    lengths = lengths.astype(np.int64)
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    n_rows = len(lengths)
    doc_starts = np.cumsum(lengths) - lengths
    n_chunks = (lengths + stride - 1) // stride  # starts while start < L
    total_chunks = int(n_chunks.sum())
    parent = np.repeat(np.arange(n_rows, dtype=np.int64), n_chunks)
    chunk_idx = np.arange(total_chunks, dtype=np.int64) - np.repeat(
        np.cumsum(n_chunks) - n_chunks, n_chunks
    )
    rel_start = chunk_idx * stride
    chunk_lens = np.minimum(size, lengths[parent] - rel_start)
    total_words = int(chunk_lens.sum())
    out_off = np.cumsum(chunk_lens) - chunk_lens
    flat_idx = (
        np.repeat(doc_starts[parent] + rel_start, chunk_lens)
        + np.arange(total_words, dtype=np.int64)
        - np.repeat(out_off, chunk_lens)
    )
    taken = flat.take(pa.array(flat_idx, pa.int64()))
    offsets = np.append(out_off, total_words).astype(np.int32)
    chunks = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), taken), " "
    )
    doc = batch[doc_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc[parent], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_words": pa.array(chunk_lens, pa.int64()),
            "chunk": chunks,
        }
    )


def chunk_docs(ds, **kwargs):
    """Dataset-level chunker: one vectorized flat-map, streaming."""
    return ds.map_batches(
        lambda b: chunk_batch(b, **kwargs), batch_format="pyarrow"
    )


def duplicated_segments(
    docs_ds,
    *,
    seg_words: int = 20,
    delimiter: str | None = None,
    min_count: int = 2,
    buckets: int = 64,
    text_col: str = "text",
    doc_col: str = "doc_id",
):
    """Global segment-frequency table: one row per distinct segment
    with ``n >= min_count``, carrying the count and the keep-first
    winner ``(win_doc, win_seg)`` = lexicographic-min occurrence.

    Hash halves are int64 reinterprets of the md5 u64 halves (native
    Arrow groupby keys, same trick as the curation stage).
    """

    def partials(batch: pa.Table) -> pa.Table:
        segs, parent, seg_idx, _ = _segment_arrays(
            batch[text_col], seg_words, delimiter
        )
        doc = batch[doc_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = doc[parent]
        h1, h2 = md5_halves_string_array(segs)
        order = np.lexsort((seg_idx, doc, h2, h1))
        h1s, h2s = h1[order], h2[order]
        if len(h1s):
            bound = np.flatnonzero(
                np.concatenate(
                    ([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1]))
                )
            )
            counts = np.diff(np.append(bound, len(h1s)))
        else:
            bound = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
        # packed exchange (functions/packexchange.py): one binary row
        # per (batch, bucket) instead of one row per distinct segment
        from refimage_ray.functions.packexchange import pack_by_bucket

        return pack_by_bucket(
            (h1s[bound] % np.uint64(buckets)).astype(np.int64),
            {
                "seg_key": h1s[bound].view(np.int64),
                "seg_key2": h2s[bound].view(np.int64),
                "n": counts.astype(np.int64),
                "win_doc": doc[order][bound],
                "win_seg": seg_idx[order][bound],
            },
            bucket_col="seg_bucket",
        )

    _SEG_SCHEMA = pa.schema([
        ("seg_key", pa.int64()), ("seg_key2", pa.int64()),
        ("n", pa.int64()), ("win_doc", pa.int64()),
        ("win_seg", pa.int64()),
    ])

    def merge(g: pa.Table) -> pa.Table:
        from refimage_ray.functions.packexchange import unpack_group

        if g.num_rows == 0:
            return _SEG_SCHEMA.empty_table()
        a = unpack_group(g, {c: np.int64 for c in _SEG_SCHEMA.names})
        k1, k2 = a["seg_key"], a["seg_key2"]
        order = np.lexsort((a["win_seg"], a["win_doc"], k2, k1))
        k1, k2 = k1[order], k2[order]
        n = a["n"][order]
        wd, ws = a["win_doc"][order], a["win_seg"][order]
        change = np.ones(len(k1), dtype=bool)
        change[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        bounds = np.flatnonzero(change)
        n_tot = np.add.reduceat(n, bounds)
        keep = n_tot >= min_count
        return pa.table({
            "seg_key": pa.array(k1[bounds][keep], pa.int64()),
            "seg_key2": pa.array(k2[bounds][keep], pa.int64()),
            "n": pa.array(n_tot[keep], pa.int64()),
            # lexsort put each key's (win_doc, win_seg)-min occurrence
            # first → "first" == global lexicographic-min winner
            "win_doc": pa.array(wd[bounds][keep], pa.int64()),
            "win_seg": pa.array(ws[bounds][keep], pa.int64()),
        })

    return (
        docs_ds.map_batches(partials, batch_format="pyarrow")
        .groupby("seg_bucket")
        .map_groups(merge, batch_format="pyarrow")
    )


_DUP_SEG_SCHEMA = pa.schema([
    ("seg_key", pa.int64()), ("seg_key2", pa.int64()),
    ("n", pa.int64()), ("win_doc", pa.int64()),
    ("win_seg", pa.int64()),
])


def line_dedup(
    docs_ds,
    *,
    seg_words: int = 20,
    delimiter: str | None = None,
    min_count: int = 2,
    mode: str = "drop_all",
    return_text: bool = False,
    method: str = "auto",
    buckets: int = 64,
    auto_broadcast_max_segments: int = 2_000_000,
    text_col: str = "text",
    doc_col: str = "doc_id",
):
    """Strip globally-duplicated segments from every doc; per-doc stats
    dataset ``(doc_id, n_seg, n_removed, kept_chars[, text])``.

    ``kept_chars`` = length of the cleaned text (kept segments joined
    by the segment separator) — 0 when every segment was boilerplate.

    ``method="broadcast"`` collects the duplicated-segment table to the
    driver and probes it per batch — right when boilerplate is a small
    fraction of the corpus.  ``method="join"`` never materializes the
    dup set: segment-occurrence rows join the dup-segment Dataset with
    the bucketed ``hash_join`` and the removal rows meet the doc texts
    in a tag-union bucket groupby (the ``stages/spans.py`` scale path —
    results identical by construction and by test).  ``method="auto"``
    (default) counts the dup table once (its size tracks actual
    duplication, not corpus size) and picks broadcast only when it is
    at most ``auto_broadcast_max_segments`` rows (~80 MB of driver
    state at the 2M default), else the join path — a boilerplate-heavy
    100-TB corpus can no longer OOM the driver here.
    """
    import ray

    if mode not in ("drop_all", "keep_first"):
        raise ValueError(f"mode must be 'drop_all' or 'keep_first', got {mode!r}")
    if method not in ("auto", "broadcast", "join"):
        raise ValueError(
            f"method must be 'auto', 'broadcast' or 'join', got {method!r}"
        )
    from refimage_ray.functions.packexchange import collect_small_pandas

    dup = None
    dup_ds_counted = None
    if method == "auto":
        dup_ds_counted = duplicated_segments(
            docs_ds, seg_words=seg_words, delimiter=delimiter,
            min_count=min_count, buckets=buckets,
            text_col=text_col, doc_col=doc_col,
        ).materialize()  # count + collect must not double-execute
        if dup_ds_counted.count() <= auto_broadcast_max_segments:
            method = "broadcast"
            dup = collect_small_pandas(dup_ds_counted, _DUP_SEG_SCHEMA)
        else:
            method = "join"
    if method == "join":
        return _line_dedup_via_join(
            docs_ds, seg_words=seg_words, delimiter=delimiter,
            min_count=min_count, keep_first=(mode == "keep_first"),
            return_text=return_text, buckets=buckets,
            text_col=text_col, doc_col=doc_col,
            # auto already materialized the dup table for the count —
            # reuse it instead of re-running the segment-frequency
            # exchange over the whole corpus
            dup_ds=dup_ds_counted,
        )
    if dup is None:
        dup = collect_small_pandas(
            duplicated_segments(
                docs_ds, seg_words=seg_words, delimiter=delimiter,
                min_count=min_count, buckets=buckets,
                text_col=text_col, doc_col=doc_col,
            ),
            _DUP_SEG_SCHEMA,
        )
    hi = dup["seg_key"].to_numpy().view(np.uint64)
    lo = dup["seg_key2"].to_numpy().view(np.uint64)
    order = np.lexsort((lo, hi))
    shi_ref = ray.put(hi[order])
    slo_ref = ray.put(lo[order])
    wdoc_ref = ray.put(dup["win_doc"].to_numpy()[order])
    wseg_ref = ray.put(dup["win_seg"].to_numpy()[order])
    keep_first = mode == "keep_first"
    sep = delimiter if delimiter is not None else " "

    def rebuild(batch: pa.Table) -> pa.Table:
        segs, parent, seg_idx, n_segs = _segment_arrays(
            batch[text_col], seg_words, delimiter
        )
        doc = batch[doc_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h1, h2 = md5_halves_string_array(segs)
        member, pos = sorted_pair_membership(
            ray.get(shi_ref), ray.get(slo_ref), h1, h2, return_index=True
        )
        drop = member.copy()
        if keep_first and member.any():
            wdoc, wseg = ray.get(wdoc_ref), ray.get(wseg_ref)
            m = np.flatnonzero(member)
            is_winner = (doc[parent[m]] == wdoc[pos[m]]) & (
                seg_idx[m] == wseg[pos[m]]
            )
            drop[m[is_winner]] = False
        return _doc_stats_table(
            doc, segs, parent, n_segs, drop, sep, return_text
        )

    return docs_ds.map_batches(rebuild, batch_format="pyarrow")


def _doc_stats_table(
    doc: np.ndarray,
    segs: pa.Array,
    parent: np.ndarray,
    n_segs: np.ndarray,
    drop: np.ndarray,
    sep: str,
    return_text: bool,
) -> pa.Table:
    """Per-doc ``(doc_id, n_seg, n_removed, kept_chars[, text])`` from a
    segment-level ``drop`` mask — the shared tail of the broadcast and
    join rebuild passes (one definition keeps the two paths identical
    by construction)."""
    n_rows = len(doc)
    n_removed = np.bincount(parent[drop], minlength=n_rows).astype(np.int64)
    kept = ~drop
    seg_lens = pc.utf8_length(segs).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    kept_counts = n_segs - n_removed
    kept_chars = (
        np.bincount(
            parent[kept], weights=seg_lens[kept], minlength=n_rows
        ).astype(np.int64)
        # separators between kept segments
        + np.maximum(kept_counts - 1, 0) * len(sep)
    )
    cols = {
        "doc_id": pa.array(doc, pa.int64()),
        "n_seg": pa.array(n_segs.astype(np.int64), pa.int64()),
        "n_removed": pa.array(n_removed, pa.int64()),
        "kept_chars": pa.array(kept_chars, pa.int64()),
    }
    if return_text:
        from refimage_ray.functions.arrays import cast_large_string_chunked

        kept_segs = segs.filter(pa.array(kept))
        # int64 offsets: the join path rebuilds ~1/buckets of the
        # corpus per group, past int32 list-offset range at the very
        # scale that path exists for; the final string column casts
        # back in row-boundary chunks so no chunk re-hits the int32
        # ceiling
        offsets = np.append(0, np.cumsum(kept_counts)).astype(np.int64)
        lst = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            pc.cast(kept_segs, pa.large_string()),
        )
        cols["text"] = cast_large_string_chunked(
            pc.binary_join(lst, pa.scalar(sep, pa.large_string()))
        )
    return pa.table(cols)


def _line_dedup_via_join(
    docs_ds,
    *,
    seg_words: int,
    delimiter: str | None,
    min_count: int,
    keep_first: bool,
    return_text: bool,
    buckets: int,
    text_col: str,
    doc_col: str,
    dup_ds=None,
):
    """The >broadcast line-dedup path: no dup-set driver
    materialization (the ``stages/spans.py`` shape).

    1. segment-occurrence rows ``(seg_key, seg_key2, odoc, oseg)`` —
       one per segment, keys the int64 views of the md5 u64 halves;
    2. bucketed ``hash_join`` against the duplicated-segment Dataset
       (64-bit ``seg_key`` bucket key, exact 128-bit equality
       re-checked on ``seg_key2`` after the join); keep-first survivors
       are filtered out HERE — the dup table already carries the global
       ``(win_doc, win_seg)`` winner, so the rebuild only drops;
    3. the removal rows ``(doc_id, seg_idx)`` meet the doc texts in a
       tag-union groupby on a splitmix64 doc bucket — ONE vectorized
       rebuild per bucket, never per doc.
    """
    import pyarrow.compute as _pc

    from refimage_ray.stages.joins import hash_join

    def occs(batch: pa.Table) -> pa.Table:
        segs, parent, seg_idx, _ = _segment_arrays(
            batch[text_col], seg_words, delimiter
        )
        doc = batch[doc_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h1, h2 = md5_halves_string_array(segs)
        return pa.table({
            "seg_key": pa.array(np.asarray(h1, np.uint64).view(np.int64),
                                pa.int64()),
            "sk2": pa.array(np.asarray(h2, np.uint64).view(np.int64),
                            pa.int64()),
            "odoc": pa.array(doc[parent], pa.int64()),
            "oseg": pa.array(seg_idx, pa.int64()),
        })

    if dup_ds is None:
        dup_ds = duplicated_segments(
            docs_ds, seg_words=seg_words, delimiter=delimiter,
            min_count=min_count, buckets=buckets,
            text_col=text_col, doc_col=doc_col,
        )
    dup_ds = dup_ds.map_batches(
        lambda t: pa.table({
            "seg_key": t["seg_key"],
            "seg_key2": t["seg_key2"],
            "win_doc": t["win_doc"],
            "win_seg": t["win_seg"],
        }),
        batch_format="pyarrow",
    )
    joined = hash_join(
        docs_ds.map_batches(occs, batch_format="pyarrow"),
        dup_ds,
        left_on="seg_key", right_on="seg_key",
        left_cols=["seg_key", "sk2", "odoc", "oseg"],
        right_cols=["seg_key", "seg_key2", "win_doc", "win_seg"],
        buckets=buckets,
    )

    def to_removals(t: pa.Table) -> pa.Table:
        t = t.filter(_pc.equal(t["sk2"], t["seg_key2"]))  # 128-bit confirm
        if keep_first:
            survivor = _pc.and_(
                _pc.equal(t["odoc"], t["win_doc"]),
                _pc.equal(t["oseg"], t["win_seg"]),
            )
            t = t.filter(_pc.invert(survivor))
        return pa.table({
            "rdoc": _pc.cast(t["odoc"], pa.int64()),
            "rseg": _pc.cast(t["oseg"], pa.int64()),
        })

    removals = joined.map_batches(to_removals, batch_format="pyarrow")
    sep = delimiter if delimiter is not None else " "

    def tag_docs(b: pa.Table) -> pa.Table:
        ids = b[doc_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "__b": pa.array(splitmix64_bucket(ids, buckets), pa.int64()),
            "side": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": _pc.cast(b[text_col], pa.string()),
            "rseg": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
        })

    def tag_removals(b: pa.Table) -> pa.Table:
        ids = b["rdoc"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "__b": pa.array(splitmix64_bucket(ids, buckets), pa.int64()),
            "side": pa.array(np.ones(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.nulls(len(ids), pa.string()),
            "rseg": _pc.cast(b["rseg"], pa.int64()),
        })

    both = docs_ds.map_batches(tag_docs, batch_format="pyarrow").union(
        removals.map_batches(tag_removals, batch_format="pyarrow")
    )

    def rebuild_bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(side == 0))
        rem = g.filter(pa.array(side == 1))
        order = _pc.sort_indices(docs["doc_id"])
        docs = docs.take(order)
        ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        segs, parent, seg_idx, n_segs = _segment_arrays(
            docs["text"], seg_words, delimiter
        )
        if rem.num_rows:
            rdoc = rem["doc_id"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            rseg = rem["rseg"].to_numpy(zero_copy_only=False).astype(np.int64)
            # sort in UINT64 view space — the probe's binary search runs
            # over uint64 views, and an int64 sort would misorder
            # negative doc ids (broadcast/join parity would then depend
            # on the sign of the ids)
            rd_u = rdoc.view(np.uint64)
            rs_u = rseg.view(np.uint64)
            o = np.lexsort((rs_u, rd_u))
            drop, _ = sorted_pair_membership(
                rd_u[o], rs_u[o],
                ids[parent].view(np.uint64), seg_idx.view(np.uint64),
                return_index=True,
            )
        else:
            drop = np.zeros(len(parent), dtype=bool)
        return _doc_stats_table(
            ids, segs, parent, n_segs, drop, sep, return_text
        )

    return both.groupby("__b").map_groups(
        rebuild_bucket, batch_format="pyarrow"
    )
