"""Index artifact reader — load posting-list partitions into memory.

Reference analog: ``load_index`` — FAISS index + id map loaded once
into process memory and kept resident for all queries
(``/root/reference/src/refimage/search/__init__.py:362-396``,
``:57-60``).  Here each query actor loads the part files of its
assigned shards once in ``__init__``.

Columnar load: the requested part files are concatenated into one
Arrow table, and each posting column (``doc_ids``, ``tfs``, ``dls``,
``positions``, ``weights``) is decoded ONCE over its whole data
buffer — varbyte blobs are self-delimiting, so a column's buffer is
itself a valid stream (:func:`decode_term_runs`).  Every
``TermPostings`` array is then a read-only view of one flat array, so
load cost follows bytes, not the number of terms, and an in-place
write raises instead of corrupting a neighbouring term.

Salt-bucket merge: a hot term's postings live in several
``part-{shard}-{salt}`` files, each covering a disjoint, increasing
doc_id range.  Ordering the table's rows by ``(term, salt)`` makes a
term's rows adjacent in salt order, so its view over the flat arrays
equals the concatenation in salt order and is globally doc_id-sorted
(the property the build guarantees).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from refimage_ray.functions.codec import (
    decode_f64,
    decode_postings,
    varbyte_decode,
    varbyte_encode_with_offsets,
)
from refimage_ray.index.manifest import load_manifest


@dataclass
class TermPostings:
    df: int
    doc_ids: np.ndarray        # int64, sorted ascending
    weights: np.ndarray        # float64, aligned
    tfs: np.ndarray            # int64, aligned
    max_weight: float
    block_last_doc: np.ndarray  # int64
    block_max_weight: np.ndarray  # float64
    dls: np.ndarray | None = None  # int64, aligned (doc lengths)
    positions: np.ndarray | None = None  # int32 flat, segmented by tfs
    # load-time rank of each doc_id in the sorted corpus universe
    # (see attach_ranks) — enables dense-array TAAT scoring
    ranks: np.ndarray | None = None


def load_doc_universe(index_dir: str) -> np.ndarray:
    """Sorted unique doc_id universe of a resident index, from the docs
    artifact (one narrow column read).  Memory: 8 B/doc — the same
    class as the resident posting lists themselves, so any index that
    fits a serving box can afford its universe.  (Trillion-doc serving
    goes through the doc-partitioned layout instead — index/docpart.py.)
    """
    import pyarrow.dataset as pads

    ds = pads.dataset(os.path.join(index_dir, "docs"))
    if "doc_id" not in ds.schema.names:  # empty corpus → schema-less dir
        return np.zeros(0, dtype=np.int64)
    t = ds.to_table(columns=["doc_id"])
    return np.unique(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))


def staged_docs(index_dir: str, columns: list[str] | None = None):
    """Canonical reader of an index's staged corpus: ``docs/`` minus
    the exact-dup losers recorded in ``losers.parquet``.

    ``docs/`` keeps ALL staged rows (the write stage never re-shuffles
    the corpus); dedup is a side-channel of loser doc_ids that every
    downstream consumer must apply.  External consumers (oracle
    corpora, re-indexing into another layout, exports) should read
    through this instead of ``read_parquet(index_dir + "/docs")`` —
    the raw read silently includes dup losers and shifts N/avgdl/df.
    Returns a ``ray.data.Dataset``; the loser filter is a broadcast
    sorted-membership mask inside ``map_batches`` (no shuffle).
    """
    import pyarrow as pa
    import ray
    import ray.data as rd

    from refimage_ray.functions.arrays import sorted_membership

    ds = rd.read_parquet(os.path.join(index_dir, "docs"), columns=columns)
    losers_path = os.path.join(index_dir, "losers.parquet")
    if not os.path.exists(losers_path):
        return ds
    losers = np.sort(
        pq.read_table(losers_path)["doc_id"].to_numpy().astype(np.int64)
    )
    if len(losers) == 0:
        return ds
    losers_ref = ray.put(losers)

    def drop(batch: pa.Table) -> pa.Table:
        excl = ray.get(losers_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(~sorted_membership(excl, ids)))

    return ds.map_batches(drop, batch_format="pyarrow")


def attach_ranks(
    term_map: dict[str, TermPostings], all_ids: np.ndarray
) -> dict[str, TermPostings]:
    """One-time per-load rank remap: ``ranks[i] = index of doc_ids[i]
    in all_ids``.  Query-time disjunctive scoring then accumulates into
    a dense float64 array by fancy indexing (no per-query sort /
    factorize / searchsorted) — the classic score-array TAAT.  Ranks
    are int32 below 2^31 docs (+4 B/posting resident); one
    ``searchsorted`` over all terms' doc_ids, each term's ranks a
    read-only view of the result.  Self-checking: a doc_id absent from
    the universe (corrupt artifact) raises."""
    if not term_map:
        return term_map
    dtype = np.int32 if len(all_ids) < 2**31 else np.int64
    plist = list(term_map.values())
    lens = np.array([len(p.doc_ids) for p in plist], np.int64)
    ends = np.cumsum(lens)
    flat = np.concatenate([p.doc_ids for p in plist])
    r = np.searchsorted(all_ids, flat)
    found = r < len(all_ids)
    found[found] = all_ids[r[found]] == flat[found]
    if not found.all():
        bad = int(np.searchsorted(ends, np.argmin(found), side="right"))
        raise ValueError(
            f"posting doc_ids for {list(term_map)[bad]!r} not all present "
            "in docs/ universe"
        )
    ranks = _frozen(r.astype(dtype))
    for p, s, e in zip(plist, (ends - lens).tolist(), ends.tolist()):
        p.ranks = ranks[s:e]
    return term_map


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _binary_column(t: pa.Table, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A binary column as one byte buffer + per-row byte offsets (from
    0), with 64-bit offsets so the whole column fits one array."""
    a = t.column(name).cast(pa.large_binary()).combine_chunks()
    _, offs, data = a.buffers()
    o = np.frombuffer(offs, np.int64)[a.offset : a.offset + len(a) + 1]
    b = np.frombuffer(data, np.uint8) if data is not None else np.zeros(0, np.uint8)
    return b[o[0] : o[-1]], o - o[0]


def _row_counts(b: np.ndarray, o: np.ndarray, name: str) -> np.ndarray:
    """Values per row of a varbyte column: terminator bytes between
    the row offsets.  A row whose blob ends inside a value would bleed
    into the next row, so it raises."""
    term = (b & 0x80) == 0
    nonempty = o[1:] > o[:-1]
    if not term[o[1:][nonempty] - 1].all():
        raise ValueError(f"truncated varbyte blob in column {name!r}")
    c = np.concatenate(([0], np.cumsum(term)))
    return c[o[1:]] - c[o[:-1]]


def _varbyte_column(t: pa.Table, name: str, counts: np.ndarray, dtype):
    b, o = _binary_column(t, name)
    if not np.array_equal(_row_counts(b, o, name), counts):
        raise ValueError(f"column {name!r} misaligned with doc_ids")
    return _frozen(varbyte_decode(b).astype(dtype))


def decode_columns(t: pa.Table):
    """The posting columns of ``t``, each decoded once over its whole
    data buffer: ``(counts, ids, weights, tfs, dls, positions)`` with
    ``counts[r]`` the postings of row ``r``; ``dls``/``positions`` are
    None when the column is absent.  Doc-id deltas are prefix-summed
    once and re-based per row (exact: the arithmetic wraps modulo
    2^64)."""
    names = t.column_names
    b, o = _binary_column(t, "doc_ids")
    counts = _row_counts(b, o, "doc_ids")
    voff = np.concatenate(([0], np.cumsum(counts)))
    prefix = decode_postings(b).view(np.uint64)
    base = np.zeros(len(counts), np.uint64)
    has_prev = voff[:-1] > 0
    base[has_prev] = prefix[voff[:-1][has_prev] - 1]
    ids = _frozen((prefix - np.repeat(base, counts)).view(np.int64))
    wb, wo = _binary_column(t, "weights")
    if not np.array_equal(np.diff(wo), 8 * counts):
        raise ValueError("column 'weights' misaligned with doc_ids")
    w = _frozen(decode_f64(wb))
    tfs = _varbyte_column(t, "tfs", counts, np.int64)
    dls = _varbyte_column(t, "dls", counts, np.int64) if "dls" in names else None
    pos = None
    if "positions" in names:
        ctf = np.concatenate(([0], np.cumsum(tfs)))
        pos = _varbyte_column(t, "positions", ctf[voff[1:]] - ctf[voff[:-1]], np.int32)
    return counts, ids, w, tfs, dls, pos


def decode_term_runs(
    t: pa.Table, starts: np.ndarray, dead: np.ndarray
) -> list[tuple | None]:
    """Decode the posting columns of ``t`` once each, for runs of rows
    ``[starts[g], starts[g+1])`` (the last run ends at the table's end)
    that each hold one term.

    Returns, per run, ``(doc_ids, weights, tfs, dls, positions)`` —
    read-only views of flat column arrays, concatenated over the run's
    rows in table order; ``dls``/``positions`` are None when the
    column is absent (pre-dls / non-positional artifacts).

    Postings whose doc_id is in ``dead`` (sorted) are dropped: only
    runs that lose postings are rebuilt, and a run left with none is
    None.  Shared by the term- and doc-partitioned loaders.
    """
    counts, ids, w, tfs, dls, pos = decode_columns(t)
    voff = np.concatenate(([0], np.cumsum(counts)))
    rows = np.append(starts, len(counts))
    off = voff[rows].tolist()
    poff = None
    if pos is not None:
        poff = np.concatenate(([0], np.cumsum(tfs)))[voff[rows]].tolist()

    hit = None
    if len(dead) and len(ids):
        from refimage_ray.functions.arrays import sorted_membership

        is_dead = sorted_membership(dead, ids)
        cd = np.concatenate(([0], np.cumsum(is_dead)))[voff[rows]]
        hit = cd[1:] > cd[:-1]
    out: list[tuple | None] = []
    for g in range(len(starts)):
        s, e = off[g], off[g + 1]
        run = (
            ids[s:e], w[s:e], tfs[s:e],
            None if dls is None else dls[s:e],
            None if pos is None else pos[poff[g] : poff[g + 1]],
        )
        if hit is not None and hit[g]:
            run = _drop(run, ~is_dead[s:e])
        out.append(run)
    return out


def run_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the runs of equal adjacent values."""
    n = len(keys)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    changes = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return np.concatenate(([0], changes)), np.concatenate((changes, [n]))


def binary_rows(buf: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """A ``pa.binary()`` column over one byte buffer and per-row byte
    offsets (from 0) — no per-row ``bytes`` objects."""
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError("binary column exceeds int32 offsets (2 GiB)")
    return pa.Array.from_buffers(
        pa.binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(buf)],
    )


def varbyte_rows(values: np.ndarray, rows: np.ndarray) -> pa.Array:
    """``varbyte_encode(values[rows[r]:rows[r+1]])`` for every row ``r``,
    from ONE encode of the whole array (varbyte is per-value
    independent, so a row's bytes are a slice of the full encoding)."""
    buf, ends = varbyte_encode_with_offsets(values.astype(np.uint64))
    return binary_rows(buf, np.concatenate(([0], ends))[rows])


def encode_term_runs(
    starts: np.ndarray,
    ends: np.ndarray,
    ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    weights: np.ndarray,
    block_size: int | None,
    positions: np.ndarray | None = None,
) -> dict[str, pa.Array]:
    """The write-side mirror of :func:`decode_term_runs`: flat
    (term, doc_id)-sorted posting arrays, cut into one row per run
    ``[starts[g], ends[g])`` (non-empty runs partitioning the arrays in
    order), → the posting columns as Arrow arrays.

    Every row equals the per-run encode — ``doc_ids`` delta+varbyte
    with the delta reset at the run start, ``tfs``/``dls``/
    ``positions`` varbyte (a run's positions are its postings' tf
    segments), ``weights`` little-endian float64 — but each column is
    encoded once over the whole array and cut at the run boundaries.
    ``df`` and ``max_weight`` are per-run reductions; with a
    ``block_size``, ``block_max_weight``/``block_last_doc`` come from
    one ``reduceat`` over the block starts of all runs.  Callers pick
    the columns their layout stores.
    """
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    if len(starts) and (
        starts[0] != 0 or ends[-1] != len(ids)
        or (starts[1:] != ends[:-1]).any() or (ends <= starts).any()
    ):
        raise ValueError("runs must be non-empty and partition the postings in order")
    rows = np.concatenate(([0], ends))
    u = np.asarray(ids, np.int64).view(np.uint64)
    delta = u.copy()
    delta[1:] -= u[:-1]
    delta[starts] = u[starts]
    w = np.ascontiguousarray(weights, dtype="<f8")
    out = {
        "df": pa.array(ends - starts, pa.int64()),
        "doc_ids": varbyte_rows(delta, rows),
        "tfs": varbyte_rows(tfs, rows),
        "dls": varbyte_rows(dls, rows),
        "weights": binary_rows(w.view(np.uint8), 8 * rows),
        "max_weight": pa.array(
            np.maximum.reduceat(w, starts) if len(starts) else w[:0], pa.float64()
        ),
    }
    if block_size is not None:
        nb = (ends - starts + block_size - 1) // block_size
        boff = np.concatenate(([0], np.cumsum(nb)))
        run = np.repeat(np.arange(len(starts)), nb)
        bstart = starts[run] + (np.arange(boff[-1]) - boff[run]) * block_size
        last = np.minimum(bstart + block_size - 1, ends[run] - 1)
        bmax = np.maximum.reduceat(w, bstart) if len(bstart) else w[:0]
        offs = pa.array(boff, pa.int32())
        out["block_max_weight"] = pa.ListArray.from_arrays(offs, pa.array(bmax, pa.float64()))
        out["block_last_doc"] = pa.ListArray.from_arrays(
            offs, pa.array(np.asarray(ids, np.int64)[last], pa.int64())
        )
    if positions is not None:
        ctf = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
        out["positions"] = varbyte_rows(positions, ctf[rows])
    return out


def merged_postings(
    tables: list[pa.Table], deads: list[np.ndarray], by_hash: bool,
    with_pos: bool,
):
    """First-input-wins union of posting tables (one input each, in
    input order): every table decoded once per column, postings whose
    doc_id is in that input's sorted ``dead`` dropped, then ONE lexsort
    over (term order, doc_id, input) and one first-of-(term, doc_id)
    mask.  Term order is ``(term_hash, term)`` with ``by_hash``, else
    ``term``.

    Returns ``(terms, hashes, rank, ids, tfs, dls, positions)``:
    ``terms``/``hashes`` list every input term in term order, and the
    kept postings come sorted by ``(rank, doc_id)`` with ``rank`` the
    index of their term in ``terms`` (a term with no live posting has
    no run).  Positions are carried only with ``with_pos``, which every
    input must then store."""
    from refimage_ray.functions.arrays import sorted_membership
    from refimage_ray.index.pack import ragged_take

    if not tables:
        return None
    cols = []
    for i, (t, dead) in enumerate(zip(tables, deads)):
        counts, ids, _w, tfs, dls, pos = decode_columns(t)
        if dls is None:
            raise ValueError("merge requires dls-bearing artifacts (rebuild base)")
        if with_pos and pos is None:
            raise ValueError("cannot merge positional with non-positional inputs")
        cols.append((counts, ids, tfs, dls, pos if with_pos else None,
                     ~sorted_membership(dead, ids),
                     np.full(len(ids), i, np.int32)))
    counts, ids, tfs, dls, pos, live, tag = (
        None if c[0] is None else np.concatenate(c) for c in zip(*cols)
    )
    names = pa.concat_arrays(
        [t.column("term").cast(pa.string()).combine_chunks() for t in tables]
    )
    row_hash = np.concatenate([
        t.column("term_hash").to_numpy().astype(np.uint64) for t in tables
    ])
    enc = pc.dictionary_encode(names)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    _, first = np.unique(codes, return_index=True)
    keys = pa.table({"h": row_hash[first], "t": enc.dictionary})
    order = pc.sort_indices(
        keys, [("h", "ascending"), ("t", "ascending")] if by_hash else [("t", "ascending")]
    ).to_numpy().astype(np.int64)
    rank_of = np.empty(len(order), np.int64)
    rank_of[order] = np.arange(len(order))
    prank = np.repeat(rank_of[codes], counts)
    idx = np.flatnonzero(live)
    idx = idx[np.lexsort((tag[idx], ids[idx], prank[idx]))]
    r, d = prank[idx], ids[idx]
    keep = np.ones(len(idx), bool)
    keep[1:] = (r[1:] != r[:-1]) | (d[1:] != d[:-1])
    sel = idx[keep]
    return (
        enc.dictionary.take(pa.array(order)),
        row_hash[first][order],
        prank[sel], ids[sel], tfs[sel], dls[sel],
        ragged_take(pos, tfs, sel) if with_pos else None,
    )


def _drop(run: tuple, keep: np.ndarray) -> tuple | None:
    """A run without its dead postings (positions are ragged —
    segment-sliced with the same keep set); None if none survive."""
    if not keep.any():
        return None
    ids, w, tfs, dls, pos = run
    if pos is not None:
        from refimage_ray.index.pack import ragged_take

        pos = _frozen(ragged_take(pos, tfs, np.flatnonzero(keep)))
    return (
        _frozen(ids[keep]), _frozen(w[keep]), _frozen(tfs[keep]),
        None if dls is None else _frozen(dls[keep]), pos,
    )


def _list_column(t: pa.Table, name: str, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A list column as (flat values, per-row offsets into them)."""
    a = t.column(name).combine_chunks()
    vals = a.values.to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    return _frozen(vals), a.offsets.to_numpy()


def _widen(t: pa.Table) -> pa.Table:
    """64-bit offsets for the binary and list columns, so each whole
    column fits one array whatever the index size."""
    fields = [
        f.with_type(pa.large_binary()) if f.type == pa.binary()
        else f.with_type(pa.large_list(f.type.value_type))
        if pa.types.is_list(f.type) else f
        for f in t.schema
    ]
    return t.cast(pa.schema(fields))


class IndexReader:
    def __init__(self, index_dir: str) -> None:
        self.index_dir = index_dir
        man = load_manifest(index_dir)
        if man is None:
            raise FileNotFoundError(f"no manifest.json under {index_dir}")
        self.manifest = man
        # tombstones: deleted doc_ids filtered out at load (reference
        # analog: remove_embedding requires a full rebuild,
        # search/__init__.py:268-320 — we do logical deletes + compact)
        tomb = os.path.join(index_dir, "tombstones.parquet")
        if os.path.exists(tomb):
            self.tombstones = np.sort(
                pq.read_table(tomb)["doc_id"].to_numpy().astype(np.int64)
            )
        else:
            self.tombstones = np.zeros(0, dtype=np.int64)
        self.stats = man["stats"]
        self.num_shards = int(man["config"]["num_shards"])
        self.n_docs = int(self.stats["n_docs"])
        self.avgdl = float(self.stats["avgdl"])
        self._parts_by_shard: dict[int, list[dict]] = {}
        for p in man["partitions"]:
            self._parts_by_shard.setdefault(int(p["shard"]), []).append(p)
        for plist in self._parts_by_shard.values():
            plist.sort(key=lambda p: int(p["salt"]))

    def shards(self) -> list[int]:
        return sorted(self._parts_by_shard)

    def load_shards(self, shards: list[int] | None = None) -> dict[str, TermPostings]:
        """Load the posting lists of the given shards (all if None).

        One Arrow table over the shards' part files, rows ordered by
        ``(term, salt)`` (a term lives in one shard, so its salt rows
        become adjacent); each posting column decoded once
        (:func:`decode_term_runs`), each term's arrays read-only views
        of the flat columns — equal to concatenating the term's salt
        rows in salt order.  ``df`` and ``max_weight`` reduce over the
        term's rows; the block arrays are views of the flattened list
        columns.  Terms come back in the order of their first row in
        the shards' part files.

        Tombstone semantics (documented): logical deletes remove docs
        from RESULTS only; df / N / avgdl / weights keep their
        pre-delete values until a compaction/merge rebuilds them
        (Lucene-style deleted-docs behavior; the reference simply
        required a full rebuild, search/__init__.py:268-320).  Stored
        block fences stay valid as upper bounds.  A term whose
        postings are all deleted is absent.
        """
        if shards is None:
            shards = self.shards()
        tables = [
            pq.read_table(os.path.join(self.index_dir, p["path"]))
            for shard in shards
            for p in self._parts_by_shard.get(shard, [])
        ]
        if not tables or not sum(t.num_rows for t in tables):
            return {}
        t = _widen(pa.concat_tables(tables))
        order = pc.sort_indices(t, [("term", "ascending"), ("salt", "ascending")])
        t = t.take(order)
        term = t.column("term").combine_chunks()
        new_run = pc.not_equal(term[1:], term[:-1]).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate(([True], new_run)))
        rows = np.append(starts, t.num_rows)
        names = term.take(starts).to_pylist()
        df = np.add.reduceat(t["df"].to_numpy(), starts).tolist()
        mw = np.maximum.reduceat(t["max_weight"].to_numpy(), starts).tolist()
        bl, bl_off = _list_column(t, "block_last_doc", np.int64)
        bm, bm_off = _list_column(t, "block_max_weight", np.float64)
        blo, bmo = bl_off[rows].tolist(), bm_off[rows].tolist()
        runs = decode_term_runs(t, starts, self.tombstones)
        first_row = np.minimum.reduceat(order.to_numpy(), starts)
        out: dict[str, TermPostings] = {}
        for g in np.argsort(first_row).tolist():
            if runs[g] is None:
                continue
            ids, w, tfs, dls, positions = runs[g]
            out[names[g]] = TermPostings(
                df=df[g],
                doc_ids=ids,
                weights=w,
                tfs=tfs,
                max_weight=mw[g],
                block_last_doc=bl[blo[g] : blo[g + 1]],
                block_max_weight=bm[bmo[g] : bmo[g + 1]],
                dls=dls,
                positions=positions,
            )
        return out
