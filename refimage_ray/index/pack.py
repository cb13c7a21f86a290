"""Map-side combiner for the index shuffle — packed posting blocks.

The naive wide step ships one row per (term, doc) posting through the
all-to-all exchange; at N docs that is ~100·N tiny rows and the sort
machinery dominates.  This module packs each map batch's postings into
ONE row per gkey, COMPRESSED:

    (gkey, n, rlen: varbyte run lengths, docd: varbyte doc deltas,
     tf: varbyte, dl: varbyte, dict_hash: binary u64, dict_terms: str)

The pack is (term_hash, doc_id)-sorted, so term hashes form runs:
``dict_hash`` holds one u64 per run (it doubles as the hash→term
dictionary key array) and ``rlen`` the run lengths — ~0.1 B/posting
instead of 8.  Doc ids are ascending within each run → delta+varbyte
(absolute at run starts); tf/dl varbyte.  ~24 B/posting raw drops to
~5-7 B through the exchange; the added encode/decode is vectorized
numpy CPU work, which scales with cores — unlike the object-store
memcpy bandwidth it displaces (the single-box scaling ceiling measured
in BENCH/BASELINE.md).

The reducer decodes, concatenates, lexsorts (term_hash, doc_id) once,
and encodes exactly the same artifact as the row-wise reducer
(asserted byte-identical in tests).  This is the Ray Data expression
of a sort-shuffle map-side combine with spill compression (Spark's
combiner + shuffle codec).

The sort/delta/encode/slice core (:func:`pack_postings`) takes the
gkey of every posting from its caller, so the doc-partitioned build
(``docpart._pack_docshard``, keyed by doc shard) packs through the same
code into the same blob format.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from refimage_ray.config import EngineConfig
from refimage_ray.functions.codec import varbyte_decode
from refimage_ray.index.reader import binary_rows, run_bounds, varbyte_rows
from refimage_ray.stages.tokenize import tokenize_batch

def ragged_take(flat: np.ndarray, lens: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gather ragged segments: concatenate segments ``idx`` of a flat
    array partitioned by ``lens`` — fully vectorized (repeat+arange)."""
    if len(idx) == 0 or len(flat) == 0:
        return flat[:0]
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    sel_lens = lens[idx]
    total = int(sel_lens.sum())
    if total == 0:
        return flat[:0]
    out_off = np.concatenate(([0], np.cumsum(sel_lens)[:-1]))
    base = np.repeat(starts[idx], sel_lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_off, sel_lens)
    return flat[base + within]


PACK_SCHEMA = pa.schema(
    [
        ("gkey", pa.int64()),
        ("n", pa.int32()),
        ("rlen", pa.binary()),
        ("docd", pa.binary()),
        ("tf", pa.binary()),
        ("dl", pa.binary()),
        ("dict_hash", pa.binary()),
        ("dict_terms", pa.string()),
    ]
)


def doc_range_salts(
    doc_ids: np.ndarray, salt_buckets: int, doc_span: int
) -> np.ndarray:
    """Doc-range salt bucket for hot terms — division FIRST.

    The naive ``doc_id * S // doc_span`` overflows int64 for 63-bit
    hash doc ids (doc_id·8 > 2^63), silently producing salts of 0/-1;
    a salt of -1 folds into the PREVIOUS shard's gkey, so a hot term's
    postings landed in a file the term's shard routing never reads —
    a distributed-serving correctness bug at hash-id scale and the
    dominant partition skew in the 4M-doc bench (one 4.6M-posting
    reducer).  ``doc_id // ceil(span/S)`` cannot overflow and yields
    the same disjoint, monotone doc ranges."""
    width = (int(doc_span) + salt_buckets - 1) // salt_buckets
    return np.minimum(doc_ids // max(width, 1), salt_buckets - 1).astype(np.int64)


def cold_salts(th: np.ndarray, num_shards: int, salt_buckets: int) -> np.ndarray:
    """Salt bucket for non-hot terms: a term-hash spread (quotient bits,
    independent of the shard's modulus bits).  Pure function of the
    term, so query routing is unaffected — a cold term still lives
    whole in exactly one (shard, salt) file; this only stops every cold
    term of a shard from piling into the same reducer (measured 6.2×
    partition skew with all-cold-at-salt-0 at 4M docs)."""
    return ((th // np.uint64(num_shards)) % np.uint64(salt_buckets)).astype(
        np.int64
    )


def assign_gkeys(
    th: np.ndarray,
    doc_ids: np.ndarray,
    is_hot: np.ndarray,
    num_shards: int,
    salt_buckets: int,
    doc_span: int,
) -> np.ndarray:
    """gkey = (term_hash % P) · S + salt; salt = doc-range bucket for
    hot terms (the skew split), else a term-hash spread bucket."""
    shard = (th % np.uint64(num_shards)).astype(np.int64)
    salt = cold_salts(th, num_shards, salt_buckets)
    if is_hot.any():
        salt[is_hot] = doc_range_salts(doc_ids[is_hot], salt_buckets, doc_span)
    return shard * salt_buckets + salt


def pack_batch(
    batch: pa.Table,
    cfg: EngineConfig,
    hot_arr: pa.Array,
    doc_span: int,
    done_gkeys: np.ndarray,
    rank_ids: "np.ndarray | None" = None,
) -> pa.Table:
    """docs batch → packed posting rows (one per live gkey).

    With ``rank_ids`` (the sorted corpus doc-id universe, broadcast via
    ``ray.put``), doc ids travel as universe RANKS: rank deltas within
    a term run are ~n_docs / batch_size (≈2 varbyte bytes) instead of
    ~2^63 / n_docs for hash ids (6-8 bytes), and the ``dl`` column is
    dropped entirely — the reducer recovers both by indexing the same
    broadcast.  Gated on the universe fitting a broadcast (the
    NARROW_LOCAL_ROWS planning class); beyond it the absolute-id pack
    below is the fallback, and strided-dense doc ids are the
    scale-path equivalent (small deltas by construction)."""
    import pyarrow.compute as pc

    toks = tokenize_batch(batch, cfg)
    th = toks["term_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    doc = toks["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    is_hot = (
        pc.is_in(toks["term"], value_set=hot_arr).to_numpy(zero_copy_only=False)
        if len(hot_arr) and toks.num_rows else np.zeros(len(th), dtype=bool)
    )
    gkey = assign_gkeys(th, doc, is_hot, cfg.num_shards, cfg.salt_buckets, doc_span)
    return pack_postings(toks, gkey, done_gkeys, rank_ids)


def pack_postings(
    toks: pa.Table,
    gkey: np.ndarray,
    done_gkeys: "np.ndarray | None" = None,
    rank_ids: "np.ndarray | None" = None,
) -> pa.Table:
    """Tokenized postings + a gkey per posting → packed rows, one per
    gkey not in ``done_gkeys`` (resume skips them).  The core both
    layouts' map sides share: the term-partitioned build passes
    (shard, salt) gkeys (:func:`pack_batch`), the doc-partitioned one
    doc shards (``docpart._pack_docshard``)."""
    import pyarrow.compute as pc

    with_pos = "pos" in toks.column_names
    if done_gkeys is not None and len(done_gkeys):
        live = ~np.isin(gkey, done_gkeys)  # resume: partition checkpointed
        toks, gkey = toks.filter(pa.array(live)), gkey[live]
    if toks.num_rows == 0:
        if with_pos:
            return PACK_SCHEMA.append(pa.field("posb", pa.binary())).empty_table()
        return PACK_SCHEMA.empty_table()
    th = toks["term_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    doc = toks["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    tf = toks["tf"].to_numpy(zero_copy_only=False).astype(np.int32)
    order = np.lexsort((doc, th, gkey))
    gs, ths, docs_, tfs = gkey[order], th[order], doc[order], tf[order]
    if rank_ids is not None:
        # rank order == doc order, so the (gkey, th, doc) sort above is
        # also the (gkey, th, rank) sort; encode ranks as the "doc" ints
        ranks = np.searchsorted(rank_ids, docs_)
        if ranks.max() >= len(rank_ids) or not np.array_equal(rank_ids[ranks], docs_):
            raise ValueError("doc_id absent from broadcast universe")
        docs_ = ranks.astype(np.int64)

    # one row per gkey run; each varbyte column is encoded ONCE over
    # the whole sorted batch and cut at the gkey boundaries (varbyte is
    # per-value independent, so a slice of the full encoding equals
    # encoding the slice).  Doc deltas reset at each (gkey, th) run.
    new_run = np.ones(len(gs), dtype=bool)
    new_run[1:] = (ths[1:] != ths[:-1]) | (gs[1:] != gs[:-1])
    run_starts = np.flatnonzero(new_run)
    g_starts, g_ends = run_bounds(gs)
    rows = np.append(g_starts, len(gs))
    run_rows = np.searchsorted(run_starts, rows)
    doc_delta = docs_.copy()
    doc_delta[1:] -= docs_[:-1]
    doc_delta[new_run] = docs_[new_run]
    # per-pack term dictionary: each (gkey, th) run's hash and term
    run_terms = toks["term"].combine_chunks().take(pa.array(order[run_starts]))
    out = {
        "gkey": pa.array(gs[g_starts], pa.int64()),
        "n": pa.array(g_ends - g_starts, pa.int32()),
        "rlen": varbyte_rows(np.diff(np.append(run_starts, len(gs))), run_rows),
        "docd": varbyte_rows(doc_delta, rows),
        "tf": varbyte_rows(tfs, rows),
        "dl": pa.array([b""] * len(g_starts), pa.binary())
        if rank_ids is not None
        else varbyte_rows(toks["dl"].to_numpy(zero_copy_only=False)[order], rows),
        "dict_hash": binary_rows(ths[run_starts].view(np.uint8), 8 * run_rows),
        "dict_terms": pc.binary_join(
            pa.ListArray.from_arrays(pa.array(run_rows, pa.int32()), run_terms), "\n"
        ),
    }
    if with_pos:
        pos_flat = pc.list_flatten(toks["pos"].combine_chunks()).to_numpy(
            zero_copy_only=False
        ).astype(np.int32)
        pos_perm = ragged_take(pos_flat, tf.astype(np.int64), order)
        ctf = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
        out["posb"] = binary_rows(pos_perm.view(np.uint8), 4 * ctf[rows])
    return pa.table(out)


def unpack_group(
    group: pa.Table,
    universe: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple, "np.ndarray | None"]:
    """Packed rows of one gkey → concatenated, (hash, doc)-sorted
    posting arrays + hash→term lookup for :func:`lookup_terms` (+ flat
    positions when stored).  Every column is decoded once over all the
    rows: varbyte values are self-delimiting and each row's runs
    partition its postings, so the rows' concatenation is one valid
    stream."""
    import pyarrow.compute as pc

    def cat(name: str) -> bytes:
        return b"".join(group[name].to_pylist())

    rlen = varbyte_decode(cat("rlen")).astype(np.int64)
    hashes = np.frombuffer(cat("dict_hash"), np.uint64)
    th = np.repeat(hashes, rlen)
    # doc ids: prefix sum of the deltas, reset at each run start
    deltas = varbyte_decode(cat("docd")).astype(np.int64)
    cs = np.cumsum(deltas)
    starts = np.cumsum(rlen) - rlen
    doc = cs - np.repeat(cs[starts] - deltas[starts], rlen)
    tf = varbyte_decode(cat("tf")).astype(np.int32)
    if universe is not None:
        # rank-packed exchange: "doc" ints are universe ranks; recover
        # real doc ids and per-posting doc lengths from the broadcast
        u_ids, u_dls = universe
        dl = u_dls[doc].astype(np.int32)
        doc = u_ids[doc].astype(np.int64)
    else:
        dl = varbyte_decode(cat("dl")).astype(np.int32)
    # the rows' dictionaries, first occurrence of each hash wins
    names = pc.list_flatten(
        pc.split_pattern(group["dict_terms"].combine_chunks(), "\n")
    )
    if len(names) != len(hashes):
        raise ValueError("packed term dictionary misaligned with its hashes")
    keys, first = np.unique(hashes, return_index=True)
    lookup = (keys, names.take(pa.array(first)))
    order = np.lexsort((doc, th))
    pos_sorted = None
    if "posb" in group.column_names:
        pos_flat = np.frombuffer(cat("posb"), np.int32)
        pos_sorted = ragged_take(pos_flat, tf.astype(np.int64), order)
    return th[order], doc[order], tf[order], dl[order], lookup, pos_sorted


def lookup_terms(lookup: tuple, hashes: np.ndarray) -> pa.Array:
    """Term strings of ``hashes`` from an :func:`unpack_group` lookup."""
    keys, names = lookup
    idx = np.searchsorted(keys, hashes)
    if len(idx) and (idx.max() >= len(keys) or not np.array_equal(keys[idx], hashes)):
        raise KeyError("term hash missing from the packed dictionaries")
    return names.take(pa.array(idx))
