"""Distributed inverted-index build — the wide step.

Pipeline (all Ray Data, streaming)::

    docs(doc_id,text,...) ──map_batches──▶ +doc_len,n_chars ──write──▶ docs/
    docs/ ──aggregate──▶ N, Σdl → avgdl, max_doc          (tiny result)
    docs/ ──sampled tokenize──▶ df estimate ──▶ hot-term set (broadcast)
    docs/ ──map_batches(tokenize)──▶ (term,term_hash,doc_id,tf,dl)
          ──map_batches(+gkey: shard=term_hash%P, salt=doc-range bucket for hot terms)
          ──groupby(gkey).map_groups(BuildPartition)──▶ part-{shard}-{salt}.parquet
          ──▶ manifest rows (checkpoints + lineage + metrics)

Design notes (north_rule requirements):

- **Explicit partitioning**: the shuffle key is ``gkey = shard *
  salt_buckets + salt`` with ``shard = blake2b64(term) % P``.  Query
  actors recompute ``shard`` from the query term, so placement is a
  pure function of the term.
- **Skew (stopwords)**: a term whose estimated df exceeds
  ``hot_df_fraction * N`` is *salted*: its postings are split into
  ``S`` doc_id-range buckets, each built by a different reducer and
  written to a different file.  Because buckets are doc-ranges, the
  per-bucket lists are disjoint and sorted, so query-time merge is
  pure concatenation in salt order.  Hot-set detection is a
  deterministic sample, and only affects load balance — never
  correctness.
- **Resumability**: each (shard, salt) partition is written atomically
  and recorded in ``manifest.json`` with input lineage; a rerun skips
  completed partitions *before* the shuffle (filter on ``gkey``).
- **Weights, not doc lengths**: reducers precompute the BM25
  term-frequency impact ``tf / (tf + k1*(1-b+b*dl/avgdl))`` (float64)
  per posting, so query scoring needs no doc-length lookup
  (precomputed-impact indexing); ``idf`` is applied at query time from
  the per-term df.

Reference analogs: batch index add
(``/root/reference/src/refimage/search/__init__.py:147-200``), index
persistence (``search/__init__.py:322-360``), and the ingest/build
phase split (live index add commented out at
``/root/reference/src/refimage/api.py:851-852``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max, Sum

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.index.manifest import (
    atomic_write_bytes,
    completed_partitions,
    load_manifest,
    part_filename,
    save_manifest,
    save_metrics,
)
from refimage_ray.index.reader import encode_term_runs, run_bounds
from refimage_ray.query.scorer import bm25_weight
from refimage_ray.stages.tokenize import doc_stats_batch, tokenize_batch

INDEX_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("term_hash", pa.uint64()),
        ("shard", pa.int32()),
        ("salt", pa.int32()),
        ("df", pa.int64()),
        ("doc_ids", pa.binary()),      # delta+varbyte
        ("tfs", pa.binary()),          # varbyte
        ("dls", pa.binary()),          # varbyte (per-posting doc_len)
        ("weights", pa.binary()),      # float64 LE
        ("max_weight", pa.float64()),
        ("block_max_weight", pa.list_(pa.float64())),
        ("block_last_doc", pa.list_(pa.int64())),
    ]
)

MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("gkey", pa.int64()),
        ("shard", pa.int64()),
        ("salt", pa.int64()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("raw_bytes", pa.int64()),
        ("file_bytes", pa.int64()),
        ("path", pa.string()),
    ]
)

_KNUTH = np.uint64(2654435761)


def _sample_mask(doc_ids: np.ndarray, rate: float) -> np.ndarray:
    """Deterministic pseudo-random doc sample (multiplicative hashing).

    Stable across reruns/resumes and independent of block layout —
    required so the hot-term set (and therefore the artifact bytes)
    reproduce exactly.
    """
    if rate >= 1.0:
        return np.ones(doc_ids.shape, dtype=bool)
    h = (doc_ids.astype(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
    return h < np.uint64(int(rate * 4294967296.0))


def _encode_and_write(
    index_dir: str,
    cfg: EngineConfig,
    avgdl: float,
    gkey: int,
    terms: pa.Array,
    term_hashes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    raw_bytes: int,
    positions: "np.ndarray | None" = None,
) -> pa.Table:
    """Term-layout partition writer: (term, doc)-sorted posting arrays
    + term runs (``terms``/``term_hashes`` one per run) → one encoded
    partition file + its manifest row.  The row-wise and packed
    reducers and ``lifecycle.merge_indexes`` all write through it, and
    the columns come from the one encoder, ``reader.encode_term_runs``,
    so the artifact bytes cannot depend on the path."""
    shard, salt = divmod(gkey, cfg.salt_buckets)
    # BM25 term-frequency impact, float64 (see module docstring)
    weights = bm25_weight(tfs, dls.astype(np.float64), avgdl, cfg.k1, cfg.b)
    cols = encode_term_runs(
        starts, ends, doc_ids, tfs, dls, weights, cfg.block_size, positions
    )
    n_runs = len(starts)
    table = pa.table({
        "term": terms,
        "term_hash": pa.array(term_hashes, pa.uint64()),
        "shard": pa.array(np.full(n_runs, shard, np.int32)),
        "salt": pa.array(np.full(n_runs, salt, np.int32)),
        **{k: cols[k] for k in (*INDEX_SCHEMA.names[4:], "positions") if k in cols},
    })
    fname = part_filename(shard, salt)
    path = os.path.join(index_dir, fname)
    import io

    buf = io.BytesIO()
    pq.write_table(table, buf)
    atomic_write_bytes(path, buf.getvalue())

    return pa.table(
        {
            "gkey": pa.array([gkey], pa.int64()),
            "shard": pa.array([int(shard)], pa.int64()),
            "salt": pa.array([int(salt)], pa.int64()),
            "n_terms": pa.array([table.num_rows], pa.int64()),
            "n_postings": pa.array([len(doc_ids)], pa.int64()),
            "raw_bytes": pa.array([raw_bytes], pa.int64()),
            "file_bytes": pa.array([len(buf.getvalue())], pa.int64()),
            "path": pa.array([fname], pa.string()),
        }
    )


class BuildPartition:
    """Row-wise reducer: one (shard, salt) group of posting rows →
    one parquet file.  Numeric (term_hash, doc_id) sort; term strings
    taken only at run starts."""

    def __init__(self, index_dir: str, cfg: EngineConfig, avgdl: float) -> None:
        self.index_dir = index_dir
        self.cfg = cfg
        self.avgdl = float(avgdl)

    def __call__(self, group: pa.Table) -> pa.Table:
        gkey = int(group["gkey"][0].as_py())
        raw_bytes = int(group.nbytes)
        t = group.sort_by([("term_hash", "ascending"), ("doc_id", "ascending")])
        hashes = t["term_hash"].to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(hashes)
        terms = t["term"].combine_chunks().take(pa.array(starts))
        return _encode_and_write(
            self.index_dir, self.cfg, self.avgdl, gkey, terms, hashes[starts],
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["tf"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["dl"].to_numpy(zero_copy_only=False).astype(np.int64),
            starts, ends, raw_bytes,
        )


class PackedBuildPartition:
    """Packed-shuffle reducer: a group of map-side packed blobs for one
    gkey → the same partition file as :class:`BuildPartition` (shared
    encode core → byte-identical artifact).  ``universe_ref`` (when the
    rank-packed exchange is active) is the broadcast (sorted doc ids,
    aligned doc lens) the map side encoded ranks against."""

    def __init__(
        self, index_dir: str, cfg: EngineConfig, avgdl: float,
        universe_ref=None,
    ) -> None:
        self.index_dir = index_dir
        self.cfg = cfg
        self.avgdl = float(avgdl)
        self.universe_ref = universe_ref

    def __call__(self, group: pa.Table) -> pa.Table:
        from refimage_ray.index.pack import lookup_terms, unpack_group

        gkey = int(group["gkey"][0].as_py())
        raw_bytes = int(group.nbytes)
        universe = ray.get(self.universe_ref) if self.universe_ref is not None else None
        th, doc, tf, dl, lookup, positions = unpack_group(group, universe)
        starts, ends = run_bounds(th)
        return _encode_and_write(
            self.index_dir, self.cfg, self.avgdl, gkey,
            lookup_terms(lookup, th[starts]), th[starts],
            doc.astype(np.int64), tf.astype(np.int64), dl.astype(np.int64),
            starts, ends, raw_bytes, positions=positions,
        )


@dataclass
class BuildResult:
    index_dir: str
    manifest: dict
    metrics: dict


# Below this many staged rows the narrow side passes (stats, dedup-loser
# scan, hot-term sampling) run driver-local over the columnar parquet
# (pyarrow threaded reads) instead of as Ray stages: per-stage execution
# latency (~0.5-1 s each) dwarfs the actual work on small corpora, and
# the results are bit-identical by construction.  Size-based physical
# planning, same idea as broadcast-vs-shuffle join selection.
DRIVER_LOCAL_ROWS = int(os.environ.get("REFIMAGE_DRIVER_LOCAL_ROWS", "2000000"))

# The NARROW side passes (stats: 16 B/row, loser scan: 24 B/row) stay
# driver-local far beyond DRIVER_LOCAL_ROWS — 50 M rows is ~1 GB of
# columns and a ~1 s lexsort, vs a full Ray shuffle stage.  Beyond it
# the distributed variants (bit-identical, tested) take over.
NARROW_LOCAL_ROWS = int(os.environ.get("REFIMAGE_NARROW_LOCAL_ROWS", "50000000"))

# hot-term sampling: docs wanted in the estimation sample
HOT_SAMPLE_TARGET = 20000

# Smallest corpus the WIDER side-sample band (band "b") is sized for:
# the banded side sample covers any post-dedup corpus of at least this
# many docs, so even driver-local builds avoid re-reading the full text
# column for hot-term estimation.  Below it a full driver read is tiny.
SIDE_LOCAL_MIN = int(os.environ.get("REFIMAGE_HOT_SIDE_MIN", "500000"))

# absolute driver-memory bound on a side-sample read: if knob games
# inflated the needed bands, fall back to the distributed pass instead
# of concat-loading them (footer row counts are cheap to check)
SIDE_ROW_CAP_X = 50


def _side_bands_meta(side_dir: str) -> list[tuple[str, float, float]] | None:
    """Parse the persisted ``_RATE`` file → ``[(tag, lo, hi), ...]``
    contiguous from 0, or None if absent.  Handles the legacy single-
    float format (one untagged band from rate 0)."""
    path = os.path.join(side_dir, "_RATE")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        raw = f.read()
    try:
        meta = json.loads(raw)
        return [(b["tag"], float(b["lo"]), float(b["hi"]))
                for b in meta["bands"]]
    except (ValueError, KeyError, TypeError):
        return [("", 0.0, float(raw))]


def _side_sample_table(side_dir: str, rate: float) -> "pa.Table | None":
    """Load the side-sample bands covering a final sample ``rate``
    (mask thresholds are integer-identical to :func:`_sample_mask`, so
    the union of bands below ``rate`` is a superset of the final mask).
    Returns None when the bands don't cover ``rate`` or the needed rows
    exceed the driver cap — callers fall back to a full pass."""
    bands = _side_bands_meta(side_dir)
    if not bands or rate > bands[-1][2]:
        return None
    need = [b for b in bands if b[1] < rate]
    files = []
    for tag, _, _ in need:
        prefix = f"sample-{tag}-" if tag else "sample-"
        files.extend(
            os.path.join(side_dir, f)
            for f in sorted(os.listdir(side_dir))
            if f.startswith(prefix) and f.endswith(".parquet")
            # legacy untagged names have exactly one '-' segment
            and (tag or f.count("-") == 1)
        )
    if not files:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "text": pa.array([], pa.string())})
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if rows > SIDE_ROW_CAP_X * HOT_SAMPLE_TARGET:
        return None
    return pa.concat_tables([pq.read_table(f) for f in files])


class _StagePrefetcher:
    """Overlap the driver-local narrow side passes with stage 1.

    While the docs-write Dataset streams, a daemon thread incrementally
    (a) reads each completed staged parquet file's NARROW columns
    (``doc_id``, content-key halves, ``doc_len``) — the exact bytes the
    loser scan and the stats pass would otherwise re-read after the
    stage — and (b) tokenizes landed hot-sample band files into
    (term, doc_id) pair tables under a monotone over-mask (the sample
    rate implied by the rows seen so far, always ≥ the final rate; the
    exact final mask is applied by :func:`_hot_from_pairs`).  A parquet
    file only parses once its writer closed it (the footer lives at
    EOF), so partially-written files raise and are retried on the next
    sweep; a final sweep after the write completes reads anything
    missed, and any file that still fails there disables the affected
    prefetch (callers fall back to the synchronous passes).  All
    consumers (loser scan, stats, hot estimation) are row-order
    independent, so the results are identical to the synchronous reads
    — asserted by the cross-mode artifact byte-identity tests.
    """

    _NARROW = ["doc_id", "content_key", "content_key2", "doc_len"]

    def __init__(self, docs_dir: str, side_dir: str, cfg: EngineConfig,
                 narrow_cap: int | None = None,
                 max_pair_rate: float = 0.0) -> None:
        import threading

        self.docs_dir = docs_dir
        self.side_dir = side_dir
        self.cfg = cfg
        self.narrow_cap = NARROW_LOCAL_ROWS if narrow_cap is None else narrow_cap
        self._narrow: dict[str, pa.Table] = {}
        self._pairs: dict[str, pa.Table] = {}
        self._cols: list[str] | None = None
        self.has_keys = False
        self._rows = 0
        self._side_rows = 0
        self._narrow_ok = True
        # the sample files only contain rows with doc-id hash below the
        # bands' top rate, so the pairs are only valid for final rates
        # ≤ that coverage — cap the usable rate at it (0.0 = no bands
        # → pairs prefetch disabled entirely)
        self._pairs_ok = max_pair_rate > 0.0
        self.pair_min_rate = max_pair_rate
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="refimage-prefetch", daemon=True
        )

    def start(self) -> "_StagePrefetcher":
        self._thread.start()
        return self

    def _try_docs_file(self, fname: str, final: bool) -> None:
        path = os.path.join(self.docs_dir, fname)
        try:
            schema = pq.ParquetFile(path).schema_arrow
        except Exception:
            if final:
                self._narrow_ok = False  # unreadable after stage end
            return  # no footer yet → still being written; retry
        if self._cols is None:
            names = set(schema.names)
            if not {"doc_id", "doc_len"} <= names:
                self._narrow_ok = False
                return
            self.has_keys = {"content_key", "content_key2"} <= names
            self._cols = [c for c in self._NARROW if c in names]
        try:
            t = pq.read_table(path, columns=self._cols)
        except Exception:
            if final:
                self._narrow_ok = False
            return
        self._narrow[fname] = t
        self._rows += t.num_rows
        if self._rows > self.narrow_cap:
            # corpus too large for the driver-local pass class — the
            # distributed variants take over downstream; free the memory
            self._narrow_ok = self._pairs_ok = False
            self._narrow.clear()
            self._pairs.clear()

    def _try_side_file(self, fname: str, final: bool) -> None:
        path = os.path.join(self.side_dir, fname)
        try:
            t = pq.read_table(path)
        except Exception:
            if final:
                self._pairs_ok = False
            return
        # over-mask: rows seen so far only grow, so this rate is ≥ the
        # final guess rate and the final mask selects a subset of the
        # pairs kept here
        rate = min(1.0, HOT_SAMPLE_TARGET / max(1.0, 0.9 * self._rows))
        if rate < 1.0:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            t = t.filter(pa.array(_sample_mask(ids, rate)))
        self.pair_min_rate = min(self.pair_min_rate, rate)
        self._side_rows += t.num_rows
        if self._side_rows > SIDE_ROW_CAP_X * HOT_SAMPLE_TARGET:
            self._pairs_ok = False
            self._pairs.clear()
            return
        if t.num_rows:
            from refimage_ray.stages.tokenize import tokenize_batch

            self._pairs[fname] = tokenize_batch(t, self.cfg).select(
                ["term", "doc_id"]
            )
        else:
            self._pairs[fname] = pa.table(
                {"term": pa.array([], pa.string()),
                 "doc_id": pa.array([], pa.int64())}
            )

    def _sweep(self, final: bool = False) -> None:
        if self._narrow_ok and os.path.isdir(self.docs_dir):
            for f in sorted(os.listdir(self.docs_dir)):
                if not self._narrow_ok:
                    break
                if f.endswith(".parquet") and f not in self._narrow:
                    self._try_docs_file(f, final)
        if self._pairs_ok and os.path.isdir(self.side_dir):
            for f in sorted(os.listdir(self.side_dir)):
                if not self._pairs_ok:
                    break
                if (f.endswith(".parquet") and f.startswith("sample-")
                        and f not in self._pairs):
                    self._try_side_file(f, final)

    def _loop(self) -> None:
        while not self._stop.wait(0.1):
            self._sweep()

    def finish(self) -> tuple["pa.Table | None", "pa.Table | None"]:
        """Stop the watcher and return ``(narrow, pairs)`` — either may
        be ``None``, meaning the caller must run the synchronous pass."""
        self._stop.set()
        self._thread.join()
        self._sweep(final=True)
        narrow = pairs = None
        if self._narrow_ok and self._narrow:
            narrow = pa.concat_tables(
                [self._narrow[f] for f in sorted(self._narrow)]
            )
        if self._pairs_ok and self._pairs:
            pairs = pa.concat_tables(
                [self._pairs[f] for f in sorted(self._pairs)]
            )
        self._narrow.clear()
        self._pairs.clear()
        return narrow, pairs


def _hot_from_pairs(
    pairs: pa.Table,
    n_docs: int,
    losers: np.ndarray,
    cfg: EngineConfig,
    sample_target: int = HOT_SAMPLE_TARGET,
) -> tuple[list[str], int]:
    """Hot-term set from prefetched sample (term, doc_id) pairs —
    identical to :func:`_estimate_hot_terms_local` on the same sample:
    the pairs are the tokenization of an over-masked superset, and
    tokenization is per-row, so filtering the pairs by the exact final
    mask + loser set equals tokenizing exactly the filtered docs."""
    ids = pairs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    rate = min(1.0, sample_target / max(1, n_docs))
    mask = _sample_mask(ids, rate)
    if len(losers):
        from refimage_ray.functions.arrays import sorted_membership

        mask &= ~sorted_membership(losers, ids)
    sub = pairs.filter(pa.array(mask))
    if sub.num_rows == 0:
        return [], 0
    g = sub.select(["term"]).group_by("term").aggregate([([], "count_all")])
    df_s = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
    terms = np.asarray(g["term"].to_pylist(), dtype=object)
    sample_n = max(1, int(round(n_docs * rate)))
    scale = n_docs / sample_n
    hot = terms[df_s * scale >= cfg.hot_df_fraction * n_docs]
    return sorted(hot.tolist()), sample_n


def _staged_row_count(docs_dir: str) -> int:
    total = 0
    for f in os.listdir(docs_dir):
        if f.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(docs_dir, f)).metadata.num_rows
    return total


def _estimate_hot_terms(
    corpus: "ray.data.Dataset", n_docs: int, cfg: EngineConfig,
    sample_target: int = HOT_SAMPLE_TARGET,
) -> tuple[list[str], int]:
    """Estimated-df-based hot-term set from a deterministic doc sample."""
    rate = min(1.0, sample_target / max(1, n_docs))

    def sample_tokenize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = _sample_mask(ids, rate)
        sub = batch.filter(pa.array(mask))
        if sub.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df_part": pa.array([], pa.int64())})
        toks = tokenize_batch(sub, cfg)
        # (term, doc) pairs are unique → per-batch row count per term is
        # a partial df (combiner before the tiny groupby)
        g = toks.select(["term"]).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "df_part": pc.cast(g["count_all"], pa.int64())})

    df_est = (
        corpus.map_batches(sample_tokenize, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df_s"))
        .to_pandas()
    )
    if len(df_est) == 0:
        return [], 0
    sample_n = max(1, int(round(n_docs * rate)))
    scale = n_docs / sample_n
    hot = df_est[df_est["df_s"] * scale >= cfg.hot_df_fraction * n_docs]
    return sorted(hot["term"].tolist()), sample_n


def _tokenize_threaded(
    t: pa.Table, cfg: EngineConfig, chunk_rows: int = 4096
) -> pa.Table:
    """Driver-side tokenize of a sample table, chunked across threads.

    ``tokenize_batch`` is Arrow compute kernels (GIL released), so a
    thread pool gets real parallelism without spinning up a Ray stage
    for a ≤``HOT_SAMPLE_TARGET``-row input.  Per-chunk token tables are
    concatenated — identical rows (order within the concat differs, but
    every consumer aggregates), so df counts and the hot set are
    byte-for-byte what the single-call tokenize produces."""
    if t.num_rows <= chunk_rows:
        return tokenize_batch(t, cfg)
    from concurrent.futures import ThreadPoolExecutor

    chunks = [
        t.slice(off, chunk_rows) for off in range(0, t.num_rows, chunk_rows)
    ]
    with ThreadPoolExecutor(max_workers=min(8, len(chunks))) as pool:
        parts = list(pool.map(lambda c: tokenize_batch(c, cfg), chunks))
    return pa.concat_tables(parts)


def _estimate_hot_terms_local(
    t: pa.Table,
    n_docs: int,
    losers: np.ndarray,
    cfg: EngineConfig,
    sample_target: int = HOT_SAMPLE_TARGET,
) -> tuple[list[str], int]:
    """Driver-local hot-term estimation — identical sample mask,
    counting AND corpus basis to the distributed variant, no Ray
    stages.  ``t`` is the staged ``(doc_id, text)`` table (the read is
    overlapped with the loser scan); rate/threshold use the POST-dedup
    ``n_docs`` and losers are excluded from the sample, so the hot set
    — and hence the partition/salt layout of the artifact — is the
    same whichever side of the DRIVER_LOCAL_ROWS threshold a corpus
    lands on."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(losers):
        from refimage_ray.functions.arrays import sorted_membership

        hit = sorted_membership(losers, ids)
        t = t.filter(pa.array(~hit))
        ids = ids[~hit]
    rate = min(1.0, sample_target / max(1, n_docs))
    mask = _sample_mask(ids, rate)
    sub = t.filter(pa.array(mask))
    if sub.num_rows == 0:
        return [], 0
    toks = _tokenize_threaded(sub, cfg)
    g = toks.select(["term"]).group_by("term").aggregate([([], "count_all")])
    df_s = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
    terms = np.asarray(g["term"].to_pylist(), dtype=object)
    sample_n = max(1, int(round(n_docs * rate)))
    scale = n_docs / sample_n
    hot = terms[df_s * scale >= cfg.hot_df_fraction * n_docs]
    return sorted(hot.tolist()), sample_n


def build_index(
    docs_ds: "ray.data.Dataset | None",
    index_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    lineage: list[dict] | None = None,
    resume: bool = True,
    dedup_exact: bool = False,
    packed: bool = True,
    failpoint_reducer_once: bool = False,
) -> BuildResult:
    """Build (or resume building) the inverted index.

    ``docs_ds`` must yield columns ``doc_id:int64, text:string``
    (+ optional url/lang).  Pass ``docs_ds=None`` to resume purely from
    a previously-written ``docs/`` directory.

    With ``dedup_exact=True`` the staged docs may contain duplicate
    texts; a small-column shuffle (``stages/dedup.find_dup_losers``)
    identifies loser doc_ids, persisted to ``losers.parquet``, and all
    downstream passes (stats, hot sampling, tokenize) exclude them via
    a broadcast filter — the corpus itself is never re-shuffled for
    dedup.
    """
    os.makedirs(index_dir, exist_ok=True)
    docs_dir = os.path.join(index_dir, "docs")
    success = os.path.join(docs_dir, "_SUCCESS")
    side_dir = os.path.join(index_dir, "hot_sample")
    side_rate_path = os.path.join(side_dir, "_RATE")
    metrics: dict = {}
    t0 = time.perf_counter()

    # prefetched side-pass inputs (populated by _StagePrefetcher when
    # the docs artifact is (re)written this run; resume-from-checkpoint
    # keeps them None and the synchronous passes run as before)
    pre_narrow: "pa.Table | None" = None
    pre_pairs: "pa.Table | None" = None
    pre_has_keys = False
    pre_pair_rate = 1.0

    # ---- stage 1: docs artifact (metadata + corpus store) ----
    if not (resume and os.path.exists(success)):
        assert docs_ds is not None, "no docs dataset and no docs/ checkpoint"
        # A crashed earlier attempt (no _SUCCESS) may have left partial
        # parquet files; Ray's uniquely-named outputs would ADD to them
        # on re-run, duplicating docs and inflating N/df.  Clear first.
        if os.path.isdir(docs_dir):
            import shutil

            shutil.rmtree(docs_dir)
        if os.path.isdir(side_dir):
            import shutil

            shutil.rmtree(side_dir)

        # Hot-term side sample, folded into the docs-write pass so hot
        # estimation never re-reads the corpus text.  The doc_id-hash
        # sample mask is monotone in rate: the final rate
        # (HOT_SAMPLE_TARGET / n_docs) selects a SUBSET of any coarser
        # rate.  The sample is written in contiguous RATE BANDS so the
        # reader loads only the bands its corpus size needs:
        #   band a: h01 < T/DRIVER_LOCAL_ROWS  — covers n ≥ 2 M docs
        #   band b: up to T/SIDE_LOCAL_MIN     — covers n ≥ 500 k docs
        # so even driver-local builds skip the full text re-read; only
        # sub-SIDE_LOCAL_MIN corpora (where that read is trivially
        # small) fall back.  Setting the env overrides far BELOW their
        # defaults on a large corpus inflates the side sample
        # proportionally (test / small-box knobs — production tuning
        # should only raise them); the read side is additionally capped
        # in absolute rows (SIDE_ROW_CAP_X).
        side_bands: list[tuple[str, float, float]] = []
        if os.environ.get("REFIMAGE_HOT_SIDE", "1") != "0":
            rate_a = min(
                1.0, HOT_SAMPLE_TARGET / max(DRIVER_LOCAL_ROWS, HOT_SAMPLE_TARGET)
            )
            rate_b = min(
                1.0, HOT_SAMPLE_TARGET / max(SIDE_LOCAL_MIN, HOT_SAMPLE_TARGET)
            )
            side_bands = [("a", 0.0, rate_a)]
            if rate_b > rate_a:
                side_bands.append(("b", rate_a, rate_b))
        if side_bands:
            os.makedirs(side_dir, exist_ok=True)

        def attach_stats(batch: pa.Table) -> pa.Table:
            stats = doc_stats_batch(batch, cfg)
            b = batch
            for col in ("doc_len", "n_chars"):
                if col in b.column_names:
                    b = b.drop_columns([col])
                b = b.append_column(col, stats[col])
            if side_bands:
                import hashlib
                import io

                ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                # integer thresholds identical to _sample_mask, so the
                # union of bands below any rate r equals _sample_mask(r)
                h = (ids.astype(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
                for band, lo, hi in side_bands:
                    mask = (h >= np.uint64(int(lo * 4294967296.0))) & (
                        h < np.uint64(int(hi * 4294967296.0))
                    )
                    if not mask.any():
                        continue
                    sub = batch.select(["doc_id", "text"]).filter(pa.array(mask))
                    # deterministic name (doc_ids are globally unique →
                    # batches sample disjoint sets); task retries
                    # atomically rewrite the same bytes
                    tag = hashlib.blake2b(
                        ids[mask].tobytes(), digest_size=8
                    ).hexdigest()
                    buf = io.BytesIO()
                    pq.write_table(sub, buf)
                    atomic_write_bytes(
                        os.path.join(side_dir, f"sample-{band}-{tag}.parquet"),
                        buf.getvalue(),
                    )
            return b

        # batch_size here COALESCES upstream blocks (extraction runs with
        # small batches because html rows are wide) into ~16k-row blocks
        # → one sane parquet file/row-group per block instead of
        # thousands of 256-row fragments choking every downstream read
        prefetcher = None
        if os.environ.get("REFIMAGE_PREFETCH", "1") != "0":
            # overlap the narrow side passes with the write stage: the
            # watcher reads completed staged files / tokenizes landed
            # sample bands while the Dataset is still streaming
            prefetcher = _StagePrefetcher(
                docs_dir, side_dir, cfg,
                max_pair_rate=side_bands[-1][2] if side_bands else 0.0,
            ).start()
        staged = docs_ds.map_batches(
            attach_stats, batch_format="pyarrow", batch_size=16384
        )
        try:
            staged.write_parquet(docs_dir)
        except BaseException:
            if prefetcher is not None:
                prefetcher._stop.set()
            raise
        if os.environ.get("REFIMAGE_PRINT_STATS") == "1":
            print(staged.stats())
        if prefetcher is not None:
            pre_narrow, pre_pairs = prefetcher.finish()
            pre_has_keys = prefetcher.has_keys
            pre_pair_rate = prefetcher.pair_min_rate
        os.makedirs(docs_dir, exist_ok=True)  # empty corpus writes no files
        if side_bands:
            # persisted so a resume under different planning env vars
            # can check subset-rate validity before trusting the sample
            atomic_write_bytes(
                side_rate_path,
                json.dumps(
                    {"bands": [{"tag": t, "lo": lo, "hi": hi}
                               for t, lo, hi in side_bands]}
                ).encode(),
            )
        with open(success, "w") as f:
            f.write("")
    metrics["docs_write_sec"] = time.perf_counter() - t0

    staged_rows = (
        pre_narrow.num_rows if pre_narrow is not None
        else _staged_row_count(docs_dir)
    )
    driver_local = staged_rows <= DRIVER_LOCAL_ROWS
    narrow_local = driver_local or staged_rows <= NARROW_LOCAL_ROWS
    if staged_rows == 0:
        # degenerate empty corpus: valid, empty artifact
        manifest = save_manifest(
            index_dir,
            config={
                "num_shards": cfg.num_shards,
                "salt_buckets": cfg.salt_buckets,
                "block_size": cfg.block_size,
                "token_pattern": cfg.token_pattern,
                "term_filter": cfg.term_filter,
                "hot_df_fraction": cfg.hot_df_fraction,
            },
            stats={"n_docs": 0, "sum_dl": 0, "max_doc": 0, "avgdl": 1.0,
                   "hot_terms": [], "k1": cfg.k1, "b": cfg.b},
            lineage=lineage or [],
            partitions=[],
        )
        metrics.update({"total_sec": time.perf_counter() - t0, "n_docs": 0,
                        "n_postings": 0, "docs_per_sec": 0.0,
                        "postings_per_sec": 0.0, "shuffle_bytes": 0,
                        "index_bytes": 0, "n_partitions": 0})
        save_metrics(index_dir, metrics)
        return BuildResult(index_dir=index_dir, manifest=manifest, metrics=metrics)

    # ---- stage 1b: exact dedup via loser side-channel (optional) ----
    t1b = time.perf_counter()
    losers = np.zeros(0, dtype=np.int64)
    losers_path = os.path.join(index_dir, "losers.parquet")

    def _scan_losers_local() -> np.ndarray:
        from refimage_ray.functions.hashing import hex_prefix_u64, hex_suffix_u64

        # full 128-bit hash as two u64 halves — same comparison basis
        # as the distributed find_dup_losers (prefix-only dedup would
        # drop distinct texts colliding in the first 16 hex chars).
        # Staged numeric halves (24 B/row) are preferred over parsing
        # hex strings.
        if pre_narrow is not None and pre_has_keys:
            t = pre_narrow  # prefetched during the write stage
            keys = t["content_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
            keys2 = t["content_key2"].to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            schema_names = pq.ParquetDataset(docs_dir).schema.names
            if "content_key" in schema_names and "content_key2" in schema_names:
                t = pq.read_table(docs_dir, columns=["doc_id", "content_key",
                                                     "content_key2"])
                keys = t["content_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                keys2 = t["content_key2"].to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                t = pq.read_table(docs_dir, columns=["doc_id", "content_hash"])
                keys = hex_prefix_u64(t["content_hash"])
                keys2 = hex_suffix_u64(t["content_hash"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # single-key sort + tiny refinement instead of a 3-key lexsort:
        # the first pass groups equal 64-bit prefixes (O(n) radix), and
        # only rows inside equal-prefix runs — a set the size of the
        # dup groups plus rare prefix collisions — pay the full
        # (keys, keys2, ids) ordering.  Same keeper (min doc_id per
        # full-128-bit group) as the distributed find_dup_losers.
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        eq = ks[1:] == ks[:-1]
        if not eq.any():
            return np.zeros(0, dtype=np.int64)
        in_run = np.zeros(len(ks), dtype=bool)
        in_run[1:] = eq
        in_run[:-1] |= eq
        cand = order[in_run]
        cand = cand[np.lexsort((ids[cand], keys2[cand], keys[cand]))]
        ck, ck2, ci = keys[cand], keys2[cand], ids[cand]
        # ids-differ guard: a doc_id duplicated in the staged files
        # (write-retry anomaly) must not become its own loser — the
        # downstream filter drops by doc_id and would lose the keeper
        dup = (ck[1:] == ck[:-1]) & (ck2[1:] == ck2[:-1]) & (ci[1:] != ci[:-1])
        return np.sort(ci[1:][dup])

    def _read_stats_local() -> tuple:
        t = pq.read_table(docs_dir, columns=["doc_id", "doc_len"])
        return (
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64),
        )

    hot_future = stats_future = side_future = pool = None
    # the final sample rate is T/n_docs with post-dedup n_docs unknown
    # yet; prefetch bands covering n_docs ≥ 0.9×staged_rows (dedup
    # rarely removes more — when it does, the right bands are read
    # synchronously below, or the full fallback runs)
    side_rate_guess = min(
        1.0, HOT_SAMPLE_TARGET / max(1, int(staged_rows * 0.9))
    )
    side_meta = _side_bands_meta(side_dir)
    side_covers_guess = bool(side_meta) and side_rate_guess <= side_meta[-1][2]
    # prefetched pairs are usable iff the final sample rate (unknown
    # until post-dedup n_docs) lands at or below every over-mask rate
    # the watcher applied; the guess-level check gates the fallback
    # reads, the exact check happens at the hot-estimation site
    pairs_cover_guess = pre_pairs is not None and side_rate_guess <= pre_pair_rate
    if narrow_local and pre_narrow is None:
        # the narrow side passes read disjoint columns → overlap them
        # (pyarrow releases the GIL during decode); results are
        # combined deterministically below
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=3)
        stats_future = pool.submit(_read_stats_local)
        if side_covers_guess:
            # banded side sample written during docs-write: read only
            # the bands the corpus size needs, overlapped with the
            # loser scan; mask/threshold runs after, post-dedup basis
            side_future = pool.submit(
                _side_sample_table, side_dir, side_rate_guess
            )
        elif driver_local:
            # no usable side sample → full (doc_id, text) read; only
            # the I/O is overlapped here
            hot_future = pool.submit(
                pq.read_table, docs_dir, columns=["doc_id", "text"]
            )
    elif narrow_local and not pairs_cover_guess:
        # narrow columns prefetched but the hot-sample pairs are not
        # usable → overlap just the hot-input read with the loser scan
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1)
        if side_covers_guess:
            side_future = pool.submit(
                _side_sample_table, side_dir, side_rate_guess
            )
        elif driver_local:
            hot_future = pool.submit(
                pq.read_table, docs_dir, columns=["doc_id", "text"]
            )

    if dedup_exact:
        if resume and os.path.exists(losers_path):
            losers = pq.read_table(losers_path)["doc_id"].to_numpy().astype(np.int64)
        else:
            if narrow_local:
                losers = _scan_losers_local()
            else:
                from refimage_ray.stages.dedup import find_dup_losers

                losers = find_dup_losers(docs_dir)
            # persist in BOTH planning modes: losers.parquet is part of
            # the artifact contract (docs/ keeps staged rows; external
            # consumers — oracles, doc listings, a resumed build — must
            # be able to exclude losers without re-deriving them)
            import io as _io

            buf = _io.BytesIO()
            pq.write_table(pa.table({"doc_id": pa.array(losers, pa.int64())}), buf)
            atomic_write_bytes(losers_path, buf.getvalue())
    # Above this many losers the exact sorted array outgrows a broadcast
    # → swap in a Bloom filter (false positives drop extra docs — fine
    # for dedup; no false negatives).  Gate on narrow_local, NOT
    # driver_local: in the narrow class the stats / hot / rank-universe
    # bases are computed driver-side with the EXACT loser set, so the
    # corpus filter must drop the exact same docs or n_docs/avgdl/idf
    # would drift from the postings actually built.  In the fully
    # distributed class every pass flows through corpus_read and shares
    # whatever filter is broadcast — Bloom is consistent there.
    bloom_over = int(os.environ.get("REFIMAGE_BLOOM_LOSERS", "20000000"))
    if len(losers) > bloom_over and not narrow_local:
        from refimage_ray.stages.dedup import BloomFilter

        losers_ref = ray.put(BloomFilter.from_array(losers))
        metrics["loser_set"] = "bloom"
    else:
        losers_ref = ray.put(losers)
        metrics["loser_set"] = "exact"
    metrics["dedup_sec"] = time.perf_counter() - t1b
    metrics["n_dup_losers"] = int(len(losers))

    def drop_losers(batch: pa.Table) -> pa.Table:
        from refimage_ray.stages.dedup import BloomFilter

        excl = ray.get(losers_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if isinstance(excl, BloomFilter):
            hit = excl.contains_many(ids)
        else:
            if len(excl) == 0:
                return batch
            from refimage_ray.functions.arrays import sorted_membership

            hit = sorted_membership(excl, ids)
        return batch.filter(pa.array(~hit))

    def corpus_read(columns: list[str]) -> "ray.data.Dataset":
        ds = ray.data.read_parquet(docs_dir, columns=columns)
        if len(losers):
            ds = ds.map_batches(drop_losers, batch_format="pyarrow")
        return ds

    # ---- stage 2: global stats (tiny aggregate) ----
    t1 = time.perf_counter()
    if narrow_local:
        if pre_narrow is not None:
            ids = pre_narrow["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            dls = pre_narrow["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            ids, dls = stats_future.result()
        if len(losers):
            from refimage_ray.functions.arrays import sorted_membership

            hit = sorted_membership(losers, ids)
            ids, dls = ids[~hit], dls[~hit]
        n_docs = int(len(ids))
        sum_dl = int(dls.sum())
        max_doc = int(ids.max()) if n_docs else 0
    else:
        stats_ds = corpus_read(["doc_id", "doc_len"])
        agg = stats_ds.aggregate(
            Count(alias_name="n_docs"),
            Sum("doc_len", alias_name="sum_dl"),
            Max("doc_id", alias_name="max_doc"),
        )
        n_docs = int(agg["n_docs"])
        sum_dl = int(agg["sum_dl"] or 0)
        max_doc = int(agg["max_doc"] or 0)
    avgdl = (sum_dl / n_docs) if n_docs else 1.0
    metrics["stats_sec"] = time.perf_counter() - t1

    # ---- stage 3: hot-term estimation (sampled, deterministic) ----
    t2 = time.perf_counter()
    # prefer the banded side sample written during docs-write: the
    # final mask (rate = target / n_docs) is a subset of the union of
    # the persisted bands whenever rate ≤ their upper rate, so the hot
    # set is identical to a full-corpus pass without re-reading any
    # text (the mask/threshold run on the post-dedup basis below)
    rate_final = min(1.0, HOT_SAMPLE_TARGET / max(1, n_docs))
    use_pre_pairs = pre_pairs is not None and rate_final <= pre_pair_rate
    if use_pre_pairs:
        t_side = None
    elif side_future is not None and rate_final <= side_rate_guess:
        t_side = side_future.result()
    else:
        # dedup removed >10% (guess too narrow), no pool, or no
        # prefetch: read the needed bands synchronously — still tiny
        t_side = _side_sample_table(side_dir, rate_final)
    if use_pre_pairs:
        # the watcher already tokenized an over-masked superset of the
        # final sample during the write stage; apply the exact final
        # mask + loser filter → identical hot set, zero extra reads
        hot_terms, sample_n = _hot_from_pairs(pre_pairs, n_docs, losers, cfg)
        metrics["hot_source"] = "prefetch_pairs"
    elif t_side is not None:
        hot_terms, sample_n = _estimate_hot_terms_local(
            t_side, n_docs, losers, cfg
        )
        metrics["hot_source"] = "side_sample"
    elif driver_local:
        tbl = (
            hot_future.result()
            if hot_future is not None
            else pq.read_table(docs_dir, columns=["doc_id", "text"])
        )
        hot_terms, sample_n = _estimate_hot_terms_local(
            tbl, n_docs, losers, cfg
        )
        metrics["hot_source"] = "driver_local"
    else:
        hot_terms, sample_n = _estimate_hot_terms(
            corpus_read(["doc_id", "text"]), n_docs, cfg
        )
        metrics["hot_source"] = "distributed"
    if pool is not None:
        pool.shutdown(wait=False)
    metrics["hot_sample_docs"] = sample_n
    metrics["hot_terms"] = len(hot_terms)
    metrics["hot_sec"] = time.perf_counter() - t2

    # ---- stage 4: tokenize → gkey → shuffle → reducers ----
    t3 = time.perf_counter()
    done = completed_partitions(index_dir) if resume else set()
    done_gkeys = {s * cfg.salt_buckets + sl for (s, sl) in done}
    hot_ref = ray.put(pa.array(hot_terms, pa.string()))
    P, S = cfg.num_shards, cfg.salt_buckets
    doc_span = max_doc + 1

    def add_gkey(batch: pa.Table) -> pa.Table:
        from refimage_ray.index.pack import assign_gkeys

        hot_arr = ray.get(hot_ref)
        th = batch["term_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if len(hot_arr):
            is_hot = pc.is_in(batch["term"], value_set=hot_arr).to_numpy(
                zero_copy_only=False
            )
        else:
            is_hot = np.zeros(batch.num_rows, dtype=bool)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gkey = assign_gkeys(th, ids, is_hot, P, S, doc_span)
        out = batch.append_column("gkey", pa.array(gkey, pa.int64()))
        if done_gkeys:
            keep = ~np.isin(gkey, np.fromiter(done_gkeys, dtype=np.int64))
            out = out.filter(pa.array(keep))
        return out

    corpus = corpus_read(["doc_id", "text"])  # lazy; used by the wide step
    if cfg.store_positions and not packed:
        raise ValueError("store_positions requires the packed shuffle path")
    if packed:
        # map-side combiner: one blob row per (batch, gkey) through the
        # shuffle instead of one row per posting (see index/pack.py)
        from refimage_ray.index.pack import pack_batch

        done_arr = np.sort(np.fromiter(done_gkeys, dtype=np.int64)) if done_gkeys \
            else np.zeros(0, dtype=np.int64)

        # rank-packed exchange: when the stats pass already holds the
        # post-dedup (doc_id, doc_len) columns (the narrow-local
        # planning class), broadcast them sorted and ship universe
        # RANKS + no dl column through the shuffle — ~2 B/posting doc
        # deltas instead of 6-8 B for 63-bit hash ids (see pack.py)
        universe_ref = None
        if narrow_local:
            u_order = np.argsort(ids, kind="stable")
            universe_ref = ray.put(
                (ids[u_order], dls[u_order].astype(np.int32))
            )
            metrics["exchange"] = "rank"
        else:
            metrics["exchange"] = "absolute"

        def pack(batch: pa.Table) -> pa.Table:
            hot_arr = ray.get(hot_ref)
            rank_ids = (
                ray.get(universe_ref)[0] if universe_ref is not None else None
            )
            return pack_batch(batch, cfg, hot_arr, doc_span, done_arr, rank_ids)

        # Larger pack batches emit fewer, bigger combined rows through
        # the exchange (pack-row count ~ n_batches x live_gkeys); the
        # size was chosen by the bench sweep in BENCH/BASELINE.md.
        shuffled_in = corpus.map_batches(
            pack, batch_format="pyarrow", batch_size=16384
        )
        builder = PackedBuildPartition(index_dir, cfg, avgdl, universe_ref)
    else:
        shuffled_in = corpus.map_batches(
            tokenize_batch, batch_format="pyarrow"
        ).map_batches(add_gkey, batch_format="pyarrow")
        builder = BuildPartition(index_dir, cfg, avgdl)

    def build_partition(group: pa.Table) -> pa.Table:
        if failpoint_reducer_once:
            # fault-injection hook (tests): hard-kill ONE worker
            # process mid-reducer (os._exit = the lost-node failure
            # mode Ray retries; a raised exception would be an
            # application error, which Ray Data deliberately does NOT
            # retry).  Atomic O_EXCL marker → exactly one death per
            # marker lifetime.  Captured by value in this closure so
            # it ships to workers (a driver-side monkeypatch would
            # not: cloudpickle pickles classes by reference).
            try:
                fd = os.open(
                    "/tmp/refimage-failpoint-once", os.O_CREAT | os.O_EXCL
                )
                os.close(fd)
                os._exit(1)
            except FileExistsError:
                pass
        _t = time.perf_counter()
        out = builder(group)
        # per-reducer wall time rides the manifest rows home so the
        # driver can split shuffle_build_sec into "reducer compute"
        # vs "exchange" (Amdahl evidence for the scaling analysis)
        return out.append_column(
            "reducer_sec",
            pa.array([time.perf_counter() - _t] * out.num_rows,
                     pa.float64()),
        )

    manifest_ds = shuffled_in.groupby("gkey").map_groups(
        build_partition, batch_format="pyarrow"
    )
    new_rows = manifest_ds.take_all()
    metrics["shuffle_build_sec"] = time.perf_counter() - t3
    if os.environ.get("REFIMAGE_PRINT_STATS") == "1":
        # per-operator wall/cpu/memory breakdown of the wide step
        print(manifest_ds.stats())

    # ---- stage 5: manifest ----
    prior = load_manifest(index_dir) if resume else None
    parts: dict[tuple[int, int], dict] = {}
    if prior:
        for p in prior.get("partitions", []):
            if (int(p["shard"]), int(p["salt"])) in done:
                parts[(int(p["shard"]), int(p["salt"]))] = p
    metrics["reducer_wall_sec"] = round(
        sum(float(r.get("reducer_sec") or 0.0) for r in new_rows), 3
    )
    for r in new_rows:
        p = {k: (v if isinstance(v, str) else int(v))
             for k, v in r.items() if k != "reducer_sec"}
        parts[(p["shard"], p["salt"])] = p

    stats = {
        "n_docs": n_docs,
        "sum_dl": sum_dl,
        "max_doc": max_doc,
        "avgdl": avgdl,
        "hot_terms": hot_terms,
        "k1": cfg.k1,
        "b": cfg.b,
    }
    manifest = save_manifest(
        index_dir,
        config={
            "num_shards": P,
            "salt_buckets": S,
            "block_size": cfg.block_size,
            "token_pattern": cfg.token_pattern,
            "term_filter": cfg.term_filter,
            "hot_df_fraction": cfg.hot_df_fraction,
        },
        stats=stats,
        lineage=lineage or [],
        partitions=list(parts.values()),
    )

    total = time.perf_counter() - t0
    n_postings = sum(p["n_postings"] for p in parts.values())
    # skew evidence: how evenly the salted shuffle spread reducer work
    sizes = sorted(p["n_postings"] for p in parts.values())
    if sizes:
        mean_sz = n_postings / len(sizes)
        metrics["partition_postings_max"] = int(sizes[-1])
        metrics["partition_postings_p50"] = int(sizes[len(sizes) // 2])
        metrics["partition_skew_ratio"] = round(sizes[-1] / max(mean_sz, 1), 3)
    metrics.update(
        {
            "total_sec": total,
            "n_docs": n_docs,
            "n_postings": n_postings,
            "docs_per_sec": n_docs / total if total else 0.0,
            "postings_per_sec": n_postings / total if total else 0.0,
            "shuffle_bytes": sum(p["raw_bytes"] for p in parts.values()),
            "index_bytes": sum(p["file_bytes"] for p in parts.values()),
            "n_partitions": len(parts),
        }
    )
    save_metrics(index_dir, metrics)
    return BuildResult(index_dir=index_dir, manifest=manifest, metrics=metrics)
