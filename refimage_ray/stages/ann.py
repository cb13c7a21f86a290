"""Similarity search over embedding columns (``list<float>``).

The direct analog of the reference's vector path: FAISS ``IndexFlatIP``
exact cosine top-k with L2 normalization
(``/root/reference/src/refimage/search/__init__.py:130-133,243-261``).
Two paths:

- :func:`brute_force_topk` — exact cosine top-k of every query against
  the whole embeddings dataset.  The query matrix is broadcast ONCE
  via ``ray.put`` (never re-shipped per batch); each batch computes a
  numpy matmul and emits only its per-batch top-k partials; a final
  per-query reduction merges partials.  This is the scale baseline.
- :func:`lsh_bucketed_topk` — random-hyperplane LSH: probe only
  vectors whose sign-bucket matches the query's (plus multi-probe
  neighbors).  Approximate; the scale path when brute force is too
  wide.  Planes are seeded → deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (zero-copy flatten)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    import pyarrow.compute as pc

    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    n = len(col)
    if n == 0:
        # reshape(0, -1) raises on an empty array; an empty block from
        # an upstream filter/fragment must pass through, not crash
        d = col.type.value_type
        return np.zeros((0, 0), np.float64) if d is not None else flat
    return flat.reshape(n, -1).astype(np.float64)


def _topk_candidates(s: np.ndarray, kk: int) -> np.ndarray:
    """Indices of every entry scoring >= the kk-th largest value — a
    SUPERSET of any top-kk, so boundary TIES survive the per-batch
    partial (argpartition alone drops tied lower vec_ids
    nondeterministically) and the final (score desc, vec_id asc) merge
    stays exact."""
    if len(s) <= kk:
        return np.arange(len(s))
    kth = np.partition(s, len(s) - kk)[len(s) - kk]
    return np.flatnonzero(s >= kth)


def _row_dots(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``m · q`` per row as an elementwise product and a row sum, for
    every score an operator RETURNS: each row is summed on its own in
    a fixed order, so a score cannot depend on how many rows share the
    call.  A BLAS GEMV/GEMM (``m @ q``) picks its summation order by
    matrix shape, which made exact cosines differ in the last ulp
    across block layouts."""
    return (m * q).sum(axis=1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0  # guard ÷0 (reference: search/__init__.py:130-133)
    return m / norms


_TOPK_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("score", pa.float64())]
)


def _combine_topk_fn(k: int, *, schema: pa.Schema = _TOPK_SCHEMA,
                     rank_col: str = "score"):
    """Per-block (query, ``rank_col`` desc, vec_id asc) top-k combiner.

    Always returns a TYPED Arrow table — an empty exchange partition
    would otherwise yield a schema-less block, firing Ray's "RefBundle
    with a different schema" drift warning and breaking schema
    agreement across output blocks when a filter legitimately empties
    a partition.
    """

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        df = batch.to_pandas().sort_values(
            ["query_id", rank_col, "vec_id"],
            ascending=[True, False, True], kind="mergesort",
        )
        df = df.groupby("query_id", sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False).cast(schema)

    return combine


def _reduce_topk(
    partials: "ray.data.Dataset", k: int, n_q: int, *, fanin: int = 32,
    schema: pa.Schema = _TOPK_SCHEMA, rank_col: str = "score",
) -> pa.Table:
    """Tree-reduce per-batch top-k partials to global per-query top-k.

    Deliberately NOT ``groupby("query_id").map_groups``: a sort-based
    group exchange emits schema-less empty partitions at small scale
    (Ray's ``_apply_udf_to_groups`` never calls the UDF on an empty
    block) and costs a comparison sort of all partials at large scale.
    Two STREAMING combine passes (no exchange; each coalesces enough
    partial rows that per-query top-k shrinks the batch ≥64×, so two
    passes reduce ≥4096×), then — ONLY when the query set is large
    enough that the streamed residue could still scale with block
    count — one ``repartition(fanin)`` barrier pass that hard-bounds
    the driver collect at ``fanin · n_q · k`` rows.  Small inputs
    never pay the barrier's fixed cost (it regressed the bench 25%
    when unconditional); large inputs keep a block-count-independent
    driver bound.  Every intermediate block carries the explicit
    ``_TOPK_SCHEMA``, so the pipeline is warning-free and
    schema-stable end to end.
    """
    from refimage_ray.stages.dedup_near import collect_small

    combine = _combine_topk_fn(k, schema=schema, rank_col=rank_col)
    group = max(1, n_q * k)
    combine_rows = max(65536, 64 * group)
    lvl = partials.map_batches(
        combine, batch_size=combine_rows, batch_format="pyarrow"
    ).map_batches(
        combine, batch_size=combine_rows, batch_format="pyarrow"
    )
    if group >= 4096:
        # n_q·k this large → the ≥4096× streamed reduction may leave
        # O(n_blocks/4096 · n_q · k) rows; one barrier pass bounds it
        lvl = lvl.repartition(fanin).map_batches(
            combine, batch_size=None, batch_format="pyarrow"
        )
    # the final merge IS the same combiner, applied once to the
    # collected output
    return combine(collect_small(lvl, schema))


def brute_force_topk(
    emb_ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k for each query row → (query_id, vec_id, score).

    Scores are cosine similarity in [−1, 1]; ties broken by vec_id asc
    (the determinism contract of `query/scorer.py`).
    """
    qm = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    q_ref = ray.put(qm)

    def partial_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block: pass through, don't matmul
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        q = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_to_matrix(batch[emb_col]))
        out_q, out_id, out_s = [], [], []
        kk = min(k, len(ids))
        for qi in range(q.shape[0]):  # loop over queries (few), vectorized over vectors
            s = _row_dots(m, q[qi])
            sel = _topk_candidates(s, kk)
            out_q.append(np.full(len(sel), qi, dtype=np.int64))
            out_id.append(ids[sel])
            out_s.append(s[sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    return _reduce_topk(partials, k, qm.shape[0])


def _hyperplanes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_planes, dim))


def _bucket_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return signs.astype(np.int64) @ weights


def lsh_bucketed_topk(
    emb_ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    *,
    n_planes: int = 8,
    seed: int = 42,
    multiprobe: int = 1,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """Approximate cosine top-k: only vectors in the query's sign
    bucket (± ``multiprobe`` bit flips) are scored.  Recall improves
    with multiprobe; exactness is NOT guaranteed (documented)."""
    qm = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    planes = _hyperplanes(qm.shape[1], n_planes, seed)
    qb = _bucket_of(qm, planes)
    probe: set[int] = set()
    for b in qb.tolist():
        probe.add(b)
        if multiprobe >= 1:
            for bit in range(n_planes):
                probe.add(b ^ (1 << bit))
    probe_arr = np.fromiter(sorted(probe), dtype=np.int64)
    q_ref = ray.put((qm, planes, probe_arr))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        q, pl, pr = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_to_matrix(batch[emb_col]))
        buckets = _bucket_of(m, pl)
        keep = np.isin(buckets, pr)
        ids, m = ids[keep], m[keep]
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        out = []
        for qi in range(q.shape[0]):
            s = _row_dots(m, q[qi])
            kk = min(k, len(s))
            sel = _topk_candidates(s, kk)
            out.append(
                pa.table(
                    {
                        "query_id": pa.array(np.full(len(sel), qi), pa.int64()),
                        "vec_id": pa.array(ids[sel], pa.int64()),
                        "score": pa.array(s[sel], pa.float64()),
                    }
                )
            )
        return pa.concat_tables(out)

    partials = emb_ds.map_batches(partial, batch_format="pyarrow")
    return _reduce_topk(partials, k, qm.shape[0])


def _kmeans_lite(
    sample: np.ndarray, n_centroids: int, iters: int = 8
) -> np.ndarray:
    """Deterministic Lloyd iterations on a (normalized) sample —
    no RNG: init = the first k sample rows (sample order is itself a
    deterministic hash order).  Driver-side; the sample is small."""
    k = min(n_centroids, len(sample))
    cents = sample[:k].copy()
    for _ in range(iters):
        assign = (sample @ cents.T).argmax(axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    cents[c] = m / n
    return cents


def ivf_topk(
    emb_ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    *,
    n_centroids: int = 16,
    nprobe: int = 4,
    sample_rows: int = 2048,
    centroids: "np.ndarray | None" = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """IVF-style approximate top-k: cluster on a deterministic sample,
    then score ONLY vectors whose nearest centroid is among each
    query's ``nprobe`` closest centroids.  The coarse-quantizer analog
    of the reference's declared-but-unimplemented ``index_type='ivf'``
    (``/root/reference/src/refimage/config.py:50-52``, commented-out
    IVF at ``search/__init__.py:88-90``) — here actually implemented.
    Approximate by design; recall grows with nprobe.

    ``centroids`` overrides the sample-trained coarse quantizer with a
    caller-fixed one (normalized here; assignment is by cosine, so
    scale is irrelevant).  With SEEDED centroids the whole probe
    geometry is a literal — that is what lets the driver value-oracle
    ``knn_cosine_ivf`` in SQL (the hyperplane trick of
    ``lsh_bucketed_topk``, extended to argmax-over-literal-centroids).
    """
    qm = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    if centroids is not None:
        cents = _normalize(np.asarray(centroids, dtype=np.float64))
    else:
        # deterministic sample: first rows in stored order up to
        # sample_rows
        head = emb_ds.limit(sample_rows).to_pandas()
        sm = _normalize(np.stack(head[emb_col].to_numpy()).astype(np.float64))
        cents = _kmeans_lite(sm, n_centroids)
    # stable sort: probe-list ties break toward the lower centroid id,
    # matching the SQL oracle's (sim DESC, j ASC) row_number order
    q_cent = np.argsort(-(qm @ cents.T), axis=1,
                        kind="stable")[:, :nprobe]  # (nq, nprobe)
    probe_union = np.unique(q_cent)
    state = ray.put((qm, cents, q_cent, probe_union))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        q, C, qc, probe = ray.get(state)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_to_matrix(batch[emb_col]))
        assign = (m @ C.T).argmax(axis=1)
        keep = np.isin(assign, probe)
        ids, m, assign = ids[keep], m[keep], assign[keep]
        out_q, out_id, out_s = [], [], []
        for qi in range(q.shape[0]):
            sel = np.isin(assign, qc[qi])
            if not sel.any():
                continue
            s = _row_dots(m[sel], q[qi])
            kk = min(k, len(s))
            top = _topk_candidates(s, kk)
            out_q.append(np.full(len(top), qi, dtype=np.int64))
            out_id.append(ids[sel][top])
            out_s.append(s[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    partials = emb_ds.map_batches(partial, batch_format="pyarrow")
    return _reduce_topk(partials, k, qm.shape[0])


_NEAR_DUP_SCHEMA = pa.schema(
    [("vec_a", pa.int64()), ("vec_b", pa.int64()), ("cosine", pa.float64())]
)


def _pairs_within(
    ids: np.ndarray, m: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (a<b, cos≥tau) pairs within one co-located set (vectorized
    triu + matmul); ids must be sorted ascending."""
    if len(ids) < 2:
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(0, np.float64)
    sims = m @ m.T
    ia, ib = np.triu_indices(len(ids), k=1)
    hit = sims[ia, ib] >= tau
    return ids[ia[hit]], ids[ib[hit]], sims[ia, ib][hit]


def _pairs_across(
    ids_l: np.ndarray, m_l: np.ndarray, ids_r: np.ndarray, m_r: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross pairs between two disjoint co-located sets, a<b ordered."""
    if not len(ids_l) or not len(ids_r):
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(0, np.float64)
    sims = m_l @ m_r.T
    li, ri = np.nonzero(sims >= tau)
    a = ids_l[li]
    b = ids_r[ri]
    s = sims[li, ri]
    swap = a > b
    a2 = np.where(swap, b, a)
    b2 = np.where(swap, a, b)
    return a2, b2, s


def embedding_near_dup_pairs(
    emb_ds: "ray.data.Dataset",
    *,
    tau: float = 0.98,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    group_col: str | None = None,
    method: str = "block",
    blocks: int = 8,
    n_planes: int = 8,
    seed: int = 42,
) -> pa.Table:
    """Embedding-cosine near-dup pairs (cos ≥ tau) — distributed.

    Three blocking strategies, none of which materializes the dataset
    on the driver:

    - ``group_col`` given: compare only WITHIN groups (a precomputed
      blocking key — label, LSH bucket, cluster).  One shuffle.
    - ``method="block"`` (default): EXACT all-pairs, distributed —
      each vector is replicated to its ``blocks`` block-pair groups
      (classic block-nested-loop join); every unordered pair is
      compared in exactly one group via a matmul.  O(n²/B²) work and
      memory per reducer, replication factor B per vector.
    - ``method="lsh"``: approximate — sign-bucket the vectors
      (:func:`_bucket_of`, ±1-bit multiprobe emission) and compare
      within buckets; pairs whose codes differ in >2 bits are missed
      (documented recall trade-off; the scale default when n² is off
      the table).
    """
    from refimage_ray.stages.dedup_near import collect_small

    def finalize(pairs_ds: "ray.data.Dataset") -> pa.Table:
        out = collect_small(pairs_ds, _NEAR_DUP_SCHEMA)
        return out.sort_by([("vec_a", "ascending"), ("vec_b", "ascending")])

    def pairs_df(a, b, s) -> pd.DataFrame:
        return pd.DataFrame(
            {"vec_a": a.astype(np.int64), "vec_b": b.astype(np.int64),
             "cosine": s.astype(np.float64)}
        )

    if group_col is not None:

        def within_group(g: pd.DataFrame) -> pd.DataFrame:
            order = np.argsort(g[id_col].to_numpy().astype(np.int64), kind="stable")
            ids = g[id_col].to_numpy().astype(np.int64)[order]
            m = _normalize(np.stack(g[emb_col].to_numpy()[order]).astype(np.float64))
            return pairs_df(*_pairs_within(ids, m, tau))

        return finalize(
            emb_ds.groupby(group_col).map_groups(within_group, batch_format="pandas")
        )

    if method == "lsh":
        from refimage_ray.functions.packexchange import (
            pack_pairs_distinct,
            packed_empty,
            unpack_group,
            unpack_pairs_distinct,
        )

        planes = _hyperplanes_lazy(emb_ds, emb_col, n_planes, seed)
        dim = planes.shape[1]
        planes_ref = ray.put(planes)
        pair_buckets = 256
        _EMPTY_VEC_PACK = packed_empty(["ids", "emb"], bucket_col="lshb")
        _EMPTY_PAIR_PACK = packed_empty(["a", "b", "c"],
                                        bucket_col="pair_bucket")

        # PACKED exchanges (functions/packexchange.py): the bucket rows
        # are vectors × (n_planes+1) multiprobe emissions and the pair
        # rows one per (pair, shared bucket) — both row-granular before
        def pack_bucket_rows(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _EMPTY_VEC_PACK
            pl = ray.get(planes_ref)
            ids = batch[id_col].to_numpy(
                zero_copy_only=False).astype(np.int64)
            m = _normalize(_to_matrix(batch[emb_col]))
            base = _bucket_of(m, pl)
            # multiprobe emission: own bucket + every 1-bit flip, so
            # two vectors collide iff their codes differ in <= 2 bits
            flips = np.array([0] + [1 << b for b in range(pl.shape[0])],
                             dtype=np.int64)
            bkt = (base[None, :] ^ flips[:, None]).ravel()
            rep_ids = np.tile(ids, len(flips))
            rep_rows = np.tile(np.arange(len(ids)), len(flips))
            order = np.argsort(bkt, kind="stable")
            sb = bkt[order]
            change = np.ones(len(sb), dtype=bool)
            change[1:] = sb[1:] != sb[:-1]
            bounds = np.flatnonzero(change)
            ends = np.append(bounds[1:], len(sb))
            g_ids = rep_ids[order]
            g_rows = rep_rows[order]
            return pa.table({
                "lshb": pa.array([int(sb[lo]) for lo in bounds], pa.int64()),
                "ids": pa.array(
                    [g_ids[lo:hi].tobytes() for lo, hi in zip(bounds, ends)],
                    pa.binary()),
                "emb": pa.array(
                    [m[g_rows[lo:hi]].ravel().tobytes()
                     for lo, hi in zip(bounds, ends)],
                    pa.binary()),
            })

        def within_bucket(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return _EMPTY_PAIR_PACK
            arrs = unpack_group(g, {"ids": np.int64, "emb": np.float64})
            ids = arrs["ids"]
            m = arrs["emb"].reshape(-1, dim)
            # defensive distinct (mirrors the pre-pack reducer), then
            # the ascending-id order _pairs_within requires
            ids_u, first = np.unique(ids, return_index=True)
            a, b2, cos = _pairs_within(ids_u, m[first], tau)
            if not len(a):
                return _EMPTY_PAIR_PACK
            return pack_pairs_distinct(a, b2, {"c": cos},
                                       buckets=pair_buckets)

        def dedup_pairs(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return _NEAR_DUP_SCHEMA.empty_table()
            arrs = unpack_pairs_distinct(g, {"c": np.float64})
            # cosine is a pure function of the pair — first-kept ==
            # the Min("cosine") the old native aggregate computed
            return pa.table({
                "vec_a": pa.array(arrs["a"], pa.int64()),
                "vec_b": pa.array(arrs["b"], pa.int64()),
                "cosine": pa.array(arrs["c"], pa.float64()),
            })

        return finalize(
            emb_ds.map_batches(pack_bucket_rows, batch_format="pyarrow")
            .groupby("lshb")
            .map_groups(within_bucket, batch_format="pyarrow")
            .groupby("pair_bucket")
            .map_groups(dedup_pairs, batch_format="pyarrow")
        )

    # method == "block": exact distributed block-pair comparison
    B = int(blocks)

    def to_block_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blk = np.abs(ids * np.int64(2654435761)) % np.int64(B)
        outs = []
        for other in range(B):
            i = np.minimum(blk, other)
            j = np.maximum(blk, other)
            outs.append(
                pa.table(
                    {
                        "bpair": pa.array(i * B + j, pa.int64()),
                        "blk": pa.array(blk, pa.int64()),
                        id_col: pa.array(ids, pa.int64()),
                        emb_col: batch[emb_col],
                    }
                )
            )
        return pa.concat_tables(outs)

    def block_pair(g: pd.DataFrame) -> pd.DataFrame:
        bpair = int(g["bpair"].iloc[0])
        i, j = bpair // B, bpair % B
        ids = g[id_col].to_numpy().astype(np.int64)
        blk = g["blk"].to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids, blk = ids[order], blk[order]
        m = _normalize(np.stack(g[emb_col].to_numpy()[order]).astype(np.float64))
        if i == j:
            return pairs_df(*_pairs_within(ids, m, tau))
        left = blk == i
        return pairs_df(
            *_pairs_across(ids[left], m[left], ids[~left], m[~left], tau)
        )

    return finalize(
        emb_ds.map_batches(to_block_rows, batch_format="pyarrow")
        .groupby("bpair")
        .map_groups(block_pair, batch_format="pandas")
    )


def _hyperplanes_lazy(
    emb_ds: "ray.data.Dataset", emb_col: str, n_planes: int, seed: int
) -> np.ndarray:
    """Hyperplanes need the dim; read it from the schema (list<float>
    is variable-length, so peek one row — a bounded read, not a
    materialization)."""
    first = emb_ds.limit(1).take_all()
    dim = len(first[0][emb_col])
    return _hyperplanes(dim, n_planes, seed)


_PQ_POOL_SCHEMA = pa.schema([
    ("query_id", pa.int64()), ("vec_id", pa.int64()),
    ("adc", pa.float64()), ("score", pa.float64()),
])


def pq_topk(
    emb_ds: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    *,
    m: int = 8,
    n_codes: int = 16,
    pool_factor: int = 4,
    sample_rows: int = 2048,
    codebooks: "np.ndarray | None" = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pa.Table:
    """Product-quantized approximate top-k with exact re-ranking
    (``stages/pq.py``): codebooks train on the same deterministic
    sample contract as :func:`ivf_topk` (or are caller-fixed via
    ``codebooks=`` — seeded literals make the whole probe SQL-
    expressible, the ``knn_cosine_pq`` value-oracle path).

    LAYOUT-INDEPENDENT pool: each batch emits its ADC tie-superset of
    the GLOBAL ``pool_factor × k`` candidate pool (with the exact
    cosine already attached — candidates are few, the matmul is tiny);
    the streaming reduce keeps the global top-pool by
    ``(adc DESC, vec_id ASC)`` and only then re-ranks by the exact
    score.  The result is a pure function of the data — block
    boundaries cannot change membership (the repo's block-layout
    invariance discipline; the previous per-batch-pool formulation
    violated it).  Returned scores are true cosines; only membership
    is approximate.  Recall grows with ``n_codes`` / ``pool_factor``.
    """
    from refimage_ray.stages.pq import adc_scores, check_pq_dim, pq_encode, pq_train

    qm = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    if codebooks is not None:
        books = np.asarray(codebooks, dtype=np.float64)
    else:
        head = emb_ds.limit(sample_rows).to_pandas()
        sm = _normalize(np.stack(head[emb_col].to_numpy()).astype(np.float64))
        books = pq_train(sm, m=m, k=n_codes)
    # fail here, before any batch runs, with the shapes named
    check_pq_dim(qm.shape[1], books)
    pool = pool_factor * k
    state = ray.put((qm, books))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _PQ_POOL_SCHEMA.empty_table()
        q, bks = ray.get(state)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _normalize(_to_matrix(batch[emb_col]))
        codes = pq_encode(mat, bks)
        out_q, out_id, out_a, out_s = [], [], [], []
        for qi in range(q.shape[0]):
            approx = adc_scores(q[qi], bks, codes)
            cand = _topk_candidates(approx, min(pool, len(ids)))
            out_q.append(np.full(len(cand), qi, dtype=np.int64))
            out_id.append(ids[cand])
            out_a.append(approx[cand])
            out_s.append(_row_dots(mat[cand], q[qi]))  # exact cosine, attached
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                "adc": pa.array(np.concatenate(out_a), pa.float64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    # the global pool reduce IS the proven _reduce_topk shape (two
    # streaming combine passes + the large-query repartition barrier
    # that bounds the driver collect block-count-independently),
    # parameterized to rank by adc and keep pool rows per query
    pooled = _reduce_topk(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        pool, qm.shape[0],
        schema=_PQ_POOL_SCHEMA, rank_col="adc",
    ).to_pandas()
    final = pooled.sort_values(
        ["query_id", "score", "vec_id"],
        ascending=[True, False, True], kind="mergesort",
    ).groupby("query_id", sort=False).head(k)
    return pa.table({
        "query_id": pa.array(final["query_id"].to_numpy(np.int64), pa.int64()),
        "vec_id": pa.array(final["vec_id"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(final["score"].to_numpy(np.float64), pa.float64()),
    })
