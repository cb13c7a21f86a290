"""Index lifecycle: logical deletes, delta merge, compaction, add.

Reference analogs: ``add_embedding`` / ``remove_embedding`` with
deletion implemented as a FULL index rebuild
(``/root/reference/src/refimage/search/__init__.py:100-145,268-320``)
and the build/serve phase split (``api.py:851-852``).  We upgrade the
semantics to a segment model:

- :func:`delete_docs` — O(deletes) logical tombstones; readers filter
  postings at load; scores/stats keep pre-delete values until compact
  (Lucene-style deleted docs).
- :func:`merge_indexes` — shard-parallel merge of same-config indexes,
  columnar per shard (``reader.merged_postings``): tombstones dropped,
  one sort over (term, doc_id, input), duplicate doc_ids deduped
  (first input wins), and **weights are recomputed from the stored
  per-posting (tf, dl) against the merged corpus' avgdl** — which is
  why the artifact stores ``dls``.  Hot terms are re-salted against
  the merged doc span.
- :func:`compact_index` — merge of one index with itself → tombstones
  physically removed, stats exact again.
- :func:`add_documents` — incremental add: build a delta index from
  new docs, then merge (the scalable version of the reference's
  per-vector ``index.add``).

Partitioning assumption (documented): all inputs share ``num_shards``
and the tokenizer config; doc sets should be disjoint (same-url
re-adds collide on doc_id and are deduped first-input-wins).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.index.build import MANIFEST_ROW_SCHEMA, _encode_and_write, build_index
from refimage_ray.index.manifest import (
    atomic_write_bytes,
    load_manifest,
    save_manifest,
    save_metrics,
)
from refimage_ray.index.pack import cold_salts, doc_range_salts, ragged_take
from refimage_ray.index.reader import IndexReader, merged_postings, run_bounds


def delete_docs(index_dir: str, doc_ids: list[int] | np.ndarray) -> int:
    """Add doc_ids to the tombstone set (idempotent).  Returns the new
    tombstone count."""
    tomb_path = os.path.join(index_dir, "tombstones.parquet")
    new = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    if os.path.exists(tomb_path):
        old = pq.read_table(tomb_path)["doc_id"].to_numpy().astype(np.int64)
        new = np.union1d(old, new)
    import io

    buf = io.BytesIO()
    pq.write_table(pa.table({"doc_id": pa.array(new, pa.int64())}), buf)
    atomic_write_bytes(tomb_path, buf.getvalue())
    return int(len(new))


def _dead_ids(index_dir: str) -> np.ndarray:
    """Sorted union of an index's non-live doc ids: tombstones PLUS
    the exact-dup losers in ``losers.parquet`` (docs/ keeps loser rows
    — the postings never contained them, so any stats or docs-copy
    that reads docs/ raw must exclude both sets or N/avgdl/idf drift
    from the postings basis)."""
    dead = IndexReader(index_dir).tombstones
    losers_path = os.path.join(index_dir, "losers.parquet")
    if os.path.exists(losers_path):
        losers = pq.read_table(losers_path)["doc_id"].to_numpy().astype(np.int64)
        dead = np.union1d(dead, losers)
    return dead


def _live_doc_stats(index_dir: str) -> tuple[int, int, int]:
    """(n_live, sum_dl_live, max_doc_live) from docs/ minus tombstones
    and exact-dup losers."""
    t = pq.read_table(
        os.path.join(index_dir, "docs"), columns=["doc_id", "doc_len"]
    )
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    dls = t["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
    dead = _dead_ids(index_dir)
    if len(dead):
        from refimage_ray.functions.arrays import sorted_membership

        mask = sorted_membership(dead, ids)
        ids, dls = ids[~mask], dls[~mask]
    if len(ids) == 0:
        return 0, 0, 0
    return int(len(ids)), int(dls.sum()), int(ids.max())


class _MergeShard:
    """One task: merge all inputs' posting lists for one shard."""

    def __init__(
        self,
        input_dirs: list[str],
        out_dir: str,
        cfg: EngineConfig,
        avgdl: float,
        n_docs: int,
        doc_span: int,
    ) -> None:
        self.input_dirs = input_dirs
        self.out_dir = out_dir
        self.cfg = cfg
        self.avgdl = float(avgdl)
        self.n_docs = n_docs
        self.doc_span = max(1, doc_span)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [r for shard in batch["shard"].to_pylist() for r in self._merge_shard(shard)]
        return pa.concat_tables(rows) if rows else MANIFEST_ROW_SCHEMA.empty_table()

    def _merge_shard(self, shard: int) -> list[pa.Table]:
        """All inputs' part files of ``shard`` → the merged shard's
        part files (one per salt, ascending), terms in
        ``(term_hash, term)`` order.  A hot term (merged df ≥
        ``hot_df_fraction·N``) is re-salted by doc range against the
        merged span, a cold one keeps its term-hash salt."""
        cfg = self.cfg
        tables, deads = [], []
        for d in self.input_dirs:
            reader = IndexReader(d)
            parts = reader._parts_by_shard.get(shard, [])
            if parts:
                tables.append(pa.concat_tables([
                    pq.read_table(os.path.join(d, p["path"])) for p in parts
                ]))
                deads.append(reader.tombstones)
        with_pos = any("positions" in t.column_names for t in tables)
        merged = merged_postings(tables, deads, by_hash=True, with_pos=with_pos)
        if merged is None:
            return []
        terms, hashes, rank, ids, tfs, dls, pos = merged
        df = np.bincount(rank, minlength=len(terms))
        hot = (df >= cfg.hot_df_fraction * self.n_docs) & (cfg.salt_buckets > 1)
        salts = np.where(
            hot[rank],
            doc_range_salts(ids, cfg.salt_buckets, self.doc_span),
            cold_salts(hashes[rank], cfg.num_shards, cfg.salt_buckets),
        )
        order = np.argsort(salts, kind="stable")  # keeps (term, doc) order
        rows = []
        for a, b in zip(*run_bounds(salts[order])):
            seg = order[a:b]
            salt = int(salts[seg[0]])
            starts, ends = run_bounds(rank[seg])
            run_terms = rank[seg][starts]
            rows.append(_encode_and_write(
                self.out_dir, cfg, self.avgdl,
                shard * cfg.salt_buckets + salt,
                terms.take(pa.array(run_terms)), hashes[run_terms],
                ids[seg], tfs[seg], dls[seg], starts, ends,
                raw_bytes=len(seg) * 28,
                positions=ragged_take(pos, tfs, seg) if with_pos else None,
            ))
        return rows


def merge_indexes(
    input_dirs: list[str],
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Merge same-config indexes into ``out_dir`` (tombstones applied,
    weights recomputed against the merged avgdl)."""
    os.makedirs(out_dir, exist_ok=True)
    manifests = [load_manifest(d) for d in input_dirs]
    shards_all = sorted(
        {int(p["shard"]) for m in manifests for p in m["partitions"]}
    )
    for m in manifests:
        assert int(m["config"]["num_shards"]) == cfg.num_shards, (
            "merge requires identical num_shards"
        )

    stats = [_live_doc_stats(d) for d in input_dirs]
    n_docs = sum(s[0] for s in stats)
    sum_dl = sum(s[1] for s in stats)
    max_doc = max((s[2] for s in stats), default=0)
    avgdl = (sum_dl / n_docs) if n_docs else 1.0

    merger = _MergeShard(
        input_dirs, out_dir, cfg, avgdl, n_docs, doc_span=max_doc + 1
    )

    def merge_shards(batch: pa.Table) -> pa.Table:
        return merger(batch)

    rows = (
        rd.from_items([{"shard": s} for s in shards_all])
        .map_batches(merge_shards, batch_format="pyarrow", batch_size=1)
        .take_all()
    )

    # merged docs/ artifact (tombstones AND exact-dup losers physically
    # dropped — the output carries no losers.parquet side-channel, so
    # its docs/ must hold exactly the live corpus)
    docs_out = os.path.join(out_dir, "docs")
    os.makedirs(docs_out, exist_ok=True)
    fi = 0
    for d in input_dirs:
        dead = _dead_ids(d)
        src = os.path.join(d, "docs")
        for f in sorted(os.listdir(src)):
            if not f.endswith(".parquet"):
                continue
            t = pq.read_table(os.path.join(src, f))
            if len(dead):
                from refimage_ray.functions.arrays import sorted_membership

                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                t = t.filter(pa.array(~sorted_membership(dead, ids)))
            pq.write_table(t, os.path.join(docs_out, f"merged-{fi:05d}.parquet"))
            fi += 1
    with open(os.path.join(docs_out, "_SUCCESS"), "w") as f:
        f.write("")

    parts = [
        {k: (v if isinstance(v, str) else int(v)) for k, v in r.items()}
        for r in rows
        if r.get("path")
    ]
    manifest = save_manifest(
        out_dir,
        config={
            "num_shards": cfg.num_shards,
            "salt_buckets": cfg.salt_buckets,
            "block_size": cfg.block_size,
            "token_pattern": cfg.token_pattern,
            "hot_df_fraction": cfg.hot_df_fraction,
        },
        stats={
            "n_docs": n_docs,
            "sum_dl": sum_dl,
            "max_doc": max_doc,
            "avgdl": avgdl,
            "hot_terms": [],
            "k1": cfg.k1,
            "b": cfg.b,
        },
        lineage=[{"merged_from": d} for d in input_dirs],
        partitions=parts,
    )
    save_metrics(out_dir, {"merged_inputs": len(input_dirs), "n_docs": n_docs})
    return manifest


def compact_index(index_dir: str, out_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> dict:
    """Physically drop tombstoned docs and refresh stats/weights."""
    return merge_indexes([index_dir], out_dir, cfg)


def add_documents(
    index_dir: str,
    new_docs_ds,
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Incremental add: delta build + merge (the scalable analog of the
    reference's per-vector ``index.add``)."""
    delta_dir = os.path.join(out_dir + ".delta")
    build_index(new_docs_ds, delta_dir, cfg)
    return merge_indexes([index_dir, delta_dir], out_dir, cfg)


def build_subranges(
    docs_ds,
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    n_subranges: int = 2,
) -> dict:
    """Executable form of the planner's >2M-reducer recommendation
    (``planner.plan_build`` notes): split the corpus into disjoint
    ``doc_id`` ranges, build each range as an independent smaller job
    — every sub-job gets its own broadcastable (doc_id, dl) universe,
    so the rank-packed exchange stays available far beyond the 50M-doc
    single-job bound — then ``merge_indexes`` (salt-order partition
    concatenation + weight recompute against the merged avgdl).

    In-process the sub-builds run sequentially; at cluster scale each
    is its own ``ray job submit`` against a doc-range parquet
    predicate, and only the merge sees all artifacts.  Query results
    are identical to a single-shot build (asserted in
    ``tests/test_lifecycle.py``) because df/tf/dl survive the merge
    and the merged stats equal the global ones.
    """
    if n_subranges < 1:
        raise ValueError(f"n_subranges must be >= 1, got {n_subranges}")
    from ray.data.aggregate import Max, Min

    docs_ds = docs_ds.materialize()  # consumed once per subrange
    bounds = docs_ds.aggregate(Min("doc_id"), Max("doc_id"))
    lo, hi = int(bounds["min(doc_id)"]), int(bounds["max(doc_id)"])
    span = hi - lo + 1
    n = min(n_subranges, span)
    width = -(-span // n)  # divide-first (63-bit-id safe)

    sub_dirs: list[str] = []
    for i in range(n):
        a, b = lo + i * width, min(lo + (i + 1) * width, hi + 1)

        def in_range(t: pa.Table, a=a, b=b) -> pa.Table:
            ids = t["doc_id"]
            import pyarrow.compute as pc

            return t.filter(
                pc.and_(pc.greater_equal(ids, a), pc.less(ids, b))
            )

        sub = docs_ds.map_batches(in_range, batch_format="pyarrow")
        d = f"{out_dir}.sub{i}"
        build_index(
            sub, d, cfg, lineage=[{"subrange": [a, b], "of": out_dir}]
        )
        sub_dirs.append(d)
    return merge_indexes(sub_dirs, out_dir, cfg)


# Columns a metadata PUT may touch.  text / doc_len / content_hash are
# index inputs — changing them without a rebuild would desync postings.
MUTABLE_DOC_COLUMNS = frozenset({"url", "lang"})


def update_doc_metadata(
    index_dir: str, updates: dict[int, dict[str, str]]
) -> int:
    """Metadata upsert — the PUT /metadata/{id} analog
    (``/root/reference/src/refimage/api.py:731-766``: update
    description/tags of a stored record; here the mutable columns are
    the docs artifact's ``url``/``lang``).

    Partition-rewrite: each docs/ parquet file is first probed by its
    ``doc_id`` column alone (columnar prune — the text never moves for
    untouched files); only files actually containing updated ids are
    re-written, atomically (temp + rename via ``atomic_write_bytes``),
    so a crash mid-update leaves every partition either old or new,
    never truncated.  Raises ``KeyError`` listing ids not present
    (the 404 analog) BEFORE any partition is rewritten — a 404 never
    partially applies the batch — and ``ValueError`` for immutable
    columns.  Returns the number of docs updated.
    """
    bad_cols = {c for u in updates.values() for c in u} - MUTABLE_DOC_COLUMNS
    if bad_cols:
        raise ValueError(
            f"immutable columns {sorted(bad_cols)}; "
            f"mutable: {sorted(MUTABLE_DOC_COLUMNS)} (text changes need add+delete)"
        )
    docs_dir = os.path.join(index_dir, "docs")
    want = np.asarray(sorted(updates), dtype=np.int64)
    found = np.zeros(0, dtype=np.int64)
    files = sorted(
        f for f in os.listdir(docs_dir)
        if f.endswith(".parquet") and not f.startswith("_")
    )
    from refimage_ray.functions.arrays import sorted_membership

    # pass 1: probe every file's doc_id column BEFORE mutating anything
    # — the 404 must not leave the artifact partially updated
    hits: list[tuple[str, np.ndarray, np.ndarray]] = []
    for fname in files:
        path = os.path.join(docs_dir, fname)
        ids = pq.read_table(path, columns=["doc_id"])["doc_id"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        hit = sorted_membership(want, ids)
        if hit.any():
            hits.append((path, ids, hit))
            found = np.union1d(found, ids[hit])
    missing = np.setdiff1d(want, found)
    if len(missing):
        raise KeyError(f"doc_ids not found: {missing.tolist()[:20]}")

    # pass 2: rewrite only the hit files, each atomically
    for path, ids, hit in hits:
        t = pq.read_table(path)
        cols = {name: t[name] for name in t.column_names}
        hit_rows = np.flatnonzero(hit)
        for col in MUTABLE_DOC_COLUMNS & {c for u in updates.values() for c in u}:
            vals = cols[col].to_pylist()
            for r in hit_rows:
                new = updates[int(ids[r])].get(col)
                if new is not None:
                    vals[r] = new
            cols[col] = pa.array(vals, t.schema.field(col).type)
        import io

        buf = io.BytesIO()
        pq.write_table(pa.table(cols), buf)
        atomic_write_bytes(path, buf.getvalue())
    return int(len(found))


def delete_docs_where(index_dir: str, where) -> int:
    """Predicate delete (retention/TTL analog: ``DELETE WHERE
    warc_ts < cutoff``): evaluate a doc-value predicate over the
    artifact's docs/ columns — the same ``where`` grammar as filtered
    search, incl. DNF ``{"or": [...]}`` — and tombstone every matching
    live doc.  Returns how many NEW doc_ids were tombstoned.

    Evaluation is a streamed column scan (map_batches over docs/ with
    only the predicate's columns read), so it never loads text; the
    matched-id list is the only thing collected (bounded by the
    delete's own size, like any tombstone set).
    """
    import ray.data as rd

    from refimage_ray.index.docvalues import encode_value_columns, where_columns

    cols = sorted(set(where_columns(where)))
    if not cols:
        raise ValueError("empty predicate")

    def match(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")  # DocValues wants a sorted universe
        batch = batch.take(pa.array(order))
        sids = ids[order]
        dv = encode_value_columns(batch, sids)
        keep = dv.mask(where)
        return pa.table({"doc_id": pa.array(sids[keep], pa.int64())})

    rows = (
        rd.read_parquet(
            os.path.join(index_dir, "docs"), columns=["doc_id"] + cols
        )
        .map_batches(match, batch_format="pyarrow")
        .take_all()
    )
    hit = [r["doc_id"] for r in rows]
    if not hit:
        return 0
    tomb_path = os.path.join(index_dir, "tombstones.parquet")
    before = 0
    if os.path.exists(tomb_path):
        before = pq.read_table(tomb_path).num_rows
    after = delete_docs(index_dir, hit)
    return after - before


def reindex(
    src_index_dir: str,
    out_dir: str,
    cfg: "EngineConfig | None" = None,
    *,
    where=None,
    transform=None,
):
    """ES ``_reindex``: stream the source artifact's stored documents
    into a FRESH build — optionally narrowed by the shared doc-value
    ``where`` grammar (incl. DNF ``{"or": [...]}``) and/or re-shaped
    by a per-batch ``transform`` (``pa.Table -> pa.Table``; must keep
    ``doc_id:int64, text:string``).

    Semantics: dead docs (tombstones + dedup losers) never leave the
    source scan, so the target is born compact with EXACT stats over
    the surviving corpus — equivalently, ``reindex(src, out)`` with no
    predicate answers queries bit-identically to ``compact_index``.
    Changing ``cfg`` re-shards / re-tokenizes (the actual reindex use
    case: new analyzer, new shard count).

    Scale shape: docs/ partitions stream straight into
    ``build_index``'s pipeline (filter + transform are per-batch
    map_batches; the dead-id set is one ``ray.put`` broadcast read via
    sorted searchsorted per batch) — nothing materializes driver-side.

    Reference analog: deletion-as-rebuild
    (``/root/reference/src/refimage/search/__init__.py:100-145``),
    generalized to predicate + re-analysis.
    """
    from refimage_ray.index.docvalues import encode_value_columns, where_columns

    man = load_manifest(src_index_dir)
    if man is None:
        raise FileNotFoundError(f"no index at {src_index_dir}")
    if cfg is None:
        cfg = EngineConfig(
            **man["config"],
            k1=float(man["stats"].get("k1", 1.2)),
            b=float(man["stats"].get("b", 0.75)),
        )
    dead = _dead_ids(src_index_dir)
    dead_ref = ray.put(np.sort(np.asarray(dead, np.int64))) if len(dead) else None

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")  # DocValues wants sorted ids
        batch = batch.take(pa.array(order))
        sids = ids[order]
        keep = np.ones(len(sids), bool)
        if dead_ref is not None:
            d = ray.get(dead_ref)
            pos = np.searchsorted(d, sids)
            hit = pos < len(d)
            hit[hit] = d[pos[hit]] == sids[hit]
            keep &= ~hit
        if where is not None:
            # encode ONLY the predicate's columns (encoding text/url
            # would dictionary-encode every unique payload per batch)
            narrow = batch.select(
                ["doc_id"] + [c for c in where_columns(where)
                              if c in batch.schema.names]
            )
            dv = encode_value_columns(narrow, sids)
            keep &= dv.mask(where)
        out = batch.filter(pa.array(keep))
        if transform is not None:
            out = transform(out)
        return out

    ds = rd.read_parquet(os.path.join(src_index_dir, "docs")).map_batches(
        prep, batch_format="pyarrow"
    )
    return build_index(
        ds,
        out_dir,
        cfg,
        lineage=[{"reindex_of": os.path.abspath(src_index_dir),
                  "where": repr(where) if where is not None else None}],
    )
