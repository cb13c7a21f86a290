"""Match-set export — the query's FULL membership as a streaming
``ray.data.Dataset`` (the "scroll/export all hits" path).

A top-k searcher answers interactive queries from resident postings;
an EXPORT of every match at 10^12-doc scale must instead stay inside
Ray Data end-to-end: the match set itself can be corpus-sized (a
stopword query), so no driver-side ranks array is ever built.  Shape:

1. term→shard routing prunes the posting PARTITION FILES read (only
   the shards the query's terms hash to leave storage; ``columns=``
   prunes to (term, doc_ids) — weights/positions never move),
2. per-batch decode emits (doc_id, cnt) rows pre-aggregated per batch
   (the map-side combiner), dead ids (tombstones ∪ dedup losers)
   dropped against a broadcast array,
3. ONE narrow groupby sums matched-term counts per doc → OR/AND/
   min_match membership is a count threshold (same semantics as
   ``engine.count``),
4. payload columns, when requested, join from ``docs/`` via the
   bucketed large-large ``hash_join`` — membership and corpus are both
   potentially huge, so no broadcast side.

Salt-bucket safety: a hot term's postings are doc-range split across
salts, so no (term, doc) pair is ever double-counted.

Reference analog: the reference pages full result sets through its
list endpoints (``/root/reference/src/refimage/api.py:397-409``);
this is the batch-export flavor of the same contract.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Sum

from refimage_ray.functions.codec import delta_decode, varbyte_decode
from refimage_ray.functions.hashing import blake2b64
from refimage_ray.functions.text import tokenize
from refimage_ray.index.manifest import load_manifest
from refimage_ray.query.engine import _check_min_match, query_terms


def matches_dataset(
    index_dir: str,
    query: str,
    mode: str = "or",
    min_match: "int | None" = None,
    columns: "list[str] | None" = None,
) -> "rd.Dataset":
    """Every matching doc as a Dataset of ``(doc_id, n_terms[, cols])``
    — see the module docstring for the distributed shape."""
    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
    min_match = _check_min_match(min_match, mode)
    man = load_manifest(index_dir)
    if man is None:
        raise ValueError(f"no index manifest under {index_dir}")
    pattern = man["config"].get("token_pattern")
    num_shards = int(man["config"]["num_shards"])
    terms = query_terms(tokenize(query, pattern))
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "n_terms": pa.array([], pa.int64()),
    })
    if not terms:
        return rd.from_arrow(empty)
    shards = {int(blake2b64(t)) % num_shards for t in terms}
    paths = [
        os.path.join(index_dir, p["path"])
        for p in man.get("partitions", [])
        if int(p["shard"]) in shards
    ]
    if not paths:
        return rd.from_arrow(empty)

    from refimage_ray.index.lifecycle import _dead_ids

    dead_ref = ray.put(_dead_ids(index_dir))
    term_set = pa.array(sorted(set(terms)))
    need = len(set(terms)) if mode == "and" else int(min_match or 1)

    def decode(batch: pa.Table) -> pa.Table:
        from refimage_ray.functions.arrays import sorted_membership

        rows = batch.filter(pc.is_in(batch["term"], value_set=term_set))
        if rows.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            })
        dead = ray.get(dead_ref)
        ids_parts = []
        for blob in rows["doc_ids"].to_pylist():
            ids = delta_decode(varbyte_decode(blob)).astype(np.int64)
            if len(dead):
                ids = ids[~sorted_membership(dead, ids)]
            ids_parts.append(ids)
        ids = np.concatenate(ids_parts) if ids_parts else np.zeros(0, np.int64)
        # map-side combiner: per-batch per-doc matched-term counts
        u, cnt = np.unique(ids, return_counts=True)
        return pa.table({
            "doc_id": pa.array(u, pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    m = (
        rd.read_parquet(paths, columns=["term", "doc_ids"])
        .map_batches(decode, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("cnt", alias_name="n_terms"))
        .map_batches(
            lambda b: b.filter(pc.greater_equal(b["n_terms"], need)),
            batch_format="pyarrow",
        )
    )
    if columns:
        from refimage_ray.stages.joins import hash_join

        sch = m.schema()
        if sch is None or not sch.names:
            # no-match membership: a fully-empty stream has no runtime
            # schema for the join to unify — return the typed empty
            # (incl. payload columns from the docs/ schema) directly.
            # (The schema() probe executes the empty pipeline; that is
            # only ever paid on no-match queries.)
            import pyarrow.dataset as pads

            docs_schema = pads.dataset(os.path.join(index_dir, "docs")).schema
            fields = [pa.field("doc_id", pa.int64()),
                      pa.field("n_terms", pa.int64())] + [
                docs_schema.field(c) for c in columns if c != "doc_id"
            ]
            return rd.from_arrow(pa.schema(fields).empty_table())
        docs = rd.read_parquet(
            os.path.join(index_dir, "docs"),
            columns=["doc_id"] + [c for c in columns if c != "doc_id"],
        )
        m = hash_join(
            m, docs,
            left_on="doc_id", right_on="doc_id",
            left_cols=["doc_id", "n_terms"],
            right_cols=["doc_id"] + [c for c in columns if c != "doc_id"],
            buckets=16,
        )
    return m


def matches_table(index_dir: str, query: str, **kwargs) -> pa.Table:
    """Small-result materialization of :func:`matches_dataset`.

    Exists because this Ray version's ``Dataset.to_pandas()`` drops
    the schema of any fully-empty dataset (even
    ``from_arrow(typed_empty)``), which breaks schema-dependent
    consumers on no-match queries — the expected schema is derived
    upfront (payload field types from the ``docs/`` parquet metadata)
    and collection goes through the repo-wide ``collect_small``.  Big
    exports should keep streaming
    (``matches_dataset(...).write_parquet(...)``) instead."""
    from refimage_ray.functions.packexchange import collect_small

    ds = matches_dataset(index_dir, query, **kwargs)
    fields = [pa.field("doc_id", pa.int64()),
              pa.field("n_terms", pa.int64())]
    payload = [c for c in (kwargs.get("columns") or []) if c != "doc_id"]
    if payload:
        import pyarrow.dataset as pads

        docs_schema = pads.dataset(os.path.join(index_dir, "docs")).schema
        fields += [docs_schema.field(c) for c in payload]
    return collect_small(ds, pa.schema(fields))


def export_jsonl(
    ds: "rd.Dataset",
    out_dir: str,
    key_col: str,
    *,
    n_files: int = 64,
    compress: bool = False,
    resume: bool = True,
) -> dict:
    """Distributed, resumable JSONL export — the C4/Dolma-style
    delivery format for a curated corpus.

    Partitioning is a pure function of the data, not of Ray's block
    layout: file id = ``md5_u64(key) % n_files`` and rows inside a
    file are sorted by key, so the artifact is byte-identical across
    runs, block sizes, and cluster shapes — which is what makes
    resume sound (a crashed run's completed files are valid as-is;
    the re-run SKIPS them).  Each file is written atomically
    (tmp + rename) by the reducer that owns its bucket; the exchange
    is ONE narrow groupby on the precomputed bucket id.

    Returns ``{"files", "rows", "skipped"}``.  Geometry (n_files /
    compress / key_col) is recorded in ``manifest.json`` and enforced
    on resume, mirroring ``write_packed_sequences``.
    """
    import gzip
    import json as _json

    import pandas as pd

    from refimage_ray.functions.hashing import md5_u64_string_array
    from refimage_ray.index.manifest import atomic_write_bytes

    os.makedirs(out_dir, exist_ok=True)
    man_path = os.path.join(out_dir, "manifest.json")
    want = {"n_files": n_files, "compress": compress, "key_col": key_col}
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            prior = _json.load(f)
        got = {k: prior.get(k) for k in want}
        if got != want:
            raise ValueError(
                "resume=True but manifest.json records different export "
                f"geometry ({got} != {want}); use resume=False or a fresh "
                "out_dir"
            )

    ext = ".jsonl.gz" if compress else ".jsonl"

    def add_bucket(b: pa.Table) -> pa.Table:
        keys = pc.cast(b[key_col], pa.string())
        h = md5_u64_string_array(
            keys.combine_chunks() if isinstance(keys, pa.ChunkedArray)
            else keys
        )
        return b.append_column(
            "_file", pa.array((h % np.uint64(n_files)).astype(np.int64))
        )

    def write_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        fid = int(g["_file"].iloc[0])
        path = os.path.join(out_dir, f"part-{fid:05d}{ext}")
        if resume and os.path.exists(path):
            return pd.DataFrame({"file": [fid], "rows": [len(g)],
                                 "skipped": [True]})
        g = g.sort_values(key_col, kind="mergesort").drop(columns=["_file"])
        recs = g.to_dict(orient="records")
        payload = "".join(
            _json.dumps(r, default=str, sort_keys=True) + "\n" for r in recs
        ).encode()
        if compress:
            payload = gzip.compress(payload, mtime=0)  # deterministic bytes
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        return pd.DataFrame({"file": [fid], "rows": [len(g)],
                             "skipped": [False]})

    stats = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_file")
        .map_groups(write_bucket, batch_format="pandas")
        .to_pandas()
    )
    atomic_write_bytes(
        man_path,
        _json.dumps({**want, "files": int(stats["file"].nunique()),
                     "rows": int(stats["rows"].sum())}, indent=1).encode(),
    )
    return {
        "files": int(stats["file"].nunique()),
        "rows": int(stats["rows"].sum()),
        "skipped": int(stats.loc[stats["skipped"], "rows"].sum()),
    }
