"""Doc-partitioned index lifecycle: logical deletes, shard-parallel
merge, compaction, incremental add — the docpart twin of
``index/lifecycle.py``.

Reference analog: ``add_embedding`` / ``remove_embedding`` implemented
as a FULL rebuild (``/root/reference/src/refimage/search/__init__.py:
100-145,268-320``); upgraded here to a segment model, same as the term
layout:

- deletes reuse the SAME ``tombstones.parquet`` convention
  (``lifecycle.delete_docs`` is layout-agnostic) — doc shards filter
  postings at load (``docpart._load_shard_view``); df/N/avgdl keep
  pre-delete values until compaction (Lucene deleted-docs semantics).
- :func:`merge_docpart_indexes` — inputs sharing ``num_doc_shards``
  (and hence the doc→shard hash) merge SHARD-BY-SHARD: a doc's
  postings live entirely in its one shard in every input, so each
  output shard depends on exactly one shard per input — one Ray task
  per shard, no shuffle.  Tombstones dropped, duplicate doc_ids deduped
  first-input-wins, weights recomputed from the stored per-posting
  (tf, dl) against the merged corpus' avgdl (why shards persist
  ``dls``), positions carried through, ``terms/`` re-aggregated from
  the merged local dfs.
- :func:`compact_docpart` — self-merge: tombstones physically removed,
  stats exact again.
- :func:`add_documents_docpart` — delta build (same geometry) + merge.

Stats basis: per input, live (n_docs, Σdl) comes from the manifest
when the input has no tombstones; with tombstones, dead docs are
counted against the shard's doc universe (the ``docvalues-*`` sibling
when present — covering zero-token docs — else the posting universe;
a zero-token tombstoned doc in a value-less artifact is the one
documented blind spot).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.functions.arrays import sorted_membership
from refimage_ray.index.manifest import atomic_write_bytes
from refimage_ray.index.docpart import _load_tombstones, _shard_table
from refimage_ray.index.reader import (
    decode_columns,
    encode_term_runs,
    merged_postings,
    run_bounds,
)
from refimage_ray.query.scorer import bm25_weight


def _values_path(index_dir: str, fname: str) -> str:
    return os.path.join(index_dir, fname.replace("docshard-", "docvalues-"))


def _shard_dead_stats(
    index_dir: str, fname: str, dead: np.ndarray
) -> tuple[int, int]:
    """(dead docs present in this shard, their Σdl).  Universe from the
    docvalues sibling when present, else the posting doc ids (decoded
    once per column over the whole shard file)."""
    vfile = _values_path(index_dir, fname)
    path = os.path.join(index_dir, fname)
    docs = np.zeros(0, np.int64)
    dead_dl = 0
    if os.path.exists(path):
        t = pq.read_table(path, columns=["doc_ids", "weights", "tfs", "dls"])
        _, ids, _w, _tfs, dls, _pos = decode_columns(t)
        m = sorted_membership(dead, ids)
        docs, first = np.unique(ids[m], return_index=True)
        dead_dl = int(dls[m][first].sum())
    if os.path.exists(vfile):
        uids = pq.read_table(vfile, columns=["doc_id"])["doc_id"].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        uids.sort()
        n_dead = int(sorted_membership(dead, uids).sum())
    else:
        n_dead = int(len(docs))
    return n_dead, dead_dl


def _input_live_stats(index_dir: str, man: dict) -> tuple[int, int]:
    """(live n_docs, live Σdl) for one input artifact."""
    n = int(man["stats"]["n_docs"])
    sdl = int(man["stats"]["sum_dl"])
    dead = _load_tombstones(index_dir)
    if not len(dead):
        return n, sdl
    for f in man["docshard_files"]:
        nd, ddl = _shard_dead_stats(index_dir, f, dead)
        n -= nd
        sdl -= ddl
    return n, sdl


def _merge_values(
    input_dirs: list[str], fname: str, deads: list[np.ndarray],
    out_dir: str,
) -> None:
    """Merge one shard's docvalues siblings: dead dropped, duplicate
    doc_ids first-input-wins, sorted by doc_id, atomic write."""
    import io

    parts = []
    for i, d in enumerate(input_dirs):
        vf = _values_path(d, fname)
        if not os.path.exists(vf):
            continue
        t = pq.read_table(vf)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(deads[i]):
            t = t.filter(pa.array(~sorted_membership(deads[i], ids)))
        parts.append(t)
    if not parts:
        return
    t = pa.concat_tables(parts, promote_options="default")
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    # first-input-wins dedupe: stable first occurrence in concat order
    _, first = np.unique(ids, return_index=True)
    t = t.take(pa.array(np.sort(first), pa.int64()))
    t = t.sort_by([("doc_id", "ascending")])
    buf = io.BytesIO()
    pq.write_table(t, buf)
    atomic_write_bytes(
        _values_path(out_dir, fname), buf.getvalue()
    )


def _merge_one_shard(
    input_dirs: list[str], fname: str, out_dir: str, avgdl: float,
    k1: float, b: float, with_pos: bool,
) -> int:
    """Merge one doc shard across inputs → the output shard file, terms
    in ascending order (``reader.merged_postings`` then one
    ``reader.encode_term_runs``).  Returns the number of terms written
    (0 = no file)."""
    import io

    deads = [_load_tombstones(d) for d in input_dirs]
    present = [
        i for i, d in enumerate(input_dirs) if os.path.exists(os.path.join(d, fname))
    ]
    merged = merged_postings(
        [pq.read_table(os.path.join(input_dirs[i], fname)) for i in present],
        [deads[i] for i in present], by_hash=False, with_pos=with_pos,
    )
    if merged is None or not len(merged[2]):
        return 0
    terms, hashes, rank, ids, tfs, dls, pos = merged
    starts, ends = run_bounds(rank)
    w = bm25_weight(tfs.astype(np.float64), dls.astype(np.float64), avgdl, k1, b)
    cols = encode_term_runs(starts, ends, ids, tfs, dls, w, None, pos)
    buf = io.BytesIO()
    pq.write_table(
        _shard_table(terms.take(pa.array(rank[starts])), hashes[rank[starts]], cols),
        buf,
    )
    atomic_write_bytes(os.path.join(out_dir, fname), buf.getvalue())
    _merge_values(input_dirs, fname, deads, out_dir)
    return len(starts)


def merge_docpart_indexes(
    input_dirs: list[str], out_dir: str,
) -> dict:
    """Merge same-geometry doc-partitioned indexes into ``out_dir``
    (tombstones applied, duplicate doc_ids first-input-wins, weights
    recomputed against the merged avgdl) — one Ray task per doc shard,
    no shuffle (the doc→shard hash co-locates every doc's postings
    across inputs)."""
    manifests = []
    for d in input_dirs:
        with open(os.path.join(d, "manifest.json")) as f:
            manifests.append(json.load(f))
    m0 = manifests[0]
    n_shards = int(m0["num_doc_shards"])
    with_pos = bool(m0["config"].get("store_positions"))
    for d, m in zip(input_dirs, manifests):
        if m.get("layout") != "doc-partitioned":
            raise ValueError(f"{d} is not a doc-partitioned index")
        if int(m["num_doc_shards"]) != n_shards:
            raise ValueError("merge requires identical num_doc_shards")
        if bool(m["config"].get("store_positions")) != with_pos:
            raise ValueError("merge requires identical store_positions")
        if m["config"].get("token_pattern") != m0["config"].get("token_pattern"):
            raise ValueError("merge requires identical token_pattern")
        if sorted(m.get("value_columns", [])) != sorted(
            m0.get("value_columns", [])
        ):
            # mismatched values would merge into shard files whose
            # docvalues universe misses some input's docs — the load-
            # time rank validation would fail LOUDLY later; refuse now
            raise ValueError("merge requires identical value_columns")

    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(out_dir):
        if f.startswith(("docshard-", "docvalues-")) and (
            f.endswith(".parquet") or f.endswith(".tmp")
        ):
            os.remove(os.path.join(out_dir, f))
    shutil.rmtree(os.path.join(out_dir, "terms"), ignore_errors=True)
    t0 = time.perf_counter()

    stats = [_input_live_stats(d, m) for d, m in zip(input_dirs, manifests)]
    n_docs = sum(s[0] for s in stats)
    sum_dl = sum(s[1] for s in stats)
    avgdl = (sum_dl / n_docs) if n_docs else 1.0
    k1 = float(m0["stats"]["k1"])
    b = float(m0["stats"]["b"])

    fnames = sorted({
        f for m in manifests for f in m["docshard_files"]
    } | {f"docshard-{s:05d}.parquet" for s in range(n_shards)
         if any(os.path.exists(os.path.join(d, f"docshard-{s:05d}.parquet"))
                for d in input_dirs)})

    def _task(batch: pa.Table) -> pa.Table:
        rows = []
        for f in batch["fname"].to_pylist():
            rows.append({
                "fname": f,
                "n_terms": _merge_one_shard(
                    input_dirs, f, out_dir, avgdl, k1, b, with_pos
                ),
            })
        return pa.Table.from_pylist(rows)

    rows = (
        rd.from_items([{"fname": f} for f in fnames])
        .map_batches(_task, batch_format="pyarrow", batch_size=1)
        .take_all()
    )

    # global terms table: re-aggregate df from the merged shard files
    shard_files = [r["fname"] for r in rows if r["n_terms"]]
    df_t = pa.concat_tables(
        [pq.read_table(os.path.join(out_dir, f), columns=["term", "df_local"])
         for f in shard_files]
        or [pa.table({"term": pa.array([], pa.string()),
                      "df_local": pa.array([], pa.int64())})]
    ).group_by("term").aggregate([("df_local", "sum")]).sort_by("term")
    terms_dir = os.path.join(out_dir, "terms")
    os.makedirs(terms_dir, exist_ok=True)
    pq.write_table(
        pa.table({"term": df_t["term"], "df": df_t["df_local_sum"]}),
        os.path.join(terms_dir, "part-00000.parquet"),
    )

    vcols = sorted({c for m in manifests for c in m.get("value_columns", [])})
    manifest = {
        "layout": "doc-partitioned",
        "num_doc_shards": n_shards,
        "docshard_files": sorted(shard_files),
        "value_columns": vcols,
        "stats": {"n_docs": n_docs, "sum_dl": sum_dl, "avgdl": avgdl,
                  "k1": k1, "b": b},
        "config": {"token_pattern": m0["config"].get("token_pattern"),
                   "store_positions": with_pos},
        "lineage": [{"merged_from": d} for d in input_dirs],
        "build_sec": round(time.perf_counter() - t0, 3),
    }
    atomic_write_bytes(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=1).encode(),
    )
    return manifest


def update_doc_values_docpart(
    index_dir: str, updates: "dict[int, dict[str, object]]"
) -> int:
    """Doc-value upsert on the doc-partitioned layout — the PUT
    /metadata analog (see ``lifecycle.update_doc_metadata``; reference
    ``api.py:731-766``).  Mutable columns are the artifact's
    ``value_columns``.

    The doc→shard hash routes each update straight to its one
    ``docvalues-{shard}.parquet`` file — only touched shards are read
    and rewritten (atomically), unlike the term layout's probe of
    every docs/ partition.  Raises ``KeyError`` for unknown ids and
    ``ValueError`` for non-value columns BEFORE any rewrite, so a 404
    never partially applies the batch.  Returns docs updated; running
    searchers see the new values after reload (load-once residency).
    """
    import io

    from refimage_ray.index.docpart import _doc_shard_of

    with open(os.path.join(index_dir, "manifest.json")) as f:
        man = json.load(f)
    vcols = set(man.get("value_columns", []))
    if not vcols:
        raise ValueError(
            "artifact has no value_columns — rebuild with "
            "build_doc_partitioned(..., value_columns=[...])"
        )
    bad = {c for u in updates.values() for c in u} - vcols
    if bad:
        raise ValueError(
            f"not doc-value columns: {sorted(bad)}; mutable: {sorted(vcols)}"
        )
    n_shards = int(man["num_doc_shards"])
    want = np.asarray(sorted(updates), dtype=np.int64)
    by_shard: dict[int, np.ndarray] = {}
    shards = _doc_shard_of(want, n_shards)
    for s in np.unique(shards):
        by_shard[int(s)] = want[shards == s]

    # pass 1: probe (404 before any mutation)
    hits: list[tuple[str, pa.Table, np.ndarray, np.ndarray]] = []
    found: list[int] = []
    for s, ids_want in sorted(by_shard.items()):
        path = os.path.join(index_dir, f"docvalues-{s:05d}.parquet")
        if not os.path.exists(path):
            continue
        t = pq.read_table(path)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = sorted_membership(np.sort(ids_want), ids)
        if hit.any():
            hits.append((path, t, ids, hit))
            found.extend(ids[hit].tolist())
    missing = np.setdiff1d(want, np.asarray(sorted(found), np.int64))
    if len(missing):
        raise KeyError(f"doc_ids not found: {missing.tolist()[:20]}")

    # pass 2: atomic rewrite of touched shard value files only
    for path, t, ids, hit in hits:
        cols = {name: t[name] for name in t.column_names}
        hit_rows = np.flatnonzero(hit)
        touched = vcols & {c for u in updates.values() for c in u}
        for col in sorted(touched):
            vals = cols[col].to_pylist()
            for r in hit_rows:
                new = updates[int(ids[r])].get(col)
                if new is not None:
                    vals[r] = new
            cols[col] = pa.array(vals, t.schema.field(col).type)
        buf = io.BytesIO()
        pq.write_table(pa.table(cols), buf)
        atomic_write_bytes(path, buf.getvalue())
    return int(len(found))


def compact_docpart(index_dir: str, out_dir: str) -> dict:
    """Physically drop tombstoned docs and refresh stats/weights
    (self-merge, same as the term layout's ``compact_index``)."""
    return merge_docpart_indexes([index_dir], out_dir)


def add_documents_docpart(
    index_dir: str,
    new_docs_ds,
    out_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Incremental add: build a delta doc-partitioned index from the
    new docs WITH THE BASE'S GEOMETRY (num_doc_shards / positions /
    value columns from the base manifest), then shard-merge.  Duplicate
    doc_ids resolve first-input-wins (the base wins, matching the term
    layout's ``add_documents``)."""
    from dataclasses import replace

    from refimage_ray.index.docpart import build_doc_partitioned

    with open(os.path.join(index_dir, "manifest.json")) as f:
        man = json.load(f)
    delta_dir = out_dir + ".delta"
    build_doc_partitioned(
        new_docs_ds, delta_dir,
        replace(
            cfg,
            store_positions=bool(man["config"].get("store_positions")),
            token_pattern=man["config"].get("token_pattern"),
        ),
        num_doc_shards=int(man["num_doc_shards"]),
        value_columns=list(man.get("value_columns", [])) or None,
    )
    return merge_docpart_indexes([index_dir, delta_dir], out_dir)
