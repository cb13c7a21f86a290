"""The build's layers, timed one by one.

The traced ``search`` run calls ``layer_pass`` after it has built its
artifact with ``build_from_pages``: each build layer runs on its own
over the pages that build read, in process and per batch, and the
build's stage split comes from the artifact's ``metrics.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import common


def layer_pass(run, pages_dir: str, idx: str, wall: float, n_pages: int):
    """Each build layer timed on its own over the pages the build read,
    in process and per batch; the build's own stage split comes from the
    artifact's ``metrics.json``.  Returns (metrics, details)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from refimage_ray.functions.codec import encode_postings, varbyte_encode
    from refimage_ray.stages.dedup import add_content_hash
    from refimage_ray.stages.docids import add_url_hash_ids
    from refimage_ray.stages.extract import extract_text_batch
    from refimage_ray.stages.tokenize import tokenize_batch

    with open(os.path.join(idx, "metrics.json")) as f:
        bm = json.load(f)
    m: dict[str, float] = {"index.build.docs_per_s": n_pages / wall}
    run.stage("layer_read")
    t0 = time.perf_counter()
    pages_ds = rd.read_parquet(pages_dir, columns=["url", "warc_ts", "html", "lang"]).materialize()
    m["sources.read_s"] = time.perf_counter() - t0
    batches = list(pages_ds.iter_batches(batch_format="pyarrow", batch_size=256))

    def busy(fn, items):
        outs, t = [], time.perf_counter()
        for b in items:
            outs.append(fn(b))
        return outs, time.perf_counter() - t

    run.stage("layer_extract")
    ext, m["stages.extract.busy_s"] = busy(extract_text_batch, batches)
    m["stages.extract.docs_per_s"] = n_pages / m["stages.extract.busy_s"]
    run.stage("layer_docids")
    hashed, m["stages.dedup.busy_s"] = busy(add_content_hash, ext)
    ided, m["stages.docids.busy_s"] = busy(add_url_hash_ids, hashed)
    run.stage("layer_tokenize")
    post, m["stages.tokenize.busy_s"] = busy(tokenize_batch, ided)
    n_post = sum(p.num_rows for p in post)
    m["stages.tokenize.postings_per_s"] = n_post / m["stages.tokenize.busy_s"]

    run.stage("layer_codec")
    allp = pa.concat_tables(post).combine_chunks()
    order = pc.sort_indices(allp, sort_keys=[("term", "ascending"), ("doc_id", "ascending")])
    allp = allp.take(order)
    terms = allp["term"].to_numpy(zero_copy_only=False)
    ids = allp["doc_id"].to_numpy()
    tfs = allp["tf"].to_numpy().astype(np.uint64)
    cuts = np.flatnonzero(terms[1:] != terms[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(terms)]))
    nbytes, t0 = 0, time.perf_counter()
    for s, e in zip(starts.tolist(), ends.tolist()):
        nbytes += len(encode_postings(ids[s:e])) + len(varbyte_encode(tfs[s:e]))
    m["functions.codec.encode_mb_per_s"] = nbytes / 1e6 / (time.perf_counter() - t0)

    run.stage("layer_floor")
    t0 = time.perf_counter()
    pages_ds.map_batches(lambda b: b, batch_format="pyarrow", batch_size=256).materialize()
    m["ray.data.floor_s"] = time.perf_counter() - t0

    m.update({
        "index.build.docs_write_s": bm["docs_write_sec"],
        "index.build.dedup_s": bm["dedup_sec"],
        "index.build.stats_s": bm["stats_sec"],
        "index.build.hot_s": bm["hot_sec"],
        "index.build.shuffle_build_s": bm["shuffle_build_sec"],
        "index.build.reducer_busy_s": bm["reducer_wall_sec"],
        "index.build.shuffle_bytes": bm["shuffle_bytes"],
        "index.build.partition_skew_ratio": bm["partition_skew_ratio"],
        "index.build.postings_bytes": bm["index_bytes"],
        "index.build.artifact_bytes": common.dir_bytes(idx),
    })
    accounted = (m["sources.read_s"] + m["stages.extract.busy_s"] + m["stages.dedup.busy_s"]
                 + m["stages.docids.busy_s"] + m["stages.tokenize.busy_s"]
                 + m["index.build.reducer_busy_s"])
    m["build.unattributed_s"] = wall - accounted
    m["build.unattributed_share"] = (wall - accounted) / wall
    return m, {
        "build_wall_s": wall, "build_metrics": bm,
        "build_note": "unattributed = build wall - (read + extract + content hash + doc ids "
                      "+ tokenize, each timed in process, + reducer busy from metrics.json): "
                      "Ray Data scheduling, serialization, the exchange, writes and overlap"}
