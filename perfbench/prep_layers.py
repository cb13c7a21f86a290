"""The engine's data-preparation chain over the generated documents,
run and timed stage by stage by the traced ``ingest`` run:

    curated_doc_ids (quality + language gates, exact dedup)
    → MinHash LSH near-duplicate pairs and clusters (stages.dedup_near)
    → boilerplate paragraph dedup (stages.lines.line_dedup)
    → bigram LM train + perplexity gate (stages.lm)
    → token-id sequence packing (stages.packing)

The only place the benchmark makes the LSH band join, the segment
exchanges and the packing shuffles do work.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import corpus
from oracle import tokens

ROWS_PER_FILE = 125
NEAR_THRESHOLD = 0.8
RECALL_MIN_JACCARD = 0.85   # planted pairs at or above this must be found
MAX_PPL = 5000.0
PACK_BUDGET = 512
PPL_CONCURRENCY = (1, 2)    # see README.md: the default (1, 8) pool and num_cpus


def _collect(ds) -> pa.Table:
    import ray

    blocks = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(ds.to_arrow_refs())]
    blocks = [b for b in blocks if b.num_rows]
    return pa.concat_tables(blocks).combine_chunks() if blocks else pa.table({})


def _keep(ds, ids: np.ndarray):
    """Rows of ``ds`` whose doc_id is in the sorted ``ids``."""
    def f(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(np.isin(d, ids)))

    return ds.map_batches(f, batch_format="pyarrow")


class Chain:
    """One pass of the chain; stage outputs kept for the checks."""

    def __init__(self, docs_dir: str):
        self.docs_dir = docs_dir
        self.t: dict[str, float] = {}

    def _timed(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.t[name] = self.t.get(name, 0.0) + time.perf_counter() - t0
        return out

    def go(self, run, traced: bool) -> None:
        import ray.data as rd

        from refimage_ray.pipelines.curate import curated_doc_ids
        from refimage_ray.stages.dedup_near import (
            dup_clusters, lsh_candidate_pairs, minhash_band_rows, minhash_near_dup_pairs,
        )
        from refimage_ray.stages.lines import line_dedup
        from refimage_ray.stages.lm import perplexity_filter, train_bigram_lm
        from refimage_ray.stages.packing import build_vocab, pack_token_sequences

        docs = rd.read_parquet(self.docs_dir, columns=["doc_id", "text"])
        run.stage("prep_curate")
        cur = self._timed("curate", lambda: curated_doc_ids(docs))
        self.curated = cur["doc_id"].to_numpy()
        cur_ds = self._timed("curate", lambda: _keep(docs, self.curated).materialize())

        run.stage("prep_near_dup")
        pairs = self._timed("near", lambda: minhash_near_dup_pairs(cur_ds, threshold=NEAR_THRESHOLD))
        clusters = self._timed("near", lambda: dup_clusters(pairs))
        if traced:
            # counted apart from the stage times and the pass wall
            from refimage_ray.config import DEFAULT_CONFIG

            t0 = time.perf_counter()
            band = cur_ds.map_batches(lambda b: minhash_band_rows(b, DEFAULT_CONFIG),
                                      batch_format="pyarrow")
            self.candidates = lsh_candidate_pairs(band).count()
            self.count_s = time.perf_counter() - t0
        self.pairs = sorted(zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()))
        cid = clusters["cluster_id"].to_numpy()
        losers = np.sort(clusters["doc_id"].to_numpy()[cid != clusters["doc_id"].to_numpy()])
        self.near_kept = np.setdiff1d(self.curated, losers)

        run.stage("prep_lines")
        ld = self.ld = self._timed("lines", lambda: line_dedup(
            _keep(cur_ds, self.near_kept), delimiter="\n\n", min_count=2,
            mode="keep_first", return_text=True).materialize())
        clean = ld.map_batches(
            lambda b: b.filter(pa.array(b["kept_chars"].to_numpy() > 0)).select(["doc_id", "text"]),
            batch_format="pyarrow")

        run.stage("prep_lm")
        lm = self._timed("lm_train", lambda: train_bigram_lm(clean))
        gated = self.gated_ds = self._timed("lm_score", lambda: perplexity_filter(
            clean, lm, MAX_PPL, concurrency=PPL_CONCURRENCY).materialize())

        run.stage("prep_pack")
        self.vocab = self._timed("pack", lambda: build_vocab(gated))
        self.packed = self._timed("pack", lambda: _collect(
            pack_token_sequences(gated, PACK_BUDGET, vocab=self.vocab)))

    def collect(self) -> None:
        """Outputs the checks read, gathered after the timed pass."""
        stats = _collect(self.ld.select_columns(["doc_id", "kept_chars"]))
        self.kept_chars = int(stats["kept_chars"].to_numpy().sum())
        self.gated = _collect(self.gated_ds.select_columns(["doc_id", "text"]))
        order = np.argsort(self.packed["seq_id"].to_numpy())
        self.packed = self.packed.take(pa.array(order))

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.curated, self.near_kept, np.array(self.pairs, np.int64),
                    np.sort(self.gated["doc_id"].to_numpy())):
            h.update(np.ascontiguousarray(arr, np.int64).tobytes())
        for seq in self.packed["token_ids"].to_pylist():
            h.update(np.asarray(seq, np.int32).tobytes())
        return h.hexdigest()


def check(run, ch: Chain, c: corpus.Corpus, texts: list[str]) -> None:
    cur = set(ch.curated.tolist())
    # exact copies never survive next to their source
    for i, j in c.exact_pairs:
        if j in cur:
            run.fail(f"exact copy {j} of {i} kept by curation")
    # planted near-duplicates above the recall floor are found
    found = set(ch.pairs)
    for i, j in c.near_pairs:
        if i in cur and j in cur and _jaccard(texts[i], texts[j]) >= RECALL_MIN_JACCARD:
            if (min(i, j), max(i, j)) not in found:
                run.fail(f"planted near-dup pair ({i}, {j}) not found")
    # packed tokens are exactly the kept docs' tokens, in doc_id order
    g = ch.gated
    order = np.argsort(g["doc_id"].to_numpy())
    index = {t: k for k, t in enumerate(ch.vocab)}
    want = [index.get(t, -1) for k in order.tolist() for t in tokens(g["text"][k].as_py())]
    got = [x for seq in ch.packed["token_ids"].to_pylist() for x in seq]
    if got != want:
        run.fail(f"packed {len(got)} tokens != kept docs' {len(want)} tokens")
    n = ch.packed["n_tokens"].to_numpy()
    if len(n) > 1 and (n[:-1] != PACK_BUDGET).any():
        run.fail("a packed sequence other than the last is not full")


def _jaccard(a: str, b: str, k: int = 3) -> float:
    def sh(t):
        w = tokens(t)
        return {tuple(w[i:i + k]) for i in range(len(w) - k + 1)}

    x, y = sh(a), sh(b)
    return len(x & y) / len(x | y) if x | y else 1.0


def write_docs(texts: list[str], docs_dir: str) -> None:
    """The chain's input: ``(doc_id, text)`` parquet, doc_id = page index."""
    os.makedirs(docs_dir)
    tbl = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    for k, s in enumerate(range(0, len(texts), ROWS_PER_FILE)):
        pq.write_table(tbl.slice(s, ROWS_PER_FILE), os.path.join(docs_dir, f"docs-{k:03d}.parquet"))


def traced_layers(run, c, texts, docs_dir: str):
    """One untraced pass (its wall is what the stages must explain),
    then one pass with every stage materialized and timed alone; the two
    passes must give the same output digest.  Returns (metrics, details)."""
    import ray.data as rd

    run.attempted += 1
    first = Chain(docs_dir)
    t0 = time.perf_counter()
    first.go(run, traced=False)
    wall = time.perf_counter() - t0
    ch = Chain(docs_dir)
    t0 = time.perf_counter()
    ch.go(run, traced=True)
    traced_wall = time.perf_counter() - t0 - ch.count_s
    run.stage("prep_check")
    first.collect()
    ch.collect()
    check(run, ch, c, texts)
    if first.digest() != ch.digest():
        run.fail(f"chain output differs between passes: {first.digest()} != {ch.digest()}")
    run.stage("layer_floor")
    t0 = time.perf_counter()
    rd.read_parquet(docs_dir).map_batches(lambda b: b, batch_format="pyarrow").materialize()
    floor = time.perf_counter() - t0
    n_seq = ch.packed.num_rows
    m = {
        "prep.docs_per_s": len(texts) / wall,
        "pipelines.curate.busy_s": ch.t["curate"],
        "pipelines.curate.kept_share": len(ch.curated) / len(texts),
        "stages.dedup_near.busy_s": ch.t["near"],
        "stages.dedup_near.candidate_pairs": ch.candidates,
        "stages.dedup_near.useful_ratio": len(ch.pairs) / ch.candidates if ch.candidates else 0.0,
        "stages.lines.busy_s": ch.t["lines"],
        "stages.lines.removed_bytes_share": 1.0 - ch.kept_chars / max(
            sum(len(texts[i]) for i in ch.near_kept.tolist()), 1),
        "stages.lm.train_s": ch.t["lm_train"],
        "stages.lm.score_s": ch.t["lm_score"],
        "stages.packing.busy_s": ch.t["pack"],
        "stages.packing.fill_ratio": int(ch.packed["n_tokens"].to_numpy().sum())
        / (n_seq * PACK_BUDGET) if n_seq else 0.0,
        "ray.data.floor_s": floor,
    }
    accounted = sum(ch.t.values())
    m["prep.unattributed_s"] = wall - accounted
    m["prep.unattributed_share"] = (wall - accounted) / wall
    m["prep.overhead_share"] = traced_wall / wall - 1.0
    return m, {
        "chain_wall_s": wall, "digest": ch.digest(), "traced_wall_s": traced_wall, "stage_s": ch.t,
        "prep_note": "unattributed = untraced chain wall - sum of the stage times of the "
                     "stage-by-stage pass; negative when the stages timed alone take longer "
                     "than the streamed chain (overlap, per-stage start-up)"}
