"""Product quantization — the memory-scale path for vector search.

At 100 TB the embedding table dwarfs RAM (a 768-dim float32 vector is
3 KB; PQ codes with m=8 subquantizers are 8 BYTES — a 384× residency
compression).  The classic IVF-PQ recipe (Jégou et al., "Product
Quantization for Nearest Neighbor Search", TPAMI 2011):

- **train**: split the vector into ``m`` subspaces, k-means each on a
  bounded sample (deterministic seeded Lloyd — same sampling contract
  as ``ann.ivf_topk``'s centroids);
- **encode**: per subspace, nearest-centroid id (one argmin over a
  (n, k) distance matrix — vectorized, no per-row Python);
- **search (ADC)**: a query builds one (m, k) inner-product table;
  every code's approximate score is ``m`` table lookups summed.

The pipeline here fuses encode+search per batch (codes never persist —
the contract queries exercise the math); ``encode → write codes,
search over the code table`` is the same ``map_batches`` shape with a
smaller input.  Recall is boosted the standard way: ADC selects a
candidate pool of ``pool_factor × k`` per batch, which is re-ranked
with the batch's own EXACT vectors (asymmetric refinement), so
returned scores are true cosines and only membership is approximate.

Reference analog: the reference serves exact FAISS `IndexFlatIP`
(/root/reference/src/refimage/search/__init__.py:57-60) — no
compression story; this is part of the scale path the reference lacks.
"""

from __future__ import annotations

import numpy as np


def pq_train(
    sample: np.ndarray, m: int = 8, k: int = 16, iters: int = 10,
    seed: int = 13,
) -> np.ndarray:
    """Deterministic per-subspace Lloyd k-means → codebooks (m, k, dsub).

    ``sample`` rows should already be L2-normalized when the target
    metric is cosine (encode/search assume it).
    """
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m} subspaces")
    if n < k:
        raise ValueError(f"sample ({n}) smaller than k={k} centroids")
    dsub = d // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, k, dsub), np.float64)
    for j in range(m):
        x = sample[:, j * dsub : (j + 1) * dsub]
        cent = x[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(iters):
            # assign: argmin ||x - c||^2 = argmax (x·c - ||c||²/2)
            scores = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
            assign = np.argmax(scores, axis=1)
            for c in range(k):
                mask = assign == c
                if mask.any():
                    cent[c] = x[mask].mean(axis=0)
                # empty cluster: keep the old centroid (deterministic)
        books[j] = cent
    return books


def check_pq_dim(dim: int, books: np.ndarray) -> None:
    """Raise ``ValueError`` unless vectors of ``dim`` split exactly into
    the codebooks' ``m`` subspaces of ``dsub`` (a mismatch would
    otherwise truncate subvectors silently or fail in a bare reshape)."""
    if books.ndim != 3:
        raise ValueError(f"codebooks must be (m, k, dsub), got shape {books.shape}")
    m, _, dsub = books.shape
    if dim != m * dsub:
        raise ValueError(
            f"vector dim {dim} does not match codebooks: m={m} × dsub={dsub} "
            f"= {m * dsub}"
        )


def pq_encode(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) L2-normalized vectors → (n, m) uint8 codes."""
    check_pq_dim(mat.shape[1], books)
    m, k, dsub = books.shape
    n = mat.shape[0]
    codes = np.empty((n, m), np.uint8)
    for j in range(m):
        x = mat[:, j * dsub : (j + 1) * dsub]
        scores = x @ books[j].T - 0.5 * (books[j] * books[j]).sum(axis=1)
        codes[:, j] = np.argmax(scores, axis=1).astype(np.uint8)
    return codes


def adc_scores(q: np.ndarray, books: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Asymmetric distance computation: approximate inner products of a
    (normalized) query against (n, m) codes — m table lookups per code."""
    check_pq_dim(q.size, books)
    m, k, dsub = books.shape
    if codes.ndim != 2 or codes.shape[1] != m or (codes.size and codes.max() >= k):
        raise ValueError(
            f"codes of shape {codes.shape} do not match codebooks: m={m} "
            f"subspaces of k={k} codes (dim {q.size}, dsub={dsub})"
        )
    tables = np.einsum("mkd,md->mk", books, q.reshape(m, dsub))
    out = np.zeros(len(codes), np.float64)
    for j in range(m):  # m is small (8); lookups are vectorized over n
        out += tables[j][codes[:, j]]
    return out

def pq_seeded_codebooks(
    m: int = 8, k: int = 16, dsub: int = 8, seed: int = 5
) -> np.ndarray:
    """Fixed (data-independent) codebooks: seeded Gaussian rows scaled
    to ``1/√(m·dsub)`` so entries sit at the typical subvector scale of
    unit-norm embeddings.  Deterministic by construction, so the whole
    PQ probe geometry (per-subspace assignment, ADC tables, candidate
    pool) embeds verbatim as SQL literals — what lets the driver
    value-oracle ``knn_cosine_pq`` (``__ray_entry__._pq_sql``), the
    same trick as the LSH hyperplanes and IVF centroids.  Recall is
    below a sample-trained quantizer's but the exact re-rank keeps the
    returned scores true cosines either way."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k, dsub)) / np.sqrt(m * dsub)
