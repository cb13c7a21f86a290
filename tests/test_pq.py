"""Product quantization + distributed PCA: determinism, recall against
exact search, ADC law checks, PCA == numpy on the gathered matrix."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimage_ray.stages.pq import adc_scores, pq_encode, pq_train

RNG = np.random.default_rng(5)


def _unit_rows(n, d):
    m = RNG.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_pq_train_deterministic_shapes():
    x = _unit_rows(500, 32)
    a = pq_train(x, m=4, k=8)
    b = pq_train(x, m=4, k=8)
    assert a.shape == (4, 8, 8) and (a == b).all()


def test_pq_train_validates():
    x = _unit_rows(10, 30)
    with pytest.raises(ValueError, match="divisible"):
        pq_train(x, m=4, k=4)
    with pytest.raises(ValueError, match="sample"):
        pq_train(_unit_rows(4, 32), m=4, k=8)


def test_pq_encode_picks_nearest_centroid():
    x = _unit_rows(300, 16)
    books = pq_train(x, m=2, k=8)
    codes = pq_encode(x, books)
    assert codes.shape == (300, 2) and codes.dtype == np.uint8
    # brute-force check on subspace 0
    sub = x[:, :8]
    d2 = ((sub[:, None, :] - books[0][None, :, :]) ** 2).sum(axis=2)
    assert (codes[:, 0] == d2.argmin(axis=1)).all()


def test_adc_equals_reconstructed_inner_product():
    """ADC score == q · decode(code) exactly (it's the same sum)."""
    x = _unit_rows(200, 16)
    books = pq_train(x, m=4, k=8)
    codes = pq_encode(x, books)
    q = _unit_rows(1, 16)[0]
    got = adc_scores(q, books, codes)
    recon = np.concatenate(
        [books[j][codes[:, j]] for j in range(4)], axis=1
    )
    np.testing.assert_allclose(got, recon @ q, rtol=1e-12)


def test_pq_topk_recall_and_determinism(ray_session):
    import ray.data as rd

    from refimage_ray.stages.ann import brute_force_topk, pq_topk

    x = _unit_rows(1200, 32)
    t = pa.table(
        {
            "vec_id": pa.array(range(1200), pa.int64()),
            "embedding": pa.array([r.tolist() for r in x],
                                  pa.list_(pa.float32())),
        }
    )
    q = x[[3, 77]]
    exact = brute_force_topk(rd.from_arrow(t), q, k=10).to_pylist()
    approx = pq_topk(rd.from_arrow(t), q, k=10).to_pylist()
    approx2 = pq_topk(rd.from_arrow(t), q, k=10).to_pylist()
    assert approx == approx2  # deterministic end to end
    by_q_exact: dict = {}
    by_q_approx: dict = {}
    for r in exact:
        by_q_exact.setdefault(r["query_id"], set()).add(r["vec_id"])
    for r in approx:
        by_q_approx.setdefault(r["query_id"], set()).add(r["vec_id"])
    hits = sum(len(by_q_exact[qi] & by_q_approx.get(qi, set()))
               for qi in by_q_exact)
    recall = hits / sum(len(v) for v in by_q_exact.values())
    assert recall >= 0.6  # random gaussian data is PQ's worst case
    # self-match must survive: the query IS a stored vector
    assert 3 in by_q_approx[0] and 77 in by_q_approx[1]
    # returned scores are exact cosines (re-ranked pool)
    exact_map = {(r["query_id"], r["vec_id"]): r["score"] for r in exact}
    for r in approx:
        key = (r["query_id"], r["vec_id"])
        if key in exact_map:
            assert r["score"] == pytest.approx(exact_map[key], rel=1e-12)


def test_embedding_pca_matches_numpy(ray_session, tmp_path):
    import pyarrow.parquet as pq_

    from refimage_ray.pipelines.vectors import embedding_pca_stats

    x = RNG.standard_normal((800, 12)) * np.linspace(3, 0.1, 12)
    t = pa.table(
        {
            "vec_id": pa.array(range(800), pa.int64()),
            "embedding": pa.array([r.tolist() for r in x],
                                  pa.list_(pa.float32())),
            "label": pa.array([0] * 800, pa.int32()),
        }
    )
    pq_.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = embedding_pca_stats(str(tmp_path), top=5).to_pylist()
    want = np.linalg.eigvalsh(np.cov(x.astype(np.float32).astype(np.float64).T))[::-1]
    for i, row in enumerate(got):
        assert row["component"] == i + 1
        assert row["eigenvalue"] == pytest.approx(round(want[i], 6), abs=2e-6)
    ratios = [r["explained_ratio"] for r in got]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_pq_topk_block_layout_invariance(ray_session):
    """The candidate pool is GLOBAL (adc desc, vec_id asc) — block
    boundaries must not change membership or scores (the previous
    per-batch-pool formulation was layout-dependent)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from refimage_ray.stages.ann import pq_topk

    rng = np.random.default_rng(1)
    mat = rng.standard_normal((400, 64))
    t = pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              pa.list_(pa.float32())),
    })
    q = mat[:2]
    one = pq_topk(rd.from_arrow(t), q, k=10).to_pylist()
    many = pq_topk(rd.from_arrow(t).repartition(13), q, k=10).to_pylist()
    assert one == many


def test_pq_topk_seeded_codebooks_recall(ray_session):
    """The value-oracle path (fixed seeded codebooks, no training)
    still finds real neighbors: self-match survives and recall >= 0.3
    vs brute force on worst-case gaussian data (a data-independent
    quantizer is legitimately weaker than the trained default — the
    oracle's exactness is about the probe, not recall)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from refimage_ray.stages.ann import brute_force_topk, pq_topk
    from refimage_ray.stages.pq import pq_seeded_codebooks

    rng = np.random.default_rng(2)
    mat = rng.standard_normal((400, 64))
    t = pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              pa.list_(pa.float32())),
    })
    q = mat[:2]
    exact = brute_force_topk(rd.from_arrow(t), q, k=10).to_pylist()
    approx = pq_topk(
        rd.from_arrow(t), q, k=10,
        codebooks=pq_seeded_codebooks(m=8, k=16, dsub=8),
    ).to_pylist()
    for qi in (0, 1):
        want = {r["vec_id"] for r in exact if r["query_id"] == qi}
        got = {r["vec_id"] for r in approx if r["query_id"] == qi}
        assert len(want & got) >= 3, (qi, want, got)
        assert qi in got  # self-match survives the fixed quantizer


def test_pq_shape_mismatch_raises_naming_dims(ray_session, tmp_path):
    """A vector dim that is not m·dsub, or codes from other codebooks,
    raise ValueError naming dim, m and dsub (previously pq_encode
    truncated subvectors silently and adc_scores failed in a bare
    reshape)."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from refimage_ray.pipelines.vectors import knn_cosine_pq
    from refimage_ray.stages.ann import pq_topk

    x = _unit_rows(300, 16)
    books = pq_train(x, m=4, k=8)            # dim 16 = 4 × 4
    with pytest.raises(ValueError, match=r"dim 20 .*m=4 × dsub=4"):
        pq_encode(_unit_rows(10, 20), books)
    codes = pq_encode(x, books)
    with pytest.raises(ValueError, match=r"dim 12 .*m=4 × dsub=4"):
        adc_scores(_unit_rows(1, 12)[0], books, codes)
    # codes from mismatched codebooks: other m, other k
    other_m = pq_train(x, m=2, k=8)          # dim 16 = 2 × 8
    with pytest.raises(ValueError, match=r"m=2 .*dsub=8"):
        adc_scores(x[0], other_m, codes)
    other_k = pq_train(x, m=4, k=4)
    with pytest.raises(ValueError, match=r"k=4"):
        adc_scores(x[0], other_k, codes)
    t = pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array([r.tolist() for r in x], pa.list_(pa.float32())),
    })
    with pytest.raises(ValueError, match=r"dim 16 .*m=2 × dsub=4"):
        pq_topk(rd.from_arrow(t), x[:2], k=5, m=2,
                codebooks=np.zeros((2, 8, 4)))
    # the catalogue query derives dsub = dim // 8: dim 12 is not 8·dsub
    y = _unit_rows(40, 12)
    pq_.write_table(pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array([r.tolist() for r in y], pa.list_(pa.float32())),
    }), str(tmp_path / "embeddings.parquet"))
    with pytest.raises(ValueError, match=r"dim 12 .*m=8 × dsub=1"):
        knn_cosine_pq(str(tmp_path), [0, 1], k=3)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(60, 240),
       dim=st.sampled_from([16, 32, 48]), parts=st.integers(2, 17))
def test_ann_topk_bitwise_under_any_block_layout(ray_session, seed, n, dim,
                                                 parts):
    """brute_force_topk, ivf_topk and pq_topk return bitwise-equal
    (query_id, vec_id, score) rows whatever ``repartition(n)`` cut the
    embeddings into blocks.  Duplicated vectors make exact score ties,
    which must tie bitwise too."""
    import ray.data as rd

    from refimage_ray.stages.ann import brute_force_topk, ivf_topk, pq_topk

    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, dim))
    mat[n // 2:n // 2 + 5] = mat[:5]
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([r.tolist() for r in mat],
                              pa.list_(pa.float32())),
    })
    q = mat[[1, n - 1]]
    cents = rng.standard_normal((6, dim))
    ops = {
        "brute": lambda ds: brute_force_topk(ds, q, k=8),
        "ivf": lambda ds: ivf_topk(ds, q, k=8, centroids=cents, nprobe=2),
        "pq": lambda ds: pq_topk(ds, q, k=8, m=4, n_codes=8),
    }
    for name, op in ops.items():
        one = op(rd.from_arrow(t)).to_pylist()
        many = op(rd.from_arrow(t).repartition(parts)).to_pylist()
        assert one == many, name
