"""Columnar posting load (index/reader.py): bitwise identity against a
per-row reference decoder, read-only views, and the rank self-check."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.functions.codec import (
    decode_f64,
    decode_postings,
    encode_postings,
    varbyte_decode,
)
from refimage_ray.index.build import INDEX_SCHEMA, build_index
from refimage_ray.index.manifest import load_manifest
from refimage_ray.index.reader import (
    IndexReader,
    TermPostings,
    attach_ranks,
    load_doc_universe,
)
from refimage_ray.query.engine import LocalSearcher

ARRAYS = ("doc_ids", "weights", "tfs", "dls", "positions",
          "block_last_doc", "block_max_weight")


def _reference_load(index_dir: str, shards=None) -> dict[str, TermPostings]:
    """One blob at a time: each term's rows in shard order then salt
    order, every column decoded per row and concatenated, tombstoned
    postings dropped per term (a term left empty is absent)."""
    man = load_manifest(index_dir)
    by_shard: dict[int, list] = {}
    for p in man["partitions"]:
        by_shard.setdefault(int(p["shard"]), []).append(p)
    tomb_path = os.path.join(index_dir, "tombstones.parquet")
    tomb = (np.sort(pq.read_table(tomb_path)["doc_id"].to_numpy())
            if os.path.exists(tomb_path) else np.zeros(0, np.int64))
    rows: dict[str, list] = {}
    for shard in sorted(by_shard) if shards is None else shards:
        for p in sorted(by_shard.get(shard, []), key=lambda p: int(p["salt"])):
            for r in pq.read_table(os.path.join(index_dir, p["path"])).to_pylist():
                rows.setdefault(r["term"], []).append(r)
    out = {}
    for term, rs in rows.items():
        rs.sort(key=lambda r: r["salt"])

        def cat(f):
            return np.concatenate([f(r) for r in rs])

        ids = cat(lambda r: decode_postings(r["doc_ids"]))
        w = cat(lambda r: decode_f64(r["weights"]))
        tfs = cat(lambda r: varbyte_decode(r["tfs"]).astype(np.int64))
        dls = (cat(lambda r: varbyte_decode(r["dls"]).astype(np.int64))
               if "dls" in rs[0] else None)
        pos = (cat(lambda r: varbyte_decode(r["positions"]).astype(np.int32))
               if "positions" in rs[0] else None)
        keep = ~np.isin(ids, tomb)
        if not keep.all():
            if pos is not None:
                segs = np.split(pos, np.cumsum(tfs)[:-1])
                pos = np.concatenate(
                    [s for s, k in zip(segs, keep) if k] or [pos[:0]])
            ids, w, tfs = ids[keep], w[keep], tfs[keep]
            dls = None if dls is None else dls[keep]
            if not len(ids):
                continue
        out[term] = TermPostings(
            df=int(sum(r["df"] for r in rs)),
            doc_ids=ids, weights=w, tfs=tfs,
            max_weight=float(max(r["max_weight"] for r in rs)),
            block_last_doc=cat(
                lambda r: np.asarray(r["block_last_doc"], np.int64)),
            block_max_weight=cat(
                lambda r: np.asarray(r["block_max_weight"], np.float64)),
            dls=dls, positions=pos,
        )
    return out


def _assert_identical(got: dict, want: dict) -> None:
    assert list(got) == list(want)  # same terms, same order
    for t, b in want.items():
        a = got[t]
        assert type(a.df) is int and a.df == b.df, t
        assert type(a.max_weight) is float and a.max_weight == b.max_weight, t
        for f in ARRAYS:
            x, y = getattr(a, f), getattr(b, f)
            if y is None:
                assert x is None, (t, f)
                continue
            assert x.dtype == y.dtype and x.shape == y.shape, (t, f)
            assert x.tobytes() == y.tobytes(), (t, f)


def _assert_ranks(terms: dict, universe: np.ndarray) -> None:
    for t, p in terms.items():
        want = np.searchsorted(universe, p.doc_ids).astype(np.int32)
        assert p.ranks.dtype == np.int32 and p.ranks.tobytes() == want.tobytes(), t


def _copy(index_dir: str, tmp_path, name: str) -> str:
    d = str(tmp_path / name)
    shutil.copytree(index_dir, d)
    return d


def _part_paths(index_dir: str) -> list[str]:
    return [os.path.join(index_dir, p["path"])
            for p in load_manifest(index_dir)["partitions"]]


def test_salted_hot_terms_load_identical(built_index):
    index_dir, cfg, res = built_index
    assert cfg.salt_buckets == 4
    want = _reference_load(index_dir)
    salt_rows: dict[str, int] = {}
    for path in _part_paths(index_dir):
        for t in pq.read_table(path, columns=["term"])["term"].to_pylist():
            salt_rows[t] = salt_rows.get(t, 0) + 1
    assert any(salt_rows[t] > 1 for t in res.manifest["stats"]["hot_terms"])
    _assert_identical(IndexReader(index_dir).load_shards(None), want)
    s = LocalSearcher(index_dir)
    _assert_identical(s.terms, want)
    _assert_ranks(s.terms, load_doc_universe(index_dir))


def test_shard_subset_load_identical(built_index):
    index_dir, _, _ = built_index
    for shards in ([1, 5], [6, 0, 3], [7]):
        _assert_identical(IndexReader(index_dir).load_shards(shards),
                          _reference_load(index_dir, shards))


def test_tombstoned_load_identical(built_index, tmp_path):
    index_dir, _, res = built_index
    d = _copy(index_dir, tmp_path, "tomb")
    full = IndexReader(d).load_shards(None)
    rare = min(full, key=lambda t: full[t].df)
    hot = res.manifest["stats"]["hot_terms"][0]
    dead = set(range(0, 250, 7)) | set(full[rare].doc_ids.tolist())
    pq.write_table(pa.table({"doc_id": pa.array(sorted(dead), pa.int64())}),
                   os.path.join(d, "tombstones.parquet"))
    got = IndexReader(d).load_shards(None)
    assert rare not in got
    assert len(got[hot].doc_ids) < len(full[hot].doc_ids)
    _assert_identical(got, _reference_load(d))


@pytest.fixture(scope="module")
def positional_index(ray_session, tiny_docs, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("readerpos") / "idx")
    build_index(rd.from_arrow(tiny_docs), d,
                EngineConfig(num_shards=4, salt_buckets=2,
                             hot_df_fraction=0.05, store_positions=True))
    return d


def test_positional_load_identical(positional_index, tmp_path):
    _assert_identical(IndexReader(positional_index).load_shards(None),
                      _reference_load(positional_index))
    # tombstones rebuild positions with the surviving postings only
    d = _copy(positional_index, tmp_path, "postomb")
    pq.write_table(pa.table({"doc_id": pa.array(range(1, 250, 5), pa.int64())}),
                   os.path.join(d, "tombstones.parquet"))
    got = IndexReader(d).load_shards(None)
    _assert_identical(got, _reference_load(d))
    assert all(len(p.positions) == int(p.tfs.sum()) for p in got.values())


def test_pre_dls_artifact_load_identical(built_index, tmp_path):
    index_dir, _, _ = built_index
    d = _copy(index_dir, tmp_path, "nodls")
    for path in _part_paths(d):
        pq.write_table(pq.read_table(path).drop_columns(["dls"]), path)
    got = IndexReader(d).load_shards(None)
    assert all(p.dls is None for p in got.values())
    _assert_identical(got, _reference_load(d))


def test_empty_index_loads_empty(ray_session, tmp_path):
    d = str(tmp_path / "empty")
    build_index(rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                        "text": pa.array([], pa.string())})),
                d, EngineConfig(num_shards=2, salt_buckets=2))
    assert IndexReader(d).load_shards(None) == {}
    assert _reference_load(d) == {}
    assert attach_ranks({}, np.zeros(0, np.int64)) == {}


def test_loaded_arrays_are_read_only(positional_index):
    s = LocalSearcher(positional_index)
    p = max(s.terms.values(), key=lambda p: p.df)
    for f in ARRAYS + ("ranks",):
        a = getattr(p, f)
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_foreign_doc_id_fails_rank_check(built_index, tmp_path):
    index_dir, _, _ = built_index
    d = _copy(index_dir, tmp_path, "foreign")
    path = _part_paths(d)[0]
    t = pq.read_table(path)
    blobs = t["doc_ids"].to_pylist()
    blobs[0] = encode_postings(decode_postings(blobs[0]) + 10**6)
    t = t.set_column(t.schema.get_field_index("doc_ids"), "doc_ids",
                     pa.array(blobs, pa.binary()))
    pq.write_table(t, path)
    with pytest.raises(ValueError, match="not all present in docs/ universe"):
        LocalSearcher(d)
    with pytest.raises(ValueError, match=repr(t["term"][0].as_py())):
        attach_ranks(IndexReader(d).load_shards(None), load_doc_universe(d))


# ---- write side: encode_term_runs ------------------------------------


def _runs_strategy():
    """(runs, block_size, positional): each run a sorted unique id set
    (up to 63-bit) with per-posting tf/dl/weight — single-posting runs
    and runs longer than the block size both occur."""
    posting = st.tuples(
        st.integers(1, 5), st.integers(0, 2**31 - 1),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    run = st.dictionaries(st.integers(0, 2**63 - 1), posting, min_size=1, max_size=12)
    return st.tuples(
        st.lists(run, max_size=6), st.sampled_from([1, 2, 3, 128]), st.booleans()
    )


def _flat(runs, positional, seed=0):
    rng = np.random.default_rng(seed)
    ids, tfs, dls, w = [], [], [], []
    for r in runs:
        for d in sorted(r):
            tf, dl, wt = r[d]
            ids.append(d), tfs.append(tf), dls.append(dl), w.append(wt)
    lens = np.array([len(r) for r in runs], np.int64)
    ends = np.cumsum(lens)
    tfs = np.array(tfs, np.int64)
    pos = rng.integers(0, 2**31 - 1, int(tfs.sum())).astype(np.int32) if positional else None
    return (ends - lens, ends, np.array(ids, np.int64), tfs,
            np.array(dls, np.int64), np.array(w, np.float64), pos)


def _reference_encode(starts, ends, ids, tfs, dls, w, block_size, pos):
    """One run at a time, with the per-value codec functions."""
    from refimage_ray.functions.codec import encode_f64, varbyte_encode

    out: dict[str, list] = {k: [] for k in (
        "df", "doc_ids", "tfs", "dls", "weights", "max_weight",
        "block_max_weight", "block_last_doc", "positions")}
    ctf = np.concatenate(([0], np.cumsum(tfs)))
    for s, e in zip(starts, ends):
        blocks = np.arange(0, e - s, block_size)
        out["df"].append(int(e - s))
        out["doc_ids"].append(encode_postings(ids[s:e]))
        out["tfs"].append(varbyte_encode(tfs[s:e]))
        out["dls"].append(varbyte_encode(dls[s:e]))
        out["weights"].append(encode_f64(w[s:e]))
        out["max_weight"].append(float(w[s:e].max()))
        out["block_max_weight"].append(np.maximum.reduceat(w[s:e], blocks).tolist())
        out["block_last_doc"].append(
            ids[s:e][np.minimum(blocks + block_size, e - s) - 1].tolist())
        if pos is not None:
            out["positions"].append(varbyte_encode(pos[ctf[s]:ctf[e]]))
    return out


@given(_runs_strategy())
@example(([], 2, True))
@settings(max_examples=150, deadline=None)
def test_encode_term_runs_matches_per_run_reference(case):
    from refimage_ray.index.reader import encode_term_runs

    runs, block_size, positional = case
    starts, ends, ids, tfs, dls, w, pos = _flat(runs, positional)
    got = encode_term_runs(starts, ends, ids, tfs, dls, w, block_size, pos)
    want = _reference_encode(starts, ends, ids, tfs, dls, w, block_size, pos)
    assert sorted(got) == sorted(k for k in want if k != "positions" or positional)
    for k, col in got.items():
        want_type = pa.binary() if k == "positions" else INDEX_SCHEMA.field(k).type
        assert col.type == want_type, k
        assert col.to_pylist() == want[k], k


@given(_runs_strategy())
@example(([], 2, True))
@settings(max_examples=150, deadline=None)
def test_encode_then_decode_term_runs_round_trips(case):
    from refimage_ray.index.reader import decode_term_runs, encode_term_runs

    runs, block_size, positional = case
    starts, ends, ids, tfs, dls, w, pos = _flat(runs, positional)
    cols = encode_term_runs(starts, ends, ids, tfs, dls, w, block_size, pos)
    t = pa.table({k: cols[k] for k in ("doc_ids", "tfs", "dls", "weights", "positions")
                  if k in cols})
    got = decode_term_runs(t, np.arange(len(runs)), np.zeros(0, np.int64))
    assert len(got) == len(runs)
    ctf = np.concatenate(([0], np.cumsum(tfs)))
    for (s, e), (g_ids, g_w, g_tfs, g_dls, g_pos) in zip(zip(starts, ends), got):
        assert g_ids.tobytes() == ids[s:e].tobytes()
        assert g_w.tobytes() == w[s:e].tobytes()
        assert np.array_equal(g_tfs, tfs[s:e]) and np.array_equal(g_dls, dls[s:e])
        if positional:
            assert g_pos.tobytes() == pos[ctf[s]:ctf[e]].tobytes()
        else:
            assert g_pos is None


def test_encode_term_runs_rejects_runs_that_do_not_partition():
    from refimage_ray.index.reader import encode_term_runs

    ids = np.arange(4, dtype=np.int64)
    one = np.ones(4, np.int64)
    for starts, ends in (([0, 1], [1, 3]), ([0, 2], [2, 2]), ([1], [4])):
        with pytest.raises(ValueError, match="partition"):
            encode_term_runs(np.array(starts), np.array(ends), ids, one, one,
                             one.astype(np.float64), 2)
