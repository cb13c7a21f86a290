"""Match-set export as a Dataset: membership semantics, dead-doc
filtering, payload join."""

from __future__ import annotations

import shutil

import pytest

from refimage_ray.pipelines.export import matches_dataset, matches_table
from refimage_ray.query.engine import LocalSearcher


def _ids(index_dir, q, **kw) -> list[int]:
    return sorted(matches_table(index_dir, q, **kw)["doc_id"].to_pylist())


def test_export_equals_search_membership(built_index):
    index_dir, _, _ = built_index
    s = LocalSearcher(index_dir)
    for q, mode in [("the data join", "or"), ("the data join", "and"),
                    ("zzz missing", "or")]:
        want = sorted(
            d for d, _ in s.search(q, k=10**9, threshold=0.0, mode=mode)
        )
        got = _ids(index_dir, q, mode=mode)
        assert got == want, (q, mode)
        assert len(got) == s.count(q, mode=mode)


def test_export_min_match_and_columns(built_index):
    index_dir, _, _ = built_index
    s = LocalSearcher(index_dir)
    q = "the data join"
    df = matches_table(index_dir, q, min_match=2, columns=["lang"]).to_pandas()
    assert sorted(df["doc_id"].tolist()) == sorted(
        d for d, _ in s.search(q, k=10**9, threshold=0.0, min_match=2)
    )
    assert set(df.columns) == {"doc_id", "n_terms", "lang"}
    assert (df["n_terms"] >= 2).all()
    with pytest.raises(ValueError):
        matches_dataset(index_dir, q, mode="and", min_match=1)
    # refused like engine.count, not the unnarrowed membership
    for m in (0, -3):
        with pytest.raises(ValueError, match="min_match must be >= 1"):
            matches_dataset(index_dir, q, min_match=m)


def test_export_excludes_tombstones(built_index, tmp_path):
    from refimage_ray.index.lifecycle import delete_docs

    index_dir, _, _ = built_index
    d = str(tmp_path / "tomb")
    shutil.copytree(index_dir, d)
    before = _ids(d, "the data")
    victims = before[:5]
    delete_docs(d, victims)
    after = _ids(d, "the data")
    assert after == [x for x in before if x not in set(victims)]


def test_export_empty_keeps_schema(built_index):
    index_dir, _, _ = built_index
    t = matches_table(index_dir, "zzz missing qqq", columns=["lang"])
    assert t.num_rows == 0
    assert t.schema.names == ["doc_id", "n_terms", "lang"]


# ---------------------------------------------------------------------------
# export_jsonl
# ---------------------------------------------------------------------------

def _hash_of_dir(d):
    import hashlib
    import os as _os

    h = hashlib.md5()
    for name in sorted(_os.listdir(d)):
        if name.endswith((".jsonl", ".jsonl.gz")):
            with open(_os.path.join(d, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()


def test_export_jsonl_roundtrip_and_resume(ray_session, tiny_docs, tmp_path):
    import json as _json
    import os as _os

    import ray.data as rd

    from refimage_ray.pipelines.export import export_jsonl

    src = rd.from_arrow(tiny_docs.select(["doc_id", "text", "lang"]))
    out1 = str(tmp_path / "a")
    res = export_jsonl(src, out1, "doc_id", n_files=8)
    assert res["rows"] == tiny_docs.num_rows and res["skipped"] == 0

    # roundtrip: every row comes back exactly once
    rows = []
    for name in sorted(_os.listdir(out1)):
        if name.endswith(".jsonl"):
            with open(_os.path.join(out1, name)) as f:
                rows += [_json.loads(line) for line in f]
    assert len(rows) == tiny_docs.num_rows
    got = {r["doc_id"]: r["text"] for r in rows}
    want = dict(zip(tiny_docs["doc_id"].to_pylist(),
                    tiny_docs["text"].to_pylist()))
    assert got == want

    # byte-identical across independent runs (determinism)
    out2 = str(tmp_path / "b")
    export_jsonl(src, out2, "doc_id", n_files=8)
    assert _hash_of_dir(out1) == _hash_of_dir(out2)

    # resume skips everything, bytes unchanged
    before = _hash_of_dir(out1)
    res2 = export_jsonl(src, out1, "doc_id", n_files=8)
    assert res2["skipped"] == res2["rows"] == tiny_docs.num_rows
    assert _hash_of_dir(out1) == before

    # geometry drift refuses loudly
    import pytest as _pytest

    with _pytest.raises(ValueError, match="geometry"):
        export_jsonl(src, out1, "doc_id", n_files=16)


def test_export_jsonl_partial_resume_completes(ray_session, tiny_docs,
                                               tmp_path):
    import os as _os

    import ray.data as rd

    from refimage_ray.pipelines.export import export_jsonl

    src = rd.from_arrow(tiny_docs.select(["doc_id", "text"]))
    full = str(tmp_path / "full")
    export_jsonl(src, full, "doc_id", n_files=8)
    crashed = str(tmp_path / "crashed")
    _os.makedirs(crashed)
    # simulate a crash that completed only 3 files (copy them over)
    import shutil as _shutil

    done = [n for n in sorted(_os.listdir(full)) if n.endswith(".jsonl")][:3]
    for n in done:
        _shutil.copy(_os.path.join(full, n), _os.path.join(crashed, n))
    _shutil.copy(_os.path.join(full, "manifest.json"),
                 _os.path.join(crashed, "manifest.json"))
    res = export_jsonl(src, crashed, "doc_id", n_files=8)
    assert res["skipped"] > 0
    assert _hash_of_dir(crashed) == _hash_of_dir(full)
