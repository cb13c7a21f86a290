"""MultiSearcher federation + index aliases: federated search must be
BIT-identical to the physically-merged artifact and to a monolithic
rebuild; aliases resolve/swap atomically."""

from __future__ import annotations

import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.alias import (
    drop_alias,
    load_aliases,
    resolve_alias,
    set_alias,
)
from refimage_ray.index.build import build_index
from refimage_ray.query.engine import LocalSearcher
from refimage_ray.query.multi import MultiSearcher

CFG = EngineConfig(num_shards=4, salt_buckets=2)
QUERIES = ["the data join", "spark query", "stream merge", "zzz missing"]


@pytest.fixture(scope="module")
def federation(ray_session, tiny_docs, tmp_path_factory):
    root = tmp_path_factory.mktemp("multi")
    a = tiny_docs.slice(0, 100)
    b = tiny_docs.slice(100, 80)
    c = tiny_docs.slice(180)
    dirs = []
    for name, part in (("a", a), ("b", b), ("c", c)):
        d = str(root / name)
        build_index(rd.from_arrow(part), d, CFG)
        dirs.append(d)
    full_dir = str(root / "full")
    build_index(rd.from_arrow(tiny_docs), full_dir, CFG)
    return dirs, full_dir, str(root)


def test_multi_bit_identical_to_rebuild(federation):
    dirs, full_dir, _ = federation
    multi = MultiSearcher(dirs)
    full = LocalSearcher(full_dir)
    assert multi.n_docs == full.n_docs
    assert multi.avgdl == full.avgdl
    for q in QUERIES:
        for mode in ("or", "and"):
            assert multi.search(q, k=25, mode=mode) == full.search(
                q, k=25, mode=mode
            ), (q, mode)


def test_multi_matches_merged_artifact(federation, tmp_path):
    from refimage_ray.index.lifecycle import merge_indexes

    dirs, _, _ = federation
    merged_dir = str(tmp_path / "merged")
    merge_indexes(dirs, merged_dir, CFG)
    merged = LocalSearcher(merged_dir)
    multi = MultiSearcher(dirs)
    for q in QUERIES:
        assert multi.search(q, k=20) == merged.search(q, k=20)


def test_multi_expansion_and_count(federation):
    dirs, full_dir, _ = federation
    multi = MultiSearcher(dirs)
    full = LocalSearcher(full_dir)
    assert multi.search_expanded("prefix", "s", k=15) == \
        full.search_expanded("prefix", "s", k=15)
    assert multi.search_expanded("fuzzy", "spark", k=10) == \
        full.search_expanded("fuzzy", "spark", k=10)
    for q in QUERIES:
        assert multi.count(q) == full.count(q)


def test_multi_text_verified_operators_refuse_without_a_docs_store(
    federation,
):
    """phrase, phrase_prefix, near and rescore verify against stored
    text when the postings carry no positions (federated postings never
    do).  A federation has no single ``docs/`` store, so each refuses
    with a ValueError, not an AttributeError."""
    multi = MultiSearcher([federation[0][0]])
    calls = {
        "phrase": lambda: multi.search_phrase("the data"),
        "phrase_prefix": lambda: multi.search_phrase_prefix("the da"),
        "near": lambda: multi.search_near("the data", 5),
        "rescore": lambda: multi.search_rescore("the data"),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="no docs/ text store") as err:
            call()
        assert "store_positions=True" in str(err.value), name


def test_multi_rejects_overlap(federation):
    dirs, full_dir, _ = federation
    with pytest.raises(ValueError, match="overlap"):
        MultiSearcher([dirs[0], dirs[0]])
    with pytest.raises(ValueError, match="overlap"):
        MultiSearcher([full_dir, dirs[1]])


def test_multi_single_part_is_plain(federation):
    dirs, _, _ = federation
    single = MultiSearcher([dirs[0]])
    plain = LocalSearcher(dirs[0])
    for q in QUERIES:
        assert single.search(q, k=10) == plain.search(q, k=10)


def test_alias_set_resolve_swap_drop(federation):
    dirs, full_dir, root = federation
    reg = root
    set_alias(reg, "prod", dirs[0])
    assert resolve_alias(reg, "prod") == dirs[0]
    # blue/green swap: repoint atomically
    set_alias(reg, "prod", full_dir)
    assert resolve_alias(reg, "prod") == full_dir
    assert LocalSearcher(resolve_alias(reg, "prod")).n_docs == 250
    set_alias(reg, "staging", dirs[1])
    assert set(load_aliases(reg)) == {"prod", "staging"}
    assert drop_alias(reg, "staging") and not drop_alias(reg, "staging")
    with pytest.raises(KeyError):
        resolve_alias(reg, "staging")
    with pytest.raises(FileNotFoundError):
        set_alias(reg, "bad", str(root) + "/nope")
