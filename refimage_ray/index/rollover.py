"""Rollover index groups — ES rollover / ILM over immutable artifacts.

A *group* is one logical index made of sequential **generations**
(``gen-000001``, ``gen-000002``, …) under a root directory.  Every
:func:`ingest` builds a fresh immutable **segment** artifact inside the
newest generation; when the generation's live doc count reaches
``max_docs`` it is **sealed** — its segments are force-merged into one
compact artifact (ILM hot→warm) — and the next ingest opens a new
generation.  Queries federate every live artifact through
``query/multi.MultiSearcher``'s merged-stats contract, so a group
answers **bit-identically** to a monolithic index over the same docs
regardless of how ingests were sliced (asserted in
``tests/test_rollover.py``).  :func:`prune_generations` is the ILM
delete phase: retention drops whole oldest generations without
touching (or re-scoring) the survivors' artifacts.

Reference analog: the reference rebuilds its single FAISS index on
every delete and serves one monolithic artifact
(``/root/reference/src/refimage/search/__init__.py:100-145``); the
generation/segment split is the standard log-structured upgrade that
keeps ingest cost O(delta) instead of O(corpus).

Scale shape: an ingest touches ONLY the new docs (one delta
``build_index``); a seal merges ONLY that generation's segments
(shard-parallel, no shuffle — ``lifecycle.merge_indexes``); retention
is a directory drop.  Nothing ever rewrites the whole group, which is
the property that matters when the group is 100 TB of crawl months.

Crash safety: a seal merges into ``merged.tmp`` then atomically
renames to ``merged/`` and finally writes ``_SEALED``; every state is
re-derivable from the directory listing, so any step can be re-run.
"""

from __future__ import annotations

import os
import re
import shutil

from refimage_ray.config import DEFAULT_CONFIG, EngineConfig
from refimage_ray.index.manifest import load_manifest

_GEN_RE = re.compile(r"^gen-(\d{6})$")
_SEG_RE = re.compile(r"^seg-(\d{6})$")


def _numbered(parent: str, rx: re.Pattern) -> list[str]:
    if not os.path.isdir(parent):
        return []
    names = sorted(n for n in os.listdir(parent) if rx.match(n))
    return [os.path.join(parent, n) for n in names]


def generations(group_dir: str) -> list[str]:
    """All generation dirs, oldest first."""
    return _numbered(group_dir, _GEN_RE)


def _segments(gen_dir: str) -> list[str]:
    """Complete (manifest-bearing) segment artifacts of a generation."""
    return [d for d in _numbered(gen_dir, _SEG_RE)
            if load_manifest(d) is not None]


def _is_sealed(gen_dir: str) -> bool:
    return os.path.exists(os.path.join(gen_dir, "_SEALED"))


def _gen_docs(gen_dir: str) -> int:
    if _is_sealed(gen_dir):
        man = load_manifest(os.path.join(gen_dir, "merged"))
        return int(man["stats"]["n_docs"]) if man else 0
    return sum(int(load_manifest(d)["stats"]["n_docs"])
               for d in _segments(gen_dir))


def group_parts(group_dir: str) -> list[str]:
    """The artifact dirs a group search federates: the merged artifact
    of every sealed generation + every segment of unsealed ones."""
    parts: list[str] = []
    for g in generations(group_dir):
        if _is_sealed(g):
            parts.append(os.path.join(g, "merged"))
        else:
            parts.extend(_segments(g))
    return parts


def group_searcher(group_dir: str):
    """One searcher over the whole group (exact merged global stats)."""
    from refimage_ray.query.multi import MultiSearcher

    parts = group_parts(group_dir)
    if not parts:
        raise FileNotFoundError(f"rollover group {group_dir} has no docs")
    return MultiSearcher(parts)


def _cfg_of(artifact_dir: str) -> EngineConfig:
    man = load_manifest(artifact_dir)
    return EngineConfig(
        **man["config"],
        k1=float(man["stats"].get("k1", 1.2)),
        b=float(man["stats"].get("b", 0.75)),
    )


def _seal(gen_dir: str, cfg: EngineConfig) -> None:
    merged = os.path.join(gen_dir, "merged")
    if os.path.isdir(merged):
        # a crash BETWEEN the rename and _SEALED leaves merged/ while
        # the gen still accepted segments — that merged artifact may be
        # stale.  Rebuilding unconditionally is idempotent and cheap
        # relative to losing the post-crash segments silently.
        shutil.rmtree(merged)
    tmp = merged + ".tmp"
    if os.path.isdir(tmp):  # stale partial merge: rebuild cleanly
        shutil.rmtree(tmp)
    from refimage_ray.index.lifecycle import merge_indexes

    merge_indexes(_segments(gen_dir), tmp, cfg)
    os.rename(tmp, merged)
    with open(os.path.join(gen_dir, "_SEALED"), "w") as f:
        f.write("sealed\n")


def ingest(
    group_dir: str,
    docs_ds,
    cfg: EngineConfig | None = None,
    *,
    max_docs: int = 1_000_000,
) -> dict:
    """Write ``docs_ds`` (``doc_id:int64, text:string``, ids disjoint
    from everything already in the group) into the group as one new
    segment, then roll the generation if it reached ``max_docs``.

    ``cfg`` is required on the first ingest and inherited from the
    group afterwards (all artifacts must agree — MultiSearcher
    validates).  Returns ``{"generation", "segment", "rolled",
    "gen_docs"}``.
    """
    gens = generations(group_dir)
    if gens and not _is_sealed(gens[-1]):
        gen = gens[-1]
    else:
        # number from the HIGHEST existing generation, not the count —
        # after prune_generations the count is smaller than the max and
        # len+1 would collide with (or sort before) a sealed survivor
        last = max(
            (int(_GEN_RE.match(os.path.basename(g)).group(1)) for g in gens),
            default=0,
        )
        gen = os.path.join(group_dir, f"gen-{last + 1:06d}")
        os.makedirs(gen, exist_ok=True)
    if cfg is None:
        parts = group_parts(group_dir)
        if not parts:
            raise ValueError("first ingest into a group needs an "
                             "explicit EngineConfig")
        cfg = _cfg_of(parts[0])
    from refimage_ray.index.build import build_index

    seg = os.path.join(gen, f"seg-{len(_segments(gen)) + 1:06d}")
    build_index(docs_ds, seg, cfg)
    n = _gen_docs(gen)
    rolled = n >= max_docs
    if rolled:
        _seal(gen, cfg)
    return {"generation": gen, "segment": seg, "rolled": rolled,
            "gen_docs": n}


def verify_group(group_dir: str, deep: bool = False) -> dict:
    """fsck every live artifact of the group + the group invariants
    (sealed generations carry merged/; segment doc-id universes are
    disjoint — MultiSearcher's precondition).  Never raises on a bad
    group; returns ``{"ok", "parts": {dir: report}, "problems"}``."""
    from refimage_ray.index.fsck import verify_index

    problems: list[str] = []
    parts = group_parts(group_dir)
    if not parts:
        return {"ok": False, "parts": {},
                "problems": [f"group {group_dir} has no live artifacts"]}
    for g in generations(group_dir):
        if _is_sealed(g) and load_manifest(os.path.join(g, "merged")) is None:
            problems.append(f"sealed generation {g} lacks merged/ manifest")
    reports = {p: verify_index(p, deep=deep) for p in parts}
    for p, rep in reports.items():
        if not rep["ok"]:
            problems.append(f"{p}: {rep['problems'][:3]}")
    try:  # disjointness: MultiSearcher validates on load
        group_searcher(group_dir)
    except Exception as err:  # noqa: BLE001 — report, never raise
        problems.append(f"federation invalid: {err}")
    return {"ok": not problems, "parts": reports, "problems": problems}


def prune_generations(group_dir: str, keep_last: int) -> list[str]:
    """ILM delete phase: drop the oldest generations, keeping the
    newest ``keep_last``.  Returns the dropped generation dirs.  The
    survivors' artifacts are untouched — their postings/weights stay
    byte-identical; only the federation's merged (N, avgdl, df) basis
    shrinks, exactly as if the dropped docs had never been ingested.
    """
    if keep_last < 1:
        raise ValueError(f"keep_last must be >= 1, got {keep_last}")
    gens = generations(group_dir)
    drop = gens[:-keep_last] if len(gens) > keep_last else []
    for g in drop:
        shutil.rmtree(g)
    return drop
