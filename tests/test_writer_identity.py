"""Posting-writer byte identity: the merge writers' part and shard
files are pinned as sha256 goldens, captured from the per-term writers
the columnar encoder (``reader.encode_term_runs``) replaced.

The inputs exercise every branch a merge writer has: positions,
salted hot terms (re-salted against the merged doc span), tombstones
and duplicate doc_ids across inputs whose second copies carry other
text (first-input-wins decides the bytes).  Goldens depend on the
parquet writer (pyarrow 16.1); recapture them when it changes."""

from __future__ import annotations

import glob
import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.docpart import build_doc_partitioned
from refimage_ray.index.docpart_lifecycle import compact_docpart, merge_docpart_indexes
from refimage_ray.index.fsck import verify_index
from refimage_ray.index.lifecycle import delete_docs, merge_indexes

CFG = EngineConfig(num_shards=4, salt_buckets=2, hot_df_fraction=0.05,
                   store_positions=True)


def _inputs(docs: pa.Table) -> tuple[pa.Table, pa.Table, list[int]]:
    """Docs [0, 150) and [100, 250); the overlap's second copies get
    extra tokens.  Every 7th doc of the first input is tombstoned."""
    a, b = docs.slice(0, 150), docs.slice(100)
    text = b["text"].combine_chunks()
    b = b.set_column(1, "text", pa.concat_arrays([
        pc.binary_join_element_wise(text[:50], pa.scalar("alpha beta alpha"), " "),
        text[50:],
    ]))
    return a, b, a["doc_id"].to_pylist()[::7]


def _hashes(d: str, pattern: str) -> dict[str, str]:
    assert verify_index(d, deep=True)["ok"]
    return {
        os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()[:16]
        for p in sorted(glob.glob(os.path.join(d, pattern)))
    }


def merge_indexes_hashes(docs: pa.Table, root: str) -> dict[str, str]:
    from refimage_ray.index.build import build_index

    a, b, dead = _inputs(docs)
    build_index(rd.from_arrow(a), f"{root}/a", CFG)
    build_index(rd.from_arrow(b), f"{root}/b", CFG)
    delete_docs(f"{root}/a", dead)
    merge_indexes([f"{root}/a", f"{root}/b"], f"{root}/m", CFG)
    return _hashes(f"{root}/m", "part-*.parquet")


def docpart_hashes(docs: pa.Table, root: str) -> tuple[dict, dict]:
    a, b, dead = _inputs(docs)
    for name, part in (("a", a), ("b", b)):
        build_doc_partitioned(rd.from_arrow(part), f"{root}/{name}", CFG,
                              num_doc_shards=4, value_columns=["lang"])
    delete_docs(f"{root}/a", dead)
    merge_docpart_indexes([f"{root}/a", f"{root}/b"], f"{root}/m")
    compact_docpart(f"{root}/a", f"{root}/c")
    return (_hashes(f"{root}/m", "doc*-*.parquet"),
            _hashes(f"{root}/c", "doc*-*.parquet"))


MERGE_INDEXES = {
    "part-00000-00.parquet": "e2c68ba91cf40073",
    "part-00000-01.parquet": "57832bae510adaa2",
    "part-00001-00.parquet": "d030a1407137008b",
    "part-00001-01.parquet": "f7cab57b4dddb572",
    "part-00002-00.parquet": "9124bf635b2a8232",
    "part-00002-01.parquet": "c71fa8582bcb37a4",
    "part-00003-00.parquet": "12c3164fa68492d9",
    "part-00003-01.parquet": "582432b75b15185f",
}
MERGE_DOCPART = {
    "docshard-00000.parquet": "f80134f96fd414bd",
    "docshard-00001.parquet": "d9ebf4f7ae3406e3",
    "docshard-00002.parquet": "f74b483ae6047ec2",
    "docshard-00003.parquet": "d3a246d6dbd99031",
    "docvalues-00000.parquet": "85e84ba64675c61d",
    "docvalues-00001.parquet": "e18b0f1d838ce4ff",
    "docvalues-00002.parquet": "2f6ff33159fee2af",
    "docvalues-00003.parquet": "7f641ed3c424ba81",
}
COMPACT_DOCPART = {
    "docshard-00000.parquet": "34a5c01dfd3bf4ae",
    "docshard-00001.parquet": "ba6a8b98054353f6",
    "docshard-00002.parquet": "7a4f39b4abd996dc",
    "docshard-00003.parquet": "975dd61a03cf539c",
    "docvalues-00000.parquet": "f67fe6289c362115",
    "docvalues-00001.parquet": "be7067bc806208b2",
    "docvalues-00002.parquet": "22cd66b02c5e06b6",
    "docvalues-00003.parquet": "39cd16a9d0b50b48",
}


def test_merge_indexes_files_match_goldens(ray_session, tiny_docs, tmp_path):
    got = merge_indexes_hashes(tiny_docs, str(tmp_path))
    terms = [  # a hot term's postings span both salts of its shard
        t for p in glob.glob(str(tmp_path / "m" / "part-*.parquet"))
        for t in pq.read_table(p, columns=["term"])["term"].to_pylist()
    ]
    assert len(terms) > len(set(terms))
    assert got == MERGE_INDEXES, f"pyarrow {pa.__version__}"


def test_docpart_merge_and_compact_files_match_goldens(ray_session, tiny_docs, tmp_path):
    merged, compacted = docpart_hashes(tiny_docs, str(tmp_path))
    assert merged == MERGE_DOCPART, f"pyarrow {pa.__version__}"
    assert compacted == COMPACT_DOCPART, f"pyarrow {pa.__version__}"
