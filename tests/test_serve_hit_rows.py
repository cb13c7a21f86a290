"""Hit rows of ``/search`` and ``/dsl``, byte for byte.

The server joins each hit to its metadata row from renderings kept on
the resident docs snapshot.  Its bodies must equal ``json.dumps`` of the
join it replaced, written out here from ``lookup_docs(...).to_pylist()``
(``_expected``), over random docs stores: nulls, control, quote,
backslash and non-ASCII characters, timestamps with and without
microseconds, float, bool, int and list columns, a stored ``score``
column, a store holding only ``doc_id``, doc_ids stored twice (within a
file and across files), hit ids missing from the store, NRT-buffered
hits and a two-part rollover group.  ``GET /docs/{id}`` answers the row
the hit rows carry for a doc_id stored twice.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import os
import shutil
import threading
import urllib.request

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

QUERIES = ["spark join", "the data", "table scan merge"]
DSL = ["spark OR join^2", "data AND table"]
K = 10

_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n\t", "\x1f", "é", "日本語",
                           " ", "😀", "a\"b\\c", ""])
_TEXT = st.one_of(st.none(), _TRICKY, st.text(max_size=12))
_TS = st.one_of(
    st.none(),
    st.datetimes(dt.datetime(1971, 1, 1), dt.datetime(2100, 1, 1)),
    st.datetimes(dt.datetime(1971, 1, 1), dt.datetime(2100, 1, 1)).map(
        lambda t: t.replace(microsecond=0)),
)
# column name → (arrow type, value strategy)
COLUMNS = {
    "url": (pa.string(), _TEXT),
    "lang": (pa.string(), _TEXT),
    "warc_ts": (pa.timestamp("us"), _TS),
    "ratio": (pa.float64(), st.none() | st.floats()),
    "flag": (pa.bool_(), st.none() | st.booleans()),
    "n_chars": (pa.int64(), st.none() | st.integers(-2**63, 2**63 - 1)),
    "tags": (pa.list_(pa.string()),
             st.none() | st.lists(st.none() | _TEXT, max_size=3)),
    "score": (pa.float64(), st.none() | st.floats()),
}
_SEQ = itertools.count()


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as r:
        assert r.status == 200
        return r.read()


def _expected(dirs, searcher, hits) -> bytes:
    """The metadata join the server wrote before rows were pre-rendered:
    a ``{doc_id: row}`` dict over ``lookup_docs`` rows (every part of a
    group in turn), NRT-buffered rows for the hits it lacks, then an
    inner join of ``{"doc_id", "score", **{k: str(v)}}``."""
    from refimage_ray.query.engine import lookup_docs

    if not hits:
        return json.dumps({"results": []}).encode()
    ids = [d for d, _ in hits]
    meta = {r["doc_id"]: r for d in dirs
            for r in lookup_docs(d, ids).to_pylist()}
    if hasattr(searcher, "lookup_buffered"):
        missing = [d for d in ids if d not in meta]
        if missing:
            for r in searcher.lookup_buffered(missing):
                meta[r["doc_id"]] = r
    return json.dumps({"results": [
        {"doc_id": d, "score": sc,
         **{k: str(v) for k, v in meta[d].items() if k != "doc_id"}}
        for d, sc in hits if d in meta]}).encode()


@st.composite
def stores(draw, pools):
    """One docs store per part: ``pools[i]`` is ``(ids the queries hit
    in part i, all ids of part i)``.  Returns the drawn columns, their
    value palettes and, per part, a list of tables, one per parquet
    file (file order matters for duplicates)."""
    cols = draw(st.lists(st.sampled_from(sorted(COLUMNS)), unique=True,
                         max_size=5))
    palettes = {c: draw(st.lists(COLUMNS[c][1], min_size=1, max_size=6))
                for c in cols}
    out = []
    for pool, universe in pools:
        drop = draw(st.sets(st.sampled_from(pool), max_size=len(pool) // 2))
        dups = draw(st.lists(st.sampled_from(pool), max_size=4))
        ids = [i for i in universe if i not in drop] + dups
        offset = draw(st.integers(0, 10))
        n_files = draw(st.integers(1, 2))
        cut = draw(st.integers(0, len(ids)))
        parts = [ids[:cut], ids[cut:]] if n_files == 2 else [ids]
        tables, seq = [], offset
        for part in parts:
            data = {"doc_id": pa.array(part, pa.int64())}
            for c in cols:
                pal = palettes[c]
                data[c] = pa.array([pal[(seq + j) % len(pal)]
                                    for j in range(len(part))],
                                   COLUMNS[c][0])
            seq += len(part)
            tables.append(pa.table(data))
        out.append(tables)
    return cols, palettes, out


def _install(index_dir: str, tables) -> None:
    """Replace ``docs/`` with ``tables``, one new file name each (a new
    ``docs/`` signature, as a lifecycle rewrite gives)."""
    docs = os.path.join(index_dir, "docs")
    for f in os.listdir(docs):
        os.remove(os.path.join(docs, f))
    n = next(_SEQ)
    for j, t in enumerate(tables):
        pq.write_table(t, os.path.join(docs, f"part-{n:05d}-{j}.parquet"))


def _check(base: str, searcher, dirs) -> None:
    from urllib.parse import quote_plus

    from refimage_ray.query.dsl import DSLExecutor

    for q in QUERIES + ["zanzibar"]:
        hits = searcher.search(q, k=K)
        got = _get(f"{base}/search?q={quote_plus(q)}&k={K}")
        assert got == _expected(dirs, searcher, hits), q
    ex = DSLExecutor(searcher)
    for q in DSL:
        hits = ex.execute_query(q, limit=K)
        got = _get(f"{base}/dsl?q={quote_plus(q)}&limit={K}")
        assert got == _expected(dirs, searcher, hits), q


def _serve(index_dir: str, searcher):
    from refimage_ray.serve import make_server

    srv = make_server(index_dir, port=0, searcher=searcher)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    return srv, t, f"http://127.0.0.1:{srv.server_address[1]}"


def _pool(searcher, universe) -> list[int]:
    from refimage_ray.query.dsl import DSLExecutor

    ex = DSLExecutor(searcher)
    hit = {d for q in QUERIES for d, _ in searcher.search(q, k=K)}
    hit |= {d for q in DSL for d, _ in ex.execute_query(q, limit=K)}
    return sorted(hit & set(universe))


@pytest.fixture(scope="module")
def nrt_server(built_index, tmp_path_factory):
    """A private copy of the fixture index served by an NRT searcher."""
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.query.nrt import DeltaSearcher

    d = str(tmp_path_factory.mktemp("hitrows") / "idx")
    shutil.copytree(built_index[0], d)
    universe = pq.read_table(os.path.join(d, "docs"),
                             columns=["doc_id"])["doc_id"].to_pylist()
    s = DeltaSearcher(d, base=LocalSearcher(d))
    srv, t, base = _serve(d, s)
    yield base, s, d, _pool(s, universe), sorted(universe)
    srv.shutdown()
    srv.server_close()
    t.join(timeout=30)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_hit_rows_match_the_dict_join(nrt_server, data):
    base, s, d, pool, universe = nrt_server
    cols, palettes, (tables,) = data.draw(stores([(pool, universe)]))
    _install(d, tables)
    # NRT-buffered hits: each example adds docs with the planted term,
    # carrying the same random metadata columns (fresh ids every time)
    n_add = data.draw(st.integers(0, 2))
    if n_add:
        first = 10**12 + 10 * next(_SEQ)
        add = {"doc_id": pa.array(range(first, first + n_add), pa.int64()),
               "text": pa.array(["zanzibar quorum"] * n_add)}
        for c in cols:
            add[c] = pa.array([palettes[c][j % len(palettes[c])]
                               for j in range(n_add)], COLUMNS[c][0])
        s.add(pa.table(add))
    _check(base, s, [d])


@pytest.fixture(scope="module")
def group_server(ray_session, tiny_docs, tmp_path_factory):
    """A two-segment rollover group, served through its group root."""
    import ray.data as rd

    from refimage_ray.config import EngineConfig
    from refimage_ray.index.rollover import (
        group_parts, group_searcher, ingest,
    )

    cfg = EngineConfig(num_shards=4, salt_buckets=2)
    gdir = str(tmp_path_factory.mktemp("hitrows_group") / "grp")
    n = tiny_docs.num_rows
    ingest(gdir, rd.from_arrow(tiny_docs.slice(0, n // 2)), cfg,
           max_docs=10**9)
    ingest(gdir, rd.from_arrow(tiny_docs.slice(n // 2)), cfg,
           max_docs=10**9)
    parts = group_parts(gdir)
    assert len(parts) == 2
    s = group_searcher(gdir)
    pools = []
    for p in parts:
        universe = pq.read_table(os.path.join(p, "docs"),
                                 columns=["doc_id"])["doc_id"].to_pylist()
        pools.append((_pool(s, universe), sorted(universe)))
    srv, t, base = _serve(gdir, s)
    yield base, s, parts, pools
    srv.shutdown()
    srv.server_close()
    t.join(timeout=30)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_group_hit_rows_match_the_dict_join(group_server, data):
    base, s, parts, pools = group_server
    _, _, stores_ = data.draw(stores(pools))
    for p, tables in zip(parts, stores_):
        _install(p, tables)
    _check(base, s, parts)


def test_concurrent_fragment_fills_agree():
    """Request workers fill one entry's renderings without a lock: 8
    threads over overlapping ids, switching every microsecond, all get
    the renderings a single thread gives, and each row is filled."""
    import sys

    from refimage_ray.query.engine import ResidentDocs, meta_fragment

    n = 2000
    ids = sorted(list(range(n)) + list(range(0, n, 7)))  # stored twice
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "url": pa.array([f"u{j}é\"" for j in range(len(ids))]),
                  "warc_ts": pa.array([dt.datetime(2020, 1, 1, 0, 0, j % 60,
                                                   j) for j in
                                       range(len(ids))],
                                      pa.timestamp("us"))})
    want = {}
    for row in t.to_pylist():
        want[row["doc_id"]] = meta_fragment(row)  # the last row wins
    ent = ResidentDocs((), t)
    got, errors = [], []

    def work(seed):
        try:
            for lo in range(seed, n, 97):
                ask = list(range(lo, min(lo + 10, n))) + [n + 5]
                got.append(ent.fragments(ask))
        except Exception as err:  # surfaced by the assertion below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(got) == sum(len(range(s, n, 97)) for s in range(8))
    assert all(f == {d: want[d] for d in f} for f in got)
    # every requested stored id answered, the unstored one never
    assert all(len(f) == 10 or max(f) == n - 1 for f in got)
    # exactly the last row of each requested doc_id was rendered
    last = {d: j for j, d in enumerate(ids)}
    asked = {d for f in got for d in f}
    assert set(ent.frags) == {last[d] for d in asked}


class _OneHit:
    """A searcher whose every search hits doc 5."""

    n_docs = 1

    def search(self, query, **kwargs):
        return [(5, 1.0)]


@pytest.mark.parametrize("files", [1, 2])
def test_doc_route_answers_the_row_hits_carry(tmp_path, files):
    """A doc_id stored twice, ``url="first"`` and then ``url="last"``
    (within one file, or across two): ``GET /docs/5`` answers the last
    row, the one ``/search`` hit rows carry."""
    docs = tmp_path / "docs"
    docs.mkdir()
    rows = [(5, "first"), (7, "other"), (5, "last")]
    cut = 3 if files == 1 else 2
    for j, part in enumerate([rows[:cut], rows[cut:]][:files]):
        pq.write_table(pa.table({"doc_id": pa.array([d for d, _ in part],
                                                    pa.int64()),
                                 "url": [u for _, u in part]}),
                       str(docs / f"part-{j}.parquet"))
    srv, t, base = _serve(str(tmp_path), _OneHit())
    try:
        hit = json.loads(_get(base + "/search?q=x"))["results"]
        assert hit == [{"doc_id": 5, "score": 1.0, "url": "last"}]
        assert json.loads(_get(base + "/docs/5")) == {"doc_id": "5",
                                                      "url": "last"}
    finally:
        srv.shutdown()
        srv.server_close()
        t.join(timeout=30)
