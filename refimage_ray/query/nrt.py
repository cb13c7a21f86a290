"""Near-real-time search: a base artifact + an in-memory delta buffer.

Lucene-NRT analog for this engine: freshly added documents become
searchable IMMEDIATELY (no rebuild, no artifact write) by holding
their postings in process memory and merging them with the base
index's postings *at query time, with merged global statistics* —
N, avgdl, df and every per-posting weight are recomputed over
base ∪ buffer, so results are **bit-identical** to a full rebuild over
the union corpus (asserted in tests/test_nrt.py).

Reference analog: the reference adds one vector at a time straight
into the resident FAISS index (`/root/reference/src/refimage/search/
__init__.py:243-261` index.add) — NRT-by-construction but with no
persistence story.  Here the persistent artifact stays immutable and
the buffer is explicitly flushed through the layout's incremental-add
lifecycle when it grows past serving size.

One core serves both layouts.  :class:`_PostingBuffer` holds the
buffered postings per doc shard; :func:`_merged_postings` is the one
place a term's base and buffered postings are merged and reweighted;
:class:`_MergedView` memoizes them per buffer generation, as
:class:`DeltaSearcher` itself and as each doc shard of
:class:`DocPartDeltaSearcher`; :class:`_NRTBuffer` is the buffer
lifecycle.  The layouts differ only in the df basis, in whether dense
ranks are attached, in the lifecycle ``flush`` persists through, and
in the docpart operators that need a flush first (``_NEEDS_FLUSH``).

Scale note: the buffer is a *serving-side* structure (thousands of
docs, not the corpus).  An ``add`` costs O(batch) and touches no
buffered posting list; a term's chunks merge the first time a query
needs the term.  Each query recomputes weights only for ITS terms'
postings — O(query posting mass), the same order as scoring — and
memoizes them until the next add; the memo is generation-checked, so
a read that overlaps an add never stores weights computed under the
old N/avgdl.  Buffered metadata is a doc_id → row map, so a hit's
metadata join costs O(hits).  Filters/facets/order_by need the
rank-aligned doc values of a built artifact and therefore require a
flush first (loud error).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from refimage_ray.index.docpart import (
    DocPartSearcher,
    _doc_shard_of,
    _DocPartCoordinator,
    _ShardGroup,
)
from refimage_ray.index.manifest import load_manifest
from refimage_ray.index.reader import TermPostings
from refimage_ray.query.engine import LocalSearcher, _SearcherBase
from refimage_ray.query.expand import expand_vocab
from refimage_ray.query.scorer import bm25_weight

#: Per-searcher (per-shard, for the doc-partitioned wrap) cap on the
#: per-generation merged-postings memo.  Generous for any real query
#: mix — the memo holds only QUERIED terms — but bounds an adversarial
#: or long-tail query stream on a rarely-mutated index.
_TERM_MEMO_CAP = 65536


class _LRUTermMemo:
    """Bounded LRU for per-(term, generation) merged postings.

    A pure cache: eviction can only cost a rebuild on the next query
    for that term, never change results (the NRT bit-identity tests
    hold under a cap smaller than the query vocabulary).  Mutations
    (add/flush) ``clear()`` the whole memo, which also advances its
    buffer generation ``gen``: a reader snapshots ``gen`` before it
    reads the buffer and the merged stats, and :meth:`put` drops its
    result if an add landed in between — otherwise weights computed
    under the old N/avgdl would be pinned until the next add.

    THREAD-SAFE: searchers holding this memo are shared across the
    HTTP shim's request worker threads, so the get's ``get +
    move_to_end`` pair (and setitem's ``popitem`` past the cap) must
    not interleave with a concurrent eviction or an add/flush
    ``clear()`` — unguarded, that interleaving raises ``KeyError`` and
    turns a ``/search`` into a 500.  One tiny lock around the dict ops
    (never around postings work) closes it, and also makes put's
    generation check atomic with clear's bump."""

    __slots__ = ("_d", "_cap", "_lock", "gen")

    def __init__(self, cap: int = _TERM_MEMO_CAP):
        import threading
        from collections import OrderedDict

        self._d: "OrderedDict[str, TermPostings]" = OrderedDict()
        self._cap = cap
        self._lock = threading.Lock()
        self.gen = 0

    def get(self, key: str):
        with self._lock:
            v = self._d.get(key)
            if v is not None:
                self._d.move_to_end(key)
            return v

    def __setitem__(self, key: str, value) -> None:
        with self._lock:
            self._set(key, value)

    def put(self, key: str, value, gen: int) -> None:
        """Store ``value`` only if no clear() happened since ``gen``."""
        with self._lock:
            if gen == self.gen:
                self._set(key, value)

    def _set(self, key: str, value) -> None:
        d = self._d
        d[key] = value
        d.move_to_end(key)
        if len(d) > self._cap:
            d.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._d.clear()
            self.gen += 1

    def __len__(self) -> int:
        return len(self._d)


class _PostingBuffer:
    """Append-only columnar posting buffer behind both NRT searchers.

    ``add`` tokenizes the batch once (``_flat_tokens`` + one
    dictionary encode), counts tf per (shard, term, doc) with one
    ``np.unique`` — rows come out sorted by (shard, term, doc_id) —
    and appends each (shard, term) run to that term's chunk tuple as
    slices of the batch arrays: O(batch), no buffered list is touched.
    :meth:`postings` merges a term's pending chunks the first time a
    query needs them and installs the merged arrays in their place, so
    later adds append to one merged chunk and only queried terms ever
    pay a merge.

    Chunk tuples are immutable.  A merge installs its result only if
    the term's tuple is still the one it read, under the same small
    lock that add's appends take, so a concurrent add is never lost.

    ``num_shards`` > 1 keys runs by the doc shard the caller assigns
    (the doc-partitioned layout); :meth:`df` sums a term's run lengths
    over all shards (the union-global idf basis).  Metadata rows are
    kept as a doc_id → (add sequence, row) map."""

    def __init__(self, cfg, num_shards: int = 1):
        import threading

        self._cfg = cfg
        # per shard: term -> tuple of (columns, start, end) chunks
        self._runs: list[dict[str, tuple]] = [{} for _ in range(num_shards)]
        self.ids = np.zeros(0, np.int64)  # sorted
        self.sum_dl = 0
        self.tables: list[pa.Table] = []
        self._rows: dict[int, tuple[int, dict]] = {}
        self._lock = threading.Lock()

    def add(self, docs: pa.Table, base_ids: np.ndarray, shard_of=None) -> int:
        """Buffer (doc_id, text) rows.  Ids must be unique in the batch
        and new to ``base_ids`` (sorted) and the buffer.  ``shard_of``
        maps the batch's sorted ids to doc shards (and may refuse
        them); nothing is buffered when any check raises."""
        import pyarrow.compute as pc

        from refimage_ray.functions.arrays import sorted_membership
        from refimage_ray.stages.tokenize import _flat_tokens

        if not {"doc_id", "text"} <= set(docs.column_names):
            raise ValueError("add() needs doc_id and text columns")
        ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # one tokenizer pass: doc_len is the row's token count, as in
        # tokenize_batch
        flat, parent = _flat_tokens(docs["text"], self._cfg)
        dl = np.bincount(parent, minlength=len(ids))
        order = np.argsort(ids, kind="stable")
        s_ids, s_dl = ids[order], dl[order]
        if (s_ids[1:] == s_ids[:-1]).any():
            raise ValueError("duplicate doc_ids within the added batch")
        clash = s_ids[
            sorted_membership(self.ids, s_ids)
            | sorted_membership(base_ids, s_ids)
        ]
        if len(clash):
            raise ValueError(
                f"doc_ids already indexed or buffered: {clash[:5].tolist()}"
            )
        shard = (
            np.zeros(len(s_ids), np.int64) if shard_of is None
            else shard_of(s_ids)
        )
        if len(flat):
            dct = pc.dictionary_encode(flat)
            vocab = dct.dictionary.to_pylist()
            codes = dct.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            n, nv = len(s_ids), len(vocab)
            rank = np.empty(n, np.int64)
            rank[order] = np.arange(n)
            r = rank[parent]
            # one key per token: (shard, term code, doc rank) — unique
            # keys are the postings, sorted by (shard, term, doc_id)
            keys, tfs = np.unique((shard[r] * nv + codes) * n + r,
                                  return_counts=True)
            run_key, r = np.divmod(keys, n)
            # (ids, tfs, dls) as the rows of one array: a merge is one
            # concatenate + one take, whatever the column count
            cols = np.stack((s_ids[r], tfs, s_dl[r]))
            starts = np.flatnonzero(np.r_[True, run_key[1:] != run_key[:-1]])
            g, c = np.divmod(run_key[starts], nv)
            bounds = starts.tolist() + [len(keys)]
            runs = self._runs
            with self._lock:
                for g_, c_, s, e in zip(g.tolist(), c.tolist(), bounds, bounds[1:]):
                    d, term = runs[g_], vocab[c_]
                    d[term] = d.get(term, ()) + ((cols, s, e),)
        seq = len(self._rows)
        for j, (i, row) in enumerate(zip(ids.tolist(), docs.to_pylist())):
            self._rows[i] = (seq + j, row)
        self.tables.append(docs)
        self.ids = np.sort(np.concatenate((self.ids, s_ids)))
        self.sum_dl += int(dl.sum())
        return len(ids)

    def postings(self, term: str, shard: int = 0):
        """(ids, tfs, dls) of ``term``'s buffered postings in ``shard``,
        doc_id-sorted, or None.  Merges pending chunks (concatenate,
        then a stable argsort by doc_id unless the ids already ascend,
        as they do when adds bring increasing ids) and keeps the result
        for later queries unless an add appended meanwhile."""
        d = self._runs[shard]
        chunks = d.get(term)
        if chunks is None:
            return None
        if len(chunks) == 1:
            cols, s, e = chunks[0]
            return tuple(cols[:, s:e])
        merged = np.concatenate([cols[:, s:e] for cols, s, e in chunks], axis=1)
        ids = merged[0]
        if (ids[1:] < ids[:-1]).any():
            # some add's ids precede an earlier add's: sort by doc_id
            merged = merged[:, np.argsort(merged[0], kind="stable")]
        with self._lock:
            if d.get(term) is chunks:
                d[term] = ((merged, 0, merged.shape[1]),)
        return tuple(merged)

    def df(self, term: str) -> int:
        """Buffered df of ``term`` over all shards."""
        return sum(e - s for d in self._runs for _, s, e in d.get(term, ()))

    def term_dfs(self) -> dict[str, int]:
        """Buffered df of every buffered term."""
        out: dict[str, int] = {}
        for d in self._runs:
            for term, chunks in list(d.items()):
                out[term] = out.get(term, 0) + sum(e - s for _, s, e in chunks)
        return out

    def rows(self, ids: list[int]) -> list[dict]:
        """Fresh metadata row dicts for the buffered ``ids`` among the
        requested ones (unknown ids skipped, repeats once), in add
        order — O(hits)."""
        got = [self._rows[i] for i in {int(i) for i in ids} if i in self._rows]
        got.sort(key=lambda sr: sr[0])
        return [dict(row) for _, row in got]


def _merge_sorted_disjoint(a_key, b_key, a_payloads, b_payloads):
    """Linear merge of two SORTED, DISJOINT key arrays (+ aligned
    payload arrays) via searchsorted ranks — the NRT merge primitive.
    Disjointness is the CALLER's contract (both NRT searchers validate
    ids on add); violating it would collide output slots."""
    ia = np.arange(len(a_key), dtype=np.int64) + np.searchsorted(b_key, a_key)
    ib = np.arange(len(b_key), dtype=np.int64) + np.searchsorted(a_key, b_key)
    n = len(a_key) + len(b_key)
    key = np.empty(n, np.int64)
    key[ia], key[ib] = a_key, b_key
    outs = []
    for pa_, pb_ in zip(a_payloads, b_payloads):
        o = np.empty(n, pa_.dtype)
        o[ia], o[ib] = pa_, pb_
        outs.append(o)
    return key, outs


def _merged_postings(t: str, bp, bb, df, avgdl: float, k1: float, b: float,
                     universe=None) -> "TermPostings | None":
    """Term ``t``'s base postings ``bp`` (a TermPostings or None) merged
    with its buffered ``bb`` = (ids, tfs, dls) (or None) and reweighted
    under the merged avgdl: the one place either NRT layout, and the
    federated ``MultiSearcher``, builds a term's merged postings.
    ``df`` is the idf basis (None: the merged list's length);
    ``universe`` (sorted doc ids) attaches dense ranks.  None when
    neither side holds the term."""
    if bp is not None and bp.df > 0:
        if bp.dls is None:
            raise ValueError(
                "NRT merge needs per-posting doc lengths; rebuild "
                f"the base artifact (dls missing for term {t!r})"
            )
    else:
        bp = None
    if bp is None and bb is None:
        return None
    if bp is None:
        ids, tfs, dls = bb
    elif bb is None:
        ids, tfs, dls = bp.doc_ids, bp.tfs, bp.dls
    else:
        # both sides arrive doc_id-sorted and disjoint: linear two-way
        # merge via searchsorted ranks (no argsort of the merged stream)
        ids, (tfs, dls) = _merge_sorted_disjoint(
            bp.doc_ids, bb[0], (bp.tfs, bp.dls), bb[1:])
    w = bm25_weight(tfs.astype(np.float64), dls.astype(np.float64),
                    avgdl, k1, b)
    mx = float(w.max()) if len(w) else 0.0
    tp = TermPostings(
        df=len(ids) if df is None else df,
        doc_ids=ids,
        weights=w,
        tfs=tfs,
        max_weight=mx,
        block_last_doc=ids[-1:].copy(),
        block_max_weight=np.array([mx], np.float64),
        dls=dls,
    )
    if universe is not None:
        tp.ranks = np.searchsorted(universe, ids).astype(
            np.int32 if len(universe) < 2**31 else np.int64)
    return tp


class _MergedView(_SearcherBase):
    """Base postings ∪ buffer shard ``_gkey``, reweighted under the
    merged N/avgdl of ``_owner`` (the :class:`_NRTBuffer`).  On the
    docpart layout ``_global_df`` is the idf basis: a shard's list is a
    slice, so its length is not the df."""

    _gkey = 0
    _global_df: "dict | None" = None

    def _init_view(self, base, base_terms: dict) -> None:
        """Analyze queries like ``base``; ``base_terms`` maps a term to
        its base TermPostings."""
        self.token_pattern, self.term_filter = base.token_pattern, base.term_filter
        self._base_terms = base_terms
        self._tm_cache = _LRUTermMemo()

    def doc_values(self, columns):
        # the artifact's doc values are rank-aligned to the BASE
        # universe; against the merged one they would misalign
        raise ValueError(
            "doc-value filters/facets need a built artifact covering "
            "the buffered docs; flush() first"
        )

    def _term_map(self, terms: list[str]) -> dict[str, TermPostings]:
        # one consistent snapshot: an add() that lands mid-read bumps
        # the memo generation, so what this read computed is returned
        # but never memoized
        owner, memo, gdf = self._owner, self._tm_cache, self._global_df
        gen = memo.gen
        buf, avgdl, universe = owner._buf, owner.avgdl, self.all_ids
        out: dict[str, TermPostings] = {}
        for t in terms:
            tp = memo.get(t)
            if tp is None:
                tp = _merged_postings(
                    t, self._base_terms.get(t), buf.postings(t, self._gkey),
                    None if gdf is None else gdf.get(t, 0) + buf.df(t),
                    avgdl, owner._k1, owner._b, universe,
                )
                if tp is None:
                    continue
                memo.put(t, tp, gen)
            out[t] = tp
        return out


class _NRTBuffer:
    """The buffer lifecycle both NRT searchers share.  A layout
    supplies ``_load_base_ids`` (sorted base doc ids), ``_shards_of``
    (doc shards of buffered ids; None: one shard), ``_merged_views``
    and ``_persist`` (its incremental-add lifecycle)."""

    _base_ids: "np.ndarray | None" = None

    def _init_nrt(self, index_dir: str, base, man: dict,
                  buf_shards: int = 1) -> None:
        if base.index_dir != index_dir:
            raise ValueError("base searcher was loaded from a different dir")
        from refimage_ray.config import engine_config_from_manifest

        st = man["stats"]
        self.base, self.index_dir = base, index_dir
        self._base_n = int(st["n_docs"])
        self._base_sum_dl = int(st["sum_dl"])
        self._k1 = float(st.get("k1", 1.2))
        self._b = float(st.get("b", 0.75))
        self._cfg = engine_config_from_manifest(man.get("config", {}))
        self._buf_shards = buf_shards
        self._buf = _PostingBuffer(self._cfg, buf_shards)
        self._refresh_stats()

    def _refresh_stats(self) -> None:
        self.n_docs = self._base_n + len(self._buf.ids)
        total = self._base_sum_dl + self._buf.sum_dl
        self.avgdl = total / self.n_docs if self.n_docs else 1.0

    def _mutated(self) -> None:
        """Publish a buffer change: the merged stats move first, then
        every view's term memo is cleared (advancing its generation)."""
        self._refresh_stats()
        for view in self._merged_views():
            view._tm_cache.clear()

    def _base_universe(self) -> np.ndarray:
        if self._base_ids is None:
            self._base_ids = self._load_base_ids()
        return self._base_ids

    def add(self, docs: pa.Table) -> int:
        """Buffer (doc_id, text) rows; they are searchable on return.
        Doc ids must be new — checked against the buffer AND the base
        artifact's doc universe (a duplicate id would collide the
        disjoint merge's output slots → duplicate hits with garbage
        scores).

        Costs O(batch), not O(buffer): the batch's postings are
        appended per term as chunks (:class:`_PostingBuffer`), its
        metadata rows go into a doc_id map, and the term memos are
        cleared after the merged stats move."""
        n = self._buf.add(docs, self._base_universe(), self._shards_of)
        self._mutated()
        return n

    @property
    def buffered(self) -> int:
        return len(self._buf.ids)

    def lookup_buffered(self, ids: list[int]) -> list[dict]:
        """Metadata rows for buffered doc_ids (serving's metadata join
        falls back here for hits that aren't in the artifact yet):
        fresh row dicts, in add order, from a doc_id map — O(hits)."""
        return self._buf.rows(ids)

    def flush(self, out_dir: str, cfg=None) -> str:
        """Persist the buffer through the layout's incremental-add
        lifecycle (delta build + shard merge) and clear it.  Returns
        ``out_dir`` — reload a searcher from there to continue."""
        if not self._buf.tables:
            raise ValueError("nothing buffered")
        import ray.data as rd

        self._persist(rd.from_arrow(pa.concat_tables(
            self._buf.tables, promote_options="default")), out_dir, cfg)
        self._buf = _PostingBuffer(self._cfg, self._buf_shards)
        self._mutated()
        return out_dir


class DeltaSearcher(_NRTBuffer, _MergedView):
    """Search base ∪ buffer with exact merged statistics, on the term
    layout: one buffer shard, and dense ranks over the merged doc
    universe."""

    _shards_of = None

    def __init__(self, index_dir: str, base: "LocalSearcher | None" = None):
        base = base if base is not None else LocalSearcher(index_dir)
        man = load_manifest(index_dir)
        self._init_nrt(index_dir, base, man)
        self._init_view(base, base.terms)
        # dense-TAAT rank universe over base ∪ buffer: rebuilt once
        # per buffer MUTATION (linear merge of two sorted disjoint id
        # arrays), and per-term ranks attach in the memo — so queries
        # between adds run the same dense scoring path as the base
        self._rebuild_universe()

    @property
    def _owner(self) -> "DeltaSearcher":
        return self

    def _merged_views(self):
        return (self,)

    def _load_base_ids(self) -> np.ndarray:
        # narrow read; the dense LocalSearcher already holds it
        if self.base.all_ids is not None:
            return self.base.all_ids
        from refimage_ray.index.reader import load_doc_universe

        return load_doc_universe(self.index_dir)

    def _rebuild_universe(self) -> None:
        base, b = self.base.all_ids, self._buf.ids
        if base is None or not len(b):
            self.all_ids = base
        else:
            self.all_ids, _ = _merge_sorted_disjoint(base, b, (), ())

    def _mutated(self) -> None:
        self._rebuild_universe()
        super()._mutated()

    def _persist(self, ds, out_dir: str, cfg) -> None:
        from refimage_ray.config import DEFAULT_CONFIG
        from refimage_ray.index.lifecycle import add_documents

        add_documents(self.index_dir, ds, out_dir,
                      cfg if cfg is not None else DEFAULT_CONFIG)

    def _expand_pairs(self, kind: str, probe: str) -> list[tuple[str, int]]:
        # expansion probes must see buffered vocabulary too: the base's
        # resident expansion plus a probe over the buffered terms (whose
        # probe structures are rebuilt per call — every add changes them)
        pairs = dict(self.base._expand_pairs(kind, probe))
        buf_dfs = self._buf.term_dfs()
        for t, df in expand_vocab(buf_dfs, buf_dfs.__getitem__, {}, kind,
                                  probe):
            pairs[t] = pairs.get(t, 0) + df
        return sorted(pairs.items())


class _DeltaShardWrap(_MergedView):
    """One doc shard under merged NRT stats: the shard's stored
    postings merged with its slice of the buffer.  Sparse scoring (no
    rank universe)."""

    def __init__(self, owner: "DocPartDeltaSearcher", inner, gkey: int):
        self._init_view(inner, inner._tm)
        self._owner, self._gkey = owner, gkey
        self._global_df = owner.base._global_df

    # merged stats live on the owner (one refresh per add/flush)
    @property
    def n_docs(self) -> int:
        return self._owner.n_docs

    @property
    def avgdl(self) -> float:
        return self._owner.avgdl


class DocPartDeltaSearcher(_NRTBuffer, _DocPartCoordinator):
    """NRT over the DOC-PARTITIONED layout (the serving-default
    scatter): buffered (doc_id, text) rows route to their hash shard,
    each shard evaluates base∪buffer under the MERGED global stats,
    and the scatter merge stays exact (a doc's postings — stored or
    buffered — live wholly in its one shard).  Results are
    bit-identical to a full doc-partitioned rebuild over the union
    AND to the term layout's :class:`DeltaSearcher` (asserted in
    tests).  Same contract as DeltaSearcher: new doc_ids only;
    filters/facets need a flush, and so do the operators in
    ``_NEEDS_FLUSH``; ``flush`` persists through the docpart
    incremental-add lifecycle.

    A buffered doc whose hash shard wrote NO base file would need a
    fresh empty shard view; that only happens on pathological
    many-shards-few-docs layouts, so its add raises loudly instead."""

    def __init__(self, index_dir: str, base=None) -> None:
        base = base if base is not None else DocPartSearcher(index_dir)
        self.manifest = man = base.manifest
        self._init_nrt(index_dir, base, man, int(man["num_doc_shards"]))
        # file order == DocPartSearcher.shards order; gkey parses from
        # the filename (empty shards write no file)
        self._shard_gkeys = [
            int(f.split("-")[1].split(".")[0])
            for f in man["docshard_files"]
        ]
        self.shards = [
            _DeltaShardWrap(self, v, g)
            for v, g in zip(base.shards, self._shard_gkeys)
        ]
        self._group = _ShardGroup.of(self.shards)

    def _merged_views(self):
        return self.shards

    def _load_base_ids(self) -> np.ndarray:
        """Sorted base doc ids: per shard the docvalues universe when
        present, else the union of the shard's posting doc_ids
        (membership basis = docs with ≥1 posting — a fully-empty doc
        can't collide in scoring, only in metadata)."""
        parts = []
        for v in self.base.shards:
            if v.all_ids is not None:
                parts.append(v.all_ids)
            elif v._tm:
                parts.append(np.unique(np.concatenate(
                    [p.doc_ids for p in v._tm.values()])))
        return (np.unique(np.concatenate(parts)) if parts
                else np.zeros(0, np.int64))

    def _shards_of(self, ids: np.ndarray) -> np.ndarray:
        gk = _doc_shard_of(ids, self._buf_shards)
        missing = set(np.unique(gk).tolist()) - set(self._shard_gkeys)
        if missing:
            raise ValueError(
                f"buffered docs hash to shards with no base file "
                f"{sorted(missing)}; rebuild with fewer doc shards or "
                "flush through the lifecycle instead"
            )
        return gk

    def _persist(self, ds, out_dir: str, cfg) -> None:
        # the base manifest fixes the docpart geometry; cfg is not used
        from refimage_ray.index.docpart_lifecycle import (
            add_documents_docpart,
        )

        add_documents_docpart(self.index_dir, ds, out_dir)

    def _search_ordered(self, *a):
        raise ValueError(
            "order_by needs doc values over the buffered docs; "
            "flush() first"
        )


#: DocPartDeltaSearcher operators that read positions or the
#: vocabulary, which only a built artifact holds → the name their
#: refusal gives, formatted with the call's positional arguments (an
#: expansion is named by its kind).  Each raises a ValueError (a 422 on
#: serve, not an AttributeError 500) until the buffer is flushed.
_NEEDS_FLUSH = {
    "search_phrase": "phrase",
    "search_near": "NEAR",
    "search_expanded": "{0}",
    "search_phrase_prefix": "phrase_prefix",
    "search_rescore": "rescore",
    "search_many": "batch (search_many)",
    "suggest": "suggest",
    "_expand_pairs": "vocabulary-browse (/terms)",
    "facets": "facet",
    "composite": "composite-paging",
    "search_grouped": "grouped",
}


def _refusal(what: str):
    def refuse(self, *a, **k):
        raise ValueError(
            f"{what.format(*a)} queries over the docpart NRT buffer need "
            "a flush() first (positions/vocabulary structures are "
            "artifact-side)"
        )
    return refuse


for _op, _what in _NEEDS_FLUSH.items():
    setattr(DocPartDeltaSearcher, _op, _refusal(_what))
