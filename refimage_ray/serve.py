"""HTTP serving shim — the reference's API surface over the engine.

The reference is a FastAPI service (14 endpoints,
``/root/reference/src/refimage/api.py:160-1005``); this engine's value
is the Ray-Data pipelines behind it, so the shim is deliberately thin:
a stdlib ``HTTPServer`` (no web framework dependency) whose
handlers call exactly the library entry points a user would;
:class:`WarmHTTPServer` serves each connection on a reused worker
thread.  A handler error other than a bad parameter answers 500 with a
JSON ``{"error"}`` naming the exception type, and is reported through
``handle_error``.
Route map (reference analog → here):

- ``GET /health``                      (``api.py`` health)          → index stats probe
- ``GET /stats``                       (storage stats rollup)       → manifest stats
- ``GET /search?q=&k=&mode=``          (or/and/phrase/phrase_prefix/near/prefix/fuzzy/wildcard/regex)  → ``searcher.search`` / ``search_phrase`` / ``search_phrase_prefix`` / ``search_near`` / ``search_prefix`` / ``search_fuzzy`` / ``search_wildcard`` / ``search_regex`` + metadata join (``ResidentDocs.fragments``: searchsorted on the resident doc_id-sorted docs table, each row's JSON rendered on its first hit and kept with that snapshot, which is re-validated per request by a ``docs/`` stat signature — metadata PUTs, adds and compaction show without /reload)
  (``&slop=N`` with mode=phrase: ordered proximity, ≤N interleaved tokens per step;
  mode=phrase_prefix: last token treated as a prefix (search-as-you-type);
  ``&window=W`` with mode=near: unordered proximity, all terms within a W-token span;
  ``&snippets=1&width=N``: term-highlighted snippets instead of metadata;
  ``&filter=lang=en,doc_len>=100``: doc-value predicate — see ``parse_filter``;
  ``&order=warc_ts:desc``: field ordering; ``&offset=N``: pagination;
  ``&decay=n_chars:exp:0:2000:0.5``: decay boost — ``query/boost.py``)
- ``GET /facets?q=&by=lang&hist=doc_len:50&date_hist=warc_ts:month&sum=lang:doc_len&filter=&mode=&top=`` (search-UI facet panel) → ``searcher.facets`` (counts / histograms / metric sums over the FULL match set; ``dsl=`` instead of ``q=`` facets a DSL query's membership)
- ``GET /grouped?q=&by=lang&k=3&filter=&groups=`` (result diversification) → ``searcher.search_grouped`` (best k hits per facet value)
- ``GET /count?q=&mode=&filter=&min_match=`` (ES ``_count`` analog; the reference reports result counts on list endpoints, ``api.py:397-409``) → ``searcher.count`` (exact match-set size, no scoring)
- ``GET /significant?q=&sample=&min_count=&top=`` (ES significant_terms) → ``engine.significant_terms`` (relative-risk vs corpus background over the top-sample)
- ``GET /terms?prefix=&max=``          (ES ``_terms_enum``)           → vocabulary browse (term asc + df, resident dictionary)
- ``GET /suggest?q=&k=``               ("did you mean")              → ``searcher.suggest`` (Levenshtein-≤1 vocabulary neighbors, df-ranked)
- ``GET /docs/{id}/explain?q=&mode=``  (Lucene explain analog)       → ``engine.explain_score`` (per-term contributions, bit-exact sum)
- ``GET /dsl?q=&limit=&threshold=``    (DSL search endpoint)        → ``DSLExecutor.execute_query``
- ``POST /nl2dsl`` {"text": ...}       (LLM text→DSL, ``api.py:273-348``) → ``query.nl.text_to_dsl``
- ``GET /dsl-syntax``                  (DSL grammar reference, ``api.py:231-267``) → operators + examples
- ``GET /explain?q=``                  (text→vector / dsl→vector, ``api.py:160-229``) → ``extension.explain`` plan
- ``GET /nl/providers``                (``GET /llm/providers``, ``api.py:350-395``) → ``ProviderManager`` registry
- ``POST /nl/switch`` {"provider": ...} (``POST /llm/switch``, ``api.py:398-435``) → runtime provider switch
- ``GET /docs?limit=&offset=&sort=&dir=`` (paginated listing, ``GET /metadata`` ``api.py:665-704``) → pages of the same resident docs table ``lookup_docs`` joins from (sorted indices memoized per docs/ signature) + total_count
- ``GET /docs/{id}``                   (metadata GET)                → ``lookup_docs`` (404 when missing)
- ``GET /docs/{id}/termvectors``       (ES _termvectors analog)      → ``doc_term_vector`` (term/tf/positions, index tokenizer)
- ``GET /docs/{id}/file``              (chunked file serving, ``api.py:944-954``) → ``stream_doc_bytes`` chunked response
- ``POST /docs``                       (NRT add — query/nrt.py)     → ``DeltaSearcher.add`` (searchable immediately, no rebuild)
- ``POST /percolate`` + ``GET/PUT/DELETE /percolate/rules[/{id}]`` (ES percolator analog) → ``stages/percolate.Percolator`` over the registered DSL rules
- ``PUT /docs/{id}/metadata``          (metadata PUT, ``api.py:731-766``) → ``lifecycle.update_doc_metadata``
- ``DELETE /docs/{id}``                (delete, rebuild-on-delete in the reference) → ``lifecycle.delete_docs`` tombstone
- ``POST /reload``                     (serve-after-mutation)        → fresh snapshot searcher (tombstones/compaction visible)

The searcher is injected (``LocalSearcher`` by default,
``DistributedSearcher`` for a multi-node pool) and shared across
request threads — both are read-only after load, so no locking beyond
the tombstone/metadata writes, which go through the library's atomic
partition rewrites.
"""

from __future__ import annotations

import json
import queue
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

from refimage_ray.index.manifest import load_manifest

_DOC_RE = re.compile(
    r"^/docs/(\d+)(/file|/metadata|/similar|/explain|/termvectors)?$"
)

_COND_RE = re.compile(
    r"^\s*(\w+)\s*(!=|<=|>=|=|<|>)\s*(.+?)\s*$"
)

#: GET /docs keeps the (narrow) docs metadata resident for paging; at
#: corpus scale that is unbounded serving-process memory, so past this
#: many rows the endpoint refuses (422) and defers to the offline
#: ``list_docs_page`` pipeline.
_DOCS_LIST_CAP = 1_000_000


def _typed(raw: str):
    """int → float → bare string (quotes optional for strings)."""
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def parse_filter(spec: str):
    """HTTP mini-grammar → the engine's ``where`` predicate (DNF).

    Comma-separated conjunction of ``col OP value`` with OP ∈
    {=, !=, <, <=, >, >=}; set membership as ``col=a|b|c`` (an ``=``
    whose value contains ``|``); ``;``-separated conjunction groups OR
    together (the ES bool ``should``-filter shape).  Values: int,
    float, or string (optionally quoted).  Empty/whitespace spec →
    None (no filter).  e.g. ``filter=lang=en,doc_len>=100``,
    ``filter=lang=en|fr``, or ``filter=lang=en,doc_len>=100;lang=fr``.
    """
    spec = (spec or "").strip()
    if not spec:
        return None

    def _conj(group: str):
        conds = []
        for part in group.split(","):
            m = _COND_RE.match(part)
            if not m:
                raise ValueError(f"bad filter condition {part!r}")
            col, op, raw = m.groups()
            if op == "=" and "|" in raw:
                conds.append((col, "in", [_typed(v) for v in raw.split("|")]))
            elif op == "!=" and "|" in raw:
                conds.append(
                    (col, "not in", [_typed(v) for v in raw.split("|")])
                )
            else:
                conds.append((col, op, _typed(raw)))
        return conds

    groups = [g for g in spec.split(";") if g.strip()]
    if len(groups) == 1:
        return _conj(groups[0])
    return {"or": [_conj(g) for g in groups]}


# Idle workers kept warm; a worker that finishes while this many are
# already idle exits instead (a burst's extra threads do not linger).
_IDLE_WORKERS = 8


class WarmHTTPServer(HTTPServer):
    """``HTTPServer`` that serves each connection on a reused thread.

    ``process_request`` hands the accepted socket to the most recently
    idle worker (a LIFO stack of per-worker inboxes), and starts a new
    daemon worker only when none is idle.  Starting a thread costs
    ~0.15 ms a connection, and a fresh thread's first Arrow calls run
    ~0.15 ms slower than a warm one's; LIFO keeps one hot thread (and
    its allocator state) for serial traffic.  Concurrency stays
    unbounded like ``ThreadingHTTPServer``: a stalled client or a long
    request (``/nl2dsl``, LM training) never blocks another, because a
    request that finds no idle worker gets a new one."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._idle: list[tuple[queue.SimpleQueue, threading.Thread]] = []
        self._idle_lock = threading.Lock()
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            inbox = self._idle.pop()[0] if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._work, args=(inbox,),
                             daemon=True).start()
        inbox.put((request, client_address))

    def _work(self, inbox: queue.SimpleQueue) -> None:
        me = threading.current_thread()
        while (item := inbox.get()) is not None:
            request, client_address = item
            # ThreadingMixIn.process_request_thread's body, except that
            # the worker is idle again before the socket closes: a serial
            # client sends its next request as soon as it has read the
            # reply, and that request should find this warm worker
            try:
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                with self._idle_lock:
                    stay = not self._closed and len(self._idle) < _IDLE_WORKERS
                    if stay:
                        self._idle.append((inbox, me))
            finally:
                self.shutdown_request(request)
            if not stay:
                return

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until ``shutdown()``; on return end the idle workers
        (a parked worker holds the server, and with it the searcher),
        and a busy one exits once its request is done."""
        try:
            super().serve_forever(poll_interval)
        finally:
            self._end_workers()

    def server_close(self) -> None:
        """Close the socket and end the idle workers left by requests
        served without ``serve_forever`` (``handle_request``)."""
        super().server_close()
        self._end_workers()

    def _end_workers(self) -> None:
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox, _ in idle:
            inbox.put(None)
        for _, worker in idle:
            worker.join()


def make_server(index_dir: str, port: int = 0, searcher=None,
                searcher_factory=None) -> WarmHTTPServer:
    """Build (not start) the server; ``port=0`` picks a free port.

    ``searcher_factory`` (a zero-arg callable returning a fresh
    searcher) is what ``POST /reload`` uses to build the replacement
    snapshot, so a DistributedSearcher deployment stays distributed
    across reloads.  When only a bare ``searcher`` instance is
    injected, /reload cannot know how to rebuild it and returns 409
    instead of silently demoting the deployment to a LocalSearcher."""
    from refimage_ray.query.dsl import DSLExecutor, DSLParseError
    from refimage_ray.query.engine import (
        LocalSearcher, lookup_docs, meta_fragment, resident_docs,
        stream_doc_bytes,
    )

    from refimage_ray.query.nl import ProviderManager

    if searcher_factory is None and searcher is None:
        from refimage_ray.index.rollover import generations

        _man = load_manifest(index_dir)
        if _man is None and generations(index_dir):
            # a rollover GROUP root (gen-*/ dirs, no manifest): serve the
            # federation; /reload re-derives the live part list, so new
            # segments/seals become visible without a restart
            from refimage_ray.index.rollover import group_searcher

            searcher_factory = lambda: group_searcher(index_dir)  # noqa: E731
        elif _man is not None and _man.get("layout") == "doc-partitioned":
            # serving auto-routes by the ARTIFACT's layout: a
            # doc-partitioned index gets the docpart searcher (the
            # higher-QPS serving layout — bench r2: 199.8 vs 113.9
            # QPS); term-partitioned stays the build/batch layout.
            # Endpoints the layout can't answer (e.g. /significant
            # needs stored text) surface the library's own loud error.
            from refimage_ray.index.docpart import DocPartSearcher

            searcher_factory = lambda: DocPartSearcher(index_dir)  # noqa: E731
        else:
            searcher_factory = lambda: LocalSearcher(index_dir)  # noqa: E731

    state = {
        "s": searcher if searcher is not None else searcher_factory(),
        "lm_lock": threading.Lock(),  # phrase-suggester lazy init
        "lm_gen": 0,                   # bumped by /reload
        # serializes NRT construct+add+swap: two concurrent first adds
        # would otherwise each build a fresh delta searcher from the
        # same base, both return 200, and only the last swap survives
        # (the other request's acknowledged docs vanish from serving)
        "add_lock": threading.Lock(),
    }

    def _group_dirs():
        """Live artifact dirs when serving a rollover group, else None
        (recomputed on /reload so new segments' docs/ become visible)."""
        from refimage_ray.index.rollover import generations, group_parts

        if load_manifest(index_dir) is None and generations(index_dir):
            return group_parts(index_dir)
        return None

    state["meta_dirs"] = _group_dirs()

    def _meta_dirs() -> list:
        """Where docs/ metadata lives: a group's parts (disjoint
        universes), else the artifact itself."""
        if state["meta_dirs"] is not None:
            return state["meta_dirs"]
        return [index_dir]

    def _lookup(ids):
        """Metadata lookup that federates docs/ across :func:`_meta_dirs`
        (concat needs no dedup)."""
        import pyarrow as _pa

        return _pa.concat_tables([lookup_docs(d, ids) for d in _meta_dirs()])

    def _fragments(ids) -> dict:
        """``doc_id → meta_fragment`` from the resident docs snapshots
        of :func:`_meta_dirs`; ``FileNotFoundError`` when a layout keeps
        no docs/."""
        out: dict = {}
        for d in _meta_dirs():
            out.update(resident_docs(d).fragments(ids))
        return out

    state["ex"] = DSLExecutor(state["s"])
    # one manager per server so POST /nl/switch affects later /nl2dsl
    # calls (the reference holds its LLMManager the same way)
    state["nl"] = ProviderManager()
    # percolator rule registry (ES percolator analog): query_id → DSL
    # string; the compiled Percolator is rebuilt lazily after mutations
    state["perc_rules"] = {}
    state["perc"] = None

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):  # quiet
            pass

        def _send(self, body: bytes, code: int = 200) -> None:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _json(self, obj, code: int = 200) -> None:
            self._send(json.dumps(obj).encode(), code)

        def send_response(self, code, message=None) -> None:
            self._responded = True
            super().send_response(code, message)

        def _body(self) -> dict:
            n = int(self.headers.get("Content-Length") or 0)
            return json.loads(self.rfile.read(n) or b"{}")

        def _hits(self, hits) -> None:
            """Answer ``{"results": [...]}``: each hit's ``doc_id`` and
            ``score`` joined to its metadata row, the bytes of
            ``json.dumps`` over ``{"doc_id", "score", **{k: str(v)}}``.
            Rows come pre-rendered from the resident snapshot
            (``ResidentDocs.fragments``); NRT-buffered hits render on
            the fly.  Inner join: ids without metadata are dropped
            (reference skips missing records, api.py:461-474)."""
            try:
                frags = _fragments([d for d, _ in hits]) if hits else {}
            except FileNotFoundError:
                # doc-partitioned artifacts keep no docs/ metadata
                # store — serve bare (doc_id, score) rows instead of
                # dropping everything through the inner join
                frags = None
            srch = state["s"]
            if frags is not None and hasattr(srch, "lookup_buffered"):
                missing = [d for d, _ in hits if d not in frags]
                if missing:  # NRT: unflushed docs
                    for r in srch.lookup_buffered(missing):
                        frags[r["doc_id"]] = meta_fragment(r)
            # every hit's doc_id and score through one json.dumps; a
            # JSON number never holds ", ", so the split is exact
            nums = json.dumps([x for h in hits for x in h])[1:-1].split(", ")
            rows = []
            for i, (d, _) in enumerate(hits):
                f = "" if frags is None else frags.get(d)
                if f is None:
                    continue
                head = '{"doc_id": ' + nums[2 * i]
                if not f.startswith('"score": '):  # a stored score wins
                    head += ', "score": ' + nums[2 * i + 1]
                rows.append(f"{head}, {f}}}" if f else head + "}")
            self._send(('{"results": [' + ", ".join(rows) + "]}").encode())

        def _guard(self, route, client_errors, prefix) -> None:
            """Run ``route``: ``client_errors`` answer 422, and any other
            exception answers 500 naming its type (when no response has
            started) and goes to ``server.handle_error``."""
            self._responded = False
            try:
                route()
            except client_errors as err:
                self._json({"error": f"{prefix}: {err}"}, 422)
            except Exception as err:
                if not self._responded:
                    self._json({"error": "internal error: "
                                         f"{type(err).__name__}"}, 500)
                self.server.handle_error(self.request, self.client_address)

        def do_GET(self) -> None:
            # bad numeric params are client errors: structured 422, not
            # an uncaught ValueError tearing down the connection
            self._guard(self._get, (ValueError, KeyError), "bad parameter")

        def _get(self) -> None:
            u = urlparse(self.path)
            q = {k: v[0] for k, v in parse_qs(u.query).items()}
            if u.path == "/health":
                return self._json({"status": "ok", "n_docs": state["s"].n_docs})
            if u.path == "/percolate/rules":
                return self._json({"rules": dict(state["perc_rules"])})
            if u.path == "/stats":
                man = load_manifest(index_dir) or {}
                st = man.get("stats", {})
                return self._json(
                    {
                        "n_docs": st.get("n_docs"),
                        "avgdl": st.get("avgdl"),
                        "partitions": len(man.get("partitions", [])),
                        "num_shards": man.get("config", {}).get("num_shards"),
                    }
                )
            if u.path == "/docs":
                # paginated metadata listing (reference GET /metadata,
                # api.py:665-704: limit/offset/sort_by/sort_order +
                # total_count).  Pages of the resident narrow docs
                # table (never the text column), whitelisted sort keys
                # + doc_id tiebreak — ops-sized pages; deep pagination
                # at corpus scale should use search_after instead.
                import pyarrow.compute as _pc

                _SORT_COLS = ("doc_id", "doc_len", "n_chars",
                              "warc_ts", "lang", "url")
                _LIST_COLS = ("doc_id", "url", "lang",
                              "doc_len", "n_chars", "warc_ts")
                sort_by = q.get("sort", "doc_id")
                order_dir = q.get("dir", "asc")
                if sort_by not in _SORT_COLS:
                    return self._json(
                        {"error": f"sort must be one of {_SORT_COLS}"},
                        422)
                if order_dir not in ("asc", "desc"):
                    return self._json(
                        {"error": "dir must be asc or desc"}, 422)
                limit = min(int(q.get("limit", 50)), 1000)
                off = int(q.get("offset", 0))
                if limit < 0 or off < 0:
                    return self._json(
                        {"error": "limit/offset must be >= 0"}, 422)
                # the resident docs entry (shared with lookup_docs) is
                # immutable per docs/ signature, so its table and the
                # sorted indices memoized on it always pair up; a
                # metadata rewrite or compaction installs a new entry
                try:
                    ent = resident_docs(index_dir)
                except FileNotFoundError:
                    return self._json(
                        {"error": "this artifact's layout keeps no "
                                  "docs metadata store"}, 422)
                t = ent.table
                # BOUNDED: past the cap the endpoint refuses and points
                # at the offline pipeline instead of paging corpus-sized
                # resident tables per process
                if t.num_rows > _DOCS_LIST_CAP:
                    return self._json(
                        {"error": "docs listing is capped at "
                                  f"{_DOCS_LIST_CAP} resident rows "
                                  f"(artifact has {t.num_rows}); use the "
                                  "offline list_docs_page pipeline "
                                  "for corpus-scale listings",
                         "code": "docs_listing_too_large"}, 422)
                if sort_by not in t.column_names:
                    return self._json(
                        {"error": f"sort column {sort_by!r} not in "
                                  "this artifact"}, 422)
                # one sorted index per (column, dir) — computed once per
                # entry, O(log n) pages afterwards; bounded by the
                # whitelisted sort columns × 2 directions
                sel = ent.sorts.get((sort_by, order_dir))
                if sel is None:
                    keys = [(sort_by,
                             "descending" if order_dir == "desc"
                             else "ascending")]
                    if sort_by != "doc_id":
                        keys.append(("doc_id", "ascending"))
                    sel = _pc.sort_indices(t, sort_keys=keys)
                    ent.sorts[(sort_by, order_dir)] = sel
                page = t.select(
                    [c for c in _LIST_COLS if c in t.column_names]
                ).take(sel[off:off + limit])
                return self._json({
                    "docs": [
                        {k: str(v) for k, v in row.items()}
                        for row in page.to_pylist()
                    ],
                    "total_count": t.num_rows,
                    "limit": limit, "offset": off,
                    "sort_by": sort_by, "sort_order": order_dir,
                })
            if u.path == "/dsl-syntax":
                # grammar reference (api.py:231-267 shape: operators +
                # worked examples; ours documents both the infix and the
                # function-style grammars the parser accepts)
                return self._json(
                    {
                        "syntax_version": "1.0",
                        "description": "refimage_ray DSL for search "
                                       "queries (infix and function-style)",
                        "operators": {
                            "AND": "all operands must match",
                            "OR": "any operand can match",
                            "NOT": "exclude matching documents",
                            "^": "weight operator — scale a term's score",
                            "#": "tag filter — match documents with a tag",
                            "TEXT()/AND()/OR()/EXCLUDE()/WEIGHT()":
                                "function-style equivalents",
                        },
                        "examples": [
                            {
                                "query": "spark AND join",
                                "description": "both terms required",
                                "explanation": "intersection of the "
                                               "terms' posting lists",
                            },
                            {
                                "query": "spark OR join NOT stream",
                                "description": "either term, excluding "
                                               "'stream'",
                                "explanation": "union minus the NOT set",
                            },
                            {
                                "query": "spark^0.8 OR join^0.6 #en",
                                "description": "weighted terms with a "
                                               "tag filter",
                                "explanation": "per-term score weights; "
                                               "#en restricts to tagged "
                                               "documents",
                            },
                            {
                                "query": "EXCLUDE(TEXT(\"spark\"), "
                                         "TEXT(\"stream\"))",
                                "description": "function-style form",
                                "explanation": "same AST as "
                                               "'spark NOT stream'",
                            },
                        ],
                    }
                )
            if u.path == "/nl/providers":
                mgr = state["nl"]
                return self._json(
                    {
                        "current_provider": mgr.get_current_provider(),
                        "providers": [
                            {
                                "name": name,
                                "available": True,
                                "model": mgr.providers[name].get_model_name(),
                                "description": f"{name} NL->DSL provider",
                            }
                            for name in mgr.get_available_providers()
                        ],
                    }
                )
            if u.path == "/explain":
                # conversion-endpoint analog (text→vector / dsl→vector,
                # api.py:160-229): query → parse tree + term routing,
                # the engine's query representation, without executing
                from refimage_ray.query.dsl import DSLParseError as _PE
                from refimage_ray.extension import explain

                man = load_manifest(index_dir) or {}
                try:
                    plan = explain(
                        q.get("q", ""),
                        num_shards=man.get("config", {}).get(
                            "num_shards", 32),
                        analyzer=q.get("analyzer", "default"),
                    )
                except _PE as err:
                    return self._json({"error": str(err)}, 422)
                return self._json(plan)
            if u.path == "/search":
                if not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                k = int(q.get("k", 10))
                offset = int(q.get("offset", 0))
                mode = q.get("mode", "or")
                where = parse_filter(q.get("filter", ""))
                order = None
                if q.get("order"):
                    # order=col:asc|desc[,col2:dir2...] (default desc)
                    keys = []
                    for part in q["order"].split(","):
                        ocol, _, odir = part.partition(":")
                        keys.append((ocol, odir or "desc"))
                    order = keys[0] if len(keys) == 1 else keys
                try:
                    if mode == "phrase":
                        if where or order:
                            return self._json(
                                {"error": "filter/order not supported "
                                          "with mode=phrase"}, 422)
                        hits = state["s"].search_phrase(
                            q["q"], k=k, offset=offset,
                            slop=int(q.get("slop", 0)))
                    elif mode == "phrase_prefix":
                        # search-as-you-type: last token is a prefix
                        if where or order:
                            return self._json(
                                {"error": "filter/order not supported "
                                          "with mode=phrase_prefix"}, 422)
                        hits = state["s"].search_phrase_prefix(
                            q["q"], k=k, offset=offset,
                            slop=int(q.get("slop", 0)))
                    elif mode == "near":
                        # unordered proximity: all terms within a
                        # `window`-token span, any order (NEAR/W)
                        if where or order:
                            return self._json(
                                {"error": "filter/order not supported "
                                          "with mode=near"}, 422)
                        hits = state["s"].search_near(
                            q["q"], window=int(q.get("window", 5)),
                            k=k, offset=offset)
                    elif mode == "prefix":
                        hits = state["s"].search_prefix(q["q"], k=k,
                                                        where=where,
                                                        order_by=order,
                                                        offset=offset)
                    elif mode == "fuzzy":
                        hits = state["s"].search_fuzzy(q["q"], k=k,
                                                       where=where,
                                                       order_by=order,
                                                       offset=offset)
                    elif mode == "wildcard":
                        hits = state["s"].search_wildcard(q["q"], k=k,
                                                          where=where,
                                                          order_by=order,
                                                          offset=offset)
                    elif mode == "regex":
                        hits = state["s"].search_regex(q["q"], k=k,
                                                       where=where,
                                                       order_by=order,
                                                       offset=offset)
                    elif mode in ("or", "and") and q.get("rescore_window"):
                        # two-phase rescore (ES rescore): proximity
                        # re-rank of the BM25 top-window
                        if where or order or offset:
                            return self._json(
                                {"error": "filter/order/offset not "
                                          "supported with rescore_window"},
                                422)
                        if not hasattr(state["s"], "search_rescore"):
                            return self._json(
                                {"error": "rescore_window is not "
                                          "supported by this searcher "
                                          "(doc-partitioned serving)"},
                                422)
                        hits = state["s"].search_rescore(
                            q["q"], k=k, mode=mode,
                            window=int(q["rescore_window"]),
                            rescore_weight=float(q.get("rescore_weight", 1.0)),
                        )
                    elif mode in ("or", "and"):
                        mm = int(q["min_match"]) if q.get("min_match") else None
                        after = None
                        if q.get("after"):  # after=<doc_id>:<score>
                            a_d, _, a_s = q["after"].partition(":")
                            after = (int(a_d), float(a_s))
                        boost = None
                        if q.get("decay"):
                            # decay=col:kind:origin:scale[:decay]
                            # (function_score sugar, query/boost.py)
                            from refimage_ray.query.boost import DecaySpec

                            parts = q["decay"].split(":")
                            if len(parts) not in (4, 5):
                                return self._json(
                                    {"error": "decay= wants "
                                              "col:kind:origin:scale[:dec]"},
                                    422)
                            boost = DecaySpec(
                                parts[0], float(parts[2]), float(parts[3]),
                                float(parts[4]) if len(parts) == 5 else 0.5,
                                parts[1])
                        hits = state["s"].search(q["q"], k=k, mode=mode,
                                                 where=where, order_by=order,
                                                 offset=offset, min_match=mm,
                                                 after=after, boost=boost)
                    else:
                        return self._json({"error": f"bad mode {mode!r}"}, 422)
                except ValueError as err:  # e.g. multi-term expansion probe
                    return self._json({"error": str(err)}, 422)
                if q.get("snippets") == "1":
                    from refimage_ray.query.snippets import snippets_for_hits

                    try:
                        return self._json({"results": snippets_for_hits(
                            index_dir, hits, q["q"],
                            width=int(q.get("width", 160)),
                        )})
                    except FileNotFoundError:
                        return self._json(
                            {"error": "snippets need the docs/ text "
                                      "store (not kept by this "
                                      "artifact's layout)"}, 422)
                return self._hits(hits)
            if u.path == "/count":
                if not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                try:
                    mm = int(q["min_match"]) if q.get("min_match") else None
                    n = state["s"].count(
                        q["q"], mode=q.get("mode", "or"),
                        where=parse_filter(q.get("filter", "")),
                        min_match=mm,
                    )
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"count": n})
            if u.path == "/significant":
                from refimage_ray.query.engine import significant_terms

                if not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                try:
                    rows = significant_terms(
                        state["s"], q["q"],
                        sample_n=int(q.get("sample", 200)),
                        min_doc_count=int(q.get("min_count", 3)),
                        top=int(q.get("top", 20)),
                        mode=q.get("mode", "or"),
                    )
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"terms": rows})
            if u.path == "/terms":
                # ES _terms_enum analog: browse the vocabulary by
                # prefix (term asc, df attached, resident dictionary);
                # the probe lowercases like every other expansion
                # surface (the vocabulary is lowercase by construction)
                prefix = q.get("prefix", "").lower()
                try:
                    cap = int(q.get("max", 50))
                    pairs = state["s"]._expand_pairs("prefix", prefix)
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                pairs.sort()
                return self._json({"terms": [
                    {"term": t, "df": int(df)} for t, df in pairs[:cap]
                ]})
            if u.path == "/suggest":
                if not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                if q.get("mode", "term") == "phrase":
                    # phrase-level did-you-mean: bigram-LM argmax over
                    # the per-term lev-<=1 candidate space.  The LM
                    # trains lazily ONCE from the artifact's live docs
                    # (staged_docs excludes losers/tombstones) and
                    # stays resident — /reload drops it with the rest
                    # of the state swap.
                    try:
                        ps = state.get("phrase_suggester")
                        if ps is None:
                            import os as _os

                            from refimage_ray.config import (
                                engine_config_from_manifest,
                            )
                            from refimage_ray.index.reader import (
                                staged_docs,
                            )
                            from refimage_ray.query.suggest import (
                                PhraseSuggester,
                            )
                            from refimage_ray.stages.lm import (
                                load_bigram_lm, train_bigram_lm,
                            )

                            # concurrent request workers: train OUTSIDE
                            # lm_lock so /reload (which needs the
                            # lock to bump lm_gen) and concurrent
                            # /suggest requests stay responsive
                            # during the corpus pass; the generation
                            # re-check under the lock discards a
                            # model whose corpus was /reload-ed
                            # mid-train (stale cache would otherwise
                            # persist).  Concurrent first-hitters may
                            # train redundantly; same-gen results are
                            # identical so last-store-wins is safe.
                            while ps is None:
                                with state["lm_lock"]:
                                    ps = state.get("phrase_suggester")
                                    if ps is not None:
                                        break
                                    gen = state["lm_gen"]
                                man = load_manifest(index_dir) or {}
                                lm_cfg = engine_config_from_manifest(
                                    man.get("config", {})
                                )
                                lm_dir = _os.path.join(index_dir, "lm")
                                if _os.path.exists(
                                    _os.path.join(lm_dir, "lm.json")
                                ):
                                    # persisted artifact (train-lm
                                    # CLI) — vocab-sized load, no
                                    # corpus pass
                                    lm = load_bigram_lm(lm_dir)
                                else:
                                    lm = train_bigram_lm(
                                        staged_docs(
                                            index_dir,
                                            columns=["doc_id",
                                                     "text"],
                                        ),
                                        lm_cfg,
                                    )
                                with state["lm_lock"]:
                                    if state["lm_gen"] == gen:
                                        ps = PhraseSuggester(
                                            lm, cfg=lm_cfg
                                        )
                                        state["phrase_suggester"] = ps
                                    else:
                                        # corpus swapped mid-train —
                                        # drop this model and retry
                                        ps = state.get(
                                            "phrase_suggester")
                        phrase, score = ps.suggest(q["q"])
                        return self._json(
                            {"suggestion": phrase, "score": score}
                        )
                    except ValueError as err:
                        return self._json({"error": str(err)}, 422)
                try:
                    return self._json({"suggestions": state["s"].suggest(
                        q["q"], max_suggestions=int(q.get("k", 5))
                    )})
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
            if u.path == "/grouped":
                if not q.get("q", "").strip() or not q.get("by", "").strip():
                    return self._json({"error": "need q and by"}, 422)
                try:
                    rows = state["s"].search_grouped(
                        q["q"], by=q["by"].strip(),
                        k_per_group=int(q.get("k", 3)),
                        mode=q.get("mode", "or"),
                        where=parse_filter(q.get("filter", "")),
                        groups=(q["groups"].split(",")
                                if q.get("groups") else None),
                    )
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"results": [
                    {"group": g, "doc_id": d, "score": s}
                    for g, d, s in rows
                ]})
            if u.path == "/composite":
                # ES composite aggregation: bounded bucket pages over
                # categorical doc values; after=v1|v2 continues a page
                if not q.get("q", "").strip() or not q.get("by", "").strip():
                    return self._json({"error": "q= and by= required"}, 422)
                after = None
                if q.get("after"):
                    raw = q["after"]
                    # JSON-array form is the safe encoding for key
                    # values containing '|'; a literal value that
                    # merely LOOKS bracketed (e.g. '[unknown]') falls
                    # back to the pipe form — but a '['-prefixed value
                    # with no closing ']' is almost certainly a
                    # truncated JSON cursor, and silently paginating
                    # from it would return a wrong page, so that one
                    # errors
                    after = None
                    try:
                        parsed = json.loads(raw)
                        if isinstance(parsed, list):
                            after = tuple(str(v) for v in parsed)
                    except json.JSONDecodeError:
                        stripped = raw.strip()
                        if stripped.startswith("[") and not \
                                stripped.endswith("]"):
                            return self._json(
                                {"error": "after= looks like a "
                                          "truncated JSON cursor"}, 422
                            )
                    if after is None:
                        after = tuple(raw.split("|"))
                    n_by = len([c for c in q["by"].split(",") if c.strip()])
                    if len(after) != n_by:
                        return self._json(
                            {"error": f"after= has {len(after)} values for "
                                      f"{n_by} by-columns (keys containing "
                                      "'|' need the JSON-array form)"}, 422
                        )
                try:
                    out = state["s"].composite(
                        q["q"],
                        by=[c.strip() for c in q["by"].split(",")],
                        size=int(q.get("size", 10)),
                        after=after,
                        mode=q.get("mode", "or"),
                        where=parse_filter(q.get("filter", "")),
                    )
                except (ValueError, KeyError) as err:
                    return self._json({"error": str(err)}, 422)
                return self._json(
                    {
                        "buckets": [
                            {"key": list(b["key"]),
                             "doc_count": b["doc_count"]}
                            for b in out["buckets"]
                        ],
                        "after_key": (
                            list(out["after_key"])
                            if out["after_key"] else None
                        ),
                    }
                )
            if u.path == "/facets":
                use_dsl = bool(q.get("dsl", "").strip())
                if not use_dsl and not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                hists = {}
                for part in filter(None, q.get("hist", "").split(",")):
                    col, _, w = part.partition(":")
                    if not w:
                        return self._json(
                            {"error": f"hist needs col:width, got {part!r}"},
                            422)
                    hists[col.strip()] = float(w)
                dhists = {}
                for part in filter(None, q.get("date_hist", "").split(",")):
                    col, _, iv = part.partition(":")
                    if not iv:
                        return self._json(
                            {"error": "date_hist needs col:interval, got "
                                      f"{part!r}"}, 422)
                    dhists[col.strip()] = iv.strip()
                sums = {}
                for part in filter(None, q.get("sum", "").split(",")):
                    col, _, vc = part.partition(":")
                    if not vc:
                        return self._json(
                            {"error": "sum needs facetcol:valuecol, got "
                                      f"{part!r}"}, 422)
                    sums[col.strip()] = vc.strip()
                try:
                    by_cols = [
                        c.strip() for c in q.get("by", "").split(",")
                        if c.strip()
                    ]
                    if use_dsl:  # facet panel over a DSL query's members
                        try:
                            out = state["ex"].facets(
                                q["dsl"],
                                by=by_cols,
                                where=parse_filter(q.get("filter", "")),
                                histograms=hists,
                                top=int(q["top"]) if "top" in q else None,
                                sums=sums,
                                date_histograms=dhists,
                            )
                        except DSLParseError as err:
                            return self._json({"error": str(err)}, 422)
                    else:
                        out = state["s"].facets(
                            q["q"],
                            by=by_cols,
                            mode=q.get("mode", "or"),
                            where=parse_filter(q.get("filter", "")),
                            histograms=hists,
                            top=int(q["top"]) if "top" in q else None,
                            sums=sums,
                            date_histograms=dhists,
                        )
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json(out)
            if u.path == "/dsl":
                try:
                    hits = state["ex"].execute_query(
                        q.get("q", ""), limit=int(q.get("limit", 10)),
                        threshold=float(q.get("threshold", 0.0)),
                    )
                except (DSLParseError, ValueError) as err:
                    # ValueError: executable-but-invalid leaf params
                    # (e.g. a negative window reaching the engine)
                    return self._json({"error": str(err)}, 422)
                return self._hits(hits)
            m = _DOC_RE.match(u.path)
            if m and m.group(2) is None:
                try:
                    rows = _lookup([int(m.group(1))]).to_pylist()
                except FileNotFoundError:
                    rows = []  # layout keeps no docs/ metadata store
                if not rows:
                    return self._json({"error": "not found"}, 404)
                return self._json({k: str(v) for k, v in rows[0].items()})
            if m and m.group(2) == "/explain":
                from refimage_ray.query.engine import explain_score

                if not q.get("q", "").strip():
                    return self._json({"error": "empty query"}, 422)
                return self._json(explain_score(
                    state["s"], q["q"], int(m.group(1)),
                    mode=q.get("mode", "or"),
                ))
            if m and m.group(2) == "/termvectors":
                from refimage_ray.query.engine import doc_term_vector

                try:
                    return self._json(
                        {"terms": doc_term_vector(index_dir, int(m.group(1)))}
                    )
                except KeyError:
                    return self._json({"error": "not found"}, 404)
                except FileNotFoundError:
                    return self._json(
                        {"error": "this artifact's layout keeps no "
                                  "docs text store"}, 422)
            if m and m.group(2) == "/similar":
                from refimage_ray.query.engine import more_like_this

                try:
                    hits = more_like_this(
                        state["s"], int(m.group(1)), k=int(q.get("k", 10)),
                        exclude_self=q.get("self", "1") == "0",
                    )
                except KeyError:
                    return self._json({"error": "not found"}, 404)
                except (FileNotFoundError, ValueError) as err:
                    return self._json({"error": str(err)}, 422)
                return self._hits(hits)
            if m and m.group(2) == "/file":
                try:
                    chunks = list(stream_doc_bytes(index_dir, int(m.group(1))))
                except KeyError:
                    return self._json({"error": "not found"}, 404)
                except FileNotFoundError:
                    return self._json(
                        {"error": "this artifact's layout keeps no "
                                  "docs text store"}, 422)
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                for c in chunks:
                    self.wfile.write(f"{len(c):x}\r\n".encode() + c + b"\r\n")
                self.wfile.write(b"0\r\n\r\n")
                return
            self._json({"error": "no such route"}, 404)

        def do_POST(self) -> None:
            # malformed JSON body, bad number
            self._guard(self._post, ValueError, "bad request")

        def _post(self) -> None:
            if urlparse(self.path).path == "/reload":
                # pick up lifecycle mutations (tombstones, compaction,
                # metadata rewrites): swap in a fresh snapshot searcher
                # of the SAME deployment kind (readers are
                # immutable-after-load, so in-flight requests finish on
                # the old snapshot; its actor pool, if any, is reaped by
                # Ray's handle refcount once those threads drop it)
                if searcher_factory is None:
                    return self._json(
                        {"error": "server was built with an injected "
                                  "searcher and no searcher_factory; "
                                  "pass searcher_factory to make_server "
                                  "to enable /reload"}, 409)
                fresh = searcher_factory()
                if hasattr(fresh, "wait_ready"):
                    fresh.wait_ready()
                # add_lock: an in-flight NRT /add must not swap a delta
                # built over the PRE-reload base back in after this
                # snapshot lands (its buffered docs would shadow the
                # reloaded artifact)
                with state["add_lock"]:
                    state["s"] = fresh
                    state["ex"] = DSLExecutor(state["s"])
                state["meta_dirs"] = _group_dirs()  # new segments' docs/
                # LM counts may have shifted with the corpus; the gen
                # bump also invalidates a training pass in flight.
                # MUST hold lm_lock: an unlocked pop/bump could lose
                # the race against a suggester init caching between
                # its gen check and its store
                with state["lm_lock"]:
                    state.pop("phrase_suggester", None)
                    state["lm_gen"] += 1
                return self._json({"reloaded": True,
                                   "n_docs": state["s"].n_docs})
            if urlparse(self.path).path == "/percolate":
                # reverse search: which stored rules match THIS doc?
                from refimage_ray.stages.percolate import Percolator

                body = self._body()
                text = body.get("text", "")
                if not text.strip():
                    return self._json({"error": "empty text"}, 422)
                if not state["perc_rules"]:
                    return self._json({"error": "no rules registered "
                                                "(PUT /percolate/rules/{id})"},
                                      409)
                if state["perc"] is None:
                    state["perc"] = Percolator(dict(state["perc_rules"]))
                import pyarrow as pa

                cols = {"doc_id": pa.array([0], pa.int64()),
                        "text": pa.array([str(text)], pa.string())}
                if body.get("lang") is not None:
                    cols["lang"] = pa.array([str(body["lang"])], pa.string())
                hits = state["perc"](pa.table(cols))
                return self._json(
                    {"matches": sorted(hits["query_id"].to_pylist())})
            if urlparse(self.path).path == "/docs":
                # NRT add (Lucene soft-commit analog): documents become
                # searchable immediately via query/nrt.DeltaSearcher;
                # persist later with the lifecycle add + /reload
                import pyarrow as pa

                from refimage_ray.query.engine import LocalSearcher
                from refimage_ray.query.nrt import (
                    DeltaSearcher,
                    DocPartDeltaSearcher,
                )

                rows = self._body().get("docs")
                if not rows or not isinstance(rows, list):
                    return self._json(
                        {"error": "body wants {'docs': [{doc_id, text}]}"},
                        422)
                try:
                    t = pa.table({
                        "doc_id": pa.array(
                            [int(r["doc_id"]) for r in rows], pa.int64()),
                        "text": pa.array(
                            [str(r["text"]) for r in rows], pa.string()),
                    })
                except (KeyError, TypeError) as err:
                    return self._json(
                        {"error": f"bad docs payload: {err}"}, 422)
                # construct+add+swap under one lock: two concurrent first
                # adds on separate request workers could each build a fresh
                # delta from the same base and the loser's docs would vanish
                with state["add_lock"]:
                    srch = state["s"]
                    fresh = None
                    if not isinstance(
                        srch, (DeltaSearcher, DocPartDeltaSearcher)
                    ):
                        if isinstance(srch, LocalSearcher):
                            fresh = DeltaSearcher(index_dir, base=srch)
                        else:
                            from refimage_ray.index.docpart import (
                                DocPartSearcher,
                            )

                            # a distributed searcher is a sibling class,
                            # never a DocPartSearcher
                            if not isinstance(srch, DocPartSearcher):
                                return self._json(
                                    {"error": "NRT add needs an in-process "
                                              "deployment (distributed "
                                              "serving adds go through the "
                                              "lifecycle + /reload)"}, 409)
                            # NRT on the serving-default layout: buffered
                            # docs route to their hash shard, shard views
                            # reweight under merged stats (query/nrt.py)
                            fresh = DocPartDeltaSearcher(
                                index_dir, base=srch)
                        srch = fresh
                    try:
                        n = srch.add(t)
                    except ValueError as err:
                        return self._json({"error": str(err)}, 422)
                    if fresh is not None:
                        # swap ONLY after a successful first add — a
                        # failed validation must not degrade the
                        # deployment
                        state["s"] = fresh
                        state["ex"] = DSLExecutor(fresh)
                    return self._json(
                        {"added": n, "buffered": srch.buffered,
                         "n_docs": srch.n_docs})
            if urlparse(self.path).path == "/nl2dsl":
                from refimage_ray.query.nl import ProviderError, text_to_dsl

                body = self._body()
                text = body.get("text", "")
                if not text.strip():
                    return self._json({"error": "empty text"}, 422)
                try:
                    dsl = text_to_dsl(text, manager=state["nl"],
                                      provider=body.get("provider"))
                except ProviderError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"dsl": dsl})
            if urlparse(self.path).path == "/nl/switch":
                from refimage_ray.query.nl import ProviderError

                name = self._body().get("provider", "")
                try:
                    state["nl"].switch_provider(name)
                except ProviderError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"current_provider": name})
            self._json({"error": "no such route"}, 404)

        def do_PUT(self) -> None:
            # malformed JSON body
            self._guard(self._put, ValueError, "bad request")

        def _put(self) -> None:
            pm = re.match(r"^/percolate/rules/([\w.-]+)$",
                          urlparse(self.path).path)
            if pm:
                from refimage_ray.query.dsl import DSLParser, DSLParseError

                dsl = self._body().get("dsl", "")
                try:
                    DSLParser().parse(dsl)  # validate before storing
                except DSLParseError as err:
                    return self._json({"error": str(err)}, 422)
                state["perc_rules"][pm.group(1)] = dsl
                state["perc"] = None  # recompile lazily
                return self._json({"rules": len(state["perc_rules"])})
            m = _DOC_RE.match(urlparse(self.path).path)
            if m and m.group(2) == "/metadata":
                from refimage_ray.index.lifecycle import update_doc_metadata

                try:
                    n = update_doc_metadata(
                        index_dir, {int(m.group(1)): self._body()}
                    )
                except KeyError:
                    return self._json({"error": "not found"}, 404)
                except FileNotFoundError:
                    return self._json(
                        {"error": "this artifact's layout keeps no docs "
                                  "metadata store (doc-partitioned: use "
                                  "update_doc_values_docpart)"}, 422)
                except ValueError as err:
                    return self._json({"error": str(err)}, 422)
                return self._json({"updated": n})
            self._json({"error": "no such route"}, 404)

        def do_DELETE(self) -> None:
            self._guard(self._delete, (), "")

        def _delete(self) -> None:
            pm = re.match(r"^/percolate/rules/([\w.-]+)$",
                          urlparse(self.path).path)
            if pm:
                gone = state["perc_rules"].pop(pm.group(1), None)
                state["perc"] = None
                return self._json({"deleted": gone is not None},
                                  200 if gone is not None else 404)
            m = _DOC_RE.match(urlparse(self.path).path)
            if m and m.group(2) is None:
                from refimage_ray.index.lifecycle import delete_docs

                n = delete_docs(index_dir, [int(m.group(1))])
                # searcher keeps serving its loaded snapshot; a serving
                # layer reloads on tombstone change (documented contract)
                return self._json({"tombstones": int(n)})
            self._json({"error": "no such route"}, 404)

    return WarmHTTPServer(("127.0.0.1", port), Handler)
