"""HTTP serving shim — the reference's API surface over the engine.

The reference is a FastAPI service (14 endpoints, ``api.py:160-1005``);
this engine's value is the Ray-Data pipelines behind it, so the shim is
deliberately thin: a stdlib ``HTTPServer`` (no web framework dependency)
whose handlers call exactly the library entry points a user would;
:class:`WarmHTTPServer` serves each connection on a reused worker
thread.

Request path: the handler reads the request line and the header lines
in one pass into the stdlib's ``HTTPMessage`` (``Handler.parse_request``;
the stdlib's own parse goes through ``email.feedparser``, ~80 µs a
request), with the stdlib's refusals (400, 431, 505) and 400 for what
the stdlib would misread (an HTTP/0.9 request, a header line without a
colon, an obs-fold line).  A JSON answer leaves in one write: status
line, ``Server``, ``Date`` (formatted once a second), ``Content-Type``,
``Content-Length`` and body, the bytes the stdlib's ``send_response`` /
``send_header`` / ``end_headers`` would send in two.  ``send_error``
and the chunked ``/docs/{id}/file`` keep the stdlib path.  Replies are
HTTP/1.0: every connection closes after its reply.

Dispatch and validation: one table maps ``(verb, path)`` to a handler;
the ``/docs/{id}…`` routes (``_DOC_RE``) and ``/percolate/rules/{id}``
resolve through one pattern each, and any other request answers 404
``no such route``.  A handler reads every query parameter through one
reader (:class:`_Params`: int, float, required text, filter, order),
each with a default and a declared lower bound, and nothing else
converts a parameter.  One guard maps what a handler raises to a
status: a ``ValueError`` answers 422 with its text (the reader's ``bad
parameter: …``, the body reader's ``bad request: …``, or the engine's
own check verbatim); a ``KeyError`` answers 422 ``bad parameter: …``;
a route may map a missing document (``KeyError``) to 404 ``not found``
and a layout without the ``docs/`` store (``FileNotFoundError``) to its
own text.  Any other error answers 500 with a JSON ``{"error"}`` naming
the exception type, and is reported through ``handle_error``.

Route map (reference analog → here):

- ``GET /health``                      (``api.py`` health)          → index stats probe
- ``GET /stats``                       (storage stats rollup)       → manifest stats
- ``GET /search?q=&k=&mode=``          (or/and/phrase/phrase_prefix/near/prefix/fuzzy/wildcard/regex)  → ``searcher.search`` / ``search_phrase`` / ``search_phrase_prefix`` / ``search_near`` / ``search_expanded(mode, q)`` for the four expansion kinds (``_MODES``) + metadata join (``ResidentDocs.fragments``: searchsorted on the resident doc_id-sorted docs table, each row's JSON rendered on its first hit and kept with that snapshot, which is re-validated per request by a ``docs/`` stat signature — metadata PUTs, adds and compaction show without /reload)
  (``&slop=N`` with mode=phrase: ordered proximity, ≤N interleaved tokens per step;
  mode=phrase_prefix: last token treated as a prefix (search-as-you-type);
  ``&window=W`` with mode=near: unordered proximity, all terms within a W-token span;
  ``&snippets=1&width=N``: term-highlighted snippets instead of metadata;
  ``&filter=lang=en,doc_len>=100``: doc-value predicate — see ``parse_filter``;
  ``&order=warc_ts:desc``: field ordering; ``&offset=N``: pagination;
  ``&decay=n_chars:exp:0:2000:0.5``: decay boost — ``query/boost.py``)
- ``GET /facets?q=&by=lang&hist=doc_len:50&date_hist=warc_ts:month&sum=lang:doc_len&filter=&mode=&top=`` (search-UI facet panel) → ``searcher.facets`` (counts / histograms / metric sums over the FULL match set; ``dsl=`` instead of ``q=`` facets a DSL query's membership)
- ``GET /grouped?q=&by=lang&k=3&filter=&groups=`` (result diversification) → ``searcher.search_grouped`` (best k hits per facet value)
- ``GET /composite?q=&by=&size=&after=`` (ES composite aggregation) → ``searcher.composite`` (bounded bucket pages over categorical doc values)
- ``GET /count?q=&mode=&filter=&min_match=`` (ES ``_count`` analog; the reference reports result counts on list endpoints, ``api.py:397-409``) → ``searcher.count`` (exact match-set size, no scoring)
- ``GET /significant?q=&sample=&min_count=&top=`` (ES significant_terms) → ``engine.significant_terms`` (relative-risk vs corpus background over the top-sample)
- ``GET /terms?prefix=&max=``          (ES ``_terms_enum``)           → vocabulary browse (term asc + df, resident dictionary or the doc-partitioned global ``terms/`` table; an empty prefix lists the vocabulary)
- ``GET /suggest?q=&k=&mode=``         ("did you mean")              → ``searcher.suggest`` (Levenshtein-≤1 vocabulary neighbors, df-ranked); ``mode=phrase``: bigram-LM ``PhraseSuggester``
- ``GET /docs/{id}/explain?q=&mode=``  (Lucene explain analog)       → ``engine.explain_score`` (per-term contributions, bit-exact sum)
- ``GET /docs/{id}/similar?k=&self=``  (more-like-this)              → ``engine.more_like_this`` + metadata join
- ``GET /dsl?q=&limit=&threshold=``    (DSL search endpoint)        → ``DSLExecutor.execute_query``
- ``POST /nl2dsl`` {"text": ...}       (LLM text→DSL, ``api.py:273-348``) → ``query.nl.text_to_dsl``
- ``GET /dsl-syntax``                  (DSL grammar reference, ``api.py:231-267``) → operators + examples
- ``GET /explain?q=``                  (text→vector / dsl→vector, ``api.py:160-229``) → ``extension.explain`` plan
- ``GET /nl/providers``                (``GET /llm/providers``, ``api.py:350-395``) → ``ProviderManager`` registry
- ``POST /nl/switch`` {"provider": ...} (``POST /llm/switch``, ``api.py:398-435``) → runtime provider switch
- ``GET /docs?limit=&offset=&sort=&dir=`` (paginated listing, ``GET /metadata`` ``api.py:665-704``) → pages of the same resident docs table ``lookup_docs`` joins from (sorted indices memoized per docs/ signature) + total_count
- ``GET /docs/{id}``                   (metadata GET)                → ``lookup_docs`` (404 when missing; a doc_id stored twice answers its last row, as the hit rows do)
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

import functools
import json
import os
import queue
import re
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

from refimage_ray.index.manifest import load_manifest
from refimage_ray.query.expand import EXPANSION_KINDS

_DOC_RE = re.compile(
    r"^/docs/(\d+)(/file|/metadata|/similar|/explain|/termvectors)?$"
)
_RULE_RE = re.compile(r"^/percolate/rules/([\w.-]+)$")

# the request head: a version the stdlib accepts, a header name as
# ``email.feedparser`` reads one (printable ASCII but the colon), and
# the stdlib's limits (``http.client._MAXLINE``, ``_MAXHEADERS``, which
# counts the blank line that ends the head)
_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_FIELD_RE = re.compile(r"[\x21-\x39\x3b-\x7e]+:")
_MAX_LINE, _MAX_HEADERS = 65536, 100

_COND_RE = re.compile(
    r"^\s*(\w+)\s*(!=|<=|>=|=|<|>)\s*(.+?)\s*$"
)

#: GET /docs keeps the (narrow) docs metadata resident for paging; at
#: corpus scale that is unbounded serving-process memory, so past this
#: many rows the endpoint refuses (422) and defers to the offline
#: ``list_docs_page`` pipeline.
_DOCS_LIST_CAP = 1_000_000

# a route's own answers to an exception type: (status, text), where
# None answers the exception's own text
_NOT_FOUND = {KeyError: (404, "not found")}
_NO_TEXT = {FileNotFoundError: (
    422, "this artifact's layout keeps no docs text store")}


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


def _number(name: str, raw: str, typ=int, lo=None):
    """``raw`` read as ``typ``, refused when malformed or below ``lo``."""
    try:
        v = typ(raw)
    except ValueError as err:
        raise ValueError(f"bad parameter: {err}") from None
    if lo is not None and v < lo:
        raise ValueError(f"bad parameter: {name} must be >= {lo}, got {raw}")
    return v


class _Params:
    """The one reader of a request's query parameters (the first value
    of each name; a blank value counts as absent).  Every conversion of
    a parameter happens here, against the caller's default and declared
    lower bound, and a value it refuses raises ``ValueError("bad
    parameter: …")``.  A bound the engine checks itself (offset, slop,
    window, min_match, composite size, histogram width) is left to the
    engine, whose message then reaches the client verbatim."""

    def __init__(self, query: str) -> None:
        self.q = {k: v[0] for k, v in parse_qs(query).items()}

    def text(self, name: str, default: str = "") -> str:
        return self.q.get(name, default)

    def need(self, name: str, refusal: str = "empty query") -> str:
        """A required text parameter; a blank one answers ``refusal``."""
        v = self.q.get(name, "")
        if not v.strip():
            raise ValueError(refusal)
        return v

    def int(self, name: str, default=None, lo=None):
        raw = self.q.get(name)
        return default if raw is None else _number(name, raw, int, lo)

    def float(self, name: str, default=None, lo=None):
        raw = self.q.get(name)
        return default if raw is None else _number(name, raw, float, lo)

    def filter(self):
        """``filter=`` as the engine's ``where`` (:func:`parse_filter`)."""
        try:
            return parse_filter(self.text("filter"))
        except ValueError as err:
            raise ValueError(f"bad parameter: {err}") from None

    def order(self):
        """``order=col:asc|desc[,col2:dir2…]`` (default desc): one
        ``(col, dir)`` key, a list of them, or None."""
        if not self.text("order"):
            return None
        keys = [(col, d or "desc") for col, _, d in
                (part.partition(":") for part in self.q["order"].split(","))]
        return keys[0] if len(keys) == 1 else keys

    def pairs(self, name: str, shape: str, typ=None) -> dict:
        """``name=a:b,c:d`` as ``{a: b, c: d}``, each ``b`` read as
        ``typ`` when given; a part without its ``:b`` is refused."""
        out = {}
        for part in [x for x in self.text(name).split(",") if x]:
            col, _, v = part.partition(":")
            if not v:
                raise ValueError(f"{name} needs {shape}, got {part!r}")
            out[col.strip()] = _number(name, v, typ) if typ else v.strip()
        return out

    def after_hit(self):
        """``after=<doc_id>:<score>``, the search_after cursor."""
        if not self.text("after"):
            return None
        d, _, s = self.q["after"].partition(":")
        return _number("after", d), _number("after", s, float)

    def decay(self):
        """``decay=col:kind:origin:scale[:decay]`` (function_score
        sugar, ``query/boost.py``)."""
        if not self.text("decay"):
            return None
        from refimage_ray.query.boost import DecaySpec

        parts = self.q["decay"].split(":")
        if len(parts) not in (4, 5):
            raise ValueError("decay= wants col:kind:origin:scale[:dec]")
        nums = [_number("decay", x, float) for x in parts[2:]] + [0.5]
        return DecaySpec(parts[0], nums[0], nums[1], nums[2], parts[1])

    def after_keys(self, n_by: int):
        """The composite cursor: a JSON array of ``n_by`` key values,
        or the values joined by ``|``.  The JSON form is the safe
        encoding for values containing ``|``; a value that merely looks
        bracketed (``[unknown]``) falls back to the pipe form, but a
        ``[`` with no closing ``]`` is almost certainly a truncated JSON
        cursor, and paginating from it would return a wrong page."""
        raw = self.text("after")
        if not raw:
            return None
        after = None
        try:
            parsed = json.loads(raw)
            if isinstance(parsed, list):
                after = tuple(str(v) for v in parsed)
        except json.JSONDecodeError:
            if raw.strip().startswith("[") and not raw.strip().endswith("]"):
                raise ValueError(
                    "after= looks like a truncated JSON cursor") from None
        if after is None:
            after = tuple(raw.split("|"))
        if len(after) != n_by:
            raise ValueError(
                f"after= has {len(after)} values for {n_by} by-columns "
                "(keys containing '|' need the JSON-array form)")
        return after


def _text_field(body: dict, name: str) -> str:
    """The string field ``name`` of a request body (``""`` when absent);
    any other JSON type is refused as ``bad request: …``."""
    v = body.get(name, "")
    if not isinstance(v, str):
        raise ValueError(f"bad request: {name} must be a string, "
                         f"got {type(v).__name__}")
    return v


def _refusal(err: Exception, errors: dict):
    """``(status, text)`` a client error answers, None for a server
    error: the route's own ``errors`` first, then ``ValueError`` → 422
    with its text and ``KeyError`` → 422 ``bad parameter``."""
    for typ, (code, text) in errors.items():
        if isinstance(err, typ):
            return code, text or str(err)
    if isinstance(err, ValueError):
        return 422, str(err)
    if isinstance(err, KeyError):
        return 422, f"bad parameter: {err}"
    return None


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header, formatted once a second."""
    return formatdate(second, usegmt=True)


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
    from refimage_ray.query.dsl import DSLExecutor
    from refimage_ray.query.engine import (
        LocalSearcher, lookup_docs, meta_fragment, resident_docs,
        stream_doc_bytes,
    )
    from refimage_ray.query.nl import ProviderError, ProviderManager

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

    def _deleted(doc_id: int) -> bool:
        """Whether ``doc_id`` is tombstoned (``DELETE /docs/{id}``) in
        the artifact or in a group's parts: ``docs/`` keeps a deleted
        doc's row.  Read by ``GET /docs/{id}`` only; the hit rows
        follow the searcher, whose snapshot drops tombstoned docs on
        /reload."""
        import pyarrow.parquet as pq

        for d in dict.fromkeys([index_dir, *_meta_dirs()]):
            p = os.path.join(d, "tombstones.parquet")
            if os.path.exists(p) and (
                    pq.read_table(p)["doc_id"].to_numpy() == doc_id).any():
                return True
        return False

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

    def _phrase_suggester():
        """The bigram-LM phrase suggester over the artifact's live docs
        (``staged_docs`` excludes losers/tombstones), trained lazily
        once (or loaded from a persisted ``lm/``) and kept until
        /reload.  Training runs OUTSIDE ``lm_lock`` so /reload (which
        needs the lock to bump ``lm_gen``) and concurrent requests stay
        responsive during the corpus pass; the generation re-check
        under the lock discards a model whose corpus was reloaded
        mid-train.  Concurrent first users may train redundantly;
        same-generation models are identical, so the last store wins."""
        from refimage_ray.config import engine_config_from_manifest
        from refimage_ray.index.reader import staged_docs
        from refimage_ray.query.suggest import PhraseSuggester
        from refimage_ray.stages.lm import load_bigram_lm, train_bigram_lm

        while True:
            with state["lm_lock"]:
                if state.get("phrase_suggester") is not None:
                    return state["phrase_suggester"]
                gen = state["lm_gen"]
            lm_cfg = engine_config_from_manifest(
                (load_manifest(index_dir) or {}).get("config", {}))
            lm_dir = os.path.join(index_dir, "lm")
            if os.path.exists(os.path.join(lm_dir, "lm.json")):
                # persisted artifact (train-lm CLI): no corpus pass
                lm = load_bigram_lm(lm_dir)
            else:
                lm = train_bigram_lm(staged_docs(
                    index_dir, columns=["doc_id", "text"]), lm_cfg)
            with state["lm_lock"]:
                if state["lm_gen"] == gen:
                    ps = state["phrase_suggester"] = PhraseSuggester(
                        lm, cfg=lm_cfg)
                    return ps

    # (verb, path) → (handler, the route's own exception answers).  A
    # handler takes the request (its parameter reader ``req.p``, its path
    # argument ``req.arg``) and returns the 200 JSON body, a (body,
    # status) pair, or None when it has answered itself
    routes: dict = {}
    _NO_ROUTE = (lambda req: ({"error": "no such route"}, 404), {})

    def route(verb: str, path: str, errors: dict | None = None):
        def add(fn):
            routes[(verb, path)] = (fn, errors or {})
            return fn
        return add

    def _resolve(verb: str, path: str):
        """The route of a request, and its path argument (a doc_id or
        a rule id)."""
        key, arg = path, None
        if m := _DOC_RE.match(path):
            key, arg = "/docs/{id}" + (m.group(2) or ""), int(m.group(1))
        elif m := _RULE_RE.match(path):
            key, arg = "/percolate/rules/{id}", m.group(1)
        return routes.get((verb, key), _NO_ROUTE), arg

    @route("GET", "/health")
    def _health(req):
        return {"status": "ok", "n_docs": state["s"].n_docs}

    @route("GET", "/stats")
    def _stats(req):
        man = load_manifest(index_dir) or {}
        st = man.get("stats", {})
        return {
            "n_docs": st.get("n_docs"),
            "avgdl": st.get("avgdl"),
            "partitions": len(man.get("partitions", [])),
            "num_shards": man.get("config", {}).get("num_shards"),
        }

    @route("GET", "/docs", {FileNotFoundError: (
        422, "this artifact's layout keeps no docs metadata store")})
    def _list_docs(req):
        # paginated metadata listing (reference GET /metadata,
        # api.py:665-704: limit/offset/sort_by/sort_order +
        # total_count).  Pages of the resident narrow docs table
        # (never the text column), whitelisted sort keys + doc_id
        # tiebreak — ops-sized pages; deep pagination at corpus scale
        # should use search_after instead.
        import pyarrow.compute as _pc

        _SORT_COLS = ("doc_id", "doc_len", "n_chars", "warc_ts", "lang", "url")
        _LIST_COLS = ("doc_id", "url", "lang", "doc_len", "n_chars", "warc_ts")
        p = req.p
        sort_by, order_dir = p.text("sort", "doc_id"), p.text("dir", "asc")
        if sort_by not in _SORT_COLS:
            raise ValueError(f"sort must be one of {_SORT_COLS}")
        if order_dir not in ("asc", "desc"):
            raise ValueError("dir must be asc or desc")
        limit = min(p.int("limit", 50, lo=0), 1000)
        off = p.int("offset", 0, lo=0)
        # the resident docs entry (shared with lookup_docs) is immutable
        # per docs/ signature, so its table and the sorted indices
        # memoized on it always pair up; a metadata rewrite or
        # compaction installs a new entry
        ent = resident_docs(index_dir)
        t = ent.table
        # BOUNDED: past the cap the endpoint refuses and points at the
        # offline pipeline instead of paging corpus-sized resident
        # tables per process
        if t.num_rows > _DOCS_LIST_CAP:
            return {"error": f"docs listing is capped at {_DOCS_LIST_CAP} "
                             f"resident rows (artifact has {t.num_rows}); "
                             "use the offline list_docs_page pipeline for "
                             "corpus-scale listings",
                    "code": "docs_listing_too_large"}, 422
        if sort_by not in t.column_names:
            raise ValueError(f"sort column {sort_by!r} not in this artifact")
        # one sorted index per (column, dir) — computed once per entry,
        # O(log n) pages afterwards; bounded by the whitelisted sort
        # columns × 2 directions
        sel = ent.sorts.get((sort_by, order_dir))
        if sel is None:
            keys = [(sort_by,
                     "descending" if order_dir == "desc" else "ascending")]
            if sort_by != "doc_id":
                keys.append(("doc_id", "ascending"))
            sel = _pc.sort_indices(t, sort_keys=keys)
            ent.sorts[(sort_by, order_dir)] = sel
        page = t.select(
            [c for c in _LIST_COLS if c in t.column_names]
        ).take(sel[off:off + limit])
        return {
            "docs": [{k: str(v) for k, v in row.items()}
                     for row in page.to_pylist()],
            "total_count": t.num_rows,
            "limit": limit, "offset": off,
            "sort_by": sort_by, "sort_order": order_dir,
        }

    @route("GET", "/dsl-syntax")
    def _dsl_syntax(req):
        # grammar reference (api.py:231-267 shape: operators + worked
        # examples; ours documents both the infix and the
        # function-style grammars the parser accepts)
        return {
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

    @route("GET", "/nl/providers")
    def _nl_providers(req):
        mgr = state["nl"]
        return {
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

    @route("GET", "/explain")
    def _explain(req):
        # conversion-endpoint analog (text→vector / dsl→vector,
        # api.py:160-229): query → parse tree + term routing, the
        # engine's query representation, without executing
        from refimage_ray.extension import explain

        man = load_manifest(index_dir) or {}
        return explain(req.p.text("q"),
                       num_shards=man.get("config", {}).get("num_shards", 32),
                       analyzer=req.p.text("analyzer", "default"))

    def _slop(p):
        return {"slop": p.int("slop", 0)}

    def _scored(p):
        return {"mode": p.text("mode", "or"), "min_match": p.int("min_match"),
                "after": p.after_hit(), "boost": p.decay()}

    # /search mode → (searcher method, takes filter/order, the mode's
    # own keyword arguments)
    _MODES = {
        "or": ("search", True, _scored),
        "and": ("search", True, _scored),
        "phrase": ("search_phrase", False, _slop),
        # search-as-you-type: the last token is a prefix
        "phrase_prefix": ("search_phrase_prefix", False, _slop),
        # unordered proximity: all terms within a `window`-token span
        "near": ("search_near", False,
                 lambda p: {"window": p.int("window", 5)}),
        # vocabulary expansion: the mode names the kind
        **dict.fromkeys(EXPANSION_KINDS, ("search_expanded", True, None)),
    }

    @route("GET", "/search", {FileNotFoundError: (
        422, "snippets need the docs/ text store (not kept by this "
             "artifact's layout)")})
    def _search(req):
        p, s = req.p, state["s"]
        q, k, offset = p.need("q"), p.int("k", 10, lo=0), p.int("offset", 0)
        mode = p.text("mode", "or")
        if mode not in _MODES:
            raise ValueError(f"bad mode {mode!r}")
        meth, filtered, own = _MODES[mode]
        where, order = p.filter(), p.order()
        if (where or order) and not filtered:
            raise ValueError(f"filter/order not supported with mode={mode}")
        if meth == "search" and p.text("rescore_window"):
            # two-phase rescore (ES rescore): proximity re-rank of the
            # BM25 top-window
            if where or order or offset:
                raise ValueError("filter/order/offset not supported with "
                                 "rescore_window")
            hits = s.search_rescore(
                q, k=k, mode=mode, window=p.int("rescore_window"),
                rescore_weight=p.float("rescore_weight", 1.0))
        else:
            op = getattr(s, meth)
            if meth == "search_expanded":
                op = functools.partial(op, mode)
            kw = {"where": where, "order_by": order} if filtered else {}
            hits = op(q, k=k, offset=offset, **kw, **(own(p) if own else {}))
        if p.text("snippets") == "1":
            from refimage_ray.query.snippets import snippets_for_hits

            return {"results": snippets_for_hits(
                index_dir, hits, q, width=p.int("width", 160, lo=0))}
        return req._hits(hits)

    @route("GET", "/count")
    def _count(req):
        p = req.p
        return {"count": state["s"].count(
            p.need("q"), mode=p.text("mode", "or"), where=p.filter(),
            min_match=p.int("min_match"))}

    @route("GET", "/significant")
    def _significant(req):
        from refimage_ray.query.engine import significant_terms

        p = req.p
        return {"terms": significant_terms(
            state["s"], p.need("q"), sample_n=p.int("sample", 200, lo=0),
            min_doc_count=p.int("min_count", 3), top=p.int("top", 20, lo=0),
            mode=p.text("mode", "or"))}

    @route("GET", "/terms")
    def _terms(req):
        # ES _terms_enum analog: browse the vocabulary by prefix (term
        # asc, df attached, resident dictionary); the probe lowercases
        # like every other expansion surface (the vocabulary is
        # lowercase by construction)
        cap = req.p.int("max", 50, lo=0)
        pairs = state["s"]._expand_pairs("prefix",
                                         req.p.text("prefix").lower())
        pairs.sort()
        return {"terms": [{"term": t, "df": int(df)} for t, df in pairs[:cap]]}

    @route("GET", "/suggest")
    def _suggest(req):
        q = req.p.need("q")
        if req.p.text("mode", "term") == "phrase":
            # phrase-level did-you-mean: bigram-LM argmax over the
            # per-term lev-<=1 candidate space
            phrase, score = _phrase_suggester().suggest(q)
            return {"suggestion": phrase, "score": score}
        return {"suggestions": state["s"].suggest(
            q, max_suggestions=req.p.int("k", 5, lo=0))}

    @route("GET", "/grouped")
    def _grouped(req):
        p = req.p
        q, by = p.need("q", "need q and by"), p.need("by", "need q and by")
        rows = state["s"].search_grouped(
            q, by=by.strip(), k_per_group=p.int("k", 3, lo=0),
            mode=p.text("mode", "or"), where=p.filter(),
            groups=p.text("groups").split(",") if p.text("groups") else None)
        return {"results": [{"group": g, "doc_id": d, "score": s}
                            for g, d, s in rows]}

    @route("GET", "/composite", {KeyError: (422, None)})
    def _composite(req):
        # ES composite aggregation: bounded bucket pages over
        # categorical doc values; after=v1|v2 continues a page
        p = req.p
        q = p.need("q", "q= and by= required")
        by = p.need("by", "q= and by= required")
        after = p.after_keys(len([c for c in by.split(",") if c.strip()]))
        out = state["s"].composite(
            q, by=[c.strip() for c in by.split(",")],
            size=p.int("size", 10), after=after,
            mode=p.text("mode", "or"), where=p.filter())
        return {
            "buckets": [{"key": list(b["key"]), "doc_count": b["doc_count"]}
                        for b in out["buckets"]],
            "after_key": list(out["after_key"]) if out["after_key"] else None,
        }

    @route("GET", "/facets")
    def _facets(req):
        p = req.p
        dsl = p.text("dsl")
        q = p.need("q") if not dsl.strip() else None
        aggs = {"histograms": p.pairs("hist", "col:width", float),
                "date_histograms": p.pairs("date_hist", "col:interval"),
                "sums": p.pairs("sum", "facetcol:valuecol")}
        by = [c.strip() for c in p.text("by").split(",") if c.strip()]
        if q is None:  # facet panel over a DSL query's members
            return state["ex"].facets(dsl, by=by, where=p.filter(),
                                      top=p.int("top", lo=0), **aggs)
        return state["s"].facets(q, by=by, mode=p.text("mode", "or"),
                                 where=p.filter(), top=p.int("top", lo=0),
                                 **aggs)

    @route("GET", "/dsl")
    def _dsl(req):
        return req._hits(state["ex"].execute_query(
            req.p.text("q"), limit=req.p.int("limit", 10, lo=0),
            threshold=req.p.float("threshold", 0.0)))

    @route("GET", "/docs/{id}", {**_NOT_FOUND, FileNotFoundError: (
        404, "not found")})
    def _doc(req):
        rows = [] if _deleted(req.arg) else _lookup([req.arg]).to_pylist()
        if not rows:
            raise KeyError(req.arg)
        # a doc_id stored twice answers its last row, as the hit rows do
        return {k: str(v) for k, v in rows[-1].items()}

    @route("GET", "/docs/{id}/explain")
    def _doc_explain(req):
        from refimage_ray.query.engine import explain_score

        return explain_score(state["s"], req.p.need("q"), req.arg,
                             mode=req.p.text("mode", "or"))

    @route("GET", "/docs/{id}/termvectors", {**_NOT_FOUND, **_NO_TEXT})
    def _doc_termvectors(req):
        from refimage_ray.query.engine import doc_term_vector

        return {"terms": doc_term_vector(index_dir, req.arg)}

    @route("GET", "/docs/{id}/similar", {**_NOT_FOUND,
                                         FileNotFoundError: (422, None)})
    def _doc_similar(req):
        from refimage_ray.query.engine import more_like_this

        return req._hits(more_like_this(
            state["s"], req.arg, k=req.p.int("k", 10, lo=0),
            exclude_self=req.p.text("self", "1") == "0"))

    @route("GET", "/docs/{id}/file", {**_NOT_FOUND, **_NO_TEXT})
    def _doc_file(req):
        chunks = list(stream_doc_bytes(index_dir, req.arg))
        req.send_response(200)
        req.send_header("Content-Type", "text/plain; charset=utf-8")
        req.send_header("Transfer-Encoding", "chunked")
        req.end_headers()
        for c in chunks:
            req.wfile.write(f"{len(c):x}\r\n".encode() + c + b"\r\n")
        req.wfile.write(b"0\r\n\r\n")

    @route("POST", "/reload")
    def _reload(req):
        # pick up lifecycle mutations (tombstones, compaction, metadata
        # rewrites): swap in a fresh snapshot searcher of the SAME
        # deployment kind (readers are immutable-after-load, so
        # in-flight requests finish on the old snapshot; its actor
        # pool, if any, is reaped by Ray's handle refcount once those
        # threads drop it)
        if searcher_factory is None:
            return {"error": "server was built with an injected searcher "
                             "and no searcher_factory; pass "
                             "searcher_factory to make_server to enable "
                             "/reload"}, 409
        fresh = searcher_factory()
        if hasattr(fresh, "wait_ready"):
            fresh.wait_ready()
        # add_lock: an in-flight NRT /add must not swap a delta built
        # over the PRE-reload base back in after this snapshot lands
        # (its buffered docs would shadow the reloaded artifact)
        with state["add_lock"]:
            state["s"] = fresh
            state["ex"] = DSLExecutor(state["s"])
        state["meta_dirs"] = _group_dirs()  # new segments' docs/
        # LM counts may have shifted with the corpus; the gen bump also
        # invalidates a training pass in flight.  MUST hold lm_lock: an
        # unlocked pop/bump could lose the race against a suggester
        # init caching between its gen check and its store
        with state["lm_lock"]:
            state.pop("phrase_suggester", None)
            state["lm_gen"] += 1
        return {"reloaded": True, "n_docs": state["s"].n_docs}

    @route("POST", "/percolate")
    def _percolate(req):
        # reverse search: which stored rules match THIS doc?
        import pyarrow as pa

        from refimage_ray.stages.percolate import Percolator

        body = req._body()
        text = _text_field(body, "text")
        if not text.strip():
            raise ValueError("empty text")
        if not state["perc_rules"]:
            return {"error": "no rules registered "
                             "(PUT /percolate/rules/{id})"}, 409
        if state["perc"] is None:
            state["perc"] = Percolator(dict(state["perc_rules"]))
        cols = {"doc_id": pa.array([0], pa.int64()),
                "text": pa.array([text], pa.string())}
        if body.get("lang") is not None:
            cols["lang"] = pa.array([str(body["lang"])], pa.string())
        hits = state["perc"](pa.table(cols))
        return {"matches": sorted(hits["query_id"].to_pylist())}

    @route("POST", "/docs")
    def _add_docs(req):
        # NRT add (Lucene soft-commit analog): documents become
        # searchable immediately via query/nrt.DeltaSearcher; persist
        # later with the lifecycle add + /reload
        import pyarrow as pa

        from refimage_ray.query.nrt import DeltaSearcher, DocPartDeltaSearcher

        rows = req._body().get("docs")
        if not rows or not isinstance(rows, list):
            raise ValueError("body wants {'docs': [{doc_id, text}]}")
        try:
            t = pa.table({
                "doc_id": pa.array([int(r["doc_id"]) for r in rows],
                                   pa.int64()),
                "text": pa.array([str(r["text"]) for r in rows], pa.string()),
            })
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"bad docs payload: {err}") from None
        # construct+add+swap under one lock: two concurrent first adds
        # on separate request workers could each build a fresh delta
        # from the same base and the loser's docs would vanish
        with state["add_lock"]:
            srch = state["s"]
            fresh = None
            if not isinstance(srch, (DeltaSearcher, DocPartDeltaSearcher)):
                if isinstance(srch, LocalSearcher):
                    fresh = DeltaSearcher(index_dir, base=srch)
                else:
                    from refimage_ray.index.docpart import DocPartSearcher

                    # a distributed searcher is a sibling class, never a
                    # DocPartSearcher
                    if not isinstance(srch, DocPartSearcher):
                        return {"error": "NRT add needs an in-process "
                                         "deployment (distributed serving "
                                         "adds go through the lifecycle + "
                                         "/reload)"}, 409
                    # NRT on the serving-default layout: buffered docs
                    # route to their hash shard, shard views reweight
                    # under merged stats (query/nrt.py)
                    fresh = DocPartDeltaSearcher(index_dir, base=srch)
                srch = fresh
            n = srch.add(t)
            if fresh is not None:
                # swap ONLY after a successful first add — a failed
                # validation must not degrade the deployment
                state["s"] = fresh
                state["ex"] = DSLExecutor(fresh)
            return {"added": n, "buffered": srch.buffered,
                    "n_docs": srch.n_docs}

    @route("POST", "/nl2dsl", {ProviderError: (422, None)})
    def _nl2dsl(req):
        from refimage_ray.query.nl import text_to_dsl

        body = req._body()
        text = _text_field(body, "text")
        if not text.strip():
            raise ValueError("empty text")
        return {"dsl": text_to_dsl(text, manager=state["nl"],
                                   provider=body.get("provider"))}

    @route("POST", "/nl/switch", {ProviderError: (422, None)})
    def _nl_switch(req):
        name = req._body().get("provider", "")
        state["nl"].switch_provider(name)
        return {"current_provider": name}

    @route("GET", "/percolate/rules")
    def _rules(req):
        return {"rules": dict(state["perc_rules"])}

    @route("PUT", "/percolate/rules/{id}")
    def _put_rule(req):
        from refimage_ray.query.dsl import DSLParser

        dsl = _text_field(req._body(), "dsl")
        DSLParser().parse(dsl)  # validate before storing
        state["perc_rules"][req.arg] = dsl
        state["perc"] = None  # recompile lazily
        return {"rules": len(state["perc_rules"])}

    @route("DELETE", "/percolate/rules/{id}")
    def _delete_rule(req):
        gone = state["perc_rules"].pop(req.arg, None)
        state["perc"] = None
        return {"deleted": gone is not None}, 200 if gone is not None else 404

    @route("PUT", "/docs/{id}/metadata", {**_NOT_FOUND, FileNotFoundError: (
        422, "this artifact's layout keeps no docs metadata store "
             "(doc-partitioned: use update_doc_values_docpart)")})
    def _put_metadata(req):
        from refimage_ray.index.lifecycle import update_doc_metadata

        return {"updated": update_doc_metadata(index_dir,
                                               {req.arg: req._body()})}

    @route("DELETE", "/docs/{id}")
    def _delete_doc(req):
        from refimage_ray.index.lifecycle import delete_docs

        # the searcher keeps serving its loaded snapshot; a serving
        # layer reloads on tombstone change (documented contract)
        return {"tombstones": int(delete_docs(index_dir, [req.arg]))}

    class Handler(BaseHTTPRequestHandler):
        # a request line the server cannot read is answered with a
        # status line too (the stdlib answers it in HTTP/0.9 form)
        default_request_version = "HTTP/1.0"

        def log_message(self, *a):  # quiet
            pass

        def parse_request(self) -> bool:
            """The request line and the header lines in one pass, into
            the stdlib's ``HTTPMessage`` (without its ``email`` parser).
            Refused through ``send_error`` as the stdlib refuses them: a
            malformed request line (400), HTTP/2 and later (505), a
            header line over 65,536 bytes, or 100 header lines and one
            more line (431).  Refused where the stdlib would misread them:
            a two-word HTTP/0.9 request, a header line without a colon
            and an obs-fold continuation line (400).  Replies are
            HTTP/1.0, so every connection closes after one."""
            self.command = None
            self.request_version = self.default_request_version
            self.close_connection = True
            line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            self.requestline = line
            words = line.split()
            if not words:
                return False
            if len(words) >= 3:
                m = _VERSION_RE.fullmatch(words[-1])
                if m is None:
                    self.send_error(
                        400, f"Bad request version ({words[-1]!r})")
                    return False
                if int(m[1]) >= 2:
                    self.send_error(
                        505, f"Invalid HTTP version ({m[1]}.{m[2]})")
                    return False
                self.request_version = words[-1]
            if len(words) != 3:
                self.send_error(400, f"Bad request syntax ({line!r})")
                return False
            self.command, path = words[:2]
            # gh-87389, as the stdlib: '//x' would read as a host
            self.path = "/" + path.lstrip("/") if path[:2] == "//" else path
            self.headers = headers = self.MessageClass()
            # the stdlib reads the line after the 100th before refusing
            for n in range(_MAX_HEADERS + 1):
                raw = self.rfile.readline(_MAX_LINE + 1)
                if len(raw) > _MAX_LINE:
                    self.send_error(431, "Line too long", "got more than "
                                    f"{_MAX_LINE} bytes when reading header line")
                    return False
                if n == _MAX_HEADERS:
                    break
                if raw in (b"\r\n", b"\n", b""):
                    return True
                text = str(raw, "iso-8859-1")
                m = _FIELD_RE.match(text)
                if m is None:
                    self.send_error(400, "Bad header line", repr(text))
                    return False
                headers.set_raw(text[:m.end() - 1],
                                text[m.end():].strip(" \t\r\n"))
            self.send_error(431, "Too many headers",
                            f"got more than {_MAX_HEADERS} headers")
            return False

        def _send(self, body: bytes, code: int = 200) -> None:
            """Status line, headers and body in one write: the head
            ``send_response``, ``send_header`` and ``end_headers`` would
            flush (``Server``, ``Date``, ``Content-Type``,
            ``Content-Length``), byte for byte."""
            self._responded = True
            self.wfile.write((
                f"{self.protocol_version} {code} {self.responses[code][0]}"
                f"\r\nServer: {self.version_string()}"
                f"\r\nDate: {_http_date(int(time.time()))}"
                "\r\nContent-Type: application/json"
                f"\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body)

        def _json(self, obj, code: int = 200) -> None:
            self._send(json.dumps(obj).encode(), code)

        def send_response(self, code, message=None) -> None:
            self._responded = True
            super().send_response(code, message)

        def _body(self) -> dict:
            """The request's JSON object (``{}`` when empty); anything
            else is refused as ``bad request: …``."""
            n = int(self.headers.get("Content-Length") or 0)
            try:
                body = json.loads(self.rfile.read(n) or b"{}")
            except ValueError as err:
                raise ValueError(f"bad request: {err}") from None
            if not isinstance(body, dict):
                raise ValueError("bad request: the body must be a JSON "
                                 f"object, got {type(body).__name__}")
            return body

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

        def _route(self) -> None:
            """Dispatch through ``routes``: a client error answers its
            :func:`_refusal`, and any other exception answers 500 naming
            its type (when no response has started) and goes to
            ``server.handle_error``."""
            self._responded = False
            u = urlparse(self.path)
            (fn, errors), self.arg = _resolve(self.command, u.path)
            try:
                self.p = _Params(u.query)
                out = fn(self)
                if out is not None:
                    self._json(*(out if isinstance(out, tuple) else (out,)))
            except Exception as err:
                refusal = _refusal(err, errors)
                if refusal is not None:
                    return self._json({"error": refusal[1]}, refusal[0])
                if not self._responded:
                    self._json({"error": "internal error: "
                                         f"{type(err).__name__}"}, 500)
                self.server.handle_error(self.request, self.client_address)

        do_GET = do_POST = do_PUT = do_DELETE = _route

    return WarmHTTPServer(("127.0.0.1", port), Handler)
