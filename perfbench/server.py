"""Server launcher: ``python3 perfbench/server.py INDEX_DIR TRACE``.

Calls the engine's public ``serve.make_server`` over a term-partitioned
artifact and serves it on a free localhost port, printing
``{"port": P}`` once listening.  ``POST /reload`` swaps the searcher
loaded at start back in, which drops the NRT buffer.  With ``TRACE=1`` it first installs the
benchmark's wrappers (``perfbench/spans.py``) around the engine's public
entry points: spans of the searcher load, and of every request that
carries the header ``X-Trace: 1``, are recorded in memory.

Commands arrive one per line on stdin: ``dump PATH`` writes the spans
and counters as JSON, ``quit`` (or end of input) stops the server.
"""

from __future__ import annotations

import json
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def install(tr: Tracer) -> dict:
    """Wrap the engine's public functions; returns handles the dump
    uses.  Must run before ``make_server`` (it imports ``lookup_docs``
    and builds the searcher when called)."""
    from refimage_ray.index import docvalues, reader
    from refimage_ray.query import dsl, engine, nrt

    seen: dict = {"base": None, "dirty": False}

    def size0(args, out):
        return len(args[0])

    for fn in ("decode_postings", "varbyte_decode", "decode_f64"):
        setattr(reader, fn, tr.timed("functions.codec.decode", getattr(reader, fn), size0))

    init = engine.LocalSearcher.__init__

    def load_attrs(args, kwargs, out):
        s = args[0]
        seen["base"] = s
        return {"terms": len(s.terms), "postings": int(sum(p.df for p in s.terms.values()))}

    engine.LocalSearcher.__init__ = tr.wrap("index.reader.load", init, load_attrs)
    engine.lookup_docs = tr.wrap("query.engine.lookup_docs", engine.lookup_docs)
    docvalues.load_doc_values = tr.wrap("index.docvalues.load", docvalues.load_doc_values)

    def search_attrs(args, kwargs, out):
        first = seen["dirty"]
        seen["dirty"] = False
        return {"q": args[1] if len(args) > 1 else kwargs.get("query"),
                "after_add": first}

    engine._SearcherBase.search = tr.wrap("query.engine.search",
                                          engine._SearcherBase.search, search_attrs)
    engine._SearcherBase.count = tr.wrap("query.engine.count", engine._SearcherBase.count)
    dsl.DSLExecutor.execute_query = tr.wrap("query.dsl.execute", dsl.DSLExecutor.execute_query)
    dsl.DSLParser.parse = tr.wrap("query.dsl.parse", dsl.DSLParser.parse)

    def add_attrs(args, kwargs, out):
        seen["dirty"] = True
        return {"buffered": int(args[0].buffered)}

    nrt.DeltaSearcher.add = tr.wrap("query.nrt.add", nrt.DeltaSearcher.add, add_attrs)
    nrt.DeltaSearcher.lookup_buffered = tr.wrap("query.nrt.lookup_buffered",
                                                nrt.DeltaSearcher.lookup_buffered)
    return seen


def wrap_handler(tr: Tracer, handler) -> None:
    """Request spans around the handler's verbs, keyed by the client's
    ``X-Request-Id``; body parsing (the NRT add payload) as a child."""
    for verb in ("do_GET", "do_POST"):
        orig = getattr(handler, verb)

        def traced(self, _orig=orig):
            # requests are serial (one closed-loop client), so the
            # client's per-request choice can switch recording globally
            tr.enabled = self.headers.get("X-Trace") == "1"
            if not tr.enabled:
                return _orig(self)
            tr.set_request(self.headers.get("X-Request-Id"))
            with tr.span("serve.request", route=self.path.split("?", 1)[0]):
                return _orig(self)

        setattr(handler, verb, traced)
    handler._body = tr.wrap("serve.add_parse", handler._body)


def main() -> None:
    index_dir, trace = sys.argv[1], sys.argv[2] == "1"
    tr = Tracer()
    seen = None
    if trace:
        seen = install(tr)
        tr.enabled = True
    from refimage_ray.query.engine import LocalSearcher
    from refimage_ray.serve import make_server

    loaded: list = []

    def snapshot():
        # The artifact never changes while the server runs, so POST
        # /reload (the ingest loop's reset) swaps the searcher loaded at
        # start back in, dropping the NRT buffer without a second load.
        if not loaded:
            loaded.append(LocalSearcher(index_dir))
        return loaded[0]

    srv = make_server(index_dir, port=0, searcher_factory=snapshot)
    if trace:
        wrap_handler(tr, srv.RequestHandlerClass)
    threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    print(json.dumps({"port": srv.server_address[1]}), flush=True)
    for line in sys.stdin:
        cmd = line.strip().split(" ", 1)
        if cmd[0] == "dump":
            out = tr.dump()
            base = seen["base"] if seen else None
            if base is not None:
                # Σ df of each searched query over the base artifact
                # (computed here, after the run, not inside any span)
                from refimage_ray.query.scorer import query_terms

                for s in out["spans"]:
                    q = s[6].get("q") if s[2] == "query.engine.search" else None
                    if q:
                        terms = query_terms(base._tokenize(q))
                        s[6]["postings"] = int(sum(base.terms[t].df for t in terms
                                                   if t in base.terms))
            with open(cmd[1], "w") as f:
                json.dump(out, f)
            print(json.dumps({"dumped": len(out["spans"])}), flush=True)
        elif cmd[0] == "quit":
            break
    srv.shutdown()
    srv.server_close()


if __name__ == "__main__":
    main()
