"""In-memory spans recorded by the benchmark's own wrappers.

A span is ``(span_id, parent_id, name, start, end, request_id,
attrs)``; spans are kept in a list and written once when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover (children of one synchronous call never overlap, but the
union is taken anyway so the arithmetic holds for any input).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_request(self, rid) -> None:
        self._local.rid = rid

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    def wrap(self, name: str, fn, attrs_fn=None):
        """``fn`` wrapped in a span named ``name`` while tracing is on.
        ``attrs_fn(args, kwargs, result)`` may add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if attrs_fn is not None:
                sp.attrs.update(attrs_fn(args, kwargs, out))
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def timed(self, name: str, fn, size_fn):
        """Counter-only wrapper for hot, tiny calls: adds ``name.s`` and
        ``name.bytes`` (``size_fn(args, result)``) instead of spans."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            with self._lock:
                self.counters[name + ".s"] += dt
                self.counters[name + ".bytes"] += size_fn(args, out)
                self.counters[name + ".calls"] += 1
            return out

        return wrapper

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": [list(s) for s in self.spans],
                "counters": dict(self.counters),
            }


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.t, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        st = self.t._stack()
        self.parent = st[-1] if st else 0
        self.id = next(self.t._ids)
        st.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.t._stack().pop()
        rid = getattr(self.t._local, "rid", None)
        with self.t._lock:
            self.t.spans.append(
                (self.id, self.parent, self.name, self.start, end, rid, self.attrs)
            )
        return False


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list) -> dict[int, float]:
    """span_id → self time (seconds) for spans given as
    ``(id, parent, name, start, end, ...)`` tuples or lists."""
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - covered(kids.get(s[0], []), s[3], s[4]) for s in spans}
