"""Spans recorded by the benchmark's own wrappers around public calls.

A span is ``[name, start_ns, end_ns, parent, request, attrs]``.  A span
opened with no span open is a root and starts a new request id; spans
opened inside it share that id.  Spans stay in memory and are written
out once, at the end of the run.  Self time is a span's duration minus
its direct children's (the wrapped calls run on one thread, so children
never overlap).

``NullTracer`` has the same ``call``, ``install`` and ``close`` and
records nothing; ``enabled`` tells the timed loops whether to
instrument the engines they open.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, attrs=None, **kw):
        return fn(*args, **kw)

    def install(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ record
    def call(self, name, fn, *args, attrs=None, **kw):
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = None
            self._request += 1
        rec = [name, time.perf_counter_ns(), 0, parent, self._request,
               attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kw)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, key: str, n: int) -> None:
        """Add ``n`` to counter ``key`` of the innermost open span."""
        if self._stack:
            attrs = self.spans[self._stack[-1]][5]
            attrs[key] = attrs.get(key, 0) + n

    # ----------------------------------------------------------- install
    def _wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kw):
            return self.call(name, orig, *args,
                             attrs=attrs_of(args, kw) if attrs_of else None,
                             **kw)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self) -> None:
        """Patch the module-level calls; ``close`` undoes it."""
        from search_engine_ray.index import encoding
        from search_engine_ray.index import manifest as mf

        # engine.py calls mf.load_df_and_orig through the module, so the
        # module attribute catches the call inside SearchEngine()
        self._wrap(mf, "load_df_and_orig", "load_df_and_orig")
        orig_decode = encoding.varbyte_decode

        def counting_decode(*args, **kw):
            out = orig_decode(*args, **kw)
            self.count("decoded", len(out))
            return out

        # prefetch imports varbyte_decode from the module on every call
        encoding.varbyte_decode = counting_decode
        self._patched.append((encoding, "varbyte_decode", orig_decode))

    def instrument_engine(self, engine) -> None:
        """Wrap one SearchEngine's methods on the instance, so the calls
        ``search`` makes to ``prefetch`` and the parser are caught."""
        self._wrap(engine, "search", "SearchEngine.search",
                   lambda a, kw: {"mode": kw.get("mode", "reference")})
        self._wrap(engine, "prefetch", "SearchEngine.prefetch")
        self._wrap(engine.parser, "parse_sentence", "Parser.parse_sentence")

    def instrument_nrt(self, nrt) -> None:
        self._wrap(nrt, "add_pages", "NrtSearchEngine.add_pages",
                   lambda a, kw: {"docs": len(a[0])})
        self._wrap(nrt, "search", "NrtSearchEngine.search")
        self._wrap(nrt.base, "prefetch", "SearchEngine.prefetch")
        self._wrap(nrt.base.parser, "parse_sentence",
                   "Parser.parse_sentence")

    def close(self) -> None:
        """Undo every wrapper installed so far, newest first."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------ output
    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request", "attrs"],
                       "spans": self.spans}, f)


class SpanIndex:
    """Read-side view of a span list: durations, children, self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                self.children[s[3]].append(i)
            self.by_name[s[0]].append(i)

    def dur_ms(self, i: int) -> float:
        s = self.spans[i]
        return (s[2] - s[1]) / 1e6

    def child_ms(self, i: int, name: str | None = None) -> float:
        return sum(self.dur_ms(c) for c in self.children[i]
                   if name is None or self.spans[c][0] == name)

    def self_ms(self, i: int) -> float:
        return self.dur_ms(i) - self.child_ms(i)

    def subtree_count(self, i: int, key: str) -> int:
        n = self.spans[i][5].get(key, 0)
        for c in self.children[i]:
            n += self.subtree_count(c, key)
        return n

    def named(self, name: str, parent_name: str | None = None) -> list[int]:
        out = self.by_name.get(name, [])
        if parent_name is not None:
            out = [i for i in out if self.spans[i][3] is not None
                   and self.spans[self.spans[i][3]][0] == parent_name]
        return out
