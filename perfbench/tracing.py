"""Spans recorded around calls into the program, from outside it.

A Tracer replaces a function at the binding its caller uses (for example
`assembly.element_operator`, which is what assemble_system calls) with a
wrapper that records one span per call: (id, parent id, layer, start,
end, pass id). Spans stay in memory; `write_csv` dumps them at the end of
a run. Everything runs on one thread, so one stack gives the parents.
Times are read from the clock the tracer is given (the speed probe's
clock in a benchmark run, so probe time is in no span).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import time
from collections import defaultdict


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.pass_id = ""
        self.absent: list[str] = []
        self.results: dict = {}
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches = Patches()

    def wrap(self, fn, layer: str, keep_result: bool = False):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1, self.pass_id))
            if keep_result:
                self.results[layer] = out
            return out
        return traced

    @contextlib.contextmanager
    def span(self, layer: str):
        """Span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, layer, t0, t1, self.pass_id))

    def patch(self, module, path: str, layer: str,
              keep_result: bool = False) -> None:
        """Trace calls made through module.path ("name" or "Class.name").

        A binding that no longer exists is listed in `absent` instead.
        """
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            name = f"{module.__name__}.{path}"
            if name not in self.absent:
                self.absent.append(name)
            return
        self._patches.set(owner, attr,
                          self.wrap(getattr(owner, attr), layer, keep_result))

    def unpatch(self) -> None:
        self._patches.undo()

    def layer_totals(self, pass_id: str,
                     scale: float = 1.0) -> tuple[dict, dict]:
        """(self seconds times scale, span count) per layer for one pass."""
        child = defaultdict(float)
        mine = [s for s in self.spans if s[5] == pass_id]
        for sid, parent, _, t0, t1, _ in mine:
            child[parent] += t1 - t0
        self_s, calls = defaultdict(float), defaultdict(int)
        for sid, _, layer, t0, t1, _ in mine:
            self_s[layer] += (t1 - t0) - child[sid]
            calls[layer] += 1
        return {k: v * scale for k, v in self_s.items()}, dict(calls)

    def write_csv(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,parent_id,layer,start_s,end_s,pass_id\n")
            for sid, parent, layer, t0, t1, pid in self.spans:
                fh.write(f"{sid},{parent},{layer},{t0!r},{t1!r},{pid}\n")
