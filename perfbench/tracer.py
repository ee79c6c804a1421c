"""Span recorder and the wrappers that feed it, installed from outside fedgame.

A span is (id, parent id, name, start, end, pass id).  Spans stay in memory
and are saved when the run ends.  Each thread keeps its own span stack, so
frames decoded on the federation reader threads become roots of their own
and never parent spans of the main thread.

fedgame modules import names from each other (`from .core import utility`),
so a wrapper must replace every module-level binding of the original object,
not only the one in the defining module.  Methods are replaced on the class,
which covers every caller.  Only the standard library is imported here: the
worker imports this module before timing `import fedgame`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

SETUP_PASS = -1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.pass_id = SETUP_PASS
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.pass_id))

    def count(self, key: str, amount: int = 1) -> None:
        slot = (self.pass_id, key)
        self.counters[slot] = self.counters.get(slot, 0) + amount

    def wrap(self, fn, name: str, on_result=None):
        ids, spans, stack_of, clock = self._ids, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.pass_id))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch_function(self, modules, original, name: str, on_result=None) -> None:
        """Replace every module-level binding of `original` in `modules`."""
        wrapper = self.wrap(original, name, on_result)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans, counters, pass_id: int) -> dict:
    """Per-name count, inclusive seconds and self seconds for one pass.

    `spans` are that pass's spans.  Self time is a span's duration minus the
    durations of its direct children; children always run on the parent's
    thread, inside it.
    """
    child_time: dict[int, float] = {}
    for _sid, parent, _name, start, end, _p in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, list] = {}
    for sid, _parent, name, start, end, _p in spans:
        dur = end - start
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(sid, 0.0)
    stats = {name: {"calls": c, "incl_s": i, "self_s": s} for name, (c, i, s) in out.items()}
    ctr = {key: v for (p, key), v in counters.items() if p == pass_id}
    return {"spans": stats, "counters": ctr}


def group(stats: dict, prefix: str, field: str) -> float:
    """Sum `field` over span names in the group `prefix` (text before ':')."""
    return sum(v[field] for k, v in stats.items() if k.split(":", 1)[0] == prefix)
