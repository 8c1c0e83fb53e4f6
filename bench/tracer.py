"""In-process span recorder for the traced benchmark run.

The tracer replaces public attributes of the ``qsconc`` modules (for
example ``qsconc.linalg.trace_norm``) with thin wrappers while a traced
cycle runs, and puts the originals back afterwards. Library modules call
each other through module attributes and module globals, so a wrapped
name is seen by every caller inside the package; the ``qsconc.*``
re-exports in ``__init__`` are separate bindings and stay untouched.

Spans are kept in memory as ``(name, start, end, parent, op)`` and
written out when the run ends. Only calls made while an op is open are
recorded, so the benchmark's own checks and calibration calls leave no
trace.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Target:
    """One wrapped attribute: ``owner.attr`` recorded under ``name``.

    ``kind`` is "span" (timed, nested) or "count" (call count only, for
    per-row functions that run inside the CLI's thread pool).
    ``hook(args, kwargs, result, seconds)`` sees each completed call.
    ``arg_filter(args, kwargs)`` may return replacement arguments.
    """

    owner: object
    attr: str
    name: str
    kind: str = "span"
    hook: Callable | None = None
    arg_filter: Callable | None = None
    original: object = field(default=None, init=False)


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        for t in self.targets:
            t.original = getattr(t.owner, t.attr)
            setattr(t.owner, t.attr, self._wrap(t))

    def uninstall(self) -> None:
        for t in self.targets:
            setattr(t.owner, t.attr, t.original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, t: Target):
        orig = t.original
        tracer = self

        if t.kind == "count":
            def counted(*args, **kwargs):
                if tracer.op is not None:
                    with tracer._lock:
                        tracer.counts[t.name] += 1
                return orig(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if tracer.op is None:
                return orig(*args, **kwargs)
            if t.arg_filter is not None:
                args, kwargs = t.arg_filter(args, kwargs)
            idx = tracer.open_span(t.name)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.close_span(idx, t0, t1)
            if t.hook is not None:
                t.hook(args, kwargs, result, t1 - t0)
            return result

        return spanned

    # -- spans ----------------------------------------------------------
    def open_span(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        stack.append(idx)
        return idx

    def close_span(self, idx: int, t0: float, t1: float) -> None:
        self._stack().pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [max(0.0, s[2] - s[1] - c) for s, c in zip(spans, child)]


def outermost_time(spans: list, names: set[str]) -> float:
    """Total duration of spans named in ``names`` with no such ancestor."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        hit = name in names
        above = parent >= 0 and inside[parent]
        inside[i] = hit or above
        if hit and not above:
            total += t1 - t0
    return total
