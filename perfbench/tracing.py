"""Outside-in layer tracing for the repository benchmark.

A :class:`Tracer` installs timing wrappers on the public functions and
methods a workload names, at the module or class the caller looks the
name up from, and removes them again afterwards; nothing under ``src/``
changes. Each wrapped call records one span (name, start, end, parent,
thread) in memory. :func:`account` turns the spans into per-layer self
times and :func:`chrome_trace` into Chrome trace-event JSON, the format
``--trace`` files use, so later in-program spans can be diffed against
these outside ones.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from harness import now

#: ``count(counts, args, kwargs, result)`` adds a wrapped call's work
#: (launches, rows, bytes ...) to the tracer's counters.
CountFn = Callable[[Counter, tuple, dict, Any], None]


@dataclass(frozen=True)
class Hook:
    """One public call to wrap: ``owner.attr`` timed as span ``layer``."""

    owner: Any
    attr: str
    layer: str
    count: Optional[CountFn] = None


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Spans nest per thread. A span opened on a thread with no open span
    of its own is adopted by :attr:`adopt` (the benchmark's pass span),
    so requests served on client threads count as children of the pass
    that issued them.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.adopt: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        span = Span(next(self._ids), name, parent, threading.get_ident(), now())
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        self._stack().pop()
        self.spans.append(span)
        self.calls[span.name] += 1

    def wrap(self, layer: str, fn: Callable, count: Optional[CountFn]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, hooks: Iterable[Hook]) -> None:
        """Patch every hook; classmethods and staticmethods keep their kind."""
        for hook in hooks:
            raw = vars(hook.owner)[hook.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(hook.layer, raw.__func__, hook.count))
            else:
                patched = self.wrap(hook.layer, raw, hook.count)
            setattr(hook.owner, hook.attr, patched)
            self._patched.append((hook.owner, hook.attr, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def account(spans: List[Span], layers: Iterable[str]) -> Dict[str, float]:
    """Per-layer self times, ``other_s`` and the traced total.

    A span's self time is its duration minus the part of it its child
    spans cover. Children on several threads may overlap one another;
    the overlap is extra thread-time, so the traced total is the root
    spans' duration plus that overlap. Layer self times plus ``other_s``
    (the self time of every span that is not a named layer) must equal
    the total; they do exactly when every child lies inside its parent,
    which is what the returned ``balance_s`` checks.
    """
    layers = set(layers)
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s: Dict[str, float] = defaultdict(float)
    total = 0.0
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        covered = _covered(clipped)
        self_s[s.name] += (s.end - s.start) - covered
        total += sum(hi - lo for lo, hi in clipped) - covered
        if s.parent is None or s.parent not in by_id:
            total += s.end - s.start
    out = {f"{name}_s": self_s.get(name, 0.0) for name in sorted(layers)}
    out["other_s"] = sum(v for name, v in self_s.items() if name not in layers)
    out["total_s"] = total
    out["balance_s"] = sum(self_s.values()) - total
    out["min_self_s"] = min(self_s.values(), default=0.0)
    return out


def chrome_trace(spans: List[Span], metadata: Dict[str, Any]) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (complete ``"X"`` events, µs)."""
    origin = min((s.start for s in spans), default=0.0)
    tids: Dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        tid = tids.setdefault(s.thread, len(tids))
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"id": s.id, "parent": s.parent},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
