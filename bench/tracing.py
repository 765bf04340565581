"""Spans recorded around calls into the gevspec modules, from outside them.

The tracer replaces public module functions with wrappers that record one
span per call: name, start, end, parent span and a few attributes (matrix
order, kernel shape). Spans stay in memory and are written out when the
run ends. Nothing under src/ is edited: the wrappers are installed by
rebinding module attributes and undone afterwards.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the span list, None at top level
    attrs: Tuple[Tuple[str, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=None):
        return dict(self.attrs).get(key, default)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """In-memory span recorder; parents follow the calling thread's stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """Return fn recording one span per call; attrs(args, kwargs, result)
        gives numeric attributes stored on the span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)  # reserve the slot; filled below
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = tracer._clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer._clock()
                stack.pop()
                extra = ()
                if attrs is not None and result is not None:
                    extra = tuple(sorted(attrs(args, kwargs, result).items()))
                tracer.spans[idx] = Span(name, start, end, parent, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def as_records(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": dict(s.attrs)}
                for s in self.spans if s is not None]


@contextmanager
def patched(replacements: Sequence[Tuple[Callable, Callable]],
            package: str = "gevspec"):
    """Rebind every attribute of the package's loaded modules that is one of
    the original functions to its replacement; restore on exit.

    Modules that imported a function by name (from .quantize import
    assemble_weyl) hold their own reference, so each one is rebound too.
    """
    originals = {id(orig): (orig, new) for orig, new in replacements}
    undo = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, val))
        yield
    finally:
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)
