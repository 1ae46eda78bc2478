"""Outside-in tracing: timing wrappers installed from the harness.

The program under ``src/`` is not edited.  A :class:`Tracer` replaces
public callables — the name a caller looks up, so ``from x import y`` is
patched in the *caller's* module and methods are patched on their class —
with wrappers that record one span per call: ``name, start, end, parent,
trace id``.  Spans stay in memory (one list per thread, so recording takes
no lock) and are written out when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  A span with no
parent starts a new trace, so every iteration, refresh, read and submit —
the calls the harness or the runtime's own thread makes into the program —
gets one trace id shared by everything beneath it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

_MARK = "__e2e_traced__"


class Span(NamedTuple):
    """One finished call.  ``parent`` is an index into the same span list
    (``-1`` for a root span)."""

    name: str
    start: float
    end: float
    parent: int
    trace: int
    thread: int


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``module`` is the module whose namespace holds the name the caller looks
    up; ``attr`` is ``"function"`` or ``"Class.method"`` inside it.  With
    ``subclasses`` every subclass that defines the method itself is wrapped
    too.  ``tap(args, kwargs, result)`` runs after each call and is how
    counts are read off public result objects at the same boundary.  With
    ``timed=False`` only the tap runs and no span is recorded.
    """

    module: str
    attr: str
    name: str
    subclasses: bool = False
    tap: Optional[Callable] = None
    timed: bool = True


class _ThreadSpans:
    __slots__ = ("ident", "spans", "stack")

    def __init__(self, ident: int):
        self.ident = ident
        self.spans: List[list] = []     # [name, start, end, parent, trace]
        self.stack: List[int] = []      # indices of the open spans


class Tracer:
    """Records spans for wrapped callables and restores what it patched."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _thread_spans(self) -> _ThreadSpans:
        state = _ThreadSpans(threading.get_ident())
        with self._threads_lock:
            self._threads.append(state)
        self._local.state = state
        return state

    def wrap(self, func: Callable, name: str,
             tap: Optional[Callable] = None, timed: bool = True) -> Callable:
        """A callable that runs ``func`` and records its span."""
        if not timed:
            def tapped(*args, **kwargs):
                result = func(*args, **kwargs)
                tap(args, kwargs, result)
                return result
            setattr(tapped, _MARK, True)
            return tapped

        clock = self._clock
        local = self._local
        new_state = self._thread_spans
        trace_ids = self._trace_ids

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            spans = state.spans
            stack = state.stack
            if stack:
                parent = stack[-1]
                trace = spans[parent][4]
            else:
                parent = -1
                trace = next(trace_ids)
            record = [name, 0.0, 0.0, parent, trace]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tap is not None:
                tap(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- install / restore -----------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            for owner, attr in _resolve(target):
                raw = vars(owner)[attr]
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, self._rewrap(raw, target))

    def _rewrap(self, raw, target: Target):
        """Wrap the function behind ``raw``, keeping a class/static method one."""
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        wrapped = self.wrap(raw.__func__ if descriptor else raw,
                            target.name, target.tap, target.timed)
        return descriptor(wrapped) if descriptor else wrapped

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # -- export ---------------------------------------------------------------

    def spans(self) -> List[Span]:
        """Every finished span of every thread, parents re-indexed globally."""
        with self._threads_lock:
            threads = list(self._threads)
        out: List[Span] = []
        for state in threads:
            offset = len(out)
            open_spans = set(state.stack)
            kept: Dict[int, int] = {}
            for index, (name, start, end, parent, trace) in enumerate(state.spans):
                if index in open_spans:
                    continue
                kept[index] = offset + len(kept)
                out.append(Span(name, start, end,
                                kept.get(parent, -1) if parent >= 0 else -1,
                                trace, state.ident))
        return out

    def dump(self, path: Path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)


def _resolve(target: Target) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs a target names, owner being the module
    or class whose ``__dict__`` holds the callable."""
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    owners = [owner]
    if target.subclasses:
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls not in owners:
                owners.append(cls)
    found = [(candidate, attr) for candidate in owners
             if attr in vars(candidate)
             and not getattr(vars(candidate)[attr], "__isabstractmethod__", False)]
    if not found:
        raise LookupError(f"{target.module}:{target.attr} names no callable")
    return found


def originals(targets: Iterable[Target]) -> Dict[Tuple[object, str], object]:
    """The raw ``__dict__`` entry behind every target, keyed by owner and
    attribute — identical before install and after restore."""
    return {(owner, attr): vars(owner)[attr]
            for target in targets for owner, attr in _resolve(target)}


def left_installed(targets: Iterable[Target]) -> List[str]:
    """Targets whose current binding is still one of our wrappers."""
    stuck = []
    for target in targets:
        for owner, attr in _resolve(target):
            raw = vars(owner)[attr]
            func = getattr(raw, "__func__", raw)
            if getattr(func, _MARK, False):
                stuck.append(f"{target.module}:{target.attr}")
    return stuck


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a function that does
    nothing (best of five batches, on a throwaway tracer)."""
    def nothing():
        return None
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            nothing()
        bare = time.perf_counter() - start
        scratch = Tracer()
        traced = scratch.wrap(nothing, "calibration")
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


# -- derivation ---------------------------------------------------------------

def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: duration minus the covered child time.

    Children are clipped to the parent's interval and overlapping children
    (siblings on other threads) are counted once, so the result is the
    time during which the span ran and no child of it did.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``busy_s`` (inclusive)."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, self_seconds in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name,
                                  {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_seconds
        entry["busy_s"] += span.end - span.start
    return totals


def root_seconds(spans: List[Span]) -> float:
    """Total duration of the root spans — the time the program was inside a
    call the harness (or its own background thread) made into it."""
    return sum(span.end - span.start for span in spans if span.parent < 0)
