"""Span recording from outside the program: wrappers, spans, self time.

A :class:`Tracer` keeps every span in memory as one row
``[name, start, end, parent, group]``. ``parent`` is the index of the
enclosing span (``-1`` at the top); ``group`` is shared by every span
under one top-level span, so all spans of one served query, one probe
or one vantage measurement carry the same id.

:func:`install` replaces each probed attribute (a module function, or a
plain, class- or static method of a class) with a wrapper that records
a span around the original. It returns an :class:`Installation` whose
``remove()`` puts every original object back, so an untraced run after
a traced one calls exactly the functions it would have called anyway.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, GROUP = range(5)


class Tracer:
    """In-memory spans plus the counters the probes' hooks bump."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        #: Free-form state the hooks keep (e.g. distinct leases seen).
        self.notes: Dict[str, object] = {}
        self._stack: List[int] = []
        self._groups = 0

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def open(self, name: str) -> int:
        stack = self._stack
        if stack:
            parent = stack[-1]
            group = self.spans[parent][GROUP]
        else:
            parent = -1
            group = self._groups
            self._groups += 1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, group])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, args, kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def write_jsonl(self, path: str, header: dict) -> None:
        """Gzipped JSON lines: one header line, then one ``[name, start,
        end, parent, group]`` array per span, times relative to the first
        span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, group in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 9), round(end - origin, 9),
                     parent, group]) + "\n")


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping siblings are not subtracted twice and a
    child running past its parent's end only counts up to that end.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(max(0.0, end - start - covered))
    return result


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``calls`` and ``busy_s`` count only spans with no enclosing span of
    the same name, so a layer re-entered from inside itself is timed
    once, as seen from outside. ``self_s`` sums every span's self time;
    those intervals are disjoint by construction.
    """
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        row = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                       "self_s": 0.0})
        row["self_s"] += own[index]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["calls"] += 1
            row["busy_s"] += span[END] - span[START]
    return totals


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``. ``span``
    names the spans recorded around each call; ``None`` records no span
    and only runs the hooks. ``before(tracer, args, kwargs)`` runs just
    before the call, ``after(tracer, args, result)`` just after it
    returns. A generator function with ``generator=True`` is timed per
    ``next()``, so only the time spent producing items counts.
    """

    target: str
    span: Optional[str]
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    generator: bool = False


def _wrap(fn: Callable, probe: Probe, tracer: Tracer) -> Callable:
    name, before, after = probe.span, probe.before, probe.after
    if probe.generator:
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item
        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _resolve(target: str):
    """``(owner, attribute name, raw attribute)`` for a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self):
        self.replaced: List[Tuple[object, str, object]] = []
        #: Targets absent from this version of the program.
        self.missing: List[str] = []

    def remove(self) -> None:
        """Restore every original attribute, last installed first."""
        while self.replaced:
            owner, attr, raw = self.replaced.pop()
            setattr(owner, attr, raw)


def install(probes: Sequence[Probe], tracer: Tracer) -> Installation:
    """Wrap every probe target; missing targets are listed, not fatal."""
    installation = Installation()
    try:
        for probe in probes:
            try:
                owner, attr, raw = _resolve(probe.target)
            except (ImportError, AttributeError, KeyError):
                installation.missing.append(probe.target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, probe, tracer))
            else:
                wrapped = _wrap(raw, probe, tracer)
            setattr(owner, attr, wrapped)
            installation.replaced.append((owner, attr, raw))
    except BaseException:
        installation.remove()
        raise
    return installation
