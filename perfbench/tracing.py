"""Wall-clock spans and profile attribution, recorded from outside the program.

Nothing here edits the program: :class:`Patcher` replaces a function
*in the namespace it is called from* (``repro.parallel.worker`` binds
``build_world`` by name at import, so that is where it is wrapped) and
puts every original back on :meth:`Patcher.restore`.

:class:`SpanRecorder` keeps spans in memory as ``(name, start, end,
parent)``; :func:`self_times` turns them into per-name self time, a
span's duration minus the part of it its child spans cover.

:func:`package_self_times` folds a :mod:`cProfile` capture into self
time per ``repro.<package>``.  Builtin and standard-library functions
(``random.lognormvariate``, ``heapq.heappush``) have no package of their
own; their self time goes to the repro packages that called them, split
by the time each caller edge accounts for.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Patcher",
    "Span",
    "SpanRecorder",
    "package_of",
    "package_self_times",
    "self_times",
]

#: One finished span: name, start, end (perf_counter seconds) and the
#: index of the enclosing span in the recorder's list, or None.
Span = Tuple[str, float, float, Optional[int]]


class SpanRecorder:
    """In-memory span store for one process (not thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             on_exit: Optional[Callable] = None) -> Callable:
        """*fn* recording a span named *name* around every call.

        *on_exit*, if given, is called as ``on_exit(args, kwargs,
        result)`` after a successful call, outside the span.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._open[-1] if recorder._open else None
            recorder.spans.append((name, 0.0, 0.0, parent))
            recorder._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._open.pop()
                recorder.spans[index] = (name, start, end, parent)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, _, _, _ in self.spans if n == name)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def _covered(intervals: Sequence[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus child coverage, summed."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - _covered(children[index], start, end)
    return dict(out)


class Patcher:
    """Replace attributes for the life of one traced run."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr = make(original)``; undone by :meth:`restore`.

        Methods are wrapped on their class; ``staticmethod`` and
        ``classmethod`` descriptors are rewrapped as such.
        """
        raw = (
            owner.__dict__[attr]
            if isinstance(owner, type) and attr in owner.__dict__
            else getattr(owner, attr)
        )
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- profile attribution ----------------------------------------------------

#: The file name cProfile gives builtin functions.
_BUILTIN = "~"


def package_of(filename: str, repro_root: str) -> Optional[str]:
    """``repro.<package>`` short name for a source file, else None.

    A top-level module (``repro/cli.py``) is its own package (``cli``).
    """
    if filename == _BUILTIN or not filename.startswith(repro_root + os.sep):
        return None
    rel = filename[len(repro_root) + 1:]
    head = rel.split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


def package_self_times(stats: Dict, repro_root: str,
                       max_depth: int = 32) -> Dict[str, float]:
    """Self seconds per repro package from a ``pstats.Stats.stats`` dict.

    *stats* maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller keys to per-edge
    ``(cc, nc, tt, ct)``.  A function outside repro hands its self time
    ``tt`` to its callers in proportion to each edge's ``tt`` (call
    counts when every edge reads zero), recursively, until it reaches
    repro code.  Time that never reaches repro is reported as
    ``"other"``.
    """
    memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(key: Tuple, depth: int,
               visiting: frozenset) -> Dict[str, float]:
        package = package_of(key[0], repro_root)
        if package is not None:
            return {package: 1.0}
        if key in memo:
            return memo[key]
        entry = stats.get(key)
        callers = entry[4] if entry is not None else {}
        edges = [
            (caller, edge) for caller, edge in callers.items()
            if caller not in visiting
        ]
        if not edges or depth >= max_depth:
            return {"other": 1.0}
        weights = [edge[2] for _caller, edge in edges]
        if sum(weights) <= 0:
            weights = [edge[1] for _caller, edge in edges]
        total = float(sum(weights)) or 1.0
        out: Dict[str, float] = defaultdict(float)
        for (caller, _edge), weight in zip(edges, weights):
            if weight <= 0:
                continue
            for pkg, share in shares(
                caller, depth + 1, visiting | {key}
            ).items():
                out[pkg] += share * weight / total
        result = dict(out) or {"other": 1.0}
        if not visiting:
            memo[key] = result
        return result

    totals: Dict[str, float] = defaultdict(float)
    for key, entry in stats.items():
        tt = entry[2]
        if tt <= 0:
            continue
        for pkg, share in shares(key, 0, frozenset()).items():
            totals[pkg] += tt * share
    return dict(totals)
