"""The host's speed, sampled while a measurement runs.

The benchmark's host is a share of a larger machine: the speed of the
same code drifts by 10-40% over minutes (a fixed CPU loop, timed every
five seconds for two minutes, slowed from 25.8 to 36.1 ms), and a median
over the measurements of one run does not remove a drift that lasts the
whole run.  So while each measurement process runs, ``run.py`` runs a
:class:`SpeedProbe`: one thread per CPU the measurement runs on, each
pinned to its CPU, that every *period* seconds times two fixed pieces
of pure-Python work by its own CPU time:

- :func:`compute_work`: calls, attribute and dict lookups, small
  allocations, float arithmetic and a heap, all in the core's caches;
- :func:`memory_work`: reads at random places of a heap of tuples larger
  than the core's caches, as the simulator's world is.

Under the host's contention the simulator slows about twice as much as
the first and less than the second; the geometric mean of the two
tracks it best.  CPU time leaves out the time a probe thread waits for
its CPU and keeps what the contention does to the core's speed: the
guest sees no steal time, so that slowdown shows in CPU time as in wall
time.  The probe lives in ``run.py``'s process, which only waits for the
measurement: inside the measured process it would share the interpreter
lock with the program.

Every time metric is reported in *reference seconds*: each timed
interval's measured seconds divided by the host's slowdown over that
interval, ``sqrt(c / REFERENCE_COMPUTE_S * m / REFERENCE_MEMORY_S)``,
where ``c`` and ``m`` are the mean times of the two probes over the
samples started inside the interval (:meth:`SpeedProbe.reference`).  A
change to the program moves the measured seconds and not the probes; a
change of the host's speed moves both.  The probe threads take about 3%
of their CPU, which the measured seconds include, run after run alike.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Mean probe times on the tuning machine (a shared 2-vCPU Intel Xeon) at
#: its usual speed.  Any constants would do: they only set the scale of
#: the reference seconds.
REFERENCE_COMPUTE_S = 0.0016
REFERENCE_MEMORY_S = 0.0029

#: An interval with fewer probe samples than this (a tiny smoke-test
#: run) is corrected by all samples of the measurement.
MIN_SAMPLES = 5

#: :func:`memory_work`'s heap: this many shuffled 2-tuples (about 60 MB)
#: and the order of the reads.
HEAP_TUPLES = 500_000
HEAP_READS = 4_000


def compute_work(rounds: int = 60) -> int:
    """A fixed mix of what the simulator does in its caches: calls,
    attribute and dict lookups, small allocations, float arithmetic and
    a heap."""
    import heapq

    class Event:
        __slots__ = ("at", "key")

        def __init__(self, at, key):
            self.at = at
            self.key = key

    table = {}
    heap: list = []
    total = 0
    for r in range(rounds):
        for k in range(20):
            key = (r * 31 + k * 17) % 97
            event = Event(k * 0.5 + r, key)
            table[key] = table.get(key, 0) + 1
            heapq.heappush(heap, (event.at, k, event))
        while heap:
            at, _k, event = heapq.heappop(heap)
            total += int(at * 3.0) ^ event.key
    return total + len(table)


_HEAP: Optional[Tuple[list, list]] = None


def _heap() -> Tuple[list, list]:
    """The tuples and read order of :func:`memory_work`, built once per
    process (about half a second)."""
    global _HEAP
    if _HEAP is None:
        rng = random.Random(1)
        tuples = [(k, k * 3) for k in range(HEAP_TUPLES)]
        rng.shuffle(tuples)
        _HEAP = (tuples, rng.sample(range(HEAP_TUPLES), HEAP_READS))
    return _HEAP


def memory_work() -> int:
    """Reads at random places of a heap larger than the core's caches."""
    tuples, order = _heap()
    total = 0
    for index in order:
        total += tuples[index][1]
    return total


def schedulable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


class SpeedProbe:
    """One probe thread per CPU of *cpus*, pinned to it (``None``: not
    pinned), each timing :func:`compute_work` and :func:`memory_work`
    every *period* seconds.

    Each sample is ``(started, compute_cpu_s, memory_cpu_s)``, *started*
    on the ``time.monotonic()`` clock, which ``time.perf_counter()``
    shares on Linux.
    """

    def __init__(self, cpus: List[Optional[int]],
                 period: float = 0.2) -> None:
        _heap()
        self.period = period
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,), daemon=True)
            for cpu in cpus
        ]

    def _loop(self, cpu: Optional[int]) -> None:
        if cpu is not None:
            # On Linux this pins the calling thread only.
            os.sched_setaffinity(0, {cpu})
        while not self._stop.wait(self.period):
            started = time.monotonic()
            began = time.thread_time()
            compute_work()
            middle = time.thread_time()
            memory_work()
            self.samples.append(
                (started, middle - began, time.thread_time() - middle)
            )

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def slowdown(self, start: float = float("-inf"),
                 end: float = float("inf")) -> float:
        """The host's slowdown over [start, end] against the reference
        speed, from the samples started inside it."""
        inside = [s for s in self.samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            inside = self.samples
        compute = statistics.fmean(s[1] for s in inside)
        memory = statistics.fmean(s[2] for s in inside)
        return math.sqrt(
            compute / REFERENCE_COMPUTE_S * memory / REFERENCE_MEMORY_S
        )

    def reference(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        return (end - start) / self.slowdown(start, end)
