"""One measurement in a fresh process: ``run.py`` starts this script.

A fresh process per measurement makes ``peak_rss_mb`` (a lifetime
high-water mark) and ``setup_s`` (import cost included) belong to that
measurement alone.  The result goes to the JSON file named by
``--out``; nothing is read from stdout.

Worker processes of the ``chaos-pool`` pool use the ``spawn`` start
method and re-import this file as ``__mp_main__``, so everything that
acts lives under the ``__main__`` guard.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src:perfbench python3 perfbench/child.py \
        --workload paper-inline --seed 0 --size full --trace 0 \
        --workdir <dir> --out <file> --launch <time.monotonic() at start>
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import threading
import time
import traceback


class RssSampler:
    """Peak resident memory of this process plus its child processes.

    A thread sums the resident set sizes (``/proc/<pid>/statm``) of this
    process and its direct children (the pool's workers) every
    *interval* seconds and keeps the highest sum.  Only workloads with worker processes run it; for the
    others the kernel's own high-water mark (``ru_maxrss``) is exact.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page_kb = os.sysconf("SC_PAGE_SIZE") // 1024

    def _rss_kb(self, pid: int) -> int:
        try:
            with open("/proc/{}/statm".format(pid)) as handle:
                return int(handle.read().split()[1]) * self._page_kb
        except (OSError, ValueError, IndexError):
            return 0

    def _children(self) -> list:
        pids = []
        try:
            tasks = os.listdir("/proc/self/task")
        except OSError:
            return pids
        for tid in tasks:
            try:
                with open("/proc/self/task/{}/children".format(tid)) as f:
                    pids.extend(int(p) for p in f.read().split())
            except (OSError, ValueError):
                continue
        return pids

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self.interval):
            total = self._rss_kb(me) + sum(
                self._rss_kb(pid) for pid in self._children()
            )
            self.peak_kb = max(self.peak_kb, total)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def times(workload, launch: float, setup_end: float) -> dict:
    """The measurement's times in seconds, and under ``windows`` the
    ``time.monotonic()`` intervals they cover, for ``run.py`` to turn
    into reference seconds (``probe.py``)."""
    windows = workload.windows
    return {
        "setup_s": setup_end - launch,
        "wall_s": workload.timings["end"] - launch,
        "campaign_s": workload.timings["campaign_s"],
        "artifacts_s": workload.timings["artifacts_s"],
        "epochs_s": workload.timings["epochs"],
        "windows": {
            "setup_s": [(launch, setup_end)],
            "wall_s": [(launch, workload.timings["end"])],
            "campaign_s": windows["campaign"],
            "epochs_s": windows["epochs"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--cpu", type=int, default=None,
                        help="run pinned to this CPU (workers inherit it)")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from workloads import WORKLOADS, Tracer, layer_metrics

    cls = WORKLOADS[args.workload]
    traced = bool(args.trace)
    sampler = RssSampler() if cls.uses_pool else None
    if sampler is not None:
        sampler.start()
    tracer = Tracer(full=traced)
    out = {"workload": args.workload, "seed": args.seed, "traced": traced}
    workload = None
    try:
        began = time.perf_counter()
        for module in cls.modules:
            importlib.import_module(module)
        import_s = time.perf_counter() - began

        workload = cls(args.seed, args.size, args.workdir, tracer)
        workload.setup()
        setup_end = time.monotonic()
        tracer.install()
        try:
            workload.run()
        finally:
            tracer.restore()
            workload.close()
        out.update(times(workload, args.launch, setup_end))
        for key in ("measurements", "failed_measurements", "digest",
                    "checks"):
            out[key] = workload.result[key]
        if traced:
            out["layers"] = layer_metrics(workload, tracer, import_s)
    except Exception:
        out["error"] = traceback.format_exc()
        if workload is not None:
            workload.close()
    if sampler is not None:
        sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = max(rss_kb, sampler.peak_kb if sampler else 0) / 1024
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 1 if "error" in out else 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # The measurement is over and its result written; skip tearing down
    # a large heap, which only delays the next measurement.
    os._exit(code)
