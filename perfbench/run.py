"""Benchmark entry point: one workload, one seed, one run.

From the repository root::

    python3 perfbench/run.py --workload paper-inline --seed 0 --seconds 20 --trace 0

Every measurement runs in a fresh child process (``child.py``); a
workload of one process runs pinned to one CPU.  A run
with ``--trace 0`` repeats full measurements until ``--seconds`` have
passed and at least three were made, and reports every
end-to-end metric as the median over its processes (``setup_s`` too:
each process sets up once).  While a measurement runs, a speed probe
(``probe.py``) samples the host's speed on the measurement's CPUs;
every time metric is reported in reference seconds, each interval's
measured seconds divided by the host's slowdown over it, so that the
host's drift does not pass for a change of the program.  The measured
seconds are printed beside them.  A run with ``--trace 1`` makes one
untraced and one traced measurement and reports every per-layer metric
of the traced one, plus ``trace.overhead_share``: how much longer the
traced measurement took.

The output check runs on every run: each measurement's own checks, one
dataset sha256 across all measurements of the seed, and, for seed 0,
the sha256 recorded in ``reference.json``.  A run that fails
a check counts all its measurements as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
each metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from probe import SpeedProbe, schedulable_cpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "meas_per_s": "meas/s",
    "epoch_s": "s",
    "peak_rss_mb": "MB",
}

#: The whole run ends within this many seconds.
RUN_BUDGET_S = 170.0

DEFAULT_SEED = 0

#: Full measurements per untraced run, at least: the median of three
#: stays put when one of them lands in a burst of machine noise.  The
#: smoke-test size needs only one.
MIN_MEASUREMENTS = {"full": 3, "tiny": 1}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    from workloads import ANALYSIS_ARTIFACTS, SIM_PACKAGES

    units = {
        "setup.import_s": "s",
        "core.build_world.calls": "count",
        "core.build_world.s": "s",
        "core.measure.s": "s",
    }
    for package in SIM_PACKAGES + ("other",):
        units["{}.self_s".format(package)] = "s"
    units.update({
        "netsim.events_executed": "count",
        "netsim.events_per_meas": "ratio",
        "dns.isp_cache.hit_ratio": "ratio",
        "doh.provider_cache.hit_ratio": "ratio",
        "proxy.superproxy_cache.hit_ratio": "ratio",
        "proxy.tunnels": "count",
        "faults.activations": "count",
        "atlas.s": "s",
        "dataset.build.s": "s",
        "dataset.save.s": "s",
        "dataset.load.s": "s",
        "dataset.bytes": "B",
        "dataset.merge.s": "s",
        "artifacts_s": "s",
    })
    for artifact in ANALYSIS_ARTIFACTS:
        units["analysis.{}.s".format(artifact)] = "s"
    units.update({
        "analysis.availability.s": "s",
        "parallel.pool_spawn.s": "s",
        "parallel.prime.s": "s",
        "parallel.dispatch.s": "s",
        "parallel.unpack.s": "s",
        "parallel.blob_bytes": "B",
        "parallel.shard_wall.max_s": "s",
        "parallel.shard_wall.median_s": "s",
        "parallel.busy_share": "ratio",
        "ckpt.commit.calls": "count",
        "ckpt.commit.s": "s",
        "ckpt.verify.s": "s",
        "ckpt.bytes": "B",
        "ckpt.batches_replayed": "count",
        "ckpt.batches_measured": "count",
        "service.campaign.s": "s",
        "service.publish.s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


def machine_fingerprint(seed: int) -> Dict:
    """Where the numbers come from: cores, CPU, interpreter, libraries."""
    cores = len(schedulable_cpus()) or os.cpu_count() or 1
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "schedulable_cores": cores,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "seed": seed,
    }


class Runner:
    """Starts child processes and never leaves one behind."""

    def __init__(self, args, workdir: str, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), HERE]
        )
        self.count = 0
        # A workload of one process runs pinned to one CPU, beside its
        # probe; one with worker processes runs on every CPU, each
        # probed (see probe.py).
        from workloads import WORKLOADS

        cpus = schedulable_cpus()
        if not cpus:
            self.pin, self.probe_cpus = None, [None]
        elif WORKLOADS[args.workload].uses_pool:
            self.pin, self.probe_cpus = None, cpus
        else:
            self.pin, self.probe_cpus = cpus[-1], cpus[-1:]

    def child(self, traced: bool = False) -> Dict:
        self.count += 1
        tag = "m{}".format(self.count)
        out = os.path.join(self.workdir, tag + ".json")
        workdir = os.path.join(self.workdir, tag)
        os.makedirs(workdir)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--trace", "1" if traced else "0",
            "--workdir", workdir,
            "--out", out,
        ]
        if self.pin is not None:
            command += ["--cpu", str(self.pin)]
        log_path = os.path.join(self.workdir, tag + ".log")
        probe = SpeedProbe(self.probe_cpus)
        probe.start()
        with open(log_path, "wb") as log:
            launch = time.monotonic()
            process = subprocess.Popen(
                command + ["--launch", repr(launch)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timed_out = False
            try:
                remaining = self.deadline - time.monotonic()
                process.wait(timeout=max(1.0, remaining))
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                # Also on SIGTERM/Ctrl-C: no process outlives the run.
                _reap_group(process)
                probe.stop()
        result: Dict = {}
        if os.path.exists(out):
            with open(out) as handle:
                result = json.load(handle)
        if "windows" in result:
            if probe.samples:
                to_reference(result, probe)
            else:
                result["error"] = "the speed probe took no sample"
        if timed_out:
            result["error"] = "measurement exceeded the run's time budget"
        elif process.returncode != 0 and "error" not in result:
            result["error"] = "child exited with code {}".format(
                process.returncode
            )
        if "error" in result:
            with open(log_path, "rb") as log:
                tail = log.read()[-2000:]
            result["log_tail"] = tail.decode("utf-8", "replace")
        shutil.rmtree(workdir, ignore_errors=True)
        return result


def to_reference(m: Dict, probe: SpeedProbe) -> None:
    """Turn measurement *m*'s times into reference seconds (``probe.py``)
    by the probe samples taken in each of their intervals; the measured
    seconds move under ``raw``."""
    windows = m.pop("windows")
    m["raw"] = {key: m[key] for key in (
        "setup_s", "wall_s", "campaign_s", "artifacts_s", "epochs_s",
    )}
    for key in ("setup_s", "wall_s", "campaign_s"):
        m[key] = sum(probe.reference(*window) for window in windows[key])
    m["epochs_s"] = [
        sum(probe.reference(*window) for window in epoch)
        for epoch in windows["epochs_s"]
    ]
    m["slowdown"] = probe.slowdown()


def _reap_group(process: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Stop the child's whole process group and wait for it to end."""
    pgid = process.pid
    if process.poll() is None:
        _kill_group(pgid)
        process.wait()
    give_up = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > give_up:
            _kill_group(pgid)
            give_up = float("inf")
        time.sleep(0.02)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    """Whether a process of group *pgid* is still running (zombies,
    which only wait to be reaped by init, do not count)."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return False
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # After the command name: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def check_measurements(measurements: List[Dict], seed: int,
                       expected_digest: Optional[str]) -> List[str]:
    """Output-check problems of one run's full measurements ([] = pass).

    Every measurement must have passed its own checks, all must have
    produced the same dataset sha256, and that sha256 must equal
    *expected_digest* when one is given.
    """
    problems = []
    for index, m in enumerate(measurements):
        if "error" in m:
            problems.append("measurement {} failed: {}".format(
                index, m["error"].strip().splitlines()[-1]
            ))
            continue
        for name, ok in sorted(m.get("checks", {}).items()):
            if not ok:
                problems.append("measurement {}: check {} failed".format(
                    index, name
                ))
    digests = {m.get("digest") for m in measurements if "error" not in m}
    if len(digests) > 1:
        problems.append(
            "dataset sha256 differs between repeats of seed {}: {}".format(
                seed, sorted(digests)
            )
        )
    if expected_digest is not None and len(digests) == 1:
        (digest,) = digests
        if digest != expected_digest:
            problems.append(
                "dataset sha256 {} != reference {} for seed {}".format(
                    digest, expected_digest, seed
                )
            )
    return problems


def expected_digest(workload: str, seed: int, size: str) -> Optional[str]:
    """The recorded dataset sha256 for (workload, seed, size), if any."""
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    return reference.get(size, {}).get(workload, "<none recorded>")


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(ok: List[Dict]) -> Dict[str, float]:
    """Each end-to-end metric: the median over the run's measurements.

    Times are in reference seconds (see ``probe.py``).
    """
    return {
        "setup_s": median([m["setup_s"] for m in ok]),
        "wall_s": median([m["wall_s"] for m in ok]),
        "meas_per_s": median(
            [m["measurements"] / m["campaign_s"] for m in ok]
        ),
        "epoch_s": median([e for m in ok for e in m["epochs_s"]]),
        "peak_rss_mb": median([m["peak_rss_mb"] for m in ok]),
    }


def run(args) -> Tuple[Dict, List[str]]:
    """Execute one benchmark run; returns (result, report lines)."""
    started = time.monotonic()
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, "run-{}".format(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(args, workdir, started + RUN_BUDGET_S)
    lines: List[str] = []
    try:
        if args.trace:
            plain = runner.child()
            traced = runner.child(traced=True)
            measurements = [plain, traced]
        else:
            measurements = []
            measure_start = time.monotonic()
            while True:
                measurements.append(runner.child())
                if "error" in measurements[-1]:
                    break
                if (
                    len(measurements) >= MIN_MEASUREMENTS[args.size]
                    and time.monotonic() - measure_start >= args.seconds
                ):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    problems = check_measurements(
        measurements, args.seed,
        expected_digest(args.workload, args.seed, args.size),
    )
    attempted = sum(m.get("measurements", 0) for m in measurements)
    if problems:
        failed = max(1, attempted)
        attempted = max(1, attempted)
    else:
        failed = sum(m.get("failed_measurements", 0) for m in measurements)

    metrics: Dict[str, Dict] = {}
    ok = [m for m in measurements if "error" not in m]
    if args.trace:
        units = per_layer_units()
        layers = dict(traced.get("layers", {}))
        if "wall_s" in plain and "wall_s" in traced:
            layers["trace.overhead_share"] = (
                traced["wall_s"] / plain["wall_s"] - 1.0
            )
        for name, unit in units.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
    elif ok:
        for name, value in end_to_end(ok).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}

    lines.append("machine: " + json.dumps(machine_fingerprint(args.seed)))
    lines.append(
        "workload {} seed {} size {} trace {}: {} measurement process(es), "
        "{:.1f}s".format(
            args.workload, args.seed, args.size, args.trace,
            len(measurements), time.monotonic() - started,
        )
    )
    if ok:
        lines.append("dataset sha256: {}".format(ok[0].get("digest")))
    for index, m in enumerate(ok):
        raw = m["raw"]
        lines.append(
            "  measurement {}: setup {:.3f}s wall {:.3f}s campaign {:.3f}s "
            "artifacts {:.3f}s epochs {} peak {:.1f}MB, "
            "{} measurements; host slowdown {:.3f}, in reference seconds: "
            "setup {:.3f}s wall {:.3f}s campaign {:.3f}s epochs {}".format(
                index, raw["setup_s"], raw["wall_s"], raw["campaign_s"],
                raw["artifacts_s"],
                "/".join("{:.3f}".format(e) for e in raw["epochs_s"]),
                m["peak_rss_mb"], m["measurements"], m["slowdown"],
                m["setup_s"], m["wall_s"], m["campaign_s"],
                "/".join("{:.3f}".format(e) for e in m["epochs_s"]),
            )
        )
    for name, metric in metrics.items():
        lines.append("  {:<36} {:>16.6g} {}".format(
            name, metric["value"], metric["unit"]
        ))
    lines.append("fail_share: {}/{}".format(failed, attempted))
    for problem in problems:
        lines.append("CHECK FAILED: " + problem)
    for m in measurements:
        if "log_tail" in m:
            lines.append("--- child log tail ---\n" + m["log_tail"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _terminate(signum, _frame):
    """SIGTERM unwinds like Ctrl-C, so children are reaped and the work
    directory removed."""
    raise KeyboardInterrupt("signal {}".format(signum))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the reproduction."
    )
    parser.add_argument("--workload", required=True,
                        choices=("paper-inline", "chaos-pool",
                                 "service-epochs"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the smoke-test size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program at {} (expected src/repro)".format(
            os.path.join(ROOT, "src")
        ), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result, lines = run(args)
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    if not result["metrics"]:
        for line in lines:
            print(line, file=sys.stderr)
        print("perfbench: no measurement completed", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
