"""Tiny-scale smoke runs: every named metric, with its unit, on every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, per_layer_units  # noqa: E402

WORKLOADS = ("paper-inline", "chaos-pool", "service-epochs")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_emitted_metrics():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        per_layer_units()
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = benchmark_spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace and workload == "chaos-pool":
        # The crash drill fired: the respawned worker replayed batches.
        assert result["metrics"]["ckpt.batches_replayed"]["value"] > 0
    assert "machine: " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("paper-inline", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
