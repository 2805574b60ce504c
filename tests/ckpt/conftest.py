"""Fixtures and subprocess helpers for the checkpoint suite.

Crash drills need a real process to kill: ``WorkerCrash`` dies with
``os._exit`` and SIGKILL is, by definition, not survivable in-process.
The runner script below is written to ``tmp_path`` (spawn-based
multiprocessing cannot re-import an in-memory ``__main__``) and driven
via argv.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: One inline single-shard checkpointed campaign, parameterised
#: entirely via argv:
#:   runner.py <faults> <crash_after> <ckpt_dir> <resume> <out.json>
#: faults       -- "none" or "chaos"
#: crash_after  -- 0 for no crash, N to die before batch index N
#: ckpt_dir     -- "-" for an uncheckpointed run
#: With workers=1 the shard runs in the runner process itself, so a
#: WorkerCrash ``os._exit``s the runner, as the drills need.
RUNNER = '''
import dataclasses
import sys

from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

faults, crash_after, ckpt_dir, resume, out = sys.argv[1:6]
plan = FaultPlan.chaos(seed=5) if faults == "chaos" else None
if int(crash_after):
    plan = dataclasses.replace(
        plan or FaultPlan(),
        worker_crash=WorkerCrash(after_batches=int(crash_after)),
    )
config = ReproConfig(
    seed=424,
    population=PopulationConfig(scale=0.005),
    batch_size=25,
    faults=plan,
)
result = run_parallel_campaign(
    config,
    workers=1,
    num_shards=1,
    atlas_probes_per_country=0,
    checkpoint_dir=None if ckpt_dir == "-" else ckpt_dir,
    resume=resume,
)
result.dataset.save(out)
'''


@pytest.fixture()
def runner(tmp_path):
    """Path of the runner script plus an invoker bound to tmp_path."""
    script = tmp_path / "runner.py"
    script.write_text(RUNNER)

    def invoke(faults, crash_after, ckpt_dir, resume, out, check=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, str(script), faults, str(crash_after),
             ckpt_dir, resume, out],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if check is not None:
            assert proc.returncode == check, proc.stderr
        return proc

    return invoke


def read_manifest(ckpt_dir) -> dict:
    with open(os.path.join(str(ckpt_dir), "checkpoint.json")) as handle:
        return json.load(handle)
