"""Crash-resume parity: interrupted + resumed == never interrupted.

The hard invariant of ``repro.ckpt``: a campaign that dies mid-flight
and resumes from its ledger must produce **byte-identical** dataset
files to one that ran straight through.  Exercised three ways:

* the ``worker_crash`` fault (``os._exit`` before a batch — the
  deterministic preemption drill),
* a real ``SIGKILL`` landing at an arbitrary moment mid-campaign,
* a crashed shard worker under the parallel executor at ``workers=4``.

``WorkerCrash`` never touches the simulation, so the baseline config
simply omits it; everything else matches the crashed run exactly.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, WorkerCrash, WORKER_CRASH_EXIT
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

from tests.ckpt.conftest import read_manifest


@pytest.mark.parametrize("faults", ["none", "chaos"])
def test_crash_then_resume_is_byte_identical(runner, tmp_path, faults):
    ckpt = str(tmp_path / "ckpt")
    crashed_out = str(tmp_path / "resumed.json")
    baseline_out = str(tmp_path / "baseline.json")

    # Fresh start dies before batch 2, exactly like a preemption.
    proc = runner(faults, 2, ckpt, "never", crashed_out)
    assert proc.returncode == WORKER_CRASH_EXIT, proc.stderr
    assert not os.path.exists(crashed_out)

    # Resume sails past the crash point and completes.
    runner(faults, 2, ckpt, "auto", crashed_out, check=0)
    manifest = read_manifest(ckpt)
    assert manifest["status"] == "complete"
    unit = manifest["runs"][-1]["units"][0]
    assert unit["batches_replayed"] == 2  # batches 0 and 1 from the ledger

    # Baseline: same campaign, no crash, no checkpoint.
    runner(faults, 0, "-", "never", baseline_out, check=0)

    with open(crashed_out, "rb") as a, open(baseline_out, "rb") as b:
        assert a.read() == b.read()


def test_sigkill_then_resume_is_byte_identical(runner, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    ledger = os.path.join(ckpt, "shard-0.ledger")
    resumed_out = str(tmp_path / "resumed.json")
    baseline_out = str(tmp_path / "baseline.json")

    # Launch an uncrashed checkpointed run and SIGKILL it once the
    # journal holds at least two committed batches — an arbitrary
    # mid-campaign moment, unlike the batch-aligned WorkerCrash drill.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, str(tmp_path / "runner.py"), "none", "0",
         ckpt, "never", resumed_out],
        env=env,
    )
    try:
        deadline = time.time() + 240
        while time.time() < deadline:
            if proc.poll() is not None:
                pytest.fail("campaign finished before SIGKILL landed; "
                            "grow the fleet scale in conftest.RUNNER")
            try:
                with open(ledger, "rb") as handle:
                    committed = handle.read().count(b'"k":"batch"')
            except FileNotFoundError:
                committed = 0
            if committed >= 2:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    assert not os.path.exists(resumed_out)

    runner("none", 0, ckpt, "auto", resumed_out, check=0)
    manifest = read_manifest(ckpt)
    # At least one batch replays; the kill may land between a ledger
    # append and its state-blob commit, in which case reconcile rolls
    # that batch back — so this can be one less than the ledger held.
    assert manifest["runs"][-1]["units"][0]["batches_replayed"] >= 1

    runner("none", 0, "-", "never", baseline_out, check=0)
    with open(resumed_out, "rb") as a, open(baseline_out, "rb") as b:
        assert a.read() == b.read()


class TestParallelResume:
    """Shard-worker crash recovery under the sharded executor."""

    CONFIG = ReproConfig(
        seed=424,
        population=PopulationConfig(scale=0.005),
        batch_size=25,
    )

    def _run(self, tmp_path, crash, checkpoint_dir=None, resume="never"):
        config = self.CONFIG
        if crash:
            config = dataclasses.replace(
                config,
                faults=FaultPlan(
                    worker_crash=WorkerCrash(after_batches=1,
                                             shard_index=0)
                ),
            )
        return run_parallel_campaign(
            config,
            workers=4,
            num_shards=4,
            atlas_probes_per_country=0,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )

    def test_crashed_shard_resumes_byte_identical(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        # Shard 0's worker dies after committing one batch; the
        # executor retries it in a fresh pool and the retry resumes
        # from the shard's ledger rather than remeasuring.
        result = self._run(tmp_path, crash=True, checkpoint_dir=ckpt)
        baseline = self._run(tmp_path, crash=False)

        crashed_path = tmp_path / "crashed.json"
        baseline_path = tmp_path / "baseline.json"
        result.dataset.save(str(crashed_path))
        baseline.dataset.save(str(baseline_path))
        assert crashed_path.read_bytes() == baseline_path.read_bytes()

        manifest = read_manifest(ckpt)
        assert manifest["status"] == "complete"
        units = {unit["role"]: unit
                 for unit in manifest["runs"][-1]["units"]}
        assert units["shard-0"]["batches_replayed"] >= 1

    def test_completed_checkpoint_replays_all_shards(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = self._run(tmp_path, crash=False, checkpoint_dir=ckpt)
        second = self._run(tmp_path, crash=False, checkpoint_dir=ckpt,
                           resume="auto")

        first_path = tmp_path / "first.json"
        second_path = tmp_path / "second.json"
        first.dataset.save(str(first_path))
        second.dataset.save(str(second_path))
        assert first_path.read_bytes() == second_path.read_bytes()

        manifest = read_manifest(ckpt)
        for unit in manifest["runs"][-1]["units"]:
            assert unit["batches_measured"] == 0
