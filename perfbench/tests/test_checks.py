"""The output check rejects a perturbed dataset."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import check_measurements  # noqa: E402
from workloads import Tracer, WORKLOADS, file_sha256  # noqa: E402


def measurement(digest, **checks):
    return {"digest": digest, "checks": dict({"ok": True}, **checks)}


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    """A small real dataset, saved the way the workloads save it."""
    from repro.core.config import ReproConfig
    from repro.parallel.executor import run_parallel_campaign
    from repro.proxy.population import PopulationConfig

    config = ReproConfig(seed=7, population=PopulationConfig(scale=0.004))
    dataset = run_parallel_campaign(config, workers=1, max_nodes=16,
                                    atlas_probes_per_country=0).dataset
    path = str(tmp_path_factory.mktemp("ds") / "dataset.json")
    dataset.save(path)
    return path


def perturb(path, out):
    """Nudge one DoH timing by one part in a billion and save again."""
    from repro.dataset.store import Dataset

    with open(path) as handle:
        data = json.load(handle)
    for sample in data["doh"]:
        for key, value in sample.items():
            if isinstance(value, float) and value > 0:
                sample[key] = value * (1 + 1e-9)
                Dataset.from_json(data).save(out)
                return
    raise AssertionError("no float timing to perturb")


def test_identical_repeats_pass():
    assert check_measurements([measurement("a"), measurement("a")], 1,
                              None) == []
    assert check_measurements([measurement("a")], 0, "a") == []


def test_perturbed_dataset_is_rejected(saved_dataset, tmp_path):
    reference = file_sha256(saved_dataset)
    bad = str(tmp_path / "perturbed.json")
    perturb(saved_dataset, bad)
    digest = file_sha256(bad)
    assert digest != reference
    # Against the recorded reference ...
    problems = check_measurements([measurement(digest)], 0, reference)
    assert problems and "reference" in problems[0]
    # ... and across repeats of one seed.
    problems = check_measurements(
        [measurement(reference), measurement(digest)], 5, None
    )
    assert problems and "differs between repeats" in problems[0]


def test_roundtrip_check_rejects_bytes_that_do_not_resave(saved_dataset,
                                                          tmp_path):
    from repro.dataset.store import Dataset

    workload = WORKLOADS["paper-inline"](0, "tiny", str(tmp_path),
                                         Tracer(full=False))
    workload._roundtrip(saved_dataset, Dataset.load(saved_dataset))
    assert workload.result["checks"]["save_load_save_identical"]

    # Same content, other bytes (re-indented): save -> load -> save no
    # longer reproduces the file, and the check says so.
    with open(saved_dataset) as handle:
        data = json.load(handle)
    reindented = str(tmp_path / "reindented.json")
    with open(reindented, "w") as handle:
        json.dump(data, handle, indent=1)
    workload._roundtrip(reindented, Dataset.load(reindented))
    assert not workload.result["checks"]["save_load_save_identical"]
    checks = workload.result["checks"]
    problems = check_measurements([measurement("x", **checks)], 1, None)
    assert problems == ["measurement 0: check save_load_save_identical failed"]


def test_failed_measurement_and_crash_drill_are_problems():
    problems = check_measurements(
        [measurement("a", crash_drill_replayed=False),
         {"error": "Traceback ...\nRuntimeError: boom\n"}],
        1, None,
    )
    assert problems == [
        "measurement 0: check crash_drill_replayed failed",
        "measurement 1 failed: RuntimeError: boom",
    ]
