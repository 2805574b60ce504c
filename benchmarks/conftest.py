"""Benchmark fixtures: one world + campaign shared by every artifact.

Scale is controlled with ``REPRO_BENCH_SCALE`` (default 0.06 — about
1,400 exit nodes, which reproduces every paper trend in ~30 s of wall
time).  Set it to 1.0 to collect the full 22,052-client dataset.

Each benchmark writes its rendered artifact (the reproduced table or
figure series) to ``results/<artifact>.txt`` and attaches the headline
numbers to the benchmark's ``extra_info`` so they appear in the
pytest-benchmark JSON.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.config import ReproConfig
from repro.core.groundtruth import GroundTruthHarness
from repro.core.world import build_world
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

BENCH_SEED = 20210402
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.06"))


@pytest.fixture(scope="session")
def bench_world():
    config = ReproConfig(
        seed=BENCH_SEED,
        population=PopulationConfig(scale=bench_scale()),
    )
    return build_world(config)


@pytest.fixture(scope="session")
def bench_result(bench_world):
    return run_parallel_campaign(
        bench_world.config, workers=1, num_shards=1,
        atlas_probes_per_country=8, atlas_repetitions=2,
    )


@pytest.fixture(scope="session")
def bench_dataset(bench_result):
    return bench_result.dataset


@pytest.fixture(scope="session")
def bench_gt_harness(bench_world):
    return GroundTruthHarness(bench_world, repetitions=10)


def save_artifact(name: str, text: str) -> None:
    """Persist a rendered artifact under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "{}.txt".format(name)
    path.write_text(text + "\n")
    print("\n" + text)
