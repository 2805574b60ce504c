"""Failure injection: the pipeline must degrade, not break.

Cranks loss and latency pathologies far beyond calibration and checks
that the campaign still completes, failures are *reported* (not
silently dropped or mis-measured), and the plausibility filter catches
loss-corrupted estimates.
"""

import dataclasses

import pytest

from repro.core.config import ReproConfig
from repro.netsim.latency import LatencyParams
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig


def _campaign(config):
    return run_parallel_campaign(
        config, workers=1, num_shards=1, atlas_probes_per_country=0
    )


class TestLossyWorld:
    @pytest.fixture(scope="class")
    def lossy_result(self):
        # Queueing jitter an order of magnitude above calibration and a
        # heavy-tailed sigma: Assumption 1 (stable RTT) breaks often.
        config = ReproConfig(
            seed=71,
            population=PopulationConfig(scale=0.006),
            latency=LatencyParams(
                queueing_median_ms=12.0,
                queueing_sigma=1.8,
            ),
        )
        return _campaign(config)

    def test_campaign_completes(self, lossy_result):
        assert lossy_result.dataset.doh
        assert lossy_result.dataset.do53

    def test_failures_are_reported_not_dropped(self, lossy_result):
        dataset = lossy_result.dataset
        attempts = len(dataset.doh)
        successes = len(dataset.successful_doh())
        assert attempts > successes  # some measurements corrupted
        failed = [s for s in dataset.doh if not s.success]
        assert all(s.error for s in failed)

    def test_plausibility_filter_engaged(self, lossy_result):
        implausible = [
            s for s in lossy_result.dataset.doh
            if not s.success and "implausible" in s.error
        ]
        assert implausible  # jitter produced loss-corrupted estimates

    def test_surviving_estimates_are_sane(self, lossy_result):
        for sample in lossy_result.dataset.successful_doh():
            assert 0 < sample.t_dohr_ms <= sample.t_doh_ms
            assert sample.t_doh_ms < 60000


class TestDegenerateConfigs:
    def test_single_provider_world(self):
        config = dataclasses.replace(
            ReproConfig(
                seed=72, population=PopulationConfig(scale=0.004)
            ),
            providers=("cloudflare",),
        )
        result = _campaign(config)
        assert result.dataset.providers() == ["cloudflare"]

    def test_one_run_per_client(self):
        config = dataclasses.replace(
            ReproConfig(
                seed=73, population=PopulationConfig(scale=0.004)
            ),
            runs_per_client=1,
        )
        result = _campaign(config)
        per_node = {}
        for sample in result.dataset.doh:
            per_node.setdefault(sample.node_id, 0)
            per_node[sample.node_id] += 1
        assert set(per_node.values()) == {4}  # 4 providers x 1 run

    def test_tiny_batch_size(self):
        config = dataclasses.replace(
            ReproConfig(
                seed=74, population=PopulationConfig(scale=0.003)
            ),
            batch_size=3,
        )
        result = _campaign(config)
        assert result.dataset.successful_doh()
