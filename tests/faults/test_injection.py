"""FaultInjector determinism and faulted-campaign integration.

The load-bearing property: every injector decision is a pure function
of stable identifiers, so a faulted campaign is exactly as
deterministic as a healthy one (the sharded executor's byte-identity
invariant must survive fault injection).
"""

import pytest

from repro.analysis.failures import (
    failure_reasons,
    provider_failure_rates,
)
from repro.core.config import ReproConfig
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultWindow,
    GilbertElliottChain,
    GilbertElliottLoss,
    NodeChurn,
    ProviderOutage,
    SuperProxyOverload,
)
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig


class TestInjectorDeterminism:
    def _injector(self, plan=None, world_seed=42):
        return FaultInjector(plan or FaultPlan.chaos(seed=1), world_seed)

    def test_churn_decision_is_reproducible(self):
        a = self._injector()
        b = self._injector()
        decisions_a = [a.churn_delay_ms("n-1", i, 100.0) for i in range(200)]
        decisions_b = [b.churn_delay_ms("n-1", i, 100.0) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)   # rate=0.12, 200 draws
        assert any(d is None for d in decisions_a)

    def test_churn_keys_are_independent(self):
        injector = self._injector()
        by_node = [injector.churn_delay_ms("n-1", i, 100.0) for i in range(100)]
        other = [injector.churn_delay_ms("n-2", i, 100.0) for i in range(100)]
        assert by_node != other

    def test_churn_respects_window(self):
        plan = FaultPlan(node_churn=NodeChurn(
            rate=1.0, window=FaultWindow(start_ms=1000.0, end_ms=2000.0)
        ))
        injector = FaultInjector(plan, 42)
        assert injector.churn_delay_ms("n-1", 1, 500.0) is None
        assert injector.churn_delay_ms("n-1", 1, 1500.0) is not None
        assert injector.churn_delay_ms("n-1", 1, 2500.0) is None

    def test_churn_delay_within_bounds(self):
        plan = FaultPlan(node_churn=NodeChurn(
            rate=1.0, min_delay_ms=5.0, max_delay_ms=9.0
        ))
        injector = FaultInjector(plan, 42)
        for i in range(50):
            delay = injector.churn_delay_ms("n-1", i, 0.0)
            assert 5.0 <= delay <= 9.0

    def test_no_churn_without_plan_entry(self):
        injector = FaultInjector(FaultPlan(), 42)
        assert injector.churn_delay_ms("n-1", 1, 0.0) is None

    def test_world_seed_is_part_of_the_key(self):
        plan = FaultPlan(node_churn=NodeChurn(rate=0.5))
        a = [FaultInjector(plan, 1).churn_delay_ms("n", i, 0.0)
             for i in range(100)]
        b = [FaultInjector(plan, 2).churn_delay_ms("n", i, 0.0)
             for i in range(100)]
        assert a != b

    def test_provider_outage_modes(self):
        plan = FaultPlan(provider_outages=(
            ProviderOutage("quad9", mode="refuse",
                           window=FaultWindow(end_ms=1000.0)),
            ProviderOutage("google", mode="servfail"),
        ))
        injector = FaultInjector(plan, 42)
        assert injector.provider_refuses("quad9", 500.0)
        assert not injector.provider_refuses("quad9", 1500.0)  # window over
        assert not injector.provider_refuses("google", 500.0)  # wrong mode
        assert injector.provider_servfails("google", 500.0)
        assert not injector.provider_servfails("cloudflare", 500.0)

    def test_overload_hard_burst(self):
        plan = FaultPlan(superproxy_overload=SuperProxyOverload(
            rate=1.0, window=FaultWindow(start_ms=100.0, end_ms=200.0)
        ))
        injector = FaultInjector(plan, 42)
        assert not injector.superproxy_rejects("US", 50.0)
        assert injector.superproxy_rejects("US", 150.0)
        assert not injector.superproxy_rejects("US", 250.0)

    def test_partial_overload_counter_advances(self):
        # With rate<1 the decision is drawn per request; the per-proxy
        # counter keys the draw, so a fixed timestamp still yields a
        # mixed, reproducible sequence.
        plan = FaultPlan(superproxy_overload=SuperProxyOverload(rate=0.5))
        a = FaultInjector(plan, 42)
        b = FaultInjector(plan, 42)
        seq_a = [a.superproxy_rejects("US", 10.0) for _ in range(100)]
        seq_b = [b.superproxy_rejects("US", 10.0) for _ in range(100)]
        assert seq_a == seq_b
        assert True in seq_a and False in seq_a


class TestGilbertElliott:
    def test_chain_is_reproducible(self):
        plan = FaultPlan(bursty_loss=GilbertElliottLoss())
        a = FaultInjector(plan, 42).make_burst_loss()
        b = FaultInjector(plan, 42).make_burst_loss()
        assert [a.lost() for _ in range(500)] == [b.lost() for _ in range(500)]

    def test_no_chain_without_spec(self):
        assert FaultInjector(FaultPlan(), 42).make_burst_loss() is None

    def test_stuck_bad_state_loses_everything(self):
        spec = GilbertElliottLoss(
            p_enter_bad=1.0, p_exit_bad=0.0, bad_loss_rate=1.0
        )
        chain = FaultInjector(
            FaultPlan(bursty_loss=spec), 42
        ).make_burst_loss()
        assert all(chain.lost() for _ in range(20))

    def test_losses_cluster_into_bursts(self):
        # Mean sojourn in the bad state is 1/p_exit_bad = 10
        # transmissions, so losses should arrive in runs: the number of
        # loss runs must be well below the number of losses.
        spec = GilbertElliottLoss(
            p_enter_bad=0.02, p_exit_bad=0.1, bad_loss_rate=0.9
        )
        chain = FaultInjector(
            FaultPlan(bursty_loss=spec), 42
        ).make_burst_loss()
        outcomes = [chain.lost() for _ in range(5000)]
        losses = sum(outcomes)
        runs = sum(
            1 for i, lost in enumerate(outcomes)
            if lost and (i == 0 or not outcomes[i - 1])
        )
        assert losses > 100
        assert runs < 0.6 * losses


def _faulted_config(seed=91, scale=0.006, plan=None):
    return ReproConfig(
        seed=seed,
        population=PopulationConfig(scale=scale),
        faults=plan or FaultPlan.chaos(seed=3),
    )


def _campaign(config):
    return run_parallel_campaign(
        config, workers=1, num_shards=1, atlas_probes_per_country=0
    )


class TestFaultedCampaign:
    """Acceptance: churn + outage + overload + bursty loss, end to end."""

    @pytest.fixture(scope="class")
    def chaos_result(self):
        return _campaign(_faulted_config())

    def test_campaign_completes_under_chaos(self, chaos_result):
        assert chaos_result.dataset.doh
        assert chaos_result.dataset.do53

    def test_failures_carry_error_strings(self, chaos_result):
        failed = [s for s in chaos_result.dataset.doh if not s.success]
        assert failed
        assert all(s.error for s in failed)
        for failure in chaos_result.failures:
            assert failure.error
            assert failure.attempts >= 1

    def test_failed_samples_have_no_timings(self, chaos_result):
        for sample in chaos_result.dataset.doh:
            if not sample.success:
                assert sample.t_doh_ms is None
                assert sample.t_dohr_ms is None
                assert sample.rtt_estimate_ms is None

    def test_failure_reasons_are_categorised(self, chaos_result):
        reasons = dict(failure_reasons(chaos_result.dataset))
        assert reasons
        # Chaos injects overload bursts and churn; both must show up as
        # named categories, not lumped into "other".
        assert reasons.get("other", 0) < sum(reasons.values())

    def test_same_seed_reruns_byte_identical(self):
        config = _faulted_config(scale=0.004)
        first = _campaign(config)
        second = _campaign(config)
        assert first.dataset.to_json() == second.dataset.to_json()
        assert first.failures == second.failures


class TestOutageRanksWorst:
    def test_fully_outaged_provider_has_highest_failure_rate(self):
        # quad9 refuses connections for the whole campaign: its failure
        # rate must be ~100% and rank worst among the four providers.
        plan = FaultPlan(
            seed=5,
            provider_outages=(ProviderOutage("quad9", FaultWindow()),),
        )
        config = _faulted_config(seed=92, scale=0.004, plan=plan)
        result = _campaign(config)
        rates = provider_failure_rates(result.dataset)
        assert rates[0].key == "quad9"
        quad9 = rates[0]
        assert quad9.failures == quad9.attempts
        others = {r.key: r.rate for r in rates[1:]}
        assert all(rate < 1.0 for rate in others.values())


class TestServfailOutage:
    def test_servfail_surfaces_as_failed_measurement(self):
        plan = FaultPlan(
            seed=6,
            provider_outages=(
                ProviderOutage("quad9", FaultWindow(), mode="servfail"),
            ),
        )
        config = _faulted_config(seed=93, scale=0.004, plan=plan)
        result = _campaign(config)
        quad9 = [s for s in result.dataset.doh if s.provider == "quad9"]
        assert quad9
        assert all(not s.success for s in quad9)
        assert any("SERVFAIL" in s.error for s in quad9)
        # HTTPS stayed up — other providers are unaffected.
        assert result.dataset.successful_doh()
