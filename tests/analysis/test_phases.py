"""Phase decomposition reconciles with the paper's Equations 6–8.

The acceptance criterion for the observability layer: for every
successful sample, the trace's per-phase durations sum to the derived
t_DoH / t_Do53 the dataset records — within float tolerance, with no
phase unaccounted for.
"""

import pytest

from repro.analysis.phases import (
    DOH_PHASES,
    do53_phases,
    doh_phases,
    phase_breakdown,
    phase_summary,
    reconcile_with_dataset,
    render_phase_table,
    trace_rtt,
    trace_t_doh,
)
from repro.core.config import ReproConfig
from repro.core.doh_timing import compute_rtt_estimate, compute_t_doh
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig


@pytest.fixture(scope="module")
def observed():
    config = ReproConfig(population=PopulationConfig(scale=0.01))
    return run_parallel_campaign(
        config, workers=1, num_shards=1, max_nodes=16,
        atlas_probes_per_country=1, atlas_repetitions=1, observe=True,
    )


class TestDecomposition:
    def test_doh_phase_sum_equals_equation7(self, observed):
        checked = 0
        for raw in observed.raw_doh:
            if not raw.success:
                continue
            trace = observed.traces.get(
                raw.node_id, raw.provider, raw.run_index
            )
            assert trace is not None
            phases = doh_phases(trace)
            assert set(phases) == set(DOH_PHASES)
            assert sum(phases.values()) == pytest.approx(
                compute_t_doh(raw), abs=1e-9
            )
            assert trace_rtt(trace) == pytest.approx(
                compute_rtt_estimate(raw), abs=1e-9
            )
            checked += 1
        assert checked > 0

    def test_do53_phase_matches_dns_time(self, observed):
        checked = 0
        for raw in observed.raw_do53:
            if not raw.success:
                continue
            trace = observed.traces.get(raw.node_id, "do53", raw.run_index)
            assert do53_phases(trace)["exit_dns"] == pytest.approx(
                raw.dns_ms
            )
            checked += 1
        assert checked > 0

    def test_failed_trace_decomposes_to_none(self):
        from repro.obs.trace import SampleTrace

        empty = SampleTrace(
            node_id="X", provider="cloudflare", run_index=0,
            kind="doh", success=False, error="tunnel failed", events=(),
        )
        assert doh_phases(empty) is None
        assert do53_phases(empty) is None
        assert trace_t_doh(empty) is None
        assert trace_rtt(empty) is None


class TestReconciliation:
    def test_dataset_reconciles_within_tolerance(self, observed):
        report = reconcile_with_dataset(observed.traces, observed.dataset)
        assert report.ok, report.describe()
        assert report.checked > 0
        assert report.missing_traces == 0
        assert report.worst_diff_ms < 1e-6
        assert "OK" in report.describe()

    def test_mismatch_detected_when_traces_lie(self, observed):
        from repro.obs.trace import PhaseEvent, SampleTrace, TraceRecorder

        tampered = TraceRecorder()
        for trace in observed.traces:
            events = tuple(
                PhaseEvent(e.name, e.source, e.start_ms,
                           e.duration_ms + 1.0)
                if e.name == "exit_dns" else e
                for e in trace.events
            )
            tampered.merge_snapshot([SampleTrace(
                node_id=trace.node_id, provider=trace.provider,
                run_index=trace.run_index, kind=trace.kind,
                success=trace.success, error=trace.error, events=events,
            ).to_json()])
        report = reconcile_with_dataset(tampered, observed.dataset)
        assert not report.ok
        assert "MISMATCH" in report.describe()


class TestAggregation:
    def test_breakdown_covers_every_provider(self, observed):
        breakdown = phase_breakdown(observed.traces)
        providers = {
            s.provider for s in observed.dataset.doh if s.success
        }
        assert providers <= set(breakdown)
        assert "do53" in breakdown
        for aggregates in breakdown.values():
            for aggregate in aggregates:
                assert aggregate.count > 0
                assert aggregate.min_ms <= aggregate.mean_ms \
                    <= aggregate.max_ms

    def test_summary_is_json_ready(self, observed):
        import json

        summary = phase_summary(observed.traces)
        assert json.loads(json.dumps(summary)) == summary

    def test_render_phase_table(self, observed):
        lines = render_phase_table(phase_breakdown(observed.traces))
        assert any("exit_dns" in line for line in lines)
        assert any("query_roundtrip" in line for line in lines)

    def test_render_empty_breakdown(self):
        lines = render_phase_table({})
        assert any("no successful traces" in line for line in lines)
