"""Ablation — how much of Quad9's deficit is PoP assignment?

DESIGN.md calls this out: the paper attributes Quad9's poor showing
partly to anycast routing (only 21% of clients on the nearest PoP).
Rebuilding the world with *ideal* routing (every client gets its
nearest PoP, no infrastructure degradation) must erase the Figure-6
potential improvement entirely and speed up Quad9's DoH resolution.
"""

import dataclasses

from benchmarks.conftest import BENCH_SEED, save_artifact
from repro.analysis.pops import pop_distance_stats
from repro.analysis.providers import provider_summaries
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.doh.provider import PROVIDER_CONFIGS
from repro.parallel import ShardSpec
from repro.parallel.executor import _merge
from repro.parallel.worker import ShardTask, run_measurement_shard
from repro.proxy.population import PopulationConfig

_SCALE = 0.03


def _run(ideal: bool):
    config = ReproConfig(
        seed=BENCH_SEED, population=PopulationConfig(scale=_SCALE)
    )
    overrides = {
        name: dataclasses.replace(cfg, ideal_routing=ideal)
        for name, cfg in PROVIDER_CONFIGS.items()
    }
    # The patched world is not derivable from the config, so the one
    # shard measures it through the executor's world_factory hook.
    shard = run_measurement_shard(
        ShardTask(config, ShardSpec(0, 1)),
        world_factory=lambda: build_world(
            config, provider_configs=overrides
        ),
    )
    return _merge(config, [shard], []).dataset


def test_ablation_anycast(benchmark):
    baseline = _run(ideal=False)
    ideal = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)

    base_pop = {s.provider: s for s in pop_distance_stats(baseline)}
    ideal_pop = {s.provider: s for s in pop_distance_stats(ideal)}
    base_perf = {s.provider: s for s in provider_summaries(baseline)}
    ideal_perf = {s.provider: s for s in provider_summaries(ideal)}

    lines = ["Ablation: ideal anycast routing (always-nearest PoP)"]
    for provider in sorted(base_pop):
        lines.append(
            "  {:<11} improvement {:>4.0f} -> {:>3.0f} miles"
            "   dohr {:>4.0f} -> {:>4.0f} ms".format(
                provider,
                base_pop[provider].median_improvement_miles,
                ideal_pop[provider].median_improvement_miles,
                base_perf[provider].median_dohr_ms,
                ideal_perf[provider].median_dohr_ms,
            )
        )
    save_artifact("ablation_anycast", "\n".join(lines))

    # Ideal routing eliminates the potential improvement...
    for provider, stat in ideal_pop.items():
        assert stat.median_improvement_miles < 5.0, provider
        assert stat.share_nearest > 0.95
    # ...and buys Quad9 (the worst-routed provider) real latency.
    quad9_gain = (
        base_perf["quad9"].median_dohr_ms
        - ideal_perf["quad9"].median_dohr_ms
    )
    cloudflare_gain = (
        base_perf["cloudflare"].median_dohr_ms
        - ideal_perf["cloudflare"].median_dohr_ms
    )
    benchmark.extra_info["quad9_gain_ms"] = round(quad9_gain, 1)
    benchmark.extra_info["cloudflare_gain_ms"] = round(cloudflare_gain, 1)
    assert quad9_gain > 5.0
    assert quad9_gain > cloudflare_gain
