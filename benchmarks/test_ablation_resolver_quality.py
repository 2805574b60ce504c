"""Ablation — who are the clients that DoH makes faster?

DESIGN.md calls out the default-resolver-quality knob: the paper's
19.1%-speedup population exists because some clients sit behind slow
or distant default resolvers.  Rebuilding the fleet with uniformly
good ISP resolvers (bad_resolver_rate = 0) must collapse the speedup
share.
"""

from benchmarks.conftest import BENCH_SEED, save_artifact
from repro.analysis.slowdown import headline_stats
from repro.core.config import ReproConfig
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

_SCALE = 0.03


def _run(bad_rate: float):
    config = ReproConfig(
        seed=BENCH_SEED,
        population=PopulationConfig(
            scale=_SCALE, bad_resolver_rate=bad_rate
        ),
    )
    dataset = run_parallel_campaign(
        config, workers=1, num_shards=1, atlas_probes_per_country=0
    ).dataset
    return headline_stats(dataset)


def test_ablation_resolver_quality(benchmark):
    baseline = _run(0.26)
    uniform = benchmark.pedantic(
        _run, args=(0.0,), rounds=1, iterations=1,
    )
    lines = [
        "Ablation: uniformly good default resolvers "
        "(bad_resolver_rate 0.26 -> 0.0)",
        "  speedup@DoH1   {:.1%} -> {:.1%}".format(
            baseline.share_speedup_doh1, uniform.share_speedup_doh1
        ),
        "  speedup@DoH10  {:.1%} -> {:.1%}".format(
            baseline.share_speedup_doh10, uniform.share_speedup_doh10
        ),
        "  median Do53    {:.0f} -> {:.0f} ms".format(
            baseline.median_do53_ms, uniform.median_do53_ms
        ),
    ]
    save_artifact("ablation_resolver_quality", "\n".join(lines))

    benchmark.extra_info["speedup_baseline"] = round(
        baseline.share_speedup_doh1, 3
    )
    benchmark.extra_info["speedup_uniform"] = round(
        uniform.share_speedup_doh1, 3
    )
    # The DoH-speedup population is mostly the bad-resolver population.
    assert uniform.share_speedup_doh1 < 0.6 * baseline.share_speedup_doh1
    assert uniform.share_speedup_doh10 < baseline.share_speedup_doh10
    # With good resolvers everywhere, Do53 gets faster.
    assert uniform.median_do53_ms < baseline.median_do53_ms
