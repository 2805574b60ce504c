"""Provider comparison: the paper's §5.2 analysis as a script.

Compares the four public DoH services on resolution time (first query
and connection reuse), observed points of presence, and routing
quality (the Figure-6 "potential improvement" metric), then prints a
ranking like the one the paper's evaluation builds.

Run:  python examples/provider_comparison.py [scale]
"""

import sys

from repro import ReproConfig, run_parallel_campaign
from repro.analysis.pops import pop_distance_stats
from repro.analysis.providers import provider_summaries
from repro.analysis.report import format_table
from repro.proxy.population import PopulationConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.04
    config = ReproConfig(
        seed=2021, population=PopulationConfig(scale=scale)
    )
    dataset = run_parallel_campaign(
        config, num_shards=1, atlas_probes_per_country=0
    ).dataset

    summaries = {s.provider: s for s in provider_summaries(dataset)}
    routing = {s.provider: s for s in pop_distance_stats(dataset)}

    rows = []
    for name in sorted(summaries):
        s = summaries[name]
        r = routing[name]
        rows.append((
            name,
            "{:.0f}".format(s.median_doh1_ms),
            "{:.0f}".format(s.median_dohr_ms),
            "{:+.0f}".format(s.dohr_vs_do53_ms),
            s.observed_pops,
            "{:.0f}".format(r.median_improvement_miles),
            "{:.0%}".format(r.share_nearest),
        ))
    print(format_table(
        ("provider", "DoH1 ms", "DoHR ms", "DoHR-Do53", "PoPs",
         "improve mi", "nearest"),
        rows,
    ))

    best = min(summaries.values(), key=lambda s: s.median_doh1_ms)
    runner_up = sorted(
        summaries.values(), key=lambda s: s.median_doh1_ms
    )[1]
    advantage = 1.0 - best.median_doh1_ms / runner_up.median_doh1_ms
    print(
        "\n{} leads: {:.0f}ms median DoH1, {:.0%} faster than {} "
        "(paper: Cloudflare, 21% faster than the next service), "
        "with {} observed PoPs (paper: 146).".format(
            best.provider, best.median_doh1_ms, advantage,
            runner_up.provider, best.observed_pops,
        )
    )
    worst_routing = max(
        routing.values(), key=lambda r: r.median_improvement_miles
    )
    print(
        "{} has the worst PoP assignment: only {:.0%} of clients reach "
        "their nearest PoP (paper: Quad9 at 21%), with a median "
        "potential improvement of {:.0f} miles (paper: 769).".format(
            worst_routing.provider, worst_routing.share_nearest,
            worst_routing.median_improvement_miles,
        )
    )


if __name__ == "__main__":
    main()
