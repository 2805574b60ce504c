"""The digital-divide analysis: who pays for a switch to DoH? (§6)

The paper's motivating question: would a unilateral DoH-by-default
rollout disproportionately slow down clients in countries with little
Internet-infrastructure investment?  This script runs the campaign,
fits the paper's logistic and linear models, and prints the §6 story:
odds of a slowdown by bandwidth/income/AS-count, and the raw-delta
coefficients.

Run:  python examples/digital_divide.py [scale]
"""

import sys

from repro import ReproConfig, run_parallel_campaign
from repro.analysis.explain import (
    linear_delta_model,
    logistic_slowdown_model,
)
from repro.analysis.slowdown import client_provider_stats
from repro.geo.countries import COUNTRIES
from repro.proxy.population import PopulationConfig
from repro.stats.descriptive import median


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    config = ReproConfig(
        seed=2021, population=PopulationConfig(scale=scale)
    )
    dataset = run_parallel_campaign(
        config, num_shards=1, atlas_probes_per_country=0
    ).dataset
    stats = client_provider_stats(dataset)

    # Raw medians by nationwide bandwidth (the paper's headline: 350ms
    # vs 112ms slowdown for slow vs fast countries).
    slow = [s.delta(1) for s in stats
            if not COUNTRIES[s.country].fast_internet]
    fast = [s.delta(1) for s in stats
            if COUNTRIES[s.country].fast_internet]
    print("Median DoH1 slowdown by nationwide bandwidth:")
    print("  <25 Mbps countries: {:+.0f} ms   (paper: +350)".format(
        median(slow)))
    print("  >25 Mbps countries: {:+.0f} ms   (paper: +112)".format(
        median(fast)))

    print("\nLogistic model — odds of a worse-than-median slowdown")
    print("(vs the control level; paper depth-1 values in parens):")
    result = logistic_slowdown_model(dataset, n=1, stats=stats)
    for variable, level, paper in (
        ("bandwidth", "slow", 1.81),
        ("income", "low", 1.98),
        ("ases", "low", 1.99),
        ("resolver", "nextdns", 2.25),
    ):
        print("  {:<9} {:<8} {:>5.2f}x  ({:.2f}x)".format(
            variable, level,
            result.odds_of_slowdown(variable, level), paper,
        ))

    print("\nLinear model — scaled coefficients on the raw delta, ms")
    print("(paper: bandwidth -134.5, ASes -80.8, resolver dist +93.4):")
    linear = linear_delta_model(dataset, n=1, stats=stats)
    for metric in ("bandwidth", "num_ases", "nameserver_dist",
                   "resolver_dist", "gdp"):
        marker = "" if linear.p_value(metric) < 0.001 else " (n.s.)"
        print("  {:<16} {:>+8.1f}{}".format(
            metric, linear.scaled_coefficient(metric), marker))

    print(
        "\nConclusion (paper §6): a universal switch to DoH would "
        "disproportionately impact countries with lower income and "
        "less Internet infrastructure investment."
    )


if __name__ == "__main__":
    main()
