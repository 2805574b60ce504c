"""Calibration harness: prints paper-target metrics side by side.

Run: ``python tools/calibrate.py [scale] [seed]``

Not part of the library — a development tool used to tune the latency
model and provider parameters against the paper's reported numbers.
"""

import sys
import time

from repro.analysis.geography import (
    country_deltas,
    country_medians,
    share_of_countries_benefiting,
)
from repro.analysis.pops import pop_distance_stats
from repro.analysis.providers import provider_summaries
from repro.analysis.slowdown import client_provider_stats, headline_stats
from repro.core import ReproConfig
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig
from repro.stats.descriptive import median


PAPER = {
    "doh1": 415.0, "dohr(cf)": 257.0, "do53": 234.0,
    "provider doh1": {"cloudflare": 338, "google": 429, "nextdns": 467, "quad9": 447},
    "provider dohr": {"cloudflare": 257, "google": 315, "nextdns": None, "quad9": 298},
    "speedup doh1": 0.191, "speedup doh10": 0.28, "tripled": 0.10,
    "multipliers": {1: 1.84, 10: 1.24, 100: 1.18, 1000: 1.17},
    "delta10 median": 65.0,
    "country doh1/do53": (564.7, 332.9), "countries benefiting": 0.088,
    "pop improvement miles": {"cloudflare": 46, "google": 44, "nextdns": 6, "quad9": 769},
    "share nearest quad9": 0.21,
    "share>1000mi": {"cloudflare": 0.26, "google": 0.10},
    "fig7 delta10": {"cloudflare": 49.65, "nextdns": 159.62},
}


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20210402
    t0 = time.time()
    config = ReproConfig(seed=seed, population=PopulationConfig(scale=scale))
    result = run_parallel_campaign(config, workers=1, num_shards=1)
    dataset = result.dataset
    print("scale={} seed={} wall={:.0f}s".format(scale, seed, time.time() - t0))
    print(dataset.summary())
    print("discard rate {:.4f} (paper 0.0088)".format(result.discard_rate))

    h = headline_stats(dataset)
    print("\n== headline (paper) ==")
    print("doh1 {:.0f} (415)  dohr {:.0f}  do53 {:.0f} (234)".format(
        h.median_doh1_ms, h.median_dohr_ms, h.median_do53_ms))
    print("delta10/query {:.0f} (65)".format(h.median_delta10_ms))
    print("speedup doh1 {:.3f} (0.191)  doh10 {:.3f} (0.28)  tripled {:.3f} (0.10)".format(
        h.share_speedup_doh1, h.share_speedup_doh10, h.share_tripled_doh1))
    print("multipliers", {k: round(v, 2) for k, v in h.median_multipliers.items()},
          "(1.84/1.24/1.18/1.17)")

    print("\n== providers (paper doh1/dohr) ==")
    for s in provider_summaries(dataset):
        print("{:<11} doh1 {:>4.0f} ({})  dohr {:>4.0f} ({})  pops {:>3}".format(
            s.provider, s.median_doh1_ms,
            PAPER["provider doh1"].get(s.provider, "-"),
            s.median_dohr_ms,
            PAPER["provider dohr"].get(s.provider, "-"),
            s.observed_pops))

    cm = country_medians(dataset)
    print("\n== geography ==")
    print("country medians doh1 {:.0f} (564.7)  do53 {:.0f} (332.9)".format(*cm))
    print("countries benefiting {:.3f} (0.088)".format(
        share_of_countries_benefiting(dataset)))
    deltas = country_deltas(dataset, n=10)
    for provider in sorted({d.provider for d in deltas}):
        values = [d.delta_ms for d in deltas if d.provider == provider]
        print("fig7 {:<11} median delta10 {:>6.1f}".format(
            provider, median(values)))

    print("\n== pops (paper improvement miles / nearest share) ==")
    for s in pop_distance_stats(dataset):
        print(
            "{:<11} improve {:>5.0f}mi ({})  nearest {:.2f}  >1000mi {:.2f}"
            "  dist {:>5.0f}mi".format(
                s.provider, s.median_improvement_miles,
                PAPER["pop improvement miles"].get(s.provider, "-"),
                s.share_nearest, s.share_over_1000_miles,
                s.median_distance_miles))


if __name__ == "__main__":
    main()
