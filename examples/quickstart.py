"""Quickstart: build a world, run a campaign, print the headlines.

Builds a reduced-scale replica of the paper's measurement platform
(simulated Internet + BrightData fleet + four DoH providers), collects
DoH and Do53 measurements from every exit node, and prints the §5
headline statistics next to the paper's numbers.

Run:  python examples/quickstart.py [scale]
"""

import sys
import time

from repro import ReproConfig, run_parallel_campaign
from repro.analysis.slowdown import headline_stats
from repro.proxy.population import PopulationConfig


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.04
    print("Running the measurement campaign (scale={}) ...".format(scale))
    started = time.time()
    config = ReproConfig(
        seed=2021, population=PopulationConfig(scale=scale)
    )
    result = run_parallel_campaign(
        config, num_shards=1, atlas_probes_per_country=5
    )
    dataset = result.dataset
    print("  " + dataset.summary())
    print("  Maxmind mismatch discard rate: {:.2%} (paper: 0.88%)".format(
        result.discard_rate
    ))

    h = headline_stats(dataset)
    print("\nHeadline statistics (measured vs paper):")
    print("  median DoH1  {:>4.0f} ms   (415)".format(h.median_doh1_ms))
    print("  median Do53  {:>4.0f} ms   (234)".format(h.median_do53_ms))
    print("  median DoHR  {:>4.0f} ms".format(h.median_dohr_ms))
    print("  slowdown per query over 10-query connections: "
          "{:.0f} ms (65)".format(h.median_delta10_ms))
    print("  clients sped up by DoH on the first query: "
          "{:.1%} (19.1%)".format(h.share_speedup_doh1))
    print("  clients sped up over a 10-query connection: "
          "{:.1%} (28%)".format(h.share_speedup_doh10))
    print("  median Do53→DoH-N multipliers: " + " / ".join(
        "{:.2f}".format(h.median_multipliers[n]) for n in (1, 10, 100, 1000)
    ) + "   (1.84 / 1.24 / 1.18 / 1.17)")
    print("\nDone in {:.0f}s.".format(time.time() - started))


if __name__ == "__main__":
    main()
