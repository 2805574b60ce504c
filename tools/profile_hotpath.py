"""Profile the campaign hot path with cProfile.

Run:  PYTHONPATH=src python tools/profile_hotpath.py [--scale S] [--seed N]
                                                     [--top K] [--sort KEY]
                                                     [--out FILE.pstats]

Builds a world, measures the whole fleet with ``Campaign.measure``
under cProfile (the world build itself is excluded — it is cold-path
code), and prints the top functions.  ``--out`` additionally writes
the raw pstats dump for snakeviz/pstats post-processing.

Interpretation notes (see docs/performance.md for the methodology):

* cProfile inflates the cost of small Python functions by roughly
  2-3x relative to C-dispatched work, so treat ``tottime`` as a
  ranking, not a wall-clock prediction;
* verify any cache or fast path suggested by a profile with the
  interleaved A/B benchmark before trusting it — several plausible
  caches in this codebase turned out to have a 0% hit rate.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.proxy.population import PopulationConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01,
                        help="fleet scale (default 0.01, ~480 nodes)")
    parser.add_argument("--seed", type=int, default=20210402)
    parser.add_argument("--top", type=int, default=40,
                        help="number of functions to print")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort key")
    parser.add_argument("--out", default=None,
                        help="also dump raw pstats data here")
    args = parser.parse_args()

    config = ReproConfig(
        seed=args.seed, population=PopulationConfig(scale=args.scale)
    )
    print("building world (scale={}, seed={})...".format(
        args.scale, args.seed))
    world = build_world(config)
    campaign = Campaign(world, atlas_probes_per_country=0)

    print("profiling campaign...")
    profiler = cProfile.Profile()
    profiler.enable()
    raw_doh, raw_do53 = campaign.measure()
    profiler.disable()

    measurements = len(raw_doh) + len(raw_do53)
    print("{} measurements\n".format(measurements))

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue())

    if args.out:
        stats.dump_stats(args.out)
        print("pstats dump written to {}".format(args.out))


if __name__ == "__main__":
    main()
