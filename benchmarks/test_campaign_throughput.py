"""Infrastructure benchmark — measurement throughput of the simulator.

Not a paper artifact: measures how fast the full measurement pipeline
(CONNECT tunnel, TLS, DoH exchange, header math) executes, in
measurements per wall-clock second.  Guards against performance
regressions that would make full-scale (22k-client) runs impractical.
"""

import json
import os
import pathlib
import random
import time

from repro.core.campaign import Campaign
from repro.ioutil import atomic_write_json
from repro.core.client import MeasurementClient
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.doh.provider import PROVIDER_CONFIGS
from repro.geo.coords import geodesic_cache_info
from repro.proxy.population import PopulationConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SERIAL_OUT_PATH = REPO_ROOT / "BENCH_serial_hotpath.json"

#: Single-process campaign throughput (measurements/s) of the tree
#: *before* the hot-path overhaul, measured on the development machine:
#: median of 5 interleaved runs at scale 0.01, seed 20210402, campaign
#: time only (world build excluded).  Override with
#: ``REPRO_PERF_BASELINE`` when benchmarking on different hardware.
PRE_OVERHAUL_BASELINE_MEAS_PER_SEC = 667.8


def test_measurement_throughput(benchmark):
    config = ReproConfig(
        seed=99, population=PopulationConfig(scale=0.01)
    )
    world = build_world(config)
    client = MeasurementClient(world.client_host, random.Random(1))
    nodes = [
        node for node in world.nodes()
        if node.claimed_country == node.true_country
        and not node.blocked_hosts
    ]
    provider = PROVIDER_CONFIGS["cloudflare"]
    state = {"index": 0}

    def one_measurement():
        node = nodes[state["index"] % len(nodes)]
        state["index"] += 1
        super_proxy = world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = world.run(
            client.measure_doh(
                super_proxy, provider, node.claimed_country,
                node_id=node.node_id,
            )
        )
        assert raw.success, raw.error
        return raw

    benchmark.pedantic(one_measurement, rounds=40, iterations=1)


def test_serial_campaign_throughput():
    """Single-process campaign throughput, with a regression gate.

    Times one world build plus :meth:`Campaign.measure` over the whole
    fleet — the hot path every shard of the executor runs — and
    records measurements per wall-clock second in
    ``BENCH_serial_hotpath.json`` next to the before/after numbers of
    the hot-path overhaul.  Every measurement counts, including those
    the Maxmind filter later discards.

    The gate: throughput must not drop more than 25% below the
    baseline.  The baseline defaults to the recorded pre-overhaul
    number; set ``REPRO_PERF_BASELINE`` (meas/s) when the machine
    differs from the one the constant was measured on, or to pin a
    new baseline after an intentional change.
    """
    scale = float(os.environ.get("REPRO_SERIAL_BENCH_SCALE", "0.01"))
    config = ReproConfig(
        seed=20210402, population=PopulationConfig(scale=scale)
    )
    started = time.perf_counter()
    world = build_world(config)
    raw_doh, raw_do53 = Campaign(world, atlas_probes_per_country=0).measure()
    elapsed = time.perf_counter() - started
    measurements = len(raw_doh) + len(raw_do53)
    meas_per_sec = measurements / elapsed if elapsed else float("inf")

    baseline = float(
        os.environ.get(
            "REPRO_PERF_BASELINE", PRE_OVERHAUL_BASELINE_MEAS_PER_SEC
        )
    )
    report = {
        "scale": scale,
        "seed": 20210402,
        "measurements": measurements,
        "campaign_seconds": round(elapsed, 3),
        "meas_per_sec": round(meas_per_sec, 1),
        "baseline_meas_per_sec": round(baseline, 1),
        "speedup_vs_baseline": round(meas_per_sec / baseline, 3),
    }
    atomic_write_json(str(SERIAL_OUT_PATH), report, indent=2,
                      trailing_newline=True)
    print("\n" + json.dumps(report, indent=2))

    assert meas_per_sec >= 0.75 * baseline, (
        "serial throughput regressed more than 25% below baseline: "
        "{}".format(report)
    )


def test_hot_path_caches_are_hit():
    """The geodesic and latency base-delay caches must actually fire.

    Measurements revisit the same (src, dst) site pairs constantly —
    every retransmission, every run, every provider leg.  If either
    cache silently stops being consulted (a refactor changing the call
    path, an unhashable key sneaking in), the full-scale run quietly
    loses its headroom; assert on the counters, not just on timing.
    """
    config = ReproConfig(seed=7, population=PopulationConfig(scale=0.01))
    world = build_world(config)
    client = MeasurementClient(world.client_host, random.Random(2))
    nodes = [
        node for node in world.nodes()
        if node.claimed_country == node.true_country
        and not node.blocked_hosts
    ][:20]
    provider = PROVIDER_CONFIGS["cloudflare"]

    geo_before = geodesic_cache_info()
    latency = world.network.latency
    base_hits_before = latency.base_cache_hits

    for node in nodes:
        super_proxy = world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        for _ in range(2):  # second pass re-measures identical paths
            raw = world.run(
                client.measure_doh(
                    super_proxy, provider, node.claimed_country,
                    node_id=node.node_id,
                )
            )
            assert raw.success, raw.error

    geo_after = geodesic_cache_info()
    assert geo_after.hits > geo_before.hits, (
        "geodesic_km LRU saw no hits: {} -> {}".format(
            geo_before, geo_after
        )
    )
    assert latency.base_cache_hits > base_hits_before
    # Repeated paths dominate: the base-delay cache should hit far more
    # often than it misses once warmed.
    assert latency.base_cache_hits > latency.base_cache_misses
