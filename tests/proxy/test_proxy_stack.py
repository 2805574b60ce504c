"""Exit-node agent + Super Proxy integration tests on the small world."""

import random

import pytest

from repro.core.client import MeasurementClient
from repro.core.doh_timing import compute_rtt_estimate, compute_t_doh
from repro.core.world import build_world
from repro.doh.provider import PROVIDER_CONFIGS
from repro.geo.countries import SUPER_PROXY_COUNTRIES
from repro.proxy.network import NoPeerAvailable


@pytest.fixture(scope="module")
def small_world(small_world):
    """A private, fresh copy of the shared small world.

    The assertions below check single samples, whose network draws
    depend on the world's RNG state: measuring on the session world
    would make them depend on which other tests measured it first.
    """
    return build_world(small_world.config)


@pytest.fixture()
def client(small_world):
    return MeasurementClient(
        small_world.client_host, random.Random(5),
        measurement_domain=small_world.config.measurement_domain,
    )


def pick_node(small_world, country=None, exclude_sp=True):
    for node in small_world.nodes():
        if node.mislabeled:
            continue
        if country and node.claimed_country != country:
            continue
        if exclude_sp and node.claimed_country in SUPER_PROXY_COUNTRIES:
            continue
        from repro.geo.countries import COUNTRIES

        if COUNTRIES[node.claimed_country].censored:
            continue
        return node
    raise RuntimeError("no suitable node")


class TestDohThroughProxy:
    def test_measurement_succeeds(self, small_world, client):
        node = pick_node(small_world)
        sp = small_world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = small_world.run(
            client.measure_doh(
                sp, PROVIDER_CONFIGS["cloudflare"], node.claimed_country,
                node_id=node.node_id,
            )
        )
        assert raw.success, raw.error
        assert raw.node_id == node.node_id
        assert raw.exit_ip == node.ip
        assert raw.t_b > raw.t_a
        assert raw.t_d > raw.t_c >= raw.t_b

    def test_headers_carry_timings(self, small_world, client):
        node = pick_node(small_world)
        sp = small_world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = small_world.run(
            client.measure_doh(
                sp, PROVIDER_CONFIGS["google"], node.claimed_country,
                node_id=node.node_id,
            )
        )
        assert raw.headers.connect_ms > 0
        assert raw.headers.brightdata_ms > 0
        # Equation 6 must give a plausible, positive client<->exit RTT.
        assert compute_rtt_estimate(raw) > 0
        assert compute_t_doh(raw) > 0

    def test_tunnel_to_blocked_provider_fails(self, small_world, client):
        censored = [
            node for node in small_world.nodes()
            if node.blocked_hosts and not node.mislabeled
        ]
        assert censored, "expected censored-country nodes in fleet"
        node = censored[0]
        sp = small_world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = small_world.run(
            client.measure_doh(
                sp, PROVIDER_CONFIGS["cloudflare"], node.claimed_country,
                node_id=node.node_id,
            )
        )
        assert not raw.success

    def test_unknown_country_yields_failure(self, small_world, client):
        sp = small_world.super_proxies[0]
        raw = small_world.run(
            client.measure_doh(
                sp, PROVIDER_CONFIGS["cloudflare"], "ZZ"
            )
        )
        assert not raw.success


class TestDo53ThroughProxy:
    def test_fetch_measurement_succeeds(self, small_world, client):
        node = pick_node(small_world)
        sp = small_world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = small_world.run(
            client.measure_do53(
                sp, node.claimed_country, node_id=node.node_id
            )
        )
        assert raw.success, raw.error
        assert raw.resolved_at == "exit"
        assert raw.dns_ms > 0

    def test_super_proxy_country_resolved_centrally(self, small_world,
                                                    client):
        node = pick_node(small_world, country="JP", exclude_sp=False)
        sp = small_world.proxy_network.nearest_super_proxy(
            node.host.location
        )
        raw = small_world.run(
            client.measure_do53(
                sp, node.claimed_country, node_id=node.node_id
            )
        )
        assert raw.success
        assert raw.resolved_at == "superproxy"
        # Central resolution at a datacenter: bounded by one Tokyo->US
        # authoritative round trip plus the warm resolver's handling.
        assert raw.dns_ms < 400.0

    def test_session_sticks_to_one_node(self, small_world, client):
        country = pick_node(small_world).claimed_country
        sp = small_world.super_proxies[0]

        def run():
            first = yield from client.measure_do53(
                sp, country, session="sess-1"
            )
            second = yield from client.measure_do53(
                sp, country, session="sess-1"
            )
            return first, second

        first, second = small_world.run(run())
        assert first.node_id == second.node_id

    def test_fresh_names_unique(self, client):
        names = {client.fresh_name() for _ in range(200)}
        assert len(names) == 200


class TestProxyNetwork:
    def test_node_counts(self, small_world):
        pn = small_world.proxy_network
        assert pn.node_count() == len(pn.nodes)
        assert pn.node_count("BR") == len(
            [n for n in pn.nodes.values() if n.claimed_country == "BR"]
        )

    def test_select_unknown_country_raises(self, small_world):
        with pytest.raises(NoPeerAvailable):
            small_world.proxy_network.select("ZZ")

    def test_pinned_unknown_node_raises(self, small_world):
        with pytest.raises(NoPeerAvailable):
            small_world.proxy_network.select("US", node_id="nope")

    def test_nearest_super_proxy_is_really_nearest(self, small_world):
        from repro.geo.coords import geodesic_km
        from repro.geo.cities import CITIES

        tokyo = CITIES["tokyo"].location
        chosen = small_world.proxy_network.nearest_super_proxy(tokyo)
        best = min(
            small_world.super_proxies,
            key=lambda sp: geodesic_km(sp.host.location, tokyo),
        )
        assert chosen is best
        assert chosen.country_code == "JP"

    def test_release_session(self, small_world):
        pn = small_world.proxy_network
        node = pn.select("BR", session_id="tmp-session")
        pn.release_session("tmp-session")
        # After release the pin is gone; selection may differ but works.
        assert pn.select("BR", session_id="tmp-session") is not None
