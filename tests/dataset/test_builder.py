"""Dataset-builder tests: equations applied, PoP join, sanity filter."""

import pytest

from repro.core.timeline import Do53Raw, DohRaw
from repro.dataset.builder import DatasetBuilder
from repro.geo.coords import LatLon
from repro.geo.geolocate import GeolocationService
from repro.proxy.headers import TimelineHeaders


def make_raw(qname="u1.a.com", rtt=80.0, dns=20.0, connect=40.0,
             query=90.0, brightdata=5.0, success=True):
    t_a = 0.0
    t_b = t_a + rtt + dns + connect + brightdata
    t_c = t_b + 1.0
    t_d = t_c + (rtt + connect) + (rtt + query)
    return DohRaw(
        node_id="node-1", exit_ip="20.0.0.1", claimed_country="DE",
        provider="cloudflare", qname=qname,
        t_a=t_a, t_b=t_b, t_c=t_c, t_d=t_d,
        headers=TimelineHeaders(
            tun={"dns": dns, "connect": connect}, box={"t": brightdata}
        ),
        tls_version="TLSv1.3", success=success,
        error="" if success else "x",
    )


@pytest.fixture()
def geo():
    service = GeolocationService()
    service.register("20.0.0.1", "DE", LatLon(52.5, 13.4))
    service.register("30.0.0.1", "FR", LatLon(48.9, 2.4))  # PoP
    return service


@pytest.fixture()
def builder(geo):
    return DatasetBuilder(geo, min_clients_per_country=1)


class TestDohProcessing:
    def test_equations_applied(self, builder):
        builder.add_doh(make_raw())
        sample = builder.dataset.doh[0]
        assert sample.t_doh_ms == pytest.approx(20 + 2 * 40 + 90)
        assert sample.t_dohr_ms == pytest.approx(90.0)
        assert sample.rtt_estimate_ms == pytest.approx(80.0)

    def test_failure_passed_through(self, builder):
        builder.add_doh(make_raw(success=False))
        sample = builder.dataset.doh[0]
        assert not sample.success
        # A failure has no latency: None, never a 0.0 that could dilute
        # percentiles unnoticed.
        assert sample.t_doh_ms is None
        assert sample.t_dohr_ms is None
        assert sample.rtt_estimate_ms is None

    def test_implausible_estimate_filtered(self, builder):
        # A 600ms retransmission during tunnel setup corrupts T_B-T_A:
        # Equation 7 goes negative and the sample must be rejected.
        raw = make_raw()
        corrupted = DohRaw(
            node_id=raw.node_id, exit_ip=raw.exit_ip,
            claimed_country=raw.claimed_country, provider=raw.provider,
            qname=raw.qname, t_a=raw.t_a, t_b=raw.t_b + 600.0,
            t_c=raw.t_c + 600.0, t_d=raw.t_d + 600.0,
            headers=raw.headers, tls_version=raw.tls_version,
        )
        builder.add_doh(corrupted)
        sample = builder.dataset.doh[0]
        assert not sample.success
        assert "implausible" in sample.error

    def test_pop_join_from_auth_log(self, builder):
        builder.ingest_qname_map([("u1.a.com", "30.0.0.1")])
        builder.add_doh(make_raw(qname="u1.a.com"))
        sample = builder.dataset.doh[0]
        assert sample.pop_ip_prefix == "30.0.0.0/24"
        assert sample.pop_lat == pytest.approx(48.9)

    def test_pop_join_first_query_wins(self, builder):
        builder.ingest_qname_map([
            ("u1.a.com", "30.0.0.1"),
            ("u1.a.com", "20.0.0.1"),  # retry from elsewhere
        ])
        builder.add_doh(make_raw(qname="u1.a.com"))
        assert builder.dataset.doh[0].pop_lat == pytest.approx(48.9)

    def test_unjoined_query_has_empty_pop(self, builder):
        builder.add_doh(make_raw(qname="unknown.a.com"))
        assert builder.dataset.doh[0].pop_ip_prefix == ""


class TestClientsAndDo53:
    def test_client_registered_once(self, builder):
        builder.add_client("node-1", "20.0.0.1", "DE")
        builder.add_client("node-1", "20.0.0.1", "DE")
        assert len(builder.dataset.clients) == 1
        assert builder.dataset.clients[0].lat == pytest.approx(52.5)

    def test_do53_validity_applied(self, builder):
        builder.add_do53(Do53Raw(
            node_id="node-1", exit_ip="20.0.0.1", claimed_country="US",
            qname="u9.a.com", dns_ms=50.0,
            headers=TimelineHeaders(tun={"dns": 50.0}, box={}),
            resolved_at="exit",
        ))
        assert not builder.dataset.do53[0].valid  # US: super-proxy country

    def test_atlas_samples_marked(self, builder):
        builder.add_atlas_do53("atlas-US-001", "US", 0, 42.0)
        sample = builder.dataset.do53[0]
        assert sample.source == "ripeatlas"
        assert sample.valid and sample.success

    def test_failed_do53_stores_none_timing(self, builder):
        builder.add_do53(Do53Raw(
            node_id="node-1", exit_ip="20.0.0.1", claimed_country="DE",
            qname="u9.a.com", dns_ms=0.0,
            headers=TimelineHeaders(tun={}, box={}),
            resolved_at="unknown",
            success=False, error="fetch failed",
        ))
        sample = builder.dataset.do53[0]
        assert not sample.success
        assert sample.time_ms is None
        assert sample.error == "fetch failed"
