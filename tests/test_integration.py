"""Cross-module integration invariants.

These tests exercise the whole stack at once: determinism, conservation
laws (every successful measurement visible at every layer), and the
resumption extension.
"""

import dataclasses

import pytest

from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.faults import FaultPlan
from repro.parallel import ShardSpec, run_parallel_campaign
from repro.parallel.executor import _merge
from repro.parallel.worker import ShardTask, run_measurement_shard
from repro.proxy.population import PopulationConfig


def _tiny_config(seed):
    return ReproConfig(seed=seed, population=PopulationConfig(scale=0.008))


def _tiny_dataset(seed):
    return run_parallel_campaign(
        _tiny_config(seed), workers=1, num_shards=1,
        atlas_probes_per_country=2, atlas_repetitions=1,
    )


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        r1 = _tiny_dataset(31)
        r2 = _tiny_dataset(31)
        d1, d2 = r1.dataset, r2.dataset
        assert len(d1.clients) == len(d2.clients)
        assert [c.node_id for c in d1.clients] == \
            [c.node_id for c in d2.clients]
        assert [s.t_doh_ms for s in d1.doh] == \
            [s.t_doh_ms for s in d2.doh]
        assert [s.time_ms for s in d1.do53] == \
            [s.time_ms for s in d2.do53]

    def test_no_hidden_state_between_campaigns(self, tmp_path):
        # Process-global state (counters, caches) must never leak into
        # a dataset: an unrelated faulted campaign run in between may
        # not move one byte of a rerun.
        kwargs = dict(workers=1, num_shards=2, max_nodes=64,
                      atlas_probes_per_country=1, atlas_repetitions=1)
        config = ReproConfig(
            seed=34, population=PopulationConfig(scale=0.004)
        )
        unrelated = dataclasses.replace(
            config, seed=35, faults=FaultPlan.chaos(seed=3)
        )
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        run_parallel_campaign(config, **kwargs).dataset.save(str(paths[0]))
        chaos = run_parallel_campaign(unrelated, **kwargs).dataset
        assert any(not sample.success for sample in chaos.doh)
        run_parallel_campaign(config, **kwargs).dataset.save(str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_different_timings(self):
        r1 = _tiny_dataset(31)
        r2 = _tiny_dataset(32)
        t1 = [s.t_doh_ms for s in r1.dataset.doh if s.success]
        t2 = [s.t_doh_ms for s in r2.dataset.doh if s.success]
        assert t1 != t2


class TestConservation:
    @pytest.fixture(scope="class")
    def run(self):
        """One shard measured on a world the test can inspect."""
        config = _tiny_config(33)
        world = build_world(config)
        shard = run_measurement_shard(
            ShardTask(config, ShardSpec(0, 1)), world_factory=lambda: world
        )
        return world, _merge(config, [shard], [])

    def test_every_successful_doh_reached_the_auth_server(self, run):
        world, result = run
        logged = {str(e.qname) for e in world.auth_server.query_log}
        for raw in result.raw_doh:
            if raw.success:
                assert raw.qname.lower() in logged

    def test_pop_queries_match_provider_counters(self, run):
        world, result = run
        total_served = sum(
            provider.total_queries()
            for provider in world.providers.values()
        )
        successful = sum(1 for raw in result.raw_doh if raw.success)
        # Every successful measurement hit a PoP; retries and the
        # ground-truth-free world add no extra queries here.
        assert total_served >= successful

    def test_every_client_has_dataset_rows(self, run):
        _world, result = run
        dataset = result.dataset
        doh_nodes = {s.node_id for s in dataset.doh}
        for client in dataset.clients:
            assert client.node_id in doh_nodes or any(
                s.node_id == client.node_id for s in dataset.do53
            )

    def test_proxy_served_all_tunnels(self, run):
        world, result = run
        tunnels = sum(sp.tunnels_served for sp in world.super_proxies)
        doh_attempts = len(result.raw_doh) + result.discarded_doh
        # One tunnel per successfully-established DoH attempt; failures
        # before tunnel setup (censored countries) served none.
        assert 0 < tunnels <= doh_attempts


class TestSessionResumption:
    def test_resumed_doh_skips_certificate_flight(self, gt_world):
        from repro.doh.client import resolve_direct
        from repro.doh.provider import PROVIDER_CONFIGS

        config = PROVIDER_CONFIGS["cloudflare"]
        node = gt_world.nodes()[0]

        def run():
            timing1, _a, session = yield from resolve_direct(
                node.host, node.stub, config.domain,
                "resume-test-1.a.com", service_ip=config.vip,
            )
            ticket = session.ticket
            session.close()
            timing2, _a, resumed = yield from resolve_direct(
                node.host, node.stub, config.domain,
                "resume-test-2.a.com", service_ip=config.vip,
                session_ticket=ticket,
            )
            was_resumed = resumed.stream.result.resumed
            resumed.close()
            return timing1, timing2, was_resumed

        timing1, timing2, was_resumed = gt_world.run(run())
        assert was_resumed
        # Resumption skips the certificate chain: the TLS phase costs
        # no more than the full handshake's (and the big server flight
        # is gone, which shows on slow links; here we just check it
        # never regresses).
        assert timing2.tls_ms <= timing1.tls_ms * 1.5
        assert timing2.total_ms <= timing1.total_ms * 1.5
