"""One world lifecycle: :class:`repro.parallel.worker.WarmWorld`.

Inline execution and every pool worker run their tasks on a warm
world — built once, restored to its pristine post-boot snapshot before
each later task.  Inline-vs-pool parity cannot prove that a restored
world behaves like a fresh one (both sides restore), so this module
checks it directly against fresh ``build_world`` calls, under faults
and with observation on, and pins when the world is built.
"""

import pytest

import repro.parallel.worker as worker
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.core.world import build_world
from repro.faults import FaultPlan
from repro.parallel import (
    AtlasTask,
    ShardTask,
    WarmWorld,
    make_shards,
    pack_shard_result,
    run_atlas_task,
    run_measurement_shard,
    run_parallel_campaign,
)
from repro.proxy.population import PopulationConfig

NUM_SHARDS = 4


def _config(seed: int = 23, faults=None) -> ReproConfig:
    return ReproConfig(
        seed=seed, population=PopulationConfig(scale=0.006), faults=faults
    )


@pytest.fixture()
def build_count(monkeypatch):
    """Counts ``build_world`` calls made through the worker module."""
    calls = []

    def counting_build(config, plan=None):
        calls.append(config.seed)
        return build_world(config, plan=plan)

    monkeypatch.setattr(worker, "build_world", counting_build)
    return calls


def _shard_view(result):
    """Everything a shard ships to the merge, in comparable form."""
    metrics = result.metrics or {}
    return {
        "payload": pack_shard_result(result).payload,
        "dropped": (result.dropped_doh, result.dropped_do53),
        "qname_map": result.qname_map,
        "client_entries": result.client_entries,
        "failures": result.failures,
        "geo_snapshot": result.geo_snapshot,
        "counters": metrics.get("counters"),
        "histograms": metrics.get("histograms"),
        "traces": result.traces,
    }


class TestRestoreMatchesFreshBuild:
    def test_every_task_on_a_reused_world_matches_a_fresh_build(
        self, build_count
    ):
        config = _config(faults=FaultPlan.chaos(seed=5))
        plan = WorldPlan.for_config(config)
        shard_tasks = [
            ShardTask(config, spec, observe=True)
            for spec in make_shards(NUM_SHARDS, max_nodes=32)
        ]
        atlas_task = AtlasTask(
            probes_per_country=1, repetitions=1,
            client_seed=config.seed + 1 + NUM_SHARDS,
        )

        def fresh():
            return build_world(config, plan=plan)

        fresh_shards = [
            _shard_view(run_measurement_shard(task, world_factory=fresh))
            for task in shard_tasks
        ]
        fresh_atlas = run_atlas_task(atlas_task, world_factory=fresh)

        warm = WarmWorld(config, plan)
        # Warm-up: every compared task below then starts on a world an
        # earlier shard has already measured on.
        warm.run(run_measurement_shard, shard_tasks[0])
        warm_shards = {}
        for task in reversed(shard_tasks):
            warm_shards[task.spec.shard_index] = _shard_view(
                warm.run(run_measurement_shard, task)
            )
        warm_atlas = warm.run(run_atlas_task, atlas_task)

        assert len(build_count) == 1, "the warm world was rebuilt"
        for index, expected in enumerate(fresh_shards):
            got = warm_shards[index]
            for key in expected:
                assert got[key] == expected[key], (
                    "shard {} differs in {}".format(index, key)
                )
        assert warm_atlas == fresh_atlas
        # The oracle only means something if injector and burst-loss
        # state carried real activity and observation recorded it.
        for view in fresh_shards:
            counters = view["counters"]
            assert counters["faults.node_churn"] > 0
            assert counters["faults.burst_losses"] > 0
            assert counters["campaign.raw_doh_failed"] > 0
            assert view["histograms"] and view["traces"]


class TestBuildCount:
    def test_inline_campaign_builds_the_world_once(self, build_count):
        run_parallel_campaign(
            _config(), workers=1, num_shards=8, max_nodes=24,
            atlas_probes_per_country=1, atlas_repetitions=1,
        )
        assert len(build_count) == 1

    def test_each_call_gets_its_own_world(self, build_count):
        # The warm world is local to one call, never process-global.
        for seed in (31, 31):
            run_parallel_campaign(
                _config(seed), workers=1, num_shards=2, max_nodes=8,
                atlas_probes_per_country=0,
            )
        assert build_count == [31, 31]


def _checkout_and_raise(exc):
    def task(_task, world_factory):
        world_factory()
        raise exc

    return task


def _warm(config=None) -> WarmWorld:
    config = config or _config()
    return WarmWorld(config, WorldPlan.for_config(config))


def _checkout(_task, world_factory):
    return world_factory()


def _cached(_task, world_factory):
    return "cached"


class TestRebuildAfterFailure:
    def test_clean_task_leaves_the_world_for_restore(self, build_count):
        warm = _warm()
        first = warm.run(_checkout, None)
        assert warm.checkout() is first
        assert len(build_count) == 1

    @pytest.mark.parametrize(
        "exc", [RuntimeError("node task exploded"), KeyboardInterrupt()],
        ids=["exception", "interrupt"],
    )
    def test_task_that_raises_forces_a_rebuild(self, build_count, exc):
        warm = _warm()
        first = warm.run(_checkout, None)
        with pytest.raises(type(exc)):
            warm.run(_checkout_and_raise(exc), None)
        assert warm.checkout() is not first
        assert len(build_count) == 2

    def test_cached_task_after_a_failure_does_not_revive_the_world(
        self, build_count
    ):
        # A worker survives a task exception and may next be handed a
        # shard whose .result blob is cached; that task never checks
        # out, and must not make the half-simulated world reusable.
        warm = _warm()
        first = warm.run(_checkout, None)
        with pytest.raises(RuntimeError):
            warm.run(_checkout_and_raise(RuntimeError("mid-batch")), None)
        assert warm.run(_cached, None) == "cached"
        assert warm.checkout() is not first
        assert len(build_count) == 2

    def test_task_without_checkout_builds_nothing(self, build_count):
        # A task answered from a cached result never touches the world.
        warm = _warm()
        assert warm.run(_cached, None) == "cached"
        assert build_count == []
