"""Spawn-safe worker entry points for the sharded campaign executor.

Workers never receive a live :class:`~repro.core.world.World` — worlds
hold generator-based simulator state and cannot cross a process
boundary.  Instead every task runs on a :class:`WarmWorld`: a world
built from the picklable ``(ReproConfig, WorldPlan)`` pair once, booted,
snapshotted, and restored to that pristine post-boot state before each
later task.  Inline execution keeps one per campaign call, each pool
worker one per prime.  Tasks ship plain-data results back:

* raw :class:`DohRaw`/:class:`Do53Raw` records (post Maxmind
  validation, with discard counts),
* the authoritative server's query log reduced to ``(qname,
  resolver_ip)`` pairs for the PoP join,
* the measured nodes' identity rows for client registration,
* shard 0 only: a snapshot of the geolocation database so the parent
  can rebuild an identical service without building a world itself.

Everything here must stay importable at module top level — the
``spawn`` start method pickles functions by qualified name.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ckpt.checkpoint import (
    MeasureCheckpoint,
    load_unit_result,
    store_unit_result,
)
from repro.ckpt.worldstate import capture_world_state, restore_world_state
from repro.core.campaign import AtlasRawSample, Campaign, NodeFailure
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.validation import filter_mismatched
from repro.core.wirepack import pack_samples, unpack_samples
from repro.core.world import World, build_world
from repro.geo.geolocate import GeoRecord
from repro.obs import Observability
from repro.parallel.sharding import ShardSpec, shard_items
from repro.proxy.exitnode import ExitNode

__all__ = [
    "AtlasTask",
    "PackedShardResult",
    "ShardResult",
    "ShardTask",
    "WarmWorld",
    "pack_shard_result",
    "reduce_shard",
    "run_atlas_task",
    "run_measurement_shard",
    "unpack_shard_result",
]


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run one measurement shard."""

    config: ReproConfig
    spec: ShardSpec
    #: Run the shard with the observability layer on; the worker ships
    #: metrics/trace snapshots back as plain data.  Never affects the
    #: measured records themselves.
    observe: bool = False
    #: Campaign checkpoint directory (see :mod:`repro.ckpt`).  When
    #: set, the shard journals every batch to ``shard-<k>.ledger``,
    #: resumes from it on a retry after a crash, and is skipped
    #: entirely when its ``shard-<k>.result`` blob already matches
    #: *fingerprint*.
    checkpoint_dir: Optional[str] = None
    fingerprint: str = ""
    #: Epoch plumbing for the longitudinal service (``repro.service``):
    #: shifts every emitted ``run_index`` so samples carry which time
    #: slice produced them, offsets the client RNG stream, and prefixes
    #: query names — all structural, so distinct epochs can never
    #: collide even at equal seeds.
    run_index_offset: int = 0
    client_seed_offset: int = 0
    name_prefix: str = ""


@dataclass(frozen=True)
class AtlasTask:
    """The RIPE Atlas supplement, run as its own deterministic task.

    Atlas starts from the pristine post-boot world (rather than
    piggybacking on shard 0's) so its results do not depend on how the
    fleet was partitioned.
    """

    probes_per_country: int
    repetitions: int
    #: Client-stream seed, chosen by the executor to diverge from every
    #: measurement shard.
    client_seed: int
    name_tag: str = "a-"
    #: Checkpoint directory; a matching ``atlas.result`` blob short-
    #: circuits the task (Atlas is one atomic unit, not batched).
    checkpoint_dir: Optional[str] = None
    fingerprint: str = ""


@dataclass
class ShardResult:
    """Plain-data outcome of one measurement shard."""

    shard_index: int
    kept_doh: List[DohRaw] = field(default_factory=list)
    kept_do53: List[Do53Raw] = field(default_factory=list)
    dropped_doh: int = 0
    dropped_do53: int = 0
    #: Reduced auth-server log: first resolver to ask for each qname.
    qname_map: List[Tuple[str, str]] = field(default_factory=list)
    #: ``(node_id, ip, claimed_country)`` for every measured node.
    client_entries: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Geolocation database snapshot (shard 0 only, None elsewhere).
    geo_snapshot: Optional[Dict[int, GeoRecord]] = None
    #: Nodes whose task failed every retry (fault-injected campaigns).
    failures: List[NodeFailure] = field(default_factory=list)
    #: Observability snapshots (None when the shard ran unobserved):
    #: :meth:`MetricsRegistry.snapshot` / :meth:`TraceRecorder.snapshot`
    #: plain-data forms, mergeable in the parent in shard-index order.
    metrics: Optional[Dict] = None
    traces: Optional[List[Dict]] = None
    #: Resume bookkeeping for the campaign manifest: batches replayed
    #: from the shard's ledger vs measured live by this invocation.
    resumed_batches: int = 0
    measured_batches: int = 0


@dataclass
class PackedShardResult:
    """A :class:`ShardResult` in transport form.

    ``payload`` holds every raw sample (and failure record) as one
    :mod:`repro.core.wirepack` frame; the remaining fields are small
    plain data that pickle cheaply through the pool's result queue.
    """

    shard_index: int
    payload: bytes
    dropped_doh: int
    dropped_do53: int
    qname_map: List[Tuple[str, str]]
    client_entries: List[Tuple[str, str, str]]
    geo_snapshot: Optional[Dict]
    metrics: Optional[Dict]
    traces: Optional[List[Dict]]
    resumed_batches: int
    measured_batches: int


def pack_shard_result(result: ShardResult) -> PackedShardResult:
    """Envelope a worker's :class:`ShardResult` for the trip to the
    parent."""
    return PackedShardResult(
        shard_index=result.shard_index,
        payload=pack_samples(
            result.kept_doh, result.kept_do53, result.failures
        ),
        dropped_doh=result.dropped_doh,
        dropped_do53=result.dropped_do53,
        qname_map=result.qname_map,
        client_entries=result.client_entries,
        geo_snapshot=result.geo_snapshot,
        metrics=result.metrics,
        traces=result.traces,
        resumed_batches=result.resumed_batches,
        measured_batches=result.measured_batches,
    )


def unpack_shard_result(packed: PackedShardResult) -> ShardResult:
    """Decode a :class:`PackedShardResult` back into a
    :class:`ShardResult`."""
    doh, do53, failures = unpack_samples(packed.payload)
    return ShardResult(
        shard_index=packed.shard_index,
        kept_doh=doh,
        kept_do53=do53,
        dropped_doh=packed.dropped_doh,
        dropped_do53=packed.dropped_do53,
        qname_map=packed.qname_map,
        client_entries=packed.client_entries,
        geo_snapshot=packed.geo_snapshot,
        failures=failures,
        metrics=packed.metrics,
        traces=packed.traces,
        resumed_batches=packed.resumed_batches,
        measured_batches=packed.measured_batches,
    )


WorldFactory = Callable[[], World]


class WarmWorld:
    """One world serving a sequence of tasks, pristine for each.

    The first :meth:`checkout` builds the world from ``(config, plan)``,
    drains its t=0 boot events and captures the post-boot state
    (:func:`~repro.ckpt.worldstate.capture_world_state`); every later
    checkout restores that snapshot — far cheaper than a rebuild — so
    each task sees a world indistinguishable from a fresh
    ``build_world(config, plan)``.  A task that raises (or is
    interrupted) through :meth:`run` may have stopped mid-simulation,
    in state the snapshot does not cover, so the world is dropped and
    the next checkout rebuilds it.
    """

    def __init__(self, config: ReproConfig, plan: WorldPlan) -> None:
        self.config = config
        self.plan = plan
        self._world: Optional[World] = None
        self._pristine: Optional[Dict] = None

    def checkout(self) -> World:
        """The world, in its pristine post-boot state."""
        if self._world is None:
            world = build_world(self.config, plan=self.plan)
            # Drain the boot events so the snapshot sits at a batch
            # boundary (capture refuses a non-drained heap).
            world.sim.run()
            self._pristine = capture_world_state(world)
            self._world = world
        else:
            restore_world_state(self._world, self._pristine)
        return self._world

    def run(self, fn, task):
        """``fn(task, world_factory=self.checkout)``; a task that
        raises drops the world."""
        try:
            return fn(task, world_factory=self.checkout)
        except BaseException:
            self._world = None
            self._pristine = None
            raise


def run_measurement_shard(
    task: ShardTask, world_factory: WorldFactory
) -> ShardResult:
    """Measure this shard's slice of the fleet.

    *world_factory* supplies the world — normally
    :meth:`WarmWorld.checkout`.  It is only called when a world is
    actually needed (a cached ``.result`` blob short-circuits without
    one), and the world it returns must be indistinguishable from a
    fresh ``build_world(config, plan)``.
    """
    config = task.config
    spec = task.spec
    role = "shard-{}".format(spec.shard_index)
    checkpoint: Optional[MeasureCheckpoint] = None
    result_path = None
    if task.checkpoint_dir:
        result_path = os.path.join(task.checkpoint_dir, role + ".result")
        cached = load_unit_result(result_path, task.fingerprint, role)
        if cached is not None:
            # The shard finished in an earlier run; nothing measured
            # this invocation (re-stamp the per-run counters).
            cached.resumed_batches += cached.measured_batches
            cached.measured_batches = 0
            return cached
        checkpoint = MeasureCheckpoint(
            task.checkpoint_dir, role, task.fingerprint
        )
    obs = Observability() if task.observe else None
    wall_start = time.perf_counter()
    world = world_factory()
    campaign = Campaign(
        world,
        atlas_probes_per_country=0,
        client_seed=spec.client_seed(config.seed) + task.client_seed_offset,
        client_name_tag=task.name_prefix + spec.name_tag(),
        obs=obs,
        shard_index=spec.shard_index,
        run_index_offset=task.run_index_offset,
    )
    nodes = shard_items(world.nodes(), spec)
    try:
        raw_doh, raw_do53 = campaign.measure(nodes, checkpoint=checkpoint)
    finally:
        if checkpoint is not None:
            checkpoint.close()

    result = reduce_shard(
        campaign, nodes, raw_doh, raw_do53, spec.shard_index, checkpoint
    )
    if obs is not None:
        obs.metrics.set_counter("campaign.discarded_doh", result.dropped_doh)
        obs.metrics.set_counter("campaign.discarded_do53",
                                result.dropped_do53)
        # Wall clock is inherently nondeterministic: a gauge under a
        # shard-unique name, never a counter, so determinism tests can
        # compare counters/histograms and ignore gauges wholesale.
        obs.metrics.set_gauge(
            "shard.{}.wall_s".format(spec.shard_index),
            time.perf_counter() - wall_start,
        )
        result.metrics = obs.metrics.snapshot()
        result.traces = obs.trace.snapshot()
    if result_path is not None:
        store_unit_result(result_path, task.fingerprint, role, result)
    return result


def reduce_shard(
    campaign: Campaign,
    nodes: Sequence[ExitNode],
    raw_doh: List[DohRaw],
    raw_do53: List[Do53Raw],
    shard_index: int,
    checkpoint: Optional[MeasureCheckpoint],
) -> ShardResult:
    """Reduce what *campaign* measured on *nodes* to a mergeable result.

    Drops rows whose BrightData label disagrees with the Maxmind
    lookup (§3.5), reduces the authoritative log to the ``(qname,
    resolver_ip)`` pairs the PoP join needs (§5.2), and lists the
    measured nodes for client registration.  Shard 0 also ships the
    geolocation snapshot :func:`repro.parallel.executor._merge` needs.
    The batch counters say how much *checkpoint* replayed.
    """
    world = campaign.world
    kept_doh, dropped_doh = filter_mismatched(raw_doh, world.geolocation)
    kept_do53, dropped_do53 = filter_mismatched(raw_do53, world.geolocation)

    qname_map: Dict[str, str] = {}
    for entry in world.auth_server.query_log:
        qname_map.setdefault(str(entry.qname), entry.src_ip)

    measured_ids = {raw.node_id for raw in kept_doh if raw.node_id}
    measured_ids.update(raw.node_id for raw in kept_do53 if raw.node_id)
    batch_size = max(1, world.config.batch_size)
    num_batches = (len(nodes) + batch_size - 1) // batch_size
    resumed = checkpoint.resumed_batches if checkpoint is not None else 0
    return ShardResult(
        shard_index=shard_index,
        kept_doh=kept_doh,
        kept_do53=kept_do53,
        dropped_doh=len(dropped_doh),
        dropped_do53=len(dropped_do53),
        qname_map=sorted(qname_map.items()),
        client_entries=[
            (node.node_id, node.ip, node.claimed_country)
            for node in nodes
            if node.node_id in measured_ids
        ],
        geo_snapshot=(
            world.geolocation.snapshot() if shard_index == 0 else None
        ),
        failures=list(campaign.failures),
        resumed_batches=resumed,
        measured_batches=num_batches - resumed,
    )


def run_atlas_task(
    task: AtlasTask, world_factory: WorldFactory
) -> List[AtlasRawSample]:
    """Run only the RIPE Atlas supplement.

    *world_factory* follows the :func:`run_measurement_shard` contract:
    Atlas runs on the same ``(config, plan)`` world as the shards, so
    the same :class:`WarmWorld` serves it.
    """
    result_path = None
    if task.checkpoint_dir:
        result_path = os.path.join(task.checkpoint_dir, "atlas.result")
        cached = load_unit_result(result_path, task.fingerprint, "atlas")
        if cached is not None:
            return cached
    world = world_factory()
    campaign = Campaign(
        world,
        atlas_probes_per_country=task.probes_per_country,
        atlas_repetitions=task.repetitions,
        client_seed=task.client_seed,
        client_name_tag=task.name_tag,
    )
    samples = campaign.collect_atlas()
    if result_path is not None:
        store_unit_result(result_path, task.fingerprint, "atlas", samples)
    return samples
