"""Sharded parallel campaign execution (``repro.parallel``).

Splits the exit-node fleet into deterministic shards, runs each
shard's campaign in a worker process, and merges the results into a
single dataset that is byte-identical for any worker count.
Every task runs on a :class:`~repro.parallel.worker.WarmWorld` (built
once, restored to its pristine post-boot state per task).
Multi-worker runs dispatch through a persistent
:class:`~repro.parallel.pool.WarmWorkerPool` (config/plan shipped once
via shared memory, one warm world per worker, samples returned as
packed binary frames — see :mod:`repro.core.wirepack`); campaigns
below the break-even size fall back to inline execution, one warm
world per call.  See ``docs/performance.md`` for the
architecture and the seed-derivation rules.
"""

from repro.parallel.executor import (
    ShardExecutionError,
    break_even_shard_nodes,
    default_worker_count,
    run_parallel_campaign,
)
from repro.parallel.pool import (
    PooledShardTask,
    WarmWorkerPool,
    run_pooled_atlas,
    run_pooled_shard,
)
from repro.parallel.sharding import (
    DEFAULT_NUM_SHARDS,
    ShardSpec,
    make_shards,
    shard_items,
)
from repro.parallel.worker import (
    AtlasTask,
    PackedShardResult,
    ShardResult,
    ShardTask,
    WarmWorld,
    pack_shard_result,
    run_atlas_task,
    run_measurement_shard,
    unpack_shard_result,
)

__all__ = [
    "AtlasTask",
    "DEFAULT_NUM_SHARDS",
    "PackedShardResult",
    "PooledShardTask",
    "ShardExecutionError",
    "ShardResult",
    "ShardSpec",
    "ShardTask",
    "WarmWorkerPool",
    "WarmWorld",
    "break_even_shard_nodes",
    "default_worker_count",
    "make_shards",
    "pack_shard_result",
    "run_atlas_task",
    "run_measurement_shard",
    "run_parallel_campaign",
    "run_pooled_atlas",
    "run_pooled_shard",
    "shard_items",
    "unpack_shard_result",
]
