"""Sharded parallel campaign execution (``repro.parallel``).

Splits the exit-node fleet into deterministic shards, runs each
shard's campaign in a worker process, and merges the results into a
single dataset that is byte-identical for any worker count.
Multi-worker runs dispatch through a persistent
:class:`~repro.parallel.pool.WarmWorkerPool` (config/plan shipped once
via shared memory, worlds built once per worker and restored per task,
samples returned as packed binary frames — see
:mod:`repro.core.wirepack`); campaigns below the break-even size
fall back to inline execution.  See ``docs/performance.md`` for the
architecture and the seed-derivation rules.
"""

from repro.parallel.executor import (
    ShardExecutionError,
    break_even_shard_nodes,
    default_worker_count,
    run_parallel_campaign,
)
from repro.parallel.pool import (
    PooledAtlasTask,
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
    pack_shard_result,
    run_atlas_task,
    run_measurement_shard,
    unpack_shard_result,
)

__all__ = [
    "AtlasTask",
    "DEFAULT_NUM_SHARDS",
    "PackedShardResult",
    "PooledAtlasTask",
    "PooledShardTask",
    "ShardExecutionError",
    "ShardResult",
    "ShardSpec",
    "ShardTask",
    "WarmWorkerPool",
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
