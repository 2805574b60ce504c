"""Deterministic partitioning of the exit-node fleet into shards.

A *shard* is the unit of reproducibility of the parallel campaign
executor: every shard builds the **same** simulated Internet (world
topology is derived from ``config.seed`` alone) and then measures a
disjoint, deterministic subset of the fleet.  Because a shard's
execution depends only on ``(config, shard spec)`` — never on which
process runs it, or what ran before it in that process — the merged
dataset is byte-identical for any worker count.

Two RNG-stream rules make that work:

* **world topology** uses ``config.seed`` unchanged, so every shard
  sees the same Internet (hosts, IPs, resolvers, PoPs, node profiles);
* **streams that must diverge** between shards — the measurement
  client's query-name randomness — are seeded ``config.seed + 1 +
  shard_index``, and every shard additionally tags its query names
  (``s<k>-u...``) so uniqueness across shards is structural, not
  probabilistic.

Note that the shard *count* is part of the experiment definition, just
like ``batch_size`` is: nodes measured in the same shard share the
simulated-world RNG streams, so re-partitioning the fleet changes the
sampled timings (not the trends).  Fixing
``num_shards`` and varying ``workers`` changes wall-clock time only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TypeVar

__all__ = ["DEFAULT_NUM_SHARDS", "ShardSpec", "make_shards", "shard_items"]

#: Default fleet partition: divides evenly among 1, 2, 4 or 8 workers,
#: and keeps the per-shard world-build overhead small relative to the
#: measurement work even at modest scales.
DEFAULT_NUM_SHARDS = 8

T = TypeVar("T")


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the fleet: which slice, out of how many."""

    shard_index: int
    num_shards: int
    #: Optional cap on the fleet size *before* partitioning (tests and
    #: quick benchmarks measure only the first N nodes).
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= self.shard_index < self.num_shards:
            raise ValueError(
                "shard_index {} out of range for {} shards".format(
                    self.shard_index, self.num_shards
                )
            )
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")

    # -- seed derivation --------------------------------------------------

    def client_seed(self, base_seed: int) -> int:
        """Seed of this shard's measurement-client RNG stream."""
        return base_seed + 1 + self.shard_index

    def name_tag(self) -> str:
        """Label prefixed to every query name this shard issues."""
        return "s{}-".format(self.shard_index)


def make_shards(
    num_shards: int, max_nodes: Optional[int] = None
) -> List[ShardSpec]:
    """The full set of shard specs for a campaign."""
    return [
        ShardSpec(index, num_shards, max_nodes) for index in range(num_shards)
    ]


def shard_items(items: Sequence[T], spec: ShardSpec) -> List[T]:
    """The slice of *items* belonging to *spec*.

    Round-robin over the canonical fleet order, so shard sizes differ
    by at most one node and every country's fleet spreads across all
    shards (balanced wall-clock per shard).
    """
    pool = items if spec.max_nodes is None else items[: spec.max_nodes]
    return list(pool[spec.shard_index :: spec.num_shards])
