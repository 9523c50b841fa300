"""Async sharded serving layer.

The paper frames consensus answers as a query-time service over a
probabilistic database; this package is the serving assembly of the
reproduction's per-shard pieces:

* :class:`~repro.serving.executor.ServingExecutor` -- the asyncio
  front-end over declarative :class:`~repro.query.ConsensusQuery`
  objects: request coalescing (keyed by the query objects' stable
  hash), micro-batching, one update thread for shard rebuilds, and
  graceful cache-invalidation fan-out on updates.
  Execution routes through the hardness-aware planner
  (:mod:`repro.query.planner`) and self-heals: per-query deadlines,
  per-shard circuit breakers, and exact failover to the parent's shard
  columns while a shard worker is down.
* :mod:`repro.serving.metrics` -- latency and throughput instrumentation.

Traffic to drive it comes from :mod:`repro.workloads.traffic`.
"""

from repro.serving.executor import ServingExecutor
from repro.serving.metrics import (
    LatencyRecorder,
    ServingMetrics,
    ServingMetricsSnapshot,
)

__all__ = [
    "LatencyRecorder",
    "ServingExecutor",
    "ServingMetrics",
    "ServingMetricsSnapshot",
]
