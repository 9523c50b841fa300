"""Latency / throughput instrumentation for the serving executor."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Any, Deque, Dict, Optional, Tuple


class LatencyRecorder:
    """Collects request latencies (seconds) and reports simple quantiles.

    Memory is bounded: quantiles are computed over a sliding window of the
    most recent ``window`` observations (a serving process records one
    latency per request, indefinitely), while :attr:`count` and
    :meth:`mean` stay exact over the whole lifetime.
    """

    __slots__ = ("_window", "_count", "_total")

    def __init__(self, window: int = 4096) -> None:
        self._window: Deque[float] = deque(maxlen=max(1, window))
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        self._window.append(seconds)
        self._count += 1
        self._total += seconds

    @property
    def count(self) -> int:
        """Lifetime number of recorded latencies."""
        return self._count

    def mean(self) -> float:
        """Lifetime mean latency."""
        if not self._count:
            return 0.0
        return self._total / self._count

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the recent window; ``fraction`` in
        [0, 1]."""
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = min(
            len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
        )
        return ordered[rank]


@dataclass(frozen=True)
class ServingMetricsSnapshot:
    """Immutable view of the executor's counters at one instant."""

    queries: int
    coalesced: int
    batches: int
    updates: int
    invalidations: int
    mean_batch_size: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    queries_by_kind: Tuple[Tuple[str, int], ...]
    #: Reads answered on a version-pinned snapshot reader (MVCC path).
    snapshot_reads: int = 0
    #: Snapshot-pinned reads whose pinned vector was already superseded
    #: when the batch ran (the read resolved archived shard state).
    stale_reads: int = 0
    #: Transport counters of the process-backed shard pool
    #: (:class:`repro.sharding.procpool.IpcSnapshot`: summaries exchanged,
    #: pipe vs shared-memory messages and bytes); ``None`` under
    #: ``executor="threads"``.
    ipc: Optional[Any] = None
    #: Coordinator merge-engine counters
    #: (:class:`repro.sharding.merge.MergeStatsSnapshot`: full vs
    #: incremental merges, convolutions, reused partial products);
    #: ``None`` when no coordinator has been built yet.
    merge: Optional[Any] = None
    #: Robustness counters (the self-healing serving path).
    #: Workers respawned by the pool supervisor (mirrors the pool's
    #: ``restarts`` IPC counter; 0 under ``executor="threads"``).
    worker_restarts: int = 0
    #: Executor-level retries of transient worker failures.
    retries: int = 0
    #: Queries that missed their ``deadline_ms``.
    deadline_exceeded: int = 0
    #: Per-shard circuit-breaker open transitions.
    breaker_open: int = 0
    #: Answers served from the last good cached answer (``stale=True``).
    stale_served: int = 0
    #: Answers served fresh over the merged tree minus dead shards
    #: (``degraded=True``).
    degraded_served: int = 0
    #: Updates accepted into a dead shard's bounded queue.
    updates_queued: int = 0
    #: Requests answered from the cross-session result cache (completed
    #: answers at an unchanged shard-version vector and backend).
    result_cache_hits: int = 0
    #: Requests that consulted the result cache and fell through to a
    #: real execution.
    result_cache_misses: int = 0
    #: Plans answered from a fused multi-query artifact sweep (several
    #: queries wanting the rank-matrix artifact at different ``k``,
    #: materialized once at ``k_max`` and sliced).
    fused_plans: int = 0

    @property
    def coalesce_rate(self) -> float:
        """Fraction of submissions served by piggybacking on an in-flight
        identical query."""
        total = self.queries + self.coalesced
        return self.coalesced / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe document of every counter (``/metrics`` wire form).

        ``queries_by_kind`` becomes a plain ``{kind: count}`` object; the
        nested ``ipc`` / ``merge`` snapshots become flat dictionaries of
        their dataclass fields (or ``None``).  :meth:`from_dict` rebuilds
        an equal snapshot, nested snapshots included.
        """
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("queries_by_kind", "ipc", "merge")
        }
        data["queries_by_kind"] = dict(self.queries_by_kind)
        data["ipc"] = (
            None
            if self.ipc is None
            else {f.name: getattr(self.ipc, f.name) for f in fields(self.ipc)}
        )
        data["merge"] = (
            None
            if self.merge is None
            else {
                f.name: getattr(self.merge, f.name)
                for f in fields(self.merge)
            }
        )
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ServingMetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output.

        The nested transport/merge documents come back as real
        :class:`~repro.sharding.procpool.IpcSnapshot` /
        :class:`~repro.sharding.merge.MergeStatsSnapshot` instances, so
        delta arithmetic keeps working on decoded snapshots.
        """
        kwargs = dict(data)
        kwargs["queries_by_kind"] = tuple(
            sorted((str(k), int(v)) for k, v in data["queries_by_kind"].items())
        )
        ipc = data.get("ipc")
        if ipc is not None:
            from repro.sharding.procpool import IpcSnapshot

            kwargs["ipc"] = IpcSnapshot(**ipc)
        merge = data.get("merge")
        if merge is not None:
            from repro.sharding.merge import MergeStatsSnapshot

            kwargs["merge"] = MergeStatsSnapshot(**merge)
        known = {f.name for f in fields(ServingMetricsSnapshot)}
        return ServingMetricsSnapshot(
            **{k: v for k, v in kwargs.items() if k in known}
        )

    def __sub__(
        self, other: "ServingMetricsSnapshot"
    ) -> "ServingMetricsSnapshot":
        """Counter delta between two snapshots (IpcSnapshot-style).

        Monotone counters subtract; point-in-time gauges (latency
        quantiles, mean batch size) are kept from ``self``; the nested
        ``ipc`` / ``merge`` snapshots subtract when both sides carry
        them.
        """
        other_kinds = dict(other.queries_by_kind)
        return replace(
            self,
            **{
                name: getattr(self, name) - getattr(other, name)
                for name in _COUNTERS
            },
            worker_restarts=self.worker_restarts - other.worker_restarts,
            queries_by_kind=tuple(
                (kind, count - other_kinds.get(kind, 0))
                for kind, count in self.queries_by_kind
            ),
            ipc=(
                self.ipc - other.ipc
                if self.ipc is not None and other.ipc is not None
                else self.ipc
            ),
            merge=(
                self.merge - other.merge
                if self.merge is not None and other.merge is not None
                else self.merge
            ),
        )


@dataclass
class ServingMetrics:
    """Mutable counters owned by one executor."""

    queries: int = 0
    coalesced: int = 0
    batches: int = 0
    updates: int = 0
    invalidations: int = 0
    snapshot_reads: int = 0
    stale_reads: int = 0
    retries: int = 0
    deadline_exceeded: int = 0
    breaker_open: int = 0
    stale_served: int = 0
    degraded_served: int = 0
    updates_queued: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    fused_plans: int = 0
    batched_requests: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    queries_by_kind: Dict[str, int] = field(default_factory=dict)

    def count_query(self, kind: str) -> None:
        self.queries += 1
        self.queries_by_kind[kind] = self.queries_by_kind.get(kind, 0) + 1

    def count_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size

    def snapshot(
        self, ipc: Optional[Any] = None, merge: Optional[Any] = None
    ) -> ServingMetricsSnapshot:
        return ServingMetricsSnapshot(
            **{name: getattr(self, name) for name in _COUNTERS},
            ipc=ipc,
            merge=merge,
            worker_restarts=getattr(ipc, "restarts", 0),
            mean_batch_size=(
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            latency_mean=self.latency.mean(),
            latency_p50=self.latency.percentile(0.50),
            latency_p95=self.latency.percentile(0.95),
            queries_by_kind=tuple(sorted(self.queries_by_kind.items())),
        )


#: The monotone counters: :class:`ServingMetrics`' int fields that a
#: snapshot carries (``batched_requests`` only feeds ``mean_batch_size``).
_COUNTERS = tuple(
    f.name
    for f in fields(ServingMetrics)
    if f.type in (int, "int")
    and f.name in {g.name for g in fields(ServingMetricsSnapshot)}
)
