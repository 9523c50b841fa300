"""The cross-session consensus answer cache.

This is the one store of completed answers: sessions memoize only the
statistics the algorithms read.  A :class:`ResultCache` extends the serving executor's in-flight request
coalescing to *completed* answers: a query that was already answered
against unchanged state returns the finished :class:`~repro.query
.QueryAnswer` without touching the planner, the session caches or the
shard merge machinery.  Entries are keyed by

``(ConsensusQuery.fingerprint(), session.version_token(), backend name)``

so invalidation is structural -- a shard version bump, a local
``invalidate()`` / ``set_scoring()`` or a compute-backend switch changes
the key and the stale entry is simply never looked up again (and ages out
of the bounded LRU).  The cache is shared between
:class:`~repro.query.Connection` and
:class:`~repro.serving.ServingExecutor` over the same database: both
attach to the answering session via :func:`result_cache_for`.

Memory stays flat under soak traffic: capacity is a hard LRU bound and an
optional TTL retires entries whose age exceeds it even when they are hot.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

#: Default bound on distinct (query, version, backend) answers retained.
DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class ResultCacheStats:
    """Counters of one :class:`ResultCache` at one instant."""

    hits: int
    misses: int
    entries: int
    evictions: int
    expirations: int
    capacity: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0


class ResultCache:
    """A bounded, thread-safe LRU of completed :class:`QueryAnswer`\\ s.

    Parameters
    ----------
    capacity:
        Maximum number of retained answers; the least recently used entry
        is evicted beyond it.  Must be positive.
    ttl_s:
        Optional time-to-live in seconds.  An entry older than this is
        treated as absent (and dropped) even if still resident -- the
        safety valve for deployments whose version tokens cannot capture
        every answer-relevant change (e.g. wall-clock-dependent scoring).
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, ttl_s: Optional[float] = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self._capacity = capacity
        self._ttl = ttl_s
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Any]:
        """The cached answer under ``key``, or None (counts a miss)."""
        now = time.monotonic()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._ttl is not None:
                if now - entry[1] > self._ttl:
                    del self._entries[key]
                    self._expirations += 1
                    entry = None
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, answer: Any) -> None:
        """Store a completed answer, evicting the LRU entry beyond capacity.

        The entry is the answer's detached copy (see
        :meth:`~repro.query.QueryAnswer.detached`), so it does not keep
        the answering session alive.
        """
        answer = answer.detached()
        with self._lock:
            self._entries[key] = (answer, time.monotonic())
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are cumulative across clears)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> ResultCacheStats:
        with self._lock:
            return ResultCacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                evictions=self._evictions,
                expirations=self._expirations,
                capacity=self._capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"ResultCache(entries={stats.entries}/{self._capacity}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )


def answer_key(
    query: Any, version_token: Hashable, backend: str
) -> Tuple[Any, ...]:
    """The canonical cache key of one query against one state.

    The fingerprint is the query's process-stable identity (it survives
    restarts, matching the wire protocol); the version token carries the
    session identity plus every answer-relevant state signal; the backend
    name keeps answers computed by different compute backends apart, so a
    ``set_backend()`` switch can never serve an artifact shaped for the
    previous backend.
    """
    return (query.fingerprint(), version_token, backend)


def result_cache_for(
    holder: Any,
    capacity: int = DEFAULT_CAPACITY,
    ttl_s: Optional[float] = None,
) -> ResultCache:
    """The shared :class:`ResultCache` attached to one session/database.

    Idempotent: the first caller creates the cache, later callers (other
    connections, the serving executor) receive the same instance -- which
    is what makes the cache *cross-session*: every consumer answering
    from the same state shares one pool of completed answers.
    """
    cache = holder.__dict__.get("_repro_result_cache")
    if cache is None:
        cache = ResultCache(capacity=capacity, ttl_s=ttl_s)
        holder.__dict__["_repro_result_cache"] = cache
    return cache
