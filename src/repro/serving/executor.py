"""The asyncio front-end over a sharded database.

:class:`ServingExecutor` accepts concurrent consensus queries against one
:class:`~repro.models.sharded.ShardedDatabase` and answers them through the
cross-shard coordinator session:

* **Request coalescing** -- identical queries arriving while a previous one
  is still in flight (same request, same shard generation) share one
  computation and one result future.
* **Micro-batching** -- queued requests are drained into batches; each batch
  answers every request on the coordinator worker, so batch members share
  the freshly merged artifacts.  A shard summary is built only where the
  merge reads it.
* **Graceful invalidation fan-out** -- an update is the database's own
  :meth:`~repro.models.sharded.ShardedDatabase.update_tuple` (or
  ``update_block``), one hop to the update thread (off the event loop and
  off the query path): it patches the owning shard's block into the live
  store under the database's update lock and publishes it with the
  shard's version bumped; the coordinator notices the version change
  lazily and re-merges from the unchanged shards' summaries.
* **Instrumentation** -- per-request latency quantiles, batch sizes,
  coalescing and invalidation counters (:meth:`ServingExecutor.metrics`).
* **Self-healing** -- per-query deadlines (``deadline_ms`` ->
  :class:`~repro.exceptions.DeadlineExceededError`, with abandoned
  batch entries cancelled once no coalesced waiter remains) and exact
  failover.  The parent's store holds every shard's committed rows, so
  when a shard's worker cannot answer (it failed the request, its restart
  budget is spent, or the pool's per-shard circuit breaker is open) that
  shard's reads are answered from the store, through the same coordinator
  and merge: the answer is the exact, current consensus answer of the
  whole database (counted as ``failover_served``).  Updates always commit
  parent-side; a worker that misses one is respawned from the new store.

>>> async def main():
...     async with ServingExecutor(database) as executor:
...         answer, distance = await executor.submit(Query.topk(5))
...         await executor.update("t3", probability=0.2)
...         answer2, _ = await executor.submit(Query.topk(5, "footrule"))
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import DeadlineExceededError, SnapshotTooOldError
from repro.models.sharded import ShardedDatabase
from repro.query.answers import QueryAnswer
from repro.query.builder import ConsensusQuery
from repro.query.planner import DEFAULT_PLANNER
from repro.query.results import ResultCache, answer_key, result_cache_for
from repro.serving.metrics import ServingMetrics, ServingMetricsSnapshot
from repro.sharding.procpool import counting_failovers

_SENTINEL = object()


class ServingExecutor:
    """Async batched query executor over a sharded database.

    Parameters
    ----------
    database:
        The sharded database to serve.
    coalesce:
        Share one in-flight computation between identical concurrent
        queries hitting the same shard generation.
    batch_window:
        Seconds to linger collecting a micro-batch after the first queued
        request (0.0 drains whatever is already queued, adding no latency).
    max_batch_size:
        Upper bound on one micro-batch.
    deadline_ms:
        Default per-query deadline in milliseconds (``None`` = none).  A
        query that misses it raises
        :class:`~repro.exceptions.DeadlineExceededError`; its queued
        batch entry is cancelled once no coalesced waiter remains.
        Overridable per call via ``execute(..., deadline_ms=...)``.
    result_cache:
        Serve completed answers from the cross-session
        :class:`~repro.query.ResultCache` (keyed by query fingerprint,
        coordinator version token and backend, so data changes,
        ``invalidate()`` and backend switches all miss structurally).
        ``True`` attaches to the database's shared cache (every executor
        and connection over the same database shares one pool of
        answers); pass a :class:`~repro.query.ResultCache` instance for
        explicit bounds, or ``False`` to disable (e.g. fault-injection
        harnesses that align faults with request ordinals).  Failover
        answers are exact, so caching keeps running during an outage.
    fuse_batches:
        Plan micro-batch members wanting the rank-matrix artifact at
        different ``k`` as one fused ``k_max`` sweep (smaller ``k``
        entries are exact column-prefix slices).
    """

    def __init__(
        self,
        database: ShardedDatabase,
        coalesce: bool = True,
        batch_window: float = 0.0,
        max_batch_size: int = 64,
        deadline_ms: Optional[float] = None,
        result_cache: Union[bool, ResultCache] = True,
        fuse_batches: bool = True,
    ) -> None:
        self._database = database
        self._coalesce = coalesce
        self._batch_window = batch_window
        self._max_batch_size = max(1, max_batch_size)
        self._deadline_ms = deadline_ms
        if isinstance(result_cache, ResultCache):
            self._result_cache: Optional[ResultCache] = result_cache
        elif result_cache:
            self._result_cache = result_cache_for(database)
        else:
            self._result_cache = None
        self._fuse_batches = fuse_batches
        self._metrics = ServingMetrics()
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._update_pool: Optional[ThreadPoolExecutor] = None
        self._merge_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[Any] = None
        self._owns_process_pool = False
        self._pending: Dict[Tuple[ConsensusQuery, Tuple[int, ...]], asyncio.Future] = {}
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._database.subscribe(self._on_invalidation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def database(self) -> ShardedDatabase:
        return self._database

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The cross-session answer cache (None when disabled)."""
        return self._result_cache

    def metrics(self) -> ServingMetricsSnapshot:
        """A snapshot of the executor's counters and latency quantiles.

        Under ``executor="processes"`` the snapshot's ``ipc`` field carries
        the worker pool's transport counters (summaries exchanged, replies
        and the bytes received over the workers' pipes).  The ``merge`` field carries
        the coordinator's merge-engine counters (full vs incremental
        re-merges, convolutions, reused partial products) once a
        coordinator exists.
        """
        ipc = None
        if self._process_pool is not None and not self._process_pool.closed:
            ipc = self._process_pool.stats()
        merge = None
        coordinator = getattr(self._database, "_coordinator", None)
        if coordinator is not None:
            merge = coordinator.merge_stats()
        return self._metrics.snapshot(ipc=ipc, merge=merge)

    @property
    def started(self) -> bool:
        return self._dispatcher is not None

    async def start(self) -> "ServingExecutor":
        """Start the dispatcher task and the worker pools (idempotent).

        Under ``executor="processes"`` the database's worker pool is
        mounted first -- processes must be spawned before any thread pool
        exists (forking a threaded parent risks deadlocked children).  A
        failure mid-start releases everything already started.
        """
        if self._dispatcher is not None:
            return self
        if self._closed:
            raise RuntimeError("executor already stopped")
        try:
            if getattr(self._database, "executor", "threads") == "processes":
                existing = getattr(self._database, "_pool", None)
                self._owns_process_pool = existing is None or existing.closed
                self._process_pool = self._database.process_pool()
            self._queue = asyncio.Queue()
            self._update_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-update"
            )
            self._merge_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-coordinator"
            )
            self._loop = asyncio.get_running_loop()
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        except BaseException:
            self._closed = True
            self._release_workers()
            raise
        return self

    async def stop(self) -> None:
        """Drain the queue, stop the dispatcher and shut the pools down.

        Idempotent: a second (or concurrent re-entrant) stop is a no-op.
        Also detaches from the database's invalidation fan-out and, when
        this executor started the process pool, shuts its workers down --
        so a stopped executor is fully released even if the drain itself
        raises (the database may outlive many executors).
        """
        self._database.unsubscribe(self._on_invalidation)
        if self._closed and self._dispatcher is None:
            return
        self._closed = True
        try:
            if self._dispatcher is not None:
                assert self._queue is not None
                await self._queue.put(_SENTINEL)
                await self._dispatcher
        finally:
            self._dispatcher = None
            self._release_workers()

    def close(self) -> None:
        """Synchronously release worker resources (idempotent).

        The no-event-loop escape hatch: cancels a still-running dispatcher
        instead of draining it, then releases the thread pools and (when
        owned) the process pool.  Prefer ``await stop()`` for a graceful
        drain; ``close()`` is for ``finally`` blocks and tests that tear
        down outside the loop.
        """
        self._database.unsubscribe(self._on_invalidation)
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        self._release_workers()

    def _release_workers(self) -> None:
        for pool in (self._update_pool, self._merge_pool):
            if pool is not None:
                pool.shutdown(wait=True)
        self._update_pool = self._merge_pool = None
        if self._process_pool is not None:
            if self._owns_process_pool:
                self._process_pool.close()
            self._process_pool = None
            self._owns_process_pool = False

    async def __aenter__(self) -> "ServingExecutor":
        try:
            return await self.start()
        except BaseException:
            await self.stop()
            raise

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def _on_invalidation(self, shard_index: int, key: Hashable) -> None:
        # Fires synchronously from whichever thread applied the update
        # (the update thread, or a caller of the database's own update
        # methods); all other counters mutate on the event-loop thread,
        # so hop there instead of racing a non-atomic increment.
        def bump() -> None:
            self._metrics.invalidations += 1

        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(bump)
        else:
            bump()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def execute(
        self,
        query: ConsensusQuery,
        deadline_ms: Optional[float] = None,
    ) -> QueryAnswer:
        """Answer one query, returning the full :class:`QueryAnswer`.

        Equal queries coalesce onto the same in-flight computation: the
        coalescing key is the query object's stable hash plus the shard
        versions it would read.

        ``deadline_ms`` overrides the executor default for this call (a
        value <= 0 disables the deadline).  On expiry the call raises
        :class:`~repro.exceptions.DeadlineExceededError` and -- when it
        was the last waiter -- cancels the queued batch entry so the
        dispatcher never computes an answer nobody wants.
        """
        timeout = self._deadline_ms if deadline_ms is None else deadline_ms
        if timeout is not None and timeout <= 0:
            timeout = None
        if timeout is None:
            return await self._execute_inner(query)
        try:
            return await asyncio.wait_for(
                self._execute_inner(query), timeout / 1000.0
            )
        except asyncio.TimeoutError:
            self._metrics.deadline_exceeded += 1
            raise DeadlineExceededError(
                f"query {query.kind!r} missed its {timeout:g} ms deadline; "
                "retry with a longer deadline or at lower load"
            ) from None

    async def _execute_inner(self, query: ConsensusQuery) -> QueryAnswer:
        if self._dispatcher is None:
            await self.start()
        if self._closed:
            raise RuntimeError("executor is stopped")
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        versions = self._database.versions()
        cache_key = self._result_cache_key(query, versions)
        if cache_key is not None:
            hit = self._result_cache.get(cache_key)
            if hit is not None:
                self._metrics.count_query(query.kind)
                self._metrics.result_cache_hits += 1
                elapsed = time.perf_counter() - started
                self._metrics.latency.record(elapsed)
                # Zero the session-traffic deltas and report the lookup's
                # own time: a replayed answer causes no artifact
                # computation of its own.
                return replace(
                    hit,
                    cached=True,
                    cache_hits=0,
                    cache_misses=0,
                    elapsed=elapsed,
                )
            self._metrics.result_cache_misses += 1
        pending_key = (query, versions)
        if self._coalesce:
            existing = self._pending.get(pending_key)
            if existing is not None:
                self._metrics.coalesced += 1
                try:
                    return await self._await_result(existing)
                finally:
                    self._metrics.latency.record(
                        time.perf_counter() - started
                    )
        future: asyncio.Future = loop.create_future()
        future._repro_waiters = 0  # type: ignore[attr-defined]
        if self._coalesce:
            self._pending[pending_key] = future
            future.add_done_callback(
                lambda _: self._pending.pop(pending_key, None)
            )
        self._metrics.count_query(query.kind)
        # The versions captured at ingress pin the read: the batch answers
        # on a snapshot reader at exactly this vector, so a concurrent
        # update landing before the batch runs cannot tear the result.
        # The cache key computed at ingress rides along so the store after
        # execution lands under exactly the state the submitter observed.
        await self._queue.put((query, future, versions, cache_key))
        try:
            return await self._await_result(future)
        finally:
            self._metrics.latency.record(time.perf_counter() - started)

    def _result_cache_key(
        self, query: ConsensusQuery, versions: Tuple[int, ...]
    ) -> Optional[Tuple[Any, ...]]:
        """The answer-cache key of one request at ingress, or None.

        None disables caching for this request: the cache is off, or the
        query is randomized (``rng`` params must never be served a
        memoized draw).  The token is the coordinator's version token, so
        shard version bumps *and* explicit ``invalidate()`` calls (e.g. a
        cold-read fault drill) both miss structurally; the backend name
        keeps answers computed by different backends apart across
        ``set_backend()`` switches.
        """
        if self._result_cache is None:
            return None
        try:
            coordinator = self._database.coordinator()
        except Exception:
            return None
        from repro.engine import get_backend

        return answer_key(
            query,
            coordinator.version_token(versions),
            get_backend().name,
        )

    @staticmethod
    async def _await_result(future: asyncio.Future) -> QueryAnswer:
        """Await a (possibly shared) result, cancelling it when abandoned.

        The shield keeps one waiter's deadline from killing a computation
        other coalesced waiters still want; the waiter count lets the
        *last* departing waiter cancel the future, so the dispatcher can
        skip batch entries nobody is waiting on anymore.
        """
        count = getattr(future, "_repro_waiters", 0)
        future._repro_waiters = count + 1  # type: ignore[attr-defined]
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            if (
                not future.done()
                and getattr(future, "_repro_waiters", 1) <= 1
            ):
                future.cancel()
            raise
        finally:
            future._repro_waiters -= 1  # type: ignore[attr-defined]

    async def submit(
        self,
        query: ConsensusQuery,
        deadline_ms: Optional[float] = None,
    ) -> Any:
        """Answer one query, returning the raw answer value."""
        answer = await self.execute(query, deadline_ms=deadline_ms)
        return answer.value

    async def update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> None:
        """Update one tuple; only its shard is rebuilt and invalidated.

        One hop to the update thread runs the database's
        :meth:`~repro.models.sharded.ShardedDatabase.update_tuple`, a
        column patch and a version-bumping swap under the database's
        update lock: snapshot-pinned reads make the swap safe against
        in-flight queries, so an update never waits behind a batch on the
        coordinator worker, and the blocking worker commit under
        ``executor="processes"`` stays off the event loop.  Concurrent
        updates serialise on the lock; none is rejected.  The update
        commits to the parent's store even when the shard's worker process
        is down; the worker is respawned from it.
        """
        await self._run_update(
            self._database.update_tuple, key, probability, score
        )

    async def update_block(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> None:
        """Replace one BID block's ``(value, score, probability)``
        alternatives, as :meth:`update` does a tuple: one hop to the
        update thread into the database's ``update_block``."""
        await self._run_update(
            self._database.update_block, key, alternatives
        )

    async def _run_update(
        self, apply: Callable[..., None], *args: Any
    ) -> None:
        if self._dispatcher is None:
            await self.start()
        await asyncio.get_running_loop().run_in_executor(
            self._update_pool, apply, *args
        )
        self._metrics.updates += 1

    def pending_count(self) -> int:
        """Distinct queries currently submitted and not yet answered.

        Coalesced waiters share one pending entry; the HTTP front door's
        drain path polls this (together with its own in-flight counter)
        to decide when the executor is quiescent.
        """
        return len(self._pending)

    # ------------------------------------------------------------------
    # Failover and circuit breakers
    # ------------------------------------------------------------------
    def _counted(self, compute: Callable[[], Any]) -> Any:
        """``compute()`` on this worker thread, its shard failovers and
        the breaker trips its reads cause counted into this executor's
        metrics (not another executor's sharing the pool)."""
        with counting_failovers(self._metrics):
            return compute()

    def open_breakers(self) -> Tuple[int, ...]:
        """Shards whose reads currently skip their worker because its
        circuit breaker is open, ascending (the pool owns the breakers)."""
        pool = self._process_pool
        return () if pool is None else pool.open_breakers()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                return
            batch = [item]
            stop_after_batch = False
            if self._batch_window > 0.0:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self._batch_window
                while len(batch) < self._max_batch_size:
                    timeout = deadline - loop.time()
                    if timeout <= 0.0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), timeout
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _SENTINEL:
                        stop_after_batch = True
                        break
                    batch.append(item)
            else:
                while len(batch) < self._max_batch_size:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is _SENTINEL:
                        stop_after_batch = True
                        break
                    batch.append(item)
            await self._execute_batch(batch)
            # Waiting for the next batch must not keep this one's answers
            # -- and the snapshot readers their plans close over -- alive.
            del batch, item
            if stop_after_batch:
                return

    async def _execute_batch(
        self,
        batch: List[
            Tuple[ConsensusQuery, asyncio.Future, Tuple[int, ...], Any]
        ],
    ) -> None:
        loop = asyncio.get_running_loop()
        self._metrics.count_batch(len(batch))
        try:
            coordinator = self._database.coordinator()
        except Exception as error:  # route to waiters, keep dispatching
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        if self._fuse_batches and len(batch) > 1:
            try:
                await self._fuse_batch(loop, coordinator, batch)
            except Exception:
                # Fusion is an optimization; per-query execution below
                # recomputes anything the seeds did not cover.
                pass
        for query, future, versions, cache_key in batch:
            if future.done():
                continue
            try:
                result = await self._answer_query(
                    loop, coordinator, query, versions, cache_key
                )
            except Exception as error:  # surfaced to the submitter
                if not future.done():
                    future.set_exception(error)
            else:
                if not future.done():
                    future.set_result(result)

    async def _fuse_batch(
        self,
        loop: asyncio.AbstractEventLoop,
        coordinator: Any,
        batch: List[
            Tuple[ConsensusQuery, asyncio.Future, Tuple[int, ...], Any]
        ],
    ) -> None:
        """Seed fused rank-matrix sweeps for the batch's version groups.

        Batch members pinned at the same version vector that want the
        rank-matrix artifact at different ``k`` are answered from one
        ``k_max`` sweep: the sweep runs once on the coordinator worker
        and the smaller-``k`` entries are seeded into the pinned
        snapshot's artifact store as exact column-prefix slices, so the
        per-query executions below all dispatch against warm artifacts.
        """
        groups: Dict[Tuple[int, ...], List[ConsensusQuery]] = {}
        for query, future, versions, _ in batch:
            if not future.done():
                groups.setdefault(versions, []).append(query)
        for versions, queries in groups.items():
            if len(queries) < 2:
                continue

            def fuse(
                pinned: Tuple[int, ...] = versions,
                group: List[ConsensusQuery] = queries,
            ) -> int:
                plans = [
                    DEFAULT_PLANNER.plan_for(query, coordinator, "served")
                    for query in group
                ]
                return DEFAULT_PLANNER.fuse_plans(
                    coordinator.at(pinned), plans
                )

            try:
                fused = await loop.run_in_executor(
                    self._merge_pool, self._counted, fuse
                )
            except SnapshotTooOldError:
                continue  # per-query fallback handles aged-out snapshots
            if fused:
                self._metrics.fused_plans += fused

    async def _answer_query(
        self,
        loop: asyncio.AbstractEventLoop,
        coordinator: Any,
        query: ConsensusQuery,
        versions: Tuple[int, ...],
        cache_key: Any = None,
    ) -> QueryAnswer:
        """One query, answered on a reader pinned at its ingress versions.

        The plan is memoized per session generation on the live
        coordinator, then rebound to a reader pinned at the versions
        captured when the request arrived, so the read is isolated from
        updates that landed while it was queued.  Only pinned answers are
        stored in the result cache: the aged-out-snapshot fallback answers
        at *newer* state than the key's version token.
        """
        reader = coordinator.at(versions)
        self._metrics.snapshot_reads += 1
        if tuple(versions) != self._database.versions():
            self._metrics.stale_reads += 1

        def answer_pinned() -> Tuple[QueryAnswer, bool]:
            # Planning may read shard layouts, so it runs here too.
            plan = DEFAULT_PLANNER.plan_for(query, coordinator, "served")
            try:
                return plan.rebound(reader).execute(), True
            except SnapshotTooOldError:
                # The pinned state aged out of the bounded history while
                # queued; answer at the current versions instead.
                return plan.execute(), False

        answer, pinned = await loop.run_in_executor(
            self._merge_pool, self._counted, answer_pinned
        )
        if pinned and cache_key is not None:
            self._result_cache.put(cache_key, answer)
        return answer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingExecutor({self._database!r}, "
            f"coalesce={self._coalesce}, started={self.started})"
        )
