"""Process-backed shard execution: the parent-side worker pool.

The per-shard kernel behind the merged rank matrix -- the ``(n_s + 1) × k``
prefix polynomial sweep of a tuple-independent shard -- is dense array
work that one interpreter serializes behind the GIL no matter how many
shard *threads* structure it.  :class:`ShardProcessPool` moves that work
into real processes: each worker (:mod:`repro.sharding.procworker`) owns
a copy of one tuple-independent shard's rows plus a warm
:class:`~repro.session.QuerySession`, and the coordinator exchanges only
prefix tables and block patches with it:

* a summary reply carries the live rows of the worker's prefix table
  (all of them, or the row suffix an update changed; never the zero
  tail past the table's support) and the worker's state id, one pickled
  message over the worker's pipe; replies are fetched in parallel across
  workers (threads blocked on pipes release the GIL, so worker processes
  compute concurrently).  The parent builds the
  :class:`~repro.sharding.summary.ShardRankSummary` over its own store's
  view of the shard at the version that state holds;
* block patches are committed on the worker inside the locked update of
  :meth:`repro.models.sharded.ShardedDatabase.apply_update` (the parent
  stays the sole authority over shard versions and rows).

A shipped table is paired only with the shard version of the worker state
that computed it.  The parent records which version each worker state
holds when it spawns the worker and when a commit returns; a read at any
other version (a commit raced the fetch, or the reader is pinned at a
superseded vector) is answered from the parent's store, its table swept
here, and is not cached.  Summaries are cached parent-side per shard
version, so after one shard's update only that shard's table is
re-fetched.  A block-independent database's coordinator reads its rank
matrix off the parent's store and asks no worker, so its pool spawns
none.

Worker death is detected (pipe poll + liveness checks) and, by default,
**supervised**: the pool respawns the dead worker from the parent's
committed rows under a
:class:`~repro.sharding.supervisor.WorkerSupervisor` budget (exponential
backoff + jitter), transparently retries idempotent requests on the fresh
worker, and drops only the dead shard's parent-side cache entries.  A
worker that misses a commit is reaped before the parent publishes and
respawned from the new store after, so it never runs ahead of the
parent.  When the restart budget is spent (or ``supervise=False``) the
shard is *down* and its reads fail over to the parent's store
(:meth:`ShardProcessPool.read`); a per-shard circuit breaker does the
same for a while after a worker fails several reads in a row.  Closing
the pool is idempotent (``join`` -> ``terminate`` -> ``kill``
escalation), and a closed pool can be rebuilt by the owning database's
:meth:`~repro.models.sharded.ShardedDatabase.process_pool`.

Failure paths are testable deterministically: install a seeded
:class:`~repro.sharding.faults.FaultInjector` (``fault_injector=``) and
the pool will kill, stall, delay or drop at scheduled request ordinals.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import count
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.andxor.columns import FlatColumns, Row
from repro.engine import get_backend
from repro.exceptions import ProcessPoolError, WorkerCrashError
from repro.session import CacheInfo
from repro.sharding.procworker import worker_main
from repro.sharding.summary import ShardRankSummary, splice_live_rows
from repro.sharding.supervisor import SupervisorPolicy, WorkerSupervisor

#: Environment variable pinning the multiprocessing start method
#: (``spawn`` / ``fork`` / ``forkserver``); the CI multiprocess leg sets
#: ``spawn`` to catch fork-only pickling bugs.
START_METHOD_ENV = "REPRO_PROC_START_METHOD"

_REMOTE_EXCEPTIONS = (
    "ModelError",
    "ProbabilityError",
    "ConsensusError",
    "ProcessPoolError",
)

#: Ops a supervised pool transparently retries on a respawned worker:
#: the idempotent reads.  ``replace`` is absent (see ``commit_replace``),
#: and the test hooks (``exit-now``, ``stall``) must never self-heal.
_RETRYABLE_OPS = frozenset({"summary", "cache_info", "stats", "ping"})

#: Cap on restart-and-retry cycles within one request (the supervisor's
#: own per-worker budget is the real limiter; this bounds pathological
#: single-call loops).
_MAX_RESTART_RETRIES = 3


def resolve_start_method(explicit: Optional[str] = None) -> str:
    """Start method: explicit argument > ``REPRO_PROC_START_METHOD`` > platform default."""
    method = explicit or os.environ.get(START_METHOD_ENV) or None
    if method is None:
        method = multiprocessing.get_start_method(allow_none=True) or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    if method not in multiprocessing.get_all_start_methods():
        raise ProcessPoolError(
            f"start method {method!r} is unavailable on this platform; "
            f"choose one of {multiprocessing.get_all_start_methods()}"
        )
    return method


@dataclass(frozen=True)
class IpcSnapshot:
    """Counters of the parent <-> worker exchanges at one instant.

    ``pipe_messages`` counts the worker replies the parent received and
    ``pipe_bytes`` their size as received: each reply is one pickled
    message, so the bytes include every envelope.  ``summaries`` counts
    the summary replies among them, ``summary_deltas`` those that shipped
    a row-suffix delta (``delta_rows`` rows shipped, ``delta_rows_saved``
    live rows above the change that the parent already held and reused).
    A table travels only up to its support, so its zero tail counts in
    neither: it is never shipped, and the parent holds none of it.
    """

    commands: int = 0
    summaries: int = 0
    pipe_messages: int = 0
    pipe_bytes: int = 0
    updates: int = 0
    summary_deltas: int = 0
    delta_rows: int = 0
    delta_rows_saved: int = 0
    restarts: int = 0
    workers: int = 0

    def __sub__(self, other: "IpcSnapshot") -> "IpcSnapshot":
        """Delta between two snapshots (workers kept from ``self``)."""
        return replace(
            self,
            **{
                name: getattr(self, name) - getattr(other, name)
                for name in _IPC_COUNTERS
            },
        )


#: The pool's monotone transport counters (``workers`` is a gauge).
_IPC_COUNTERS = tuple(
    f.name for f in fields(IpcSnapshot) if f.name != "workers"
)


#: The calling thread's failover ledger (see :func:`counting_failovers`).
_reads = threading.local()


@contextmanager
def counting_failovers(metrics: Any) -> Iterator[None]:
    """Count this thread's failovers inside the block into ``metrics``.

    Each shard whose reads the parent answered counts once into
    ``metrics.failover_served`` when the block exits, and every breaker
    trip the block's reads cause counts into ``metrics.breaker_open``.
    The serving executor wraps each query's execution in it, so two
    executors sharing one pool each count only their own reads.
    """
    _reads.metrics, _reads.failed_over = metrics, set()
    try:
        yield
    finally:
        metrics.failover_served += len(_reads.failed_over)
        _reads.metrics = _reads.failed_over = None


class _WorkerHandle:
    """One worker process plus its pipe; requests are serialized per worker."""

    __slots__ = ("shard_index", "process", "connection", "lock")

    def __init__(self, shard_index: int, process: Any, connection: Any) -> None:
        self.shard_index = shard_index
        self.process = process
        self.connection = connection
        self.lock = threading.Lock()


class ShardProcessPool:
    """Worker processes owning the shards of one partitioned database.

    Parameters
    ----------
    database:
        The owning :class:`~repro.models.sharded.ShardedDatabase`; one
        worker is spawned per shard that owns a key of a
        tuple-independent database, seeded with that shard's committed
        rows and the parent's active backend.
    start_method:
        ``spawn`` / ``fork`` / ``forkserver``; defaults to the
        ``REPRO_PROC_START_METHOD`` environment variable, then the
        platform default.
    request_timeout:
        Seconds to wait on one worker reply before giving up (worker
        death is detected much earlier via liveness polling).  On a
        supervised pool a blown deadline is treated as a wedged worker:
        it is restarted and idempotent requests are retried.
    supervise:
        When true (the default), dead or wedged workers are respawned
        under the supervisor's restart budget and idempotent requests
        retry transparently; when false, a shard goes down at its
        worker's first crash and its reads fail over to the parent.
    breaker_threshold / breaker_cooldown_s:
        Per-shard circuit breaker: after ``breaker_threshold``
        consecutive failed worker reads, the shard's reads skip its
        worker for ``breaker_cooldown_s`` seconds and fail over to the
        parent's store; then the next read probes the worker
        (half-open) and either closes the breaker or re-opens it.
    supervisor:
        A :class:`~repro.sharding.supervisor.WorkerSupervisor` or
        :class:`~repro.sharding.supervisor.SupervisorPolicy` overriding
        the default restart budget / backoff / jitter.
    fault_injector:
        A :class:`~repro.sharding.faults.FaultInjector` consulted on
        every worker request (deterministic failure testing); ``None``
        in production.
    """

    def __init__(
        self,
        database: Any,
        start_method: Optional[str] = None,
        request_timeout: float = 120.0,
        supervise: bool = True,
        supervisor: Optional[Any] = None,
        fault_injector: Optional[Any] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.5,
    ) -> None:
        self._database = database
        self._start_method = resolve_start_method(start_method)
        self._request_timeout = float(request_timeout)
        if not supervise:
            self._supervisor: Optional[WorkerSupervisor] = None
        elif supervisor is None:
            self._supervisor = WorkerSupervisor()
        elif isinstance(supervisor, WorkerSupervisor):
            self._supervisor = supervisor
        elif isinstance(supervisor, SupervisorPolicy):
            self._supervisor = WorkerSupervisor(supervisor)
        else:
            raise ProcessPoolError(
                "supervisor must be a WorkerSupervisor or SupervisorPolicy, "
                f"got {type(supervisor).__name__}"
            )
        self._faults = fault_injector
        self._context: Optional[Any] = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._restart_locks: Dict[int, threading.Lock] = {}
        self._gather: Optional[ThreadPoolExecutor] = None
        #: Shards whose worker could not be brought back: the parent
        #: answers their reads until a respawn succeeds.
        self._down: Set[int] = set()
        self._breaker_threshold = max(1, int(breaker_threshold))
        self._breaker_cooldown = max(0.0, float(breaker_cooldown_s))
        #: Per-shard circuit breakers: consecutive failed worker reads,
        #: and when each tripped breaker last (re-)opened.
        self._failures: Dict[int, int] = {}
        self._opened: Dict[int, float] = {}
        self._started = False
        self._closed = False
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = dict.fromkeys(_IPC_COUNTERS, 0)
        self._cache_lock = threading.Lock()
        #: Worker state ids, never reused within the pool.
        self._state_ids = count()
        #: shard -> (state id, version): the worker's committed state and
        #: the shard version it holds.
        self._committed: Dict[int, Tuple[int, int]] = {}
        #: (shard, max_rank) -> (version, summary, state id).  Only an
        #: updated shard re-fetches.  Entries outlive a commit: a stale
        #: entry never serves (its version is not the one read) but its
        #: table is the baseline the worker ships a row-suffix delta
        #: against.
        self._summary_cache: Dict[
            Tuple[int, int], Tuple[int, ShardRankSummary, int]
        ] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def supervised(self) -> bool:
        """Whether dead workers are respawned under a restart budget."""
        return self._supervisor is not None

    @property
    def supervisor(self) -> Optional[WorkerSupervisor]:
        return self._supervisor

    def restart_count(self) -> int:
        """Workers respawned by supervision over the pool's lifetime."""
        with self._stats_lock:
            return self._stats["restarts"]

    def worker_count(self) -> int:
        return len(self._workers)

    def shard_indices(self) -> List[int]:
        """Indices of the (non-empty) shards owned by workers, ascending."""
        return sorted(self._workers)

    def start(self) -> "ShardProcessPool":
        """Spawn one worker per shard that owns a key of a
        tuple-independent database (idempotent)."""
        if self._closed:
            raise ProcessPoolError(
                "process pool already closed; request a fresh pool from "
                "the database"
            )
        if self._started:
            return self
        self._context = multiprocessing.get_context(self._start_method)
        database = self._database
        owners = {database.shard_of(key) for key in database.keys()}
        try:
            for shard in database.shards():
                if shard.index not in owners or not database.independent:
                    continue
                self._workers[shard.index] = self._spawn_worker(
                    shard.index, *shard.committed()
                )
                self._restart_locks[shard.index] = threading.Lock()
        except BaseException:
            self.close()
            raise
        self._gather = ThreadPoolExecutor(
            max_workers=max(1, len(self._workers)),
            thread_name_prefix="repro-procpool",
        )
        self._started = True
        return self

    def _spawn_worker(
        self, shard_index: int, version: int, columns: FlatColumns
    ) -> _WorkerHandle:
        context = self._context or multiprocessing.get_context(
            self._start_method
        )
        parent_end, child_end = context.Pipe()
        state_id = next(self._state_ids)
        process = context.Process(
            target=worker_main,
            args=(
                child_end,
                shard_index,
                get_backend().name,
                columns,
                state_id,
            ),
            daemon=True,
            name=f"repro-shard-{shard_index}",
        )
        process.start()
        child_end.close()
        with self._cache_lock:
            self._committed[shard_index] = (state_id, version)
        return _WorkerHandle(shard_index, process, parent_end)

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut every worker down and release the pipes (idempotent).

        Escalates per worker: cooperative ``shutdown`` + ``join``, then
        ``terminate`` (SIGTERM), then ``kill`` (SIGKILL) -- so a wedged
        worker (stalled mid-kernel, ignoring SIGTERM) can delay shutdown
        by at most ``3 * join_timeout``, never hang it.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            try:
                with handle.lock:
                    handle.connection.send(("shutdown", None))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers.values():
            self._reap(handle, join_timeout)
        self._workers.clear()
        self._restart_locks.clear()
        if self._gather is not None:
            self._gather.shutdown(wait=True)
            self._gather = None
        with self._cache_lock:
            self._summary_cache.clear()

    def __enter__(self) -> "ShardProcessPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close(join_timeout=0.5)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _handle(self, shard_index: int) -> _WorkerHandle:
        if self._closed:
            raise ProcessPoolError("process pool is closed")
        if not self._started:
            self.start()
        try:
            return self._workers[shard_index]
        except KeyError:
            raise ProcessPoolError(
                f"no worker owns shard {shard_index} (empty shard?)"
            ) from None

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for key, delta in deltas.items():
                self._stats[key] += delta

    def _request(self, shard_index: int, op: str, payload: Any = None) -> Any:
        """One request/reply exchange, self-healing when supervised.

        A crash (or a hang past ``request_timeout``, treated as a wedged
        worker) on a supervised pool respawns the worker under the
        supervisor's backoff budget and transparently retries idempotent
        ops; everything else surfaces to the caller.  A wedged worker that
        is not replaced is reaped, so its late reply cannot answer a later
        request.
        """
        attempts = 0
        while True:
            handle = self._handle(shard_index)
            self._count(commands=1)
            try:
                if self._faults is not None:
                    self._inject_fault(handle, shard_index, op)
                status, value = self._exchange(handle, op, payload)
            except (WorkerCrashError, ProcessPoolError) as error:
                wedged = isinstance(error, WorkerCrashError) or getattr(
                    error, "worker_hang", False
                )
                if wedged:
                    if (
                        op in _RETRYABLE_OPS
                        and attempts < _MAX_RESTART_RETRIES
                        and self.restart_worker(shard_index, expected=handle)
                    ):
                        attempts += 1
                        continue
                    self._reap(handle)
                raise
            if attempts and self._supervisor is not None:
                self._supervisor.record_recovery(shard_index)
            if status == "error":
                self._raise_remote(shard_index, value)
            return value

    def _exchange(
        self, handle: _WorkerHandle, op: str, payload: Any
    ) -> Tuple[str, Any]:
        with handle.lock:
            try:
                handle.connection.send((op, payload))
            except (BrokenPipeError, OSError):
                raise self._crash(handle, op) from None
            deadline = time.monotonic() + self._request_timeout
            try:
                while not handle.connection.poll(0.05):
                    if not handle.process.is_alive():
                        # One grace poll: the reply may have been written
                        # just before the process exited.
                        if handle.connection.poll(0.2):
                            break
                        raise self._crash(handle, op)
                    if time.monotonic() > deadline:
                        error = ProcessPoolError(
                            f"shard worker {handle.shard_index} did not "
                            f"answer {op!r} within "
                            f"{self._request_timeout:.0f}s"
                        )
                        error.shard_index = handle.shard_index
                        error.transient = True
                        error.worker_hang = True
                        raise error
                reply = handle.connection.recv_bytes()
            except (EOFError, OSError):
                # Also a pipe closed under us by a concurrent reap.
                raise self._crash(handle, op) from None
        self._count(pipe_messages=1, pipe_bytes=len(reply))
        return pickle.loads(reply)

    def _inject_fault(
        self, handle: _WorkerHandle, shard_index: int, op: str
    ) -> None:
        event = self._faults.next_event(shard_index, op)
        if event is None:
            return
        if event.kind == "kill":
            try:
                with handle.lock:
                    handle.connection.send(("exit-now", None))
            except (BrokenPipeError, OSError):
                pass  # already dead: the exchange below will notice
            # Wait for the exit so detection is deterministic, not racy.
            handle.process.join(5.0)
        elif event.kind == "stall":
            # A slow shard: the worker sleeps before serving the request.
            # Stalls past request_timeout surface as a wedged-worker
            # ProcessPoolError from this exchange, like a real hang.
            self._exchange(handle, "stall", event.seconds)
        elif event.kind == "delay":
            time.sleep(event.seconds)
        else:  # drop: fail like a lost message's timeout, without waiting
            error = ProcessPoolError(
                f"injected message drop for shard {shard_index} op {op!r}"
            )
            error.shard_index = shard_index
            error.transient = True
            raise error

    def _crash(self, handle: _WorkerHandle, op: str) -> WorkerCrashError:
        handle.process.join(0.5)  # reap, so the exit code is reportable
        code = handle.process.exitcode
        hint = (
            "the supervisor will respawn it within its restart budget"
            if self._supervisor is not None
            else "close the pool and re-request it from the database to "
            "rebuild workers"
        )
        error = WorkerCrashError(
            f"shard worker {handle.shard_index} (pid {handle.process.pid}) "
            f"died while handling {op!r} (exit code {code}); {hint}"
        )
        error.shard_index = handle.shard_index
        error.transient = True
        return error

    # ------------------------------------------------------------------
    # Supervision: respawn, heartbeat
    # ------------------------------------------------------------------
    def _reap(self, handle: _WorkerHandle, join_timeout: float = 2.0) -> None:
        """Take one worker process down for sure: join -> terminate -> kill."""
        process = handle.process
        process.join(0.2)
        if process.is_alive():
            process.terminate()
            process.join(join_timeout)
        if process.is_alive():  # pragma: no cover - SIGTERM-immune worker
            getattr(process, "kill", process.terminate)()
            process.join(join_timeout)
        try:
            handle.connection.close()
        except OSError:  # pragma: no cover
            pass

    def restart_worker(
        self, shard_index: int, expected: Optional[_WorkerHandle] = None
    ) -> bool:
        """Respawn one shard's worker from the parent's committed rows.

        Returns ``True`` when a live worker is installed for the shard
        (whether this call respawned it or a concurrent one already had),
        ``False`` when supervision is off, the pool is closed, or the
        supervisor's restart budget for the shard is spent -- the shard is
        then down and its reads fail over to the parent.  Applies the
        supervisor's exponential backoff + jitter before spawning, bumps
        the ``restarts`` IPC counter, and drops only this shard's
        parent-side summary cache entries -- the other shards' cached
        summaries stay warm, so recovery costs one shard re-export, not a
        pool rebuild.

        ``expected`` guards concurrent restarts: pass the handle that was
        observed dead and the restart is skipped (reported successful) if
        another thread already swapped in a fresh worker.
        """
        if self._closed or not self._started:
            return False
        lock = self._restart_locks.get(shard_index)
        if lock is None:
            return False
        with lock:
            handle = self._workers.get(shard_index)
            if handle is None:
                return False
            if expected is not None and handle is not expected:
                return True  # a concurrent restart already replaced it
            if expected is None and handle.process.is_alive():
                return True  # already healthy: nothing to respawn
            backoff = (
                None
                if self._supervisor is None
                else self._supervisor.admit_restart(shard_index)
            )
            if backoff is None:
                self._down.add(shard_index)
                return False
            if backoff > 0.0:
                time.sleep(backoff)
            self._reap(handle)

            def install(version: int, columns: FlatColumns) -> None:
                self._workers[shard_index] = self._spawn_worker(
                    shard_index, version, columns
                )

            self._database.install_from_committed(shard_index, install)
            self._drop_shard_cache(shard_index)
            self._down.discard(shard_index)
            self._count(restarts=1)
            return True

    def check_workers(self, restart: bool = True) -> List[int]:
        """Heartbeat sweep: indices of workers found dead.

        Liveness is the process poll (a worker that died *between*
        requests is caught here rather than on the next request's crash
        path); with ``restart=True`` on a supervised pool each dead
        worker is respawned immediately, so callers can use this as a
        periodic health probe.
        """
        if self._closed or not self._started:
            return []
        dead = [
            index
            for index, handle in sorted(self._workers.items())
            if not handle.process.is_alive()
        ]
        if restart and self._supervisor is not None:
            for index in dead:
                self.restart_worker(index)
        return dead

    def _raise_remote(
        self, shard_index: int, value: Tuple[str, str]
    ) -> None:
        type_name, message = value
        if type_name in _REMOTE_EXCEPTIONS:
            import repro.exceptions as exceptions

            raise getattr(exceptions, type_name)(message)
        raise ProcessPoolError(
            f"shard worker {shard_index} failed: {type_name}: {message}"
        )

    def _request_many(
        self, commands: Sequence[Tuple[int, str, Any]]
    ) -> List[Any]:
        """Issue one request per worker concurrently, results in order.

        A worker failure takes the place of its shard's result instead of
        raising, so one failed worker costs only its own shard's read.
        Every outcome feeds that shard's circuit breaker.
        """

        metrics = getattr(_reads, "metrics", None)

        def one(index: int, op: str, payload: Any) -> Any:
            try:
                result = self._request(index, op, payload)
            except ProcessPoolError as error:
                self._record_read(index, True, metrics)
                return error
            self._record_read(index, False)
            return result

        if len(commands) <= 1 or self._gather is None:
            return [one(*command) for command in commands]
        futures = [self._gather.submit(one, *command) for command in commands]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Failover: which reads the parent answers
    # ------------------------------------------------------------------
    def serves(self, shard_index: int) -> bool:
        """Whether the shard's worker answers its reads; not while the
        shard is down or its breaker is open, when the parent answers
        them."""
        if shard_index not in self._workers or shard_index in self._down:
            return False
        opened = self._opened.get(shard_index)
        return (
            opened is None
            or time.monotonic() - opened >= self._breaker_cooldown
        )

    def read(self, shard_index: int, op: str, *args: Any) -> Any:
        """``op`` (``summary``) answered by the shard's worker, or None
        when the parent must answer it.

        That failover happens when the shard is down, its breaker is
        open, or its worker failed this request; it is counted by an
        enclosing :func:`counting_failovers` block.
        """
        if self.serves(shard_index):
            try:
                return getattr(self, op)(shard_index, *args)
            except ProcessPoolError:
                pass
        failed_over = getattr(_reads, "failed_over", None)
        if failed_over is not None:
            failed_over.add(shard_index)
        return None

    def open_breakers(self) -> Tuple[int, ...]:
        """Shards whose breaker keeps reads off their worker, ascending."""
        now = time.monotonic()
        return tuple(
            index
            for index, opened in sorted(self._opened.items())
            if now - opened < self._breaker_cooldown
        )

    def _record_read(
        self, shard_index: int, failed: bool, metrics: Any = None
    ) -> None:
        """Feed one worker read's outcome to the shard's breaker.

        ``breaker_threshold`` failures in a row trip it; a failure while
        it is tripped (open, or half-open after the cooldown) re-opens it
        at once, and a success closes it.  A trip counts into ``metrics``
        (the reading thread's serving metrics).
        """
        if not failed:
            self._failures.pop(shard_index, None)
            self._opened.pop(shard_index, None)
            return
        with self._stats_lock:
            failures = self._failures.get(shard_index, 0) + 1
            self._failures[shard_index] = failures
            tripped = shard_index in self._opened
            if tripped or failures >= self._breaker_threshold:
                self._opened[shard_index] = time.monotonic()
                if not tripped and metrics is not None:
                    metrics.breaker_open += 1

    def _served(self) -> List[int]:
        return [index for index in self.shard_indices() if self.serves(index)]

    # ------------------------------------------------------------------
    # Partial exchange
    # ------------------------------------------------------------------
    def summaries(self, max_rank: int) -> List[ShardRankSummary]:
        """The served shards' truncated summaries at the live state,
        fetched in parallel.

        Cached parent-side per (shard version, truncation): after one
        shard's update, only that shard ships a fresh table.  Raises the
        first worker failure.
        """
        indices = self._served()
        summaries, failures = self._fetch(
            max(int(max_rank), 1), indices, self._database.state()
        )
        if failures:
            raise next(iter(failures.values()))
        return [summaries[index] for index in indices]

    def summary(
        self, shard_index: int, max_rank: int, state: Any = None
    ) -> ShardRankSummary:
        """One shard's summary at ``state`` (default: the live one),
        warm-cached.

        A miss fetches every stale served shard's table in one parallel
        exchange and raises only this shard's worker failure.
        """
        if state is None:
            state = self._database.state()
        others = [index for index in self._served() if index != shard_index]
        summaries, failures = self._fetch(
            max(int(max_rank), 1), [shard_index, *others], state
        )
        if shard_index in failures:
            raise failures[shard_index]
        return summaries[shard_index]

    def _fetch(
        self, max_rank: int, indices: Sequence[int], state: Any
    ) -> Tuple[Dict[int, ShardRankSummary], Dict[int, ProcessPoolError]]:
        """The summaries of ``indices`` at ``state`` (a published
        ``(versions, store, views)``), the stale ones fetched in one
        parallel exchange, and the worker failures, both by shard.

        A shard whose worker holds the shard version read is asked for
        its table, with the worker state id paired with that version
        taken before the request.  A reply from that state is paired with
        the store's view of the shard and cached; a reply from any other
        state (a commit moved the worker around the request) is not.  A
        version no worker state holds -- a commit in flight, or a reader
        pinned at a superseded vector -- is answered from the store alone,
        its table swept here, without asking the worker.
        """
        versions, store, views = state
        summaries: Dict[int, ShardRankSummary] = {}
        wanted: List[Tuple[int, Any, int, Any]] = []
        commands: List[Tuple[int, str, Any]] = []
        for index in indices:
            layout = (store, store.scores, views[index])
            with self._cache_lock:
                cached = self._summary_cache.get((index, max_rank))
                state_id, committed = self._committed[index]
            if cached is not None and cached[0] == versions[index]:
                summaries[index] = cached[1]
            elif committed != versions[index]:
                summaries[index] = ShardRankSummary.from_layout(
                    layout, max_rank
                )
            else:
                wanted.append((index, layout, state_id, cached))
                base = None if cached is None else cached[2]
                commands.append((index, "summary", (max_rank, base)))
        if not wanted:
            return summaries, {}
        replies = self._request_many(commands)
        failures: Dict[int, ProcessPoolError] = {}
        for (index, layout, expected, base), reply in zip(wanted, replies):
            if isinstance(reply, ProcessPoolError):
                failures[index] = reply
                continue
            self._count(summaries=1)
            state_id, start, rows = reply
            if state_id != expected:
                summaries[index] = ShardRankSummary.from_layout(
                    layout, max_rank
                )
                continue
            summary = ShardRankSummary.from_layout(
                layout, max_rank, self._splice(start, rows, base, max_rank)
            )
            summaries[index] = summary
            with self._cache_lock:
                self._summary_cache[(index, max_rank)] = (
                    versions[index], summary, state_id
                )
        return summaries, failures

    def _splice(
        self, start: int, rows: Any, base: Any, max_rank: int
    ) -> Any:
        """A shipped table's live rows: ``rows`` from row ``start`` on,
        under the rows above ``start`` of the ``base`` entry's table (a
        delta).  ``rows`` is ``None`` when nothing changed; the table then
        is the base's.  Rows past either table's end are zero, so they
        are neither shipped nor padded here."""
        if start == 0:
            return rows
        table = base[1].prefix_table
        shipped = 0 if rows is None else len(rows)
        self._count(
            summary_deltas=1,
            delta_rows=shipped,
            delta_rows_saved=min(start, len(table)),
        )
        if rows is None:
            return table
        return splice_live_rows(get_backend(), table, start, rows, max_rank)

    # ------------------------------------------------------------------
    # Update fan-out
    # ------------------------------------------------------------------
    def commit_replace(
        self,
        shard_index: int,
        key: Hashable,
        rows: List[Row],
        version: int,
    ) -> bool:
        """Patch ``key``'s block into the worker's committed rows.

        Called under the parent's update lock, right before the parent
        publishes the same patch as the shard's ``version``; the worker's
        new state id is paired with that version when the commit returns.
        The shard's cache entries are deliberately *retained*: a stale
        entry is never served (its version is not the one read), and its
        table is the baseline the worker ships a row-suffix delta against
        on the next fetch.

        Returns ``False`` when the commit failed (crash, timeout or lost
        message).  The worker is then reaped, so a late commit can never
        surface, and the shard marked down before the parent publishes;
        the caller then respawns it from the parent's new store with
        :meth:`restart_worker`.
        """
        state_id = next(self._state_ids)
        try:
            self._request(shard_index, "replace", (key, rows, state_id))
        except ProcessPoolError:
            handle = self._workers.get(shard_index)
            if handle is not None:
                self._reap(handle)
            self._down.add(shard_index)
            return False
        with self._cache_lock:
            self._committed[shard_index] = (state_id, version)
        self._count(updates=1)
        return True

    def forget_cached_summaries(self) -> None:
        """Drop the parent-side summary cache for every shard.

        Workers keep their memoized state, so the next fetch pays the full
        transport cost but no recompute -- this is the "cold coordinator,
        warm shards" starting point a from-scratch re-merge measures.
        """
        for shard_index in self.shard_indices():
            self._drop_shard_cache(shard_index)

    def _drop_shard_cache(self, shard_index: int) -> None:
        with self._cache_lock:
            for key in [
                key for key in self._summary_cache if key[0] == shard_index
            ]:
                del self._summary_cache[key]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Roll-up of every worker session's cache counters (one exchange)."""
        infos = self._request_many(
            [(index, "cache_info", None) for index in self._served()]
        )
        rollup = CacheInfo()
        for info in infos:
            if not isinstance(info, ProcessPoolError):
                rollup = rollup + info
        return rollup

    def stats(self) -> IpcSnapshot:
        """A snapshot of the pool's IPC counters."""
        with self._stats_lock:
            return IpcSnapshot(workers=len(self._workers), **self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "started" if self._started else "cold"
        )
        return (
            f"ShardProcessPool(workers={len(self._workers)}, "
            f"start_method={self._start_method!r}, {state})"
        )
