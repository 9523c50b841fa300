"""Process-backed shard execution: the parent-side worker pool.

The per-shard kernels behind every merged statistic -- layout extraction
and the ``(n_s + 1) × k`` prefix polynomial sweep -- are dense array work
that one interpreter serializes behind the GIL no matter how many shard
*threads* structure it.  :class:`ShardProcessPool` moves that work into
real processes: each worker (:mod:`repro.sharding.procworker`) owns one
shard's columns plus a warm :class:`~repro.session.QuerySession`, and the
coordinator exchanges only compact partials with it:

* :class:`~repro.sharding.summary.ShardLayout` fragments and truncated
  :class:`~repro.sharding.summary.ShardRankSummary` tables, fetched in
  parallel across workers (threads blocked on pipes release the GIL, so
  worker processes compute concurrently);
* a shared-memory fast path (``multiprocessing.shared_memory``) for the
  dense numpy prefix tables, so large partials cross the process boundary
  as one memcpy instead of a pickle round-trip;
* block patches committed on the worker inside the version-checked
  update swap of :meth:`repro.models.sharded.ShardedDatabase.apply_update`
  (the parent stays the sole authority over shard versions and columns).

Summaries and layouts are cached parent-side keyed by the owning shard's
version, so after one shard's update only that shard's partials are
re-fetched -- the exact analogue of the warm in-process shard sessions.

Worker death is detected (pipe poll + liveness checks) and, by default,
**supervised**: the pool respawns the dead worker from the parent's
committed columns under a
:class:`~repro.sharding.supervisor.WorkerSupervisor` budget (exponential
backoff + jitter), transparently retries idempotent requests on the fresh
worker, and drops only the dead shard's parent-side cache entries.  A
worker that misses a commit is reaped before the parent swaps and
respawned from the new columns after, so it never runs ahead of the
parent.  When the restart budget is spent (or ``supervise=False``) the
shard is *down* and its reads fail over to the parent's columns
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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
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
from repro.sharding.procworker import (
    DELTA_TRANSPORT,
    PIPE_TRANSPORT,
    SHM_TRANSPORT,
    worker_main,
)
from repro.sharding.summary import ShardLayout, ShardRankSummary
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
_RETRYABLE_OPS = frozenset({"layout", "summary", "cache_info", "stats", "ping"})

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

    ``pipe_bytes`` / ``shm_bytes`` count the dense prefix-table payloads
    (8 bytes per coefficient); command envelopes and layouts are tallied
    in ``commands`` / ``layouts`` without a byte estimate.
    """

    commands: int = 0
    summaries: int = 0
    layouts: int = 0
    pipe_messages: int = 0
    shm_messages: int = 0
    pipe_bytes: int = 0
    shm_bytes: int = 0
    updates: int = 0
    summary_deltas: int = 0
    delta_rows: int = 0
    delta_rows_saved: int = 0
    restarts: int = 0
    workers: int = 0

    @property
    def total_bytes(self) -> int:
        """Prefix-table bytes shipped over both transports."""
        return self.pipe_bytes + self.shm_bytes

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


def _table_cells(table: Any) -> int:
    shape = getattr(table, "shape", None)
    if shape is not None:
        cells = 1
        for extent in shape:
            cells *= extent
        return cells
    return sum(len(row) for row in table)


class ShardProcessPool:
    """Worker processes owning the shards of one partitioned database.

    Parameters
    ----------
    database:
        The owning :class:`~repro.models.sharded.ShardedDatabase`; one
        worker is spawned per shard that owns a key, seeded with that
        shard's committed columns and the parent's active backend.
    start_method:
        ``spawn`` / ``fork`` / ``forkserver``; defaults to the
        ``REPRO_PROC_START_METHOD`` environment variable, then the
        platform default.
    shm:
        ``"auto"`` ships prefix tables of at least ``shm_min_bytes``
        through shared memory (numpy backend only), ``"always"`` forces
        shared memory for every table, ``"never"`` always pickles over
        the pipe.
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
        parent's columns; then the next read probes the worker
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
        shm: str = "auto",
        shm_min_bytes: int = 1 << 15,
        request_timeout: float = 120.0,
        supervise: bool = True,
        supervisor: Optional[Any] = None,
        fault_injector: Optional[Any] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.5,
    ) -> None:
        if shm not in ("auto", "always", "never"):
            raise ProcessPoolError(
                f"shm must be 'auto', 'always' or 'never', got {shm!r}"
            )
        self._database = database
        self._start_method = resolve_start_method(start_method)
        self._shm = shm
        self._shm_min_bytes = int(shm_min_bytes)
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
        # version-keyed warm partials: only an updated shard re-fetches.
        # Entries outlive a commit: a stale entry never serves (the version
        # check forces a re-fetch) but its table is the baseline the worker
        # ships a row-suffix delta against.
        self._cache_lock = threading.Lock()
        self._layout_cache: Dict[int, Tuple[int, ShardLayout]] = {}
        #: (shard, max_rank) -> (version, summary, state_id, export_id).
        self._summary_cache: Dict[
            Tuple[int, int],
            Tuple[int, ShardRankSummary, int, Optional[int]],
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
        """Spawn one worker per shard that owns a key (idempotent)."""
        if self._closed:
            raise ProcessPoolError(
                "process pool already closed; request a fresh pool from "
                "the database"
            )
        if self._started:
            return self
        self._context = multiprocessing.get_context(self._start_method)
        # Not just the shards with rows: a shard whose blocks were all
        # emptied still needs a worker to stage their refill on.
        database = self._database
        owners = {database.shard_of(key) for key in database.keys()}
        try:
            for shard in database.shards():
                if shard.index not in owners:
                    continue
                self._workers[shard.index] = self._spawn_worker(
                    shard.index, shard.columns
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
        self, shard_index: int, columns: FlatColumns
    ) -> _WorkerHandle:
        context = self._context or multiprocessing.get_context(
            self._start_method
        )
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(
                child_end,
                shard_index,
                get_backend().name,
                columns,
            ),
            daemon=True,
            name=f"repro-shard-{shard_index}",
        )
        process.start()
        child_end.close()
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
            self._layout_cache.clear()
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
                return handle.connection.recv()
            except (EOFError, OSError):
                # Also a pipe closed under us by a concurrent reap.
                raise self._crash(handle, op) from None

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
        """Respawn one shard's worker from the parent's committed columns.

        Returns ``True`` when a live worker is installed for the shard
        (whether this call respawned it or a concurrent one already had),
        ``False`` when supervision is off, the pool is closed, or the
        supervisor's restart budget for the shard is spent -- the shard is
        then down and its reads fail over to the parent.  Applies the
        supervisor's exponential backoff + jitter before spawning, bumps
        the ``restarts`` IPC counter, and drops only this shard's
        parent-side layout/summary cache entries -- the other shards'
        version-keyed partials stay warm, so recovery costs one shard
        re-export, not a pool rebuild.

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
            # Under the database's update lock: an update that already
            # committed on the dead worker cannot swap the parent's columns
            # between this read and the install, leaving the new worker
            # behind the parent.
            with self._database._apply_lock:
                shard = self._database.shards()[shard_index]
                self._workers[shard_index] = self._spawn_worker(
                    shard_index, shard.columns
                )
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
        """``op`` (``layout`` or ``summary_with_token``) answered by the
        shard's worker, or None when the parent must answer it.

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
    def _shard_version(self, shard_index: int) -> int:
        return self._database.shards()[shard_index].version

    def layout(self, shard_index: int) -> ShardLayout:
        """One shard's warm layout; a miss fetches every stale served
        shard's, and raises only this shard's worker failure."""
        version = self._shard_version(shard_index)
        with self._cache_lock:
            cached = self._layout_cache.get(shard_index)
        if cached is not None and cached[0] == version:
            return cached[1]
        wanted = [(shard_index, version)]
        for index in self._served():
            version = self._shard_version(index)
            with self._cache_lock:
                cached = self._layout_cache.get(index)
            stale = cached is None or cached[0] != version
            if stale and index != shard_index:
                wanted.append((index, version))
        fetched = self._request_many(
            [(index, "layout", None) for index, _ in wanted]
        )
        with self._cache_lock:
            for (index, version), layout in zip(wanted, fetched):
                if not isinstance(layout, ProcessPoolError):
                    self._count(layouts=1)
                    self._layout_cache[index] = (version, layout)
        if isinstance(fetched[0], ProcessPoolError):
            raise fetched[0]
        return fetched[0]

    def summaries(
        self, max_rank: int, use_cache: bool = True
    ) -> List[ShardRankSummary]:
        """The served shards' truncated summaries, fetched in parallel.

        Cached parent-side per (shard, version, truncation): after one
        shard's update, only that shard ships fresh partials.  Pass
        ``use_cache=False`` to force a full exchange (transport
        benchmarking).  Raises the first worker failure.
        """
        max_rank = max(int(max_rank), 1)
        indices = self._served()
        failures = self._refresh_summaries(max_rank, use_cache, indices)
        if failures:
            raise next(iter(failures.values()))
        with self._cache_lock:
            return [
                self._summary_cache[(index, max_rank)][1] for index in indices
            ]

    def _refresh_summaries(
        self, max_rank: int, use_cache: bool, indices: Sequence[int]
    ) -> Dict[int, ProcessPoolError]:
        """Fetch the stale summaries of ``indices`` in one parallel
        exchange; returns the worker failures by shard."""
        wanted: List[Tuple[int, int, Optional[int], Any]] = []
        for index in indices:
            version = self._shard_version(index)
            with self._cache_lock:
                cached = self._summary_cache.get((index, max_rank))
            if not use_cache or cached is None or cached[0] != version:
                if use_cache and cached is not None:
                    base_id, base_summary = cached[3], cached[1]
                else:
                    base_id, base_summary = None, None
                wanted.append((index, version, base_id, base_summary))
        if not wanted:
            return {}
        shm_wanted = self._shm != "never" and get_backend().name == "numpy"
        shm_floor = 0 if self._shm == "always" else self._shm_min_bytes
        fetched = self._request_many(
            [
                (index, "summary", (max_rank, shm_wanted, shm_floor, base_id))
                for index, _, base_id, _ in wanted
            ]
        )
        failures: Dict[int, ProcessPoolError] = {}
        with self._cache_lock:
            for (index, version, _, base_summary), exported in zip(
                wanted, fetched
            ):
                if isinstance(exported, ProcessPoolError):
                    failures[index] = exported
                    continue
                self._count(summaries=1)
                summary = self._decode_summary(exported, base_summary)
                self._summary_cache[(index, max_rank)] = (
                    version,
                    summary,
                    int(exported.get("state_id", 0)),
                    exported.get("export_id"),
                )
                # The summary ships its layout anyway: keep it warm.
                existing = self._layout_cache.get(index)
                if existing is None or existing[0] != version:
                    self._layout_cache[index] = (version, summary.layout)
        return failures

    def summary_with_token(
        self, shard_index: int, max_rank: int
    ) -> Tuple[ShardRankSummary, Tuple[int, int]]:
        """One shard's ``(summary, token)``, warm-cached.

        A miss fetches every stale served shard's summary in one parallel
        exchange and raises only this shard's worker failure.  The token
        pairs the parent-side shard version with the worker's committed
        ``state_id`` (shipped in the same reply as the summary, so it
        identifies the summary's *content* even when a fetch races a
        concurrent commit).  Merge-engine partial products keyed by these
        tokens therefore never mix shard states.
        """
        key = (shard_index, max(int(max_rank), 1))
        with self._cache_lock:
            cached = self._summary_cache.get(key)
        if cached is None or cached[0] != self._shard_version(shard_index):
            others = [i for i in self._served() if i != shard_index]
            failures = self._refresh_summaries(
                key[1], True, [shard_index, *others]
            )
            if shard_index in failures:
                raise failures[shard_index]
            with self._cache_lock:
                cached = self._summary_cache[key]
        version, summary, state_id, _ = cached
        return summary, (version, state_id)

    def cached_layout(
        self, shard_index: int, version: int
    ) -> Optional[ShardLayout]:
        """The warm layout of one shard at ``version``, if cached (no I/O)."""
        with self._cache_lock:
            entry = self._layout_cache.get(shard_index)
            if entry is None or entry[0] != version:
                return None
            return entry[1]

    def cached_summaries(
        self, shard_index: int, version: int
    ) -> Dict[int, ShardRankSummary]:
        """Warm ``max_rank -> summary`` entries of one shard at ``version``.

        No I/O.  Used by the coordinator to freeze a shard's outgoing state
        into its snapshot history right before an update commits; entries
        cached at an older version (the shard was updated again with no
        read in between) are left out.
        """
        with self._cache_lock:
            return {
                key[1]: value[1]
                for key, value in self._summary_cache.items()
                if key[0] == shard_index and value[0] == version
            }

    def _decode_summary(
        self, exported: Dict[str, Any], base_summary: Any = None
    ) -> ShardRankSummary:
        transport = exported["table"]
        if transport is not None and transport[0] == DELTA_TRANSPORT:
            _, _base_id, start, inner = transport
            if base_summary is None or base_summary.prefix_table is None:
                raise ProcessPoolError(
                    "worker shipped a summary delta without a parent-side "
                    "base table"
                )
            backend = get_backend()
            old = base_summary.prefix_table
            if inner is None:
                table = old
                shipped = 0
            else:
                suffix = self._decode_table(inner)
                if start == 0:
                    table = suffix
                else:
                    table = backend.stack_matrices(
                        [backend.take_rows(old, range(start)), suffix]
                    )
                shipped = len(exported["layout"].probabilities) + 1 - start
            self._count(
                summary_deltas=1,
                delta_rows=shipped,
                delta_rows_saved=start,
            )
        else:
            table = self._decode_table(transport)
        return ShardRankSummary.from_layout(
            exported["layout"], exported["max_rank"], table
        )

    def _decode_table(self, transport: Optional[Tuple[Any, ...]]) -> Any:
        if transport is None:
            return None
        if transport[0] == PIPE_TRANSPORT:
            table = transport[1]
            self._count(
                pipe_messages=1, pipe_bytes=8 * _table_cells(table)
            )
            return table
        assert transport[0] == SHM_TRANSPORT
        import numpy as np
        from multiprocessing import shared_memory

        _, name, shape = transport
        segment = shared_memory.SharedMemory(name=name)
        try:
            table = np.ndarray(
                shape, dtype=np.float64, buffer=segment.buf
            ).copy()
        finally:
            segment.close()
            segment.unlink()
        self._count(shm_messages=1, shm_bytes=table.nbytes)
        return table

    def prefetch(self, truncations: Sequence[int]) -> None:
        """Warm the parent-side summary cache for a batch's truncations.

        Advisory: a failed worker is left for the read itself to fail
        over.
        """
        for max_rank in sorted({max(int(rank), 1) for rank in truncations}):
            self._refresh_summaries(max_rank, True, self._served())

    # ------------------------------------------------------------------
    # Update fan-out
    # ------------------------------------------------------------------
    def commit_replace(
        self,
        shard_index: int,
        key: Hashable,
        rows: List[Row],
        independent: bool,
    ) -> bool:
        """Patch ``key``'s block into the worker's committed columns.

        Called under the parent's version check, right before the parent
        swaps in the same patch (:meth:`~repro.andxor.columns.FlatColumns.\
replace_block`).  The shard's cache entries are deliberately
        *retained*: the version check in :meth:`summaries` / :meth:`layout`
        already keeps a stale entry from being served, and its table is the
        baseline the worker ships a row-suffix delta against on the next
        fetch.

        Returns ``False`` when the commit failed (crash, timeout or lost
        message).  The worker is then reaped, so a late commit can never
        surface, and the shard marked down before the parent swaps; the
        caller then respawns it from the parent's new columns with
        :meth:`restart_worker`.
        """
        try:
            self._request(shard_index, "replace", (key, rows, independent))
        except ProcessPoolError:
            handle = self._workers.get(shard_index)
            if handle is not None:
                self._reap(handle)
            self._down.add(shard_index)
            return False
        self._count(updates=1)
        return True

    def forget_cached_summaries(self) -> None:
        """Drop the parent-side layout/summary caches for every shard.

        Workers keep their memoized state, so the next fetch pays the full
        transport cost but no recompute -- this is the "cold coordinator,
        warm shards" starting point a from-scratch re-merge measures.
        """
        for shard_index in self.shard_indices():
            self._drop_shard_cache(shard_index)

    def _drop_shard_cache(self, shard_index: int) -> None:
        with self._cache_lock:
            self._layout_cache.pop(shard_index, None)
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
            f"start_method={self._start_method!r}, shm={self._shm!r}, "
            f"{state})"
        )
