"""Partitioned probabilistic databases.

:class:`ShardedDatabase` splits a tuple-independent or block-independent
(BID) database into ``shard_count`` shards -- by stable key hash, by score
range or by a callable -- with BID blocks always kept intact inside one
shard.  Because distinct keys are independent in both models, each shard is
itself a valid database of the same model.  A shard's whole state is one
immutable :class:`~repro.andxor.columns.FlatColumns` (the rows of its
blocks) plus a version; its :class:`~repro.session.QuerySession` is opened
over those columns on first read.  Exact global answers are recovered by
the :class:`~repro.sharding.ShardedQuerySession` coordinator, which
convolves the shards' partial rank generating functions.  No shard tree is
built unless a world-level or sampling route asks for one.

Shards are the unit of cache invalidation: :meth:`ShardedDatabase.\
update_tuple` / :meth:`ShardedDatabase.update_block` replace only the
owning shard's columns -- a copy with one block patched through
:meth:`~repro.andxor.columns.FlatColumns.replace_block`, on either
executor -- bump its version and notify subscribers (the serving layer's
invalidation fan-out); the other shards' memoized statistics stay warm.
"""

from __future__ import annotations

import threading
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.columns import FlatColumns, Row
from repro.exceptions import ModelError
from repro.models.bid import BlockIndependentDatabase
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.session import CacheInfo, QuerySession
from repro.sharding.summary import shard_layout

SourceDatabase = Union[TupleIndependentDatabase, BlockIndependentDatabase]
Partitioner = Union[str, Callable[[Hashable], int]]
#: ``(shard index, base version, columns)`` a prepared update starts from.
_ShardState = Tuple[int, int, FlatColumns]


def hash_shard_of(key: Hashable, shard_count: int) -> int:
    """Stable (process-independent) hash partitioning of one tuple key."""
    return zlib.crc32(repr(key).encode("utf-8")) % shard_count


def build_shard_database(
    model: type, name: str, index: int, columns: FlatColumns
) -> SourceDatabase:
    """Wrap one shard's columns in the source's model (no copy, no checks).

    The model follows the source, not the shard's contents: a BID shard
    whose blocks all hold one alternative is still a BID database.
    """
    return model.from_columns(columns, name=f"{name}/shard{index}")


class DatabaseShard:
    """One shard: its columns, its version and a lazy query session.

    The coordinator reads every live shard through :meth:`layout`,
    :meth:`summary` and :meth:`session`; this class alone knows whether the
    shard's statistics live in this process (``executor="threads"``: the
    session's memoized artifacts) or in a worker process
    (``executor="processes"``: the pool's version-keyed cache, which is
    also the baseline the worker ships row-suffix deltas against).  The
    columns are held parent-side on both executors and are authoritative:
    when the worker cannot answer, the read fails over to them.
    """

    __slots__ = ("index", "columns", "_session", "version", "_owner")

    def __init__(
        self, owner: "ShardedDatabase", index: int, columns: FlatColumns
    ) -> None:
        self._owner = owner
        self.index = index
        self.columns = columns
        self._session: Optional[QuerySession] = None
        self.version = 0

    @property
    def is_empty(self) -> bool:
        return not self.columns.values

    def keys(self) -> List[Hashable]:
        return list(self.columns.keys)

    @property
    def database(self) -> Optional[SourceDatabase]:
        """The shard's columns in the source's model (None when empty)."""
        columns = self.columns
        if not columns.values:
            return None
        owner = self._owner
        return build_shard_database(
            owner._model, owner.name, self.index, columns
        )

    def session(self) -> Optional[QuerySession]:
        """The shard's lazily created, version-tracked query session."""
        columns = self.columns
        if not columns.values:
            return None
        session = self._session
        if session is None:
            session = QuerySession(columns)
            # Install it only if no update swapped the columns meanwhile: a
            # lazy open racing a swap must not revive the outgoing state.
            with self._owner._apply_lock:
                if self.columns is columns:
                    if self._session is None:
                        self._session = session
                    session = self._session
        return session

    @property
    def generation(self) -> int:
        """Generation of the in-process session (0 until it is built)."""
        return 0 if self._session is None else self._session.generation

    def _from_worker(self, op: str, *args: Any) -> Any:
        """``op`` answered by the shard's worker, or None when this
        process answers: always on ``executor="threads"``, and on a
        *failover* read when the worker is down, skipped by its open
        breaker, or failed this request (counted by the pool)."""
        if self._owner.executor != "processes":
            return None
        return self._owner.process_pool().read(self.index, op, *args)

    def layout(self) -> Any:
        """The shard's :class:`~repro.sharding.summary.ShardLayout`."""
        layout = self._from_worker("layout")
        if layout is not None:
            return layout
        return shard_layout(self.session())

    def summary(self, max_rank: int) -> Tuple[Any, Any]:
        """``(summary, token)``: the truncated rank summary and a token
        that repeats only when the summary content does.

        In-process the token is ``(version, session generation)``,
        re-checked after the build so a concurrent swap cannot mislabel
        it; from a worker it is ``(version, worker state id)``, and a
        cache miss fetches every stale shard in one parallel exchange.
        """
        remote = self._from_worker("summary_with_token", max_rank)
        if remote is not None:
            return remote
        for _ in range(8):
            version = self.version
            session = self.session()
            summary = session.partial_rank_summary(max_rank)
            if self.version == version and self._session is session:
                break
        return summary, (version, session.generation)

    def warm_state(self) -> Tuple[Optional[QuerySession], Any, Dict[int, Any]]:
        """``(session, layout, {max_rank: summary})`` already built at the
        current version, for the coordinator's archive; no I/O, no builds.
        """
        pool = self._owner._pool
        if pool is None or pool.closed:
            return self._session, None, {}
        return (
            self._session,
            pool.cached_layout(self.index, self.version),
            pool.cached_summaries(self.index, self.version),
        )

    def _replace(self, columns: FlatColumns) -> None:
        self.columns = columns
        self._session = None
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseShard(index={self.index}, "
            f"tuples={len(self.columns.keys)}, version={self.version})"
        )


class StaleUpdateError(ModelError):
    """Raised by :meth:`ShardedDatabase.apply_update` when the shard moved on.

    The pending update was prepared against an older shard version; callers
    should re-prepare against the current state and retry.
    """


class PendingUpdate:
    """A prepared shard replacement, not yet applied.

    Preparation patches a copy of the shard's columns -- one block
    replaced, safe to run on a shard worker thread; :meth:`ShardedDatabase.\
apply_update` is then a version-bumping pointer swap that the serving
    executor serializes against queries.  This split is what makes the
    serving layer's invalidation graceful.
    """

    __slots__ = (
        "shard_index",
        "key",
        "rows",
        "base_version",
        "columns",
        "removed_scores",
        "added_scores",
    )

    def __init__(
        self,
        shard_index: int,
        key: Hashable,
        rows: List[Row],
        base_version: int,
        columns: FlatColumns,
        removed_scores: Tuple[float, ...] = (),
        added_scores: Tuple[float, ...] = (),
    ) -> None:
        self.shard_index = shard_index
        self.key = key
        # The block's new rows, which the owning worker process patches in
        # (executor="processes") when the update is applied.
        self.rows = rows
        self.base_version = base_version
        self.columns = columns
        # Distinct-score registry delta, applied (and re-validated) only by
        # apply_update: an abandoned prepared update must leave the
        # registry untouched.
        self.removed_scores = removed_scores
        self.added_scores = added_scores


class ShardedDatabase:
    """A probabilistic database partitioned into independently-cached shards.

    Parameters
    ----------
    source:
        A :class:`TupleIndependentDatabase`, a
        :class:`BlockIndependentDatabase` (blocks are kept intact), or an
        iterable of tuple-independent ``(key, value, probability)`` /
        ``(key, value, score, probability)`` specs.
    shard_count:
        Number of shards (>= 1; shards may end up empty).
    partitioner:
        ``"hash"`` (stable key hash), ``"range"`` (contiguous chunks of the
        blocks sorted by best score, i.e. score-range partitioning) or a
        callable mapping a tuple key to a shard index.
    validate_scores:
        Require globally distinct scores across shards (checked lazily by
        the coordinator, eagerly on score updates).
    executor:
        ``"threads"`` (default) keeps every shard session in-process;
        ``"processes"`` moves each non-empty shard into its own worker
        process (:class:`~repro.sharding.procpool.ShardProcessPool`),
        escaping the GIL for the per-shard kernels.  Answers are identical
        either way; prefer processes for large shards (n >= 10^4) on the
        numpy backend.
    executor_options:
        Keyword arguments forwarded to the process pool constructor
        (``start_method``, ``shm``, ``shm_min_bytes``,
        ``request_timeout``, ``supervise``, ``breaker_threshold``, ...);
        ignored under ``executor="threads"``.
    snapshot_history:
        How many superseded shard versions the coordinator archives for
        version-pinned snapshot readers (:meth:`snapshot`,
        ``coordinator().at(...)``); older pins raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
    """

    def __init__(
        self,
        source: Union[SourceDatabase, Iterable[Tuple]],
        shard_count: int,
        partitioner: Partitioner = "hash",
        name: Optional[str] = None,
        validate_scores: bool = True,
        executor: str = "threads",
        executor_options: Optional[Dict[str, Any]] = None,
        snapshot_history: int = 4,
    ) -> None:
        if shard_count < 1:
            raise ModelError(f"shard_count must be >= 1, got {shard_count}")
        if executor not in ("threads", "processes"):
            raise ModelError(
                f"executor must be 'threads' or 'processes', got {executor!r}"
            )
        if isinstance(
            source, (TupleIndependentDatabase, BlockIndependentDatabase)
        ):
            database = source
        elif isinstance(source, Iterable):
            database = TupleIndependentDatabase(source)
        else:
            raise ModelError(
                "expected a TupleIndependentDatabase, "
                "BlockIndependentDatabase or an iterable of tuple specs, "
                f"got {type(source).__name__}"
            )
        self._shard_count = shard_count
        self._validate_scores = validate_scores
        self._executor = executor
        self._executor_options = dict(executor_options or {})
        self._snapshot_history = max(1, int(snapshot_history))
        self._apply_lock = threading.Lock()
        self._pool: Optional[Any] = None
        self._partitioner_name = (
            partitioner if isinstance(partitioner, str) else "custom"
        )
        self._name = name or getattr(source, "name", "sharded")
        self._model = type(database)
        self._independent = isinstance(database, TupleIndependentDatabase)
        self._subscribers: List[Callable[[int, Hashable], None]] = []
        self._coordinator: Optional[Any] = None
        columns = database.columns
        assignments = self._assign(columns, partitioner)
        self._shard_of: Dict[Hashable, int] = dict(
            zip(columns.keys, assignments)
        )
        per_shard: List[List[int]] = [[] for _ in range(shard_count)]
        for block, shard_index in enumerate(assignments):
            per_shard[shard_index].append(block)
        self._shards: List[DatabaseShard] = [
            DatabaseShard(self, index, columns.gather(blocks))
            for index, blocks in enumerate(per_shard)
        ]
        if validate_scores:
            self._check_distinct_scores(columns)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _assign(
        self, columns: FlatColumns, partitioner: Partitioner
    ) -> List[int]:
        """The shard index of every block."""
        keys = columns.keys
        if callable(partitioner):
            return [self._checked_index(partitioner(key)) for key in keys]
        if partitioner == "hash":
            return [hash_shard_of(key, self._shard_count) for key in keys]
        if partitioner == "range":
            best: List[Optional[float]] = [None] * len(keys)
            for score, block in zip(columns.scores, columns.blocks):
                if score is not None and (
                    best[block] is None or score > best[block]
                ):
                    best[block] = score
            for key, score in zip(keys, best):
                if score is None:
                    raise ModelError(
                        f"block {key!r} has no numeric score; range "
                        "partitioning requires scored tuples"
                    )
            order = sorted(range(len(keys)), key=lambda block: -best[block])
            assignments = [0] * len(keys)
            chunk = -(-len(keys) // self._shard_count) if keys else 1
            for rank, block in enumerate(order):
                assignments[block] = min(rank // chunk, self._shard_count - 1)
            return assignments
        raise ModelError(
            f"unknown partitioner {partitioner!r}; expected 'hash', "
            "'range' or a callable"
        )

    def _checked_index(self, index: int) -> int:
        if not 0 <= index < self._shard_count:
            raise ModelError(
                f"partitioner returned shard {index} outside "
                f"0..{self._shard_count - 1}"
            )
        return index

    def _check_distinct_scores(self, columns: FlatColumns) -> None:
        self._score_owner: Dict[float, Hashable] = {}
        for score, block in zip(columns.scores, columns.blocks):
            if score is None:
                continue
            key = columns.keys[block]
            owner = self._score_owner.setdefault(score, key)
            if owner != key:
                raise ModelError(
                    f"tuples {owner!r} and {key!r} share score "
                    f"{score}; ranking assumes distinct scores"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def partitioner(self) -> str:
        return self._partitioner_name

    @property
    def executor(self) -> str:
        """``"threads"`` or ``"processes"`` -- the shard execution mode."""
        return self._executor

    def process_pool(self) -> Any:
        """The started :class:`~repro.sharding.procpool.ShardProcessPool`.

        Created (and started) lazily on first use; a pool that was closed
        -- e.g. after a worker crash -- is replaced by a fresh one with
        newly spawned workers.  Only valid under ``executor="processes"``.
        """
        if self._executor != "processes":
            raise ModelError(
                "process_pool() requires executor='processes' "
                f"(this database uses {self._executor!r})"
            )
        if self._pool is None or self._pool.closed:
            from repro.sharding.procpool import ShardProcessPool

            self._pool = ShardProcessPool(self, **self._executor_options)
            self._pool.start()
        return self._pool

    def close(self) -> None:
        """Release the worker processes, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def shards(self) -> List[DatabaseShard]:
        return list(self._shards)

    def shard_of(self, key: Hashable) -> int:
        """Index of the shard owning a tuple key."""
        try:
            return self._shard_of[key]
        except KeyError:
            raise ModelError(f"unknown tuple key {key!r}") from None

    def keys(self) -> List[Hashable]:
        return list(self._shard_of)

    def __len__(self) -> int:
        return len(self._shard_of)

    def sessions(self) -> List[QuerySession]:
        """The query sessions of every non-empty shard."""
        out = []
        for shard in self._shards:
            session = shard.session()
            if session is not None:
                out.append(session)
        return out

    def versions(self) -> Tuple[int, ...]:
        """Per-shard version counters (bumped by every update)."""
        return tuple(shard.version for shard in self._shards)

    def coordinator(self) -> Any:
        """The cross-shard :class:`~repro.sharding.ShardedQuerySession`.

        Created once and cached; the coordinator follows shard versions, so
        it stays valid across updates (its merged artifacts are dropped and
        rebuilt lazily).
        """
        if self._coordinator is None:
            from repro.sharding.coordinator import ShardedQuerySession

            self._coordinator = ShardedQuerySession(
                self,
                validate_scores=self._validate_scores,
                snapshot_history=self._snapshot_history,
            )
        return self._coordinator

    def snapshot(self) -> "DatabaseSnapshot":
        """A handle pinning the current shard-version vector (MVCC read).

        The returned :class:`DatabaseSnapshot` resolves version-pinned
        reader sessions via ``coordinator().at(versions)``: queries through
        it answer exactly as the database did at pin time, unaffected by
        concurrent updates, until the vector leaves the coordinator's
        bounded snapshot history.
        """
        return DatabaseSnapshot(self, self.versions())

    def cache_info(self) -> CacheInfo:
        """Cache counters rolled up across every shard session.

        A read-only snapshot: shards whose session was never created are
        reported as zero without materializing their database or tree.
        The coordinator's own merged-artifact counters are included when a
        coordinator exists; per-shard figures are available via
        ``shard.session().cache_info()``.
        """
        info = CacheInfo()
        for shard in self._shards:
            if shard._session is not None:
                info = info + shard._session.cache_info()
        if self._pool is not None and not self._pool.closed:
            # Remote roll-up: worker sessions' counters travel back as
            # picklable CacheInfo and add into the same total.
            info = info + self._pool.cache_info()
        if self._coordinator is not None:
            info = info + self._coordinator.cache_info()
        return info

    # ------------------------------------------------------------------
    # Updates and invalidation fan-out
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[int, Hashable], None]) -> None:
        """Register an invalidation listener ``callback(shard_index, key)``."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int, Hashable], None]) -> None:
        """Detach a listener registered with :meth:`subscribe` (idempotent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify(self, shard_index: int, key: Hashable) -> None:
        for callback in self._subscribers:
            callback(shard_index, key)

    def _shard_state(self, key: Hashable) -> _ShardState:
        """The state a prepared update of ``key`` starts from.

        Optimistic lock: the version is stamped BEFORE the columns are
        read.  DatabaseShard._replace rebinds the columns before bumping
        the version, so a concurrent apply between the reads can only make
        the stamp stale (caught by apply_update), never silently drop the
        other update's changes.
        """
        shard_index = self.shard_of(key)
        shard = self._shards[shard_index]
        base_version = shard.version
        return shard_index, base_version, shard.columns

    @staticmethod
    def _block_scores(
        columns: FlatColumns, key: Hashable
    ) -> Tuple[float, ...]:
        """The numeric scores of ``key``'s block."""
        return tuple(
            score
            for score in map(columns.scores.__getitem__, columns.rows_of(key))
            if score is not None
        )

    def prepare_update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> PendingUpdate:
        """Build (but do not apply) a tuple update for ``key``'s shard.

        Only tuple-independent databases support in-place
        probability/score updates; use :meth:`prepare_block_update` for
        BID blocks.
        """
        state = self._shard_state(key)
        if not self._independent:
            raise ModelError(
                f"tuple {key!r} belongs to a BID block; use "
                "update_block() to replace its alternatives"
            )
        columns = state[2]
        row = columns.rows_of(key)[0]
        value = columns.values[row]
        old_score = columns.explicit_scores[row]
        new_score = old_score if score is None else float(score)
        # A score update also moves the value when the value doubles as
        # the score (the common generator layout).
        if score is not None and (old_score is None or value == old_score):
            value = new_score
        new_probability = (
            columns.probabilities[row]
            if probability is None
            else float(probability)
        )
        return self._stage_pending(
            state, key, [(value, new_score, new_probability)]
        )

    def prepare_block_update(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> PendingUpdate:
        """Build a BID block replacement: ``(value, score, probability)``s.

        An empty replacement drops the block; a later replacement of the
        same key brings it back.
        """
        state = self._shard_state(key)
        rows = [
            (value, None if score is None else float(score), float(probability))
            for value, score, probability in alternatives
        ]
        if self._independent and len(rows) != 1:
            raise ModelError(
                f"tuple {key!r} is tuple-independent; a replacement "
                "block must hold exactly one alternative"
            )
        return self._stage_pending(state, key, rows)

    def _stage_pending(
        self, state: _ShardState, key: Hashable, rows: List[Row]
    ) -> PendingUpdate:
        """Patch ``key``'s block into a copy of the shard's columns.

        The same on both executors; under ``executor="processes"``,
        :meth:`apply_update` also sends the rows to the owning worker.
        """
        shard_index, base_version, columns = state
        patched = columns.replace_block(key, rows, self._independent)
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        if self._validate_scores:
            removed = self._block_scores(columns, key)
            added = self._block_scores(patched, key)
            if added == removed:
                removed = added = ()
            self._check_score_free(key, added)
        return PendingUpdate(
            shard_index, key, rows, base_version, patched, removed, added
        )

    def _check_score_free(
        self, key: Hashable, scores: Tuple[float, ...]
    ) -> None:
        """Read-only distinct-score validation (no registry mutation)."""
        if not self._validate_scores:
            return
        for score in scores:
            owner = self._score_owner.get(score)
            if owner is not None and owner != key:
                raise ModelError(
                    f"score {score} is already used by tuple {owner!r}; "
                    "ranking assumes distinct scores"
                )

    def apply_update(self, pending: PendingUpdate) -> None:
        """Swap prepared shard columns in and fan the invalidation out.

        Raises :class:`StaleUpdateError` when the shard's version changed
        after the update was prepared (a concurrent update won the race);
        the caller should re-prepare and retry.

        Under ``executor="processes"`` the worker commits first and the
        parent swaps second, which the ``(version, state id)`` summary
        tokens rely on.  When the worker misses the commit (it crashed,
        timed out or lost the message) the parent swaps anyway and the
        worker is respawned from the new columns.
        """
        with self._apply_lock:
            shard = self._shards[pending.shard_index]
            if shard.version != pending.base_version:
                raise StaleUpdateError(
                    f"shard {pending.shard_index} moved from version "
                    f"{pending.base_version} to {shard.version} since the "
                    "update was prepared; re-prepare and retry"
                )
            # Re-validate and apply the distinct-score delta only now, so an
            # abandoned prepared update (race lost, caller cancelled) leaves
            # the registry untouched, and a concurrent update of another
            # shard that claimed the same score since preparation is caught.
            if self._validate_scores and (
                pending.added_scores or pending.removed_scores
            ):
                self._check_score_free(pending.key, pending.added_scores)
                for score in pending.removed_scores:
                    if self._score_owner.get(score) == pending.key:
                        del self._score_owner[score]
                for score in pending.added_scores:
                    self._score_owner[score] = pending.key
            # Archive the outgoing shard state while it is still live, so
            # readers pinned at the current vector keep resolving it after
            # the swap publishes the new one.
            self._archive_current(shard)
            missed = (
                self._executor == "processes"
                and not self.process_pool().commit_replace(
                    pending.shard_index,
                    pending.key,
                    pending.rows,
                    self._independent,
                )
            )
            shard._replace(pending.columns)
        if missed and self._pool is not None:
            self._pool.restart_worker(pending.shard_index)
        self._notify(pending.shard_index, pending.key)

    def _archive_current(self, shard: DatabaseShard) -> None:
        """Hand the shard's outgoing state to the coordinator's history."""
        if self._coordinator is not None:
            self._coordinator._archive_shard(shard)

    def update_tuple(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> None:
        """Update one independent tuple's probability and/or score.

        Replaces only the owning shard (its columns with one row patched),
        bumps its version (invalidating the coordinator's merged artifacts
        lazily) and notifies subscribers.
        """
        self.apply_update(self.prepare_update(key, probability, score))

    def update_block(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> None:
        """Replace one BID block's alternatives (``(value, score, prob)``)."""
        self.apply_update(self.prepare_block_update(key, alternatives))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(shard.columns.keys) for shard in self._shards]
        return (
            f"ShardedDatabase({self._name!r}, shards={sizes}, "
            f"partitioner={self._partitioner_name!r})"
        )


class DatabaseSnapshot:
    """A pinned shard-version vector over a :class:`ShardedDatabase`.

    Snapshot handles are cheap (they record only the vector); the actual
    MVCC machinery lives in the coordinator's bounded per-vector artifact
    store and per-shard archive history.  Use :meth:`session` for a
    reader that answers exactly as the database did at pin time.
    """

    __slots__ = ("_database", "_versions")

    def __init__(
        self, database: ShardedDatabase, versions: Tuple[int, ...]
    ) -> None:
        self._database = database
        self._versions = tuple(versions)

    @property
    def versions(self) -> Tuple[int, ...]:
        """The pinned per-shard version vector."""
        return self._versions

    @property
    def is_current(self) -> bool:
        """Whether no shard has been updated since the pin."""
        return self._database.versions() == self._versions

    def session(self) -> Any:
        """A version-pinned reader session (a coordinator drop-in).

        Raises :class:`~repro.exceptions.SnapshotTooOldError` (lazily, at
        query time) once the pinned vector leaves the coordinator's
        bounded snapshot history.
        """
        return self._database.coordinator().at(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseSnapshot({self._database.name!r}, "
            f"versions={self._versions}, current={self.is_current})"
        )
