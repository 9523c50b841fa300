"""Partitioned probabilistic databases.

:class:`ShardedDatabase` splits a tuple-independent or block-independent
(BID) database into ``shard_count`` shards -- by stable key hash or by score
range -- with BID blocks always kept intact inside one shard.  Because
distinct keys are independent in both models, each shard is itself a valid
database of the same model, stored as columns
(:class:`~repro.andxor.columns.FlatColumns`) with its own
:class:`~repro.session.QuerySession`; exact global answers are recovered by
the :class:`~repro.sharding.ShardedQuerySession` coordinator, which
convolves the shards' partial rank generating functions.  No shard tree is
built unless a world-level or sampling route asks for one.

Shards are the unit of cache invalidation: :meth:`ShardedDatabase.\
update_tuple` / :meth:`ShardedDatabase.update_block` replace only the
owning shard -- a copy of its columns with one block patched -- bump its
version and notify subscribers (the serving layer's invalidation fan-out);
the other shards' memoized statistics stay warm.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.columns import check_tuple_probability
from repro.exceptions import ModelError
from repro.models.bid import BlockIndependentDatabase
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.session import CacheInfo, QuerySession

SourceDatabase = Union[TupleIndependentDatabase, BlockIndependentDatabase]
#: A partition unit: one independent tuple or one intact BID block.
#: ("independent", key, value, score, probability) or
#: ("block", key, [(value, score, probability), ...]).
_Unit = Tuple[Any, ...]
Partitioner = Union[str, Callable[[Hashable], int]]


def hash_shard_of(key: Hashable, shard_count: int) -> int:
    """Stable (process-independent) hash partitioning of one tuple key."""
    return zlib.crc32(repr(key).encode("utf-8")) % shard_count


def build_shard_database(
    name: str,
    index: int,
    units: Sequence[_Unit],
    base: Optional[Tuple[SourceDatabase, _Unit]] = None,
) -> SourceDatabase:
    """Materialize one shard's database from its partition units.

    Module-level (not a method) so shard worker processes can rebuild
    their shard from pickled units without shipping the whole
    :class:`ShardedDatabase`; the tuple-independent model is kept when
    every unit is independent, otherwise blocks go through the BID model.

    ``base`` -- ``(current database, replacing unit)`` -- patches instead:
    the result is the current database's columns with that unit's block
    replaced, only the new unit validated.  ``units`` must then equal the
    current units with that one unit swapped in.
    """
    if base is not None:
        database, unit = base
        rows = [unit[2:]] if unit[0] == "independent" else unit[2]
        if rows:
            independent = isinstance(database, TupleIndependentDatabase)
            return type(database).from_columns(
                database.columns.replace_block(unit[1], rows, independent),
                name=f"{name}/shard{index}",
            )
    if all(unit[0] == "independent" for unit in units):
        return TupleIndependentDatabase(
            [
                (key, value, score, probability)
                if score is not None
                else (key, value, probability)
                for _, key, value, score, probability in units
            ],
            name=f"{name}/shard{index}",
        )
    blocks = []
    for unit in units:
        if unit[0] == "independent":
            _, key, value, score, probability = unit
            alternatives = [(value, score, probability)]
        else:
            _, key, alternatives = unit
        blocks.append(
            (
                key,
                [
                    (value, score, probability)
                    if score is not None
                    else (value, probability)
                    for value, score, probability in alternatives
                ],
            )
        )
    return BlockIndependentDatabase(blocks, name=f"{name}/shard{index}")


class DatabaseShard:
    """One shard: a sub-database plus its version and lazy query session."""

    __slots__ = ("index", "_units", "_database", "_session", "version", "_owner")

    def __init__(self, owner: "ShardedDatabase", index: int) -> None:
        self._owner = owner
        self.index = index
        self._units: List[_Unit] = []
        self._database: Optional[SourceDatabase] = None
        self._session: Optional[QuerySession] = None
        self.version = 0

    @property
    def is_empty(self) -> bool:
        return not self._units

    @property
    def units(self) -> List[_Unit]:
        """The shard's (picklable) partition units, as assigned."""
        return list(self._units)

    def keys(self) -> List[Hashable]:
        return [unit[1] for unit in self._units]

    @property
    def database(self) -> Optional[SourceDatabase]:
        """The shard's own database (None for an empty shard)."""
        if self._database is None and self._units:
            self._database = self._owner._build_shard_database(
                self.index, self._units
            )
        return self._database

    def session(self) -> Optional[QuerySession]:
        """The shard's lazily created, version-tracked query session."""
        database = self.database
        if database is None:
            return None
        if self._session is None:
            self._session = QuerySession(database.columns)
        return self._session

    def _replace_units(
        self,
        units: List[_Unit],
        database: Optional[SourceDatabase] = None,
    ) -> None:
        self._units = units
        self._database = database
        self._session = None
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseShard(index={self.index}, tuples={len(self._units)}, "
            f"version={self.version})"
        )


class _UnitSnapshot(NamedTuple):
    """A shard's state at the start of a prepared update of one unit."""

    shard_index: int
    base_version: int
    units: List[_Unit]
    position: int
    database: Optional[SourceDatabase]


class StaleUpdateError(ModelError):
    """Raised by :meth:`ShardedDatabase.apply_update` when the shard moved on.

    The pending update was prepared against an older shard version; callers
    should re-prepare against the current state and retry.
    """


class PendingUpdate:
    """A prepared shard replacement, not yet applied.

    Preparation builds the replacement unit list *and* the replacement
    shard database -- a copy of the shard's columns with one block patched,
    safe to run on a shard worker thread; :meth:`ShardedDatabase.\
apply_update` is then a version-bumping pointer swap that the serving
    executor serializes against queries.  This split is what makes the
    serving layer's invalidation graceful.
    """

    __slots__ = (
        "shard_index",
        "key",
        "units",
        "base_version",
        "database",
        "removed_scores",
        "added_scores",
        "remote_ticket",
    )

    def __init__(
        self,
        shard_index: int,
        key: Hashable,
        units: List[_Unit],
        base_version: int,
        database: Optional[SourceDatabase],
        removed_scores: Tuple[float, ...] = (),
        added_scores: Tuple[float, ...] = (),
        remote_ticket: Optional[int] = None,
    ) -> None:
        self.shard_index = shard_index
        self.key = key
        self.units = units
        self.base_version = base_version
        self.database = database
        # Distinct-score registry delta, applied (and re-validated) only by
        # apply_update: an abandoned prepared update must leave the
        # registry untouched.
        self.removed_scores = removed_scores
        self.added_scores = added_scores
        # Ticket of the matching staged rebuild on the owning worker
        # process (executor="processes" only): committed or aborted by
        # apply_update in lockstep with the parent-side version check.
        self.remote_ticket = remote_ticket


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
        score-sorted units, i.e. score-range partitioning) or a callable
        mapping a tuple key to a shard index.
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
        ``request_timeout``); ignored under ``executor="threads"``.
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
        units = _extract_units(source)
        self._name = name or getattr(source, "name", "sharded")
        self._shard_of: Dict[Hashable, int] = {}
        self._shards: List[DatabaseShard] = [
            DatabaseShard(self, index) for index in range(shard_count)
        ]
        self._subscribers: List[Callable[[int, Hashable], None]] = []
        self._coordinator: Optional[Any] = None
        assignments = self._assign(units, partitioner)
        per_shard: List[List[_Unit]] = [[] for _ in range(shard_count)]
        for unit, shard_index in zip(units, assignments):
            per_shard[shard_index].append(unit)
            self._shard_of[unit[1]] = shard_index
        for shard, shard_units in zip(self._shards, per_shard):
            shard._units = shard_units
        if validate_scores:
            self._check_distinct_scores(units)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _assign(
        self, units: Sequence[_Unit], partitioner: Partitioner
    ) -> List[int]:
        if callable(partitioner):
            return [
                self._checked_index(partitioner(unit[1])) for unit in units
            ]
        if partitioner == "hash":
            return [
                hash_shard_of(unit[1], self._shard_count) for unit in units
            ]
        if partitioner == "range":
            order = sorted(
                range(len(units)),
                key=lambda position: -_unit_best_score(units[position]),
            )
            assignments = [0] * len(units)
            chunk = -(-len(units) // self._shard_count) if units else 1
            for rank, position in enumerate(order):
                assignments[position] = min(
                    rank // chunk, self._shard_count - 1
                )
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

    def _check_distinct_scores(self, units: Sequence[_Unit]) -> None:
        self._score_owner: Dict[float, Hashable] = {}
        for unit in units:
            for score in _unit_scores(unit):
                owner = self._score_owner.get(score)
                if owner is not None and owner != unit[1]:
                    raise ModelError(
                        f"tuples {owner!r} and {unit[1]!r} share score "
                        f"{score}; ranking assumes distinct scores"
                    )
                self._score_owner[score] = unit[1]

    def _build_shard_database(
        self,
        index: int,
        units: Sequence[_Unit],
        base: Optional[Tuple[SourceDatabase, _Unit]] = None,
    ) -> SourceDatabase:
        return build_shard_database(self._name, index, units, base)

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

    def _snapshot_unit(self, key: Hashable) -> "_UnitSnapshot":
        """The state a prepared update of ``key`` starts from.

        Optimistic lock: the version is stamped BEFORE the units and the
        database are read.  _replace_units rebinds both before bumping the
        version, so a concurrent apply between the reads can only make the
        stamp stale (caught by apply_update), never silently drop the
        other update's changes.
        """
        shard_index = self.shard_of(key)
        shard = self._shards[shard_index]
        base_version = shard.version
        units = shard._units
        database = shard._database
        for position, unit in enumerate(units):
            if unit[1] == key:
                return _UnitSnapshot(
                    shard_index, base_version, units, position, database
                )
        raise ModelError(f"unknown tuple key {key!r}")

    def prepare_update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> PendingUpdate:
        """Build (but do not apply) a tuple update for ``key``'s shard.

        Only tuple-independent units support in-place probability/score
        updates; use :meth:`prepare_block_update` for BID blocks.
        """
        snapshot = self._snapshot_unit(key)
        unit = snapshot.units[snapshot.position]
        if unit[0] != "independent":
            raise ModelError(
                f"tuple {key!r} belongs to a BID block; use "
                "update_block() to replace its alternatives"
            )
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        _, _, value, old_score, old_probability = unit
        new_probability = (
            old_probability if probability is None else float(probability)
        )
        check_tuple_probability(new_probability)
        new_score = old_score if score is None else float(score)
        if score is not None:
            self._check_score_free(key, (new_score,))
            removed = tuple(_unit_scores(unit))
            added = (new_score,)
            # A score update also moves the value when the value doubles
            # as the score (the common generator layout).
            if old_score is None or value == old_score:
                value = new_score
        return self._stage_pending(
            snapshot,
            key,
            ("independent", key, value, new_score, new_probability),
            removed,
            added,
        )

    def prepare_block_update(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> PendingUpdate:
        """Build a BID block replacement: ``(value, score, probability)``s."""
        snapshot = self._snapshot_unit(key)
        old_unit = snapshot.units[snapshot.position]
        replacement = [
            (value, None if score is None else float(score), float(probability))
            for value, score, probability in alternatives
        ]
        if old_unit[0] == "independent":
            if len(replacement) != 1:
                raise ModelError(
                    f"tuple {key!r} is tuple-independent; a replacement "
                    "block must hold exactly one alternative"
                )
            unit: _Unit = ("independent", key) + replacement[0]
        else:
            unit = ("block", key, replacement)
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        if self._validate_scores:
            added = tuple(_unit_scores(("block", key, replacement)))
            self._check_score_free(key, added)
            removed = tuple(_unit_scores(old_unit))
        return self._stage_pending(snapshot, key, unit, removed, added)

    def _stage_pending(
        self,
        snapshot: "_UnitSnapshot",
        key: Hashable,
        unit: _Unit,
        removed: Tuple[float, ...],
        added: Tuple[float, ...],
    ) -> PendingUpdate:
        """Build the replacement half of a prepared update.

        Under ``executor="threads"`` the replacement shard database is
        patched here in-process from the current one; under
        ``executor="processes"`` the rebuild is staged on the owning
        worker instead (ticketed), and the parent keeps only the
        replacement units -- the worker's copy is swapped in by
        :meth:`apply_update` under the same version check.
        """
        shard_index = snapshot.shard_index
        units = list(snapshot.units)
        units[snapshot.position] = unit
        if self._executor == "processes":
            ticket = self.process_pool().prepare_replace(shard_index, units)
            return PendingUpdate(
                shard_index,
                key,
                units,
                snapshot.base_version,
                None,
                removed,
                added,
                remote_ticket=ticket,
            )
        database = snapshot.database
        return PendingUpdate(
            shard_index,
            key,
            units,
            snapshot.base_version,
            self._build_shard_database(
                shard_index,
                units,
                None if database is None else (database, unit),
            ),
            removed,
            added,
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
        """Swap a prepared shard rebuild in and fan the invalidation out.

        Raises :class:`StaleUpdateError` when the shard's version changed
        after the update was prepared (a concurrent update won the race);
        the caller should re-prepare and retry.
        """
        with self._apply_lock:
            shard = self._shards[pending.shard_index]
            if shard.version != pending.base_version:
                if (
                    pending.remote_ticket is not None
                    and self._pool is not None
                ):
                    # Losing the race must also drop the worker-side staged
                    # rebuild, or worker and parent units would diverge on
                    # the next prepared update that does win.
                    self._pool.abort_replace(
                        pending.shard_index, pending.remote_ticket
                    )
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
            if pending.remote_ticket is not None:
                # Commit on the worker BEFORE the parent swap: a worker
                # crash here raises and leaves the parent at the old
                # version, so parent and (rebuilt) workers never disagree
                # about state.
                self.process_pool().commit_replace(
                    pending.shard_index, pending.remote_ticket
                )
            shard._replace_units(pending.units, pending.database)
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

    def invalidate_shard(self, index: int) -> None:
        """Force-drop one shard's session and bump its version."""
        shard = self._shards[index]
        with self._apply_lock:
            self._archive_current(shard)
            shard._replace_units(list(shard._units))
            if self._pool is not None and not self._pool.closed:
                self._pool.invalidate(index)
        self._notify(index, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(shard._units) for shard in self._shards]
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


# ----------------------------------------------------------------------
# Unit extraction
# ----------------------------------------------------------------------
def _extract_units(
    source: Union[SourceDatabase, Iterable[Tuple]]
) -> List[_Unit]:
    if isinstance(source, (TupleIndependentDatabase, BlockIndependentDatabase)):
        columns = source.columns
        rows = list(
            zip(columns.values, columns.explicit_scores, columns.probabilities)
        )
        if isinstance(source, TupleIndependentDatabase):
            return [
                ("independent", key) + row
                for key, row in zip(columns.keys, rows)
            ]
        return [
            ("block", key, [rows[row] for row in columns.rows_of(key)])
            for key in columns.keys
        ]
    if isinstance(source, Iterable):
        units = []
        seen: Dict[Hashable, bool] = {}
        for item in source:
            if len(item) == 3:
                key, value, probability = item
                score: Optional[float] = None
            elif len(item) == 4:
                key, value, score, probability = item
            else:
                raise ModelError(
                    "expected (key, value, probability) or "
                    f"(key, value, score, probability), got {item!r}"
                )
            if key in seen:
                raise ModelError(f"duplicate tuple key {key!r}")
            seen[key] = True
            units.append(
                ("independent", key, value, score, float(probability))
            )
        return units
    raise ModelError(
        "expected a TupleIndependentDatabase, BlockIndependentDatabase or "
        f"an iterable of tuple specs, got {type(source).__name__}"
    )


def _unit_scores(unit: _Unit) -> List[float]:
    if unit[0] == "independent":
        _, _, value, score, _ = unit
        effective = score if score is not None else value
        return [effective] if isinstance(effective, (int, float)) else []
    return [
        (score if score is not None else value)
        for value, score, _ in unit[2]
        if isinstance(score if score is not None else value, (int, float))
    ]


def _unit_best_score(unit: _Unit) -> float:
    scores = _unit_scores(unit)
    if not scores:
        raise ModelError(
            f"unit {unit[1]!r} has no numeric score; range partitioning "
            "requires scored tuples"
        )
    return max(scores)
