"""Partitioned probabilistic databases.

:class:`ShardedDatabase` splits a tuple-independent or block-independent
(BID) database into ``shard_count`` shards -- by stable key hash, by score
range or by a callable -- with BID blocks always kept intact inside one
shard.  Both models are an and of independent xor blocks (Section 3.1 of
the paper), so their rank generating function factorizes over blocks and
a shard needs no copy of its rows: the database holds **one store**, an
immutable :class:`~repro.andxor.columns.FlatColumns` of every row with its
blocks numbered by decreasing best score, and a shard is its index, its
version and a **row view** of the store -- the store's score order
restricted to the shard's keys through the fixed key-to-shard map.

The database publishes its state as one ``(versions, store, views)``
tuple.  An update is one :meth:`~repro.andxor.columns.FlatColumns.\
replace_block` on the store (re-gathered by best score only when a score
or key moves; a probability-only patch shares every other column and the
views), which bumps the owning shard's version and notifies subscribers
(the serving layer's invalidation fan-out).  The superseded state joins a
bounded history, so a reader pinned at an older version vector resolves
that vector's immutable store once.  Exact global answers come from the
:class:`~repro.sharding.ShardedQuerySession` coordinator, a session over
the store.  A tuple-independent database's rank matrix convolves the
shards' partial rank generating functions (:meth:`DatabaseShard.summary`,
memoised per shard version); a block-independent database's is the
store's own.  No tree is built unless a world-level or sampling route asks
for the store's.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
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
from repro.exceptions import ModelError, SnapshotTooOldError
from repro.models.bid import BlockIndependentDatabase
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.session import CacheInfo
from repro.sharding.summary import ShardRankSummary

SourceDatabase = Union[TupleIndependentDatabase, BlockIndependentDatabase]
Partitioner = Union[str, Callable[[Hashable], int]]
#: The published ``(per-shard versions, store, per-shard row views)``: a
#: view holds the shard's store rows in decreasing score order.
State = Tuple[Tuple[int, ...], FlatColumns, List[Any]]


def hash_shard_of(key: Hashable, shard_count: int) -> int:
    """Stable (process-independent) hash partitioning of one tuple key."""
    return zlib.crc32(repr(key).encode("utf-8")) % shard_count


def build_shard_database(
    model: type, name: str, index: int, columns: FlatColumns
) -> SourceDatabase:
    """Wrap one shard's columns in the source's model (no copy, no checks).

    The model follows the source, not the shard's contents: a BID shard
    whose blocks all hold one alternative is still a BID database.  No
    code under ``src`` calls it; ``perfbench/layers.py`` wraps it by name
    in its ``models.build`` span.
    """
    return model.from_columns(columns, name=f"{name}/shard{index}")


class DatabaseShard:
    """One shard: its index, its version and a row view of the store.

    The coordinator of a tuple-independent database reads a shard through
    :meth:`summary` only, at the state it pinned.  This class alone knows
    whether a summary's prefix table is swept in this process
    (``executor="threads"``) or shipped by a worker process
    (``executor="processes"``: the pool's cache, which is also the
    baseline the worker ships row-suffix deltas against).  Either way the
    summary reads the parent's store, which is authoritative: when the
    worker cannot answer, the read fails over to it.  A block-independent
    database's coordinator reads no shard summary.
    """

    __slots__ = ("index", "_owner", "_summaries")

    def __init__(self, owner: "ShardedDatabase", index: int) -> None:
        self._owner = owner
        self.index = index
        #: ``(version, max_rank) -> summary`` swept in this process.
        self._summaries: Dict[Tuple[int, int], ShardRankSummary] = {}

    @property
    def version(self) -> int:
        """The shard's version, bumped by every update of one of its keys."""
        return self._owner.state()[0][self.index]

    @property
    def is_empty(self) -> bool:
        return not len(self._owner.state()[2][self.index])

    def _blocks(self, state: State) -> List[int]:
        """The shard's store blocks at ``state``, in the store's order."""
        _, store, views = state
        backend = store.backend
        rows = backend.take_rows(store.blocks, views[self.index])
        return sorted(set(backend.vector_values(rows)))

    def keys(self) -> List[Hashable]:
        """The shard's keys with rows, in the store's (best score) order."""
        state = self._owner.state()
        return list(map(state[1].keys.__getitem__, self._blocks(state)))

    def committed(self) -> Tuple[int, FlatColumns]:
        """The shard's live ``(version, columns)``: its blocks gathered
        from the store, in the store's order, read from one published
        state.  A worker process is spawned from these."""
        state = self._owner.state()
        return state[0][self.index], state[1].gather(self._blocks(state))

    @property
    def columns(self) -> FlatColumns:
        """The shard's live rows gathered into columns of their own."""
        return self.committed()[1]

    def summary(
        self, max_rank: int, state: Optional[State] = None
    ) -> ShardRankSummary:
        """The truncated rank summary of the shard at ``state`` (default:
        the live one), over the store's rows of the shard.

        Under ``executor="processes"`` the shard's worker ships its prefix
        table (a cache miss fetches every stale shard in one parallel
        exchange).  Summaries swept here are memoised per (shard version,
        ``max_rank``).  Summaries exist for tuple-independent layouts
        only (:class:`~repro.sharding.summary.ShardRankSummary`).
        """
        owner = self._owner
        if state is None:
            state = owner.state()
        if owner.executor == "processes":
            remote = owner.process_pool().read(
                self.index, "summary", max_rank, state
            )
            if remote is not None:
                return remote
        versions, store, views = state
        key = (versions[self.index], max_rank)
        summary = self._summaries.get(key)
        if summary is None:
            summary = ShardRankSummary.from_layout(
                (store, store.scores, views[self.index]), max_rank
            )
            self._summaries[key] = summary
        return summary

    def _forget_before(self, version: int) -> None:
        """Drop the memoised summaries of versions before ``version``."""
        self._summaries = {
            key: summary
            for key, summary in self._summaries.items()
            if key[0] >= version
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatabaseShard(index={self.index}, version={self.version})"


class StaleUpdateError(ModelError):
    """Raised by :meth:`ShardedDatabase.apply_update` when the shard moved on.

    The pending update was prepared against an older shard version; callers
    should re-prepare against the current state and retry.
    """


class PendingUpdate:
    """A prepared block replacement, not yet applied.

    Preparation validates the block's new rows and patches them into a
    copy of the store -- safe to run on a shard worker thread;
    :meth:`ShardedDatabase.apply_update` then publishes that copy with the
    shard's version bumped, a pointer swap that the serving executor
    serializes against queries (re-patching the live store instead when
    another shard's update was published in between).  This split is what
    makes the serving layer's invalidation graceful.
    """

    __slots__ = (
        "shard_index",
        "key",
        "rows",
        "base_version",
        "base",
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
        base: FlatColumns,
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
        #: The store the update was prepared on, and its patched copy.
        self.base = base
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
        Require globally distinct scores (checked at construction and on
        every update; the store is then marked tie-free, so the
        coordinator never searches it for ties again).
    executor:
        ``"threads"`` (default) sweeps every shard summary in-process;
        ``"processes"`` moves each non-empty shard of a tuple-independent
        database into its own worker process
        (:class:`~repro.sharding.procpool.ShardProcessPool`), escaping the
        GIL for the per-shard kernels.  A block-independent database's
        rank matrix is read off its store, so it spawns no worker.
        Answers are identical either way; prefer processes for large
        shards (n >= 10^4) on the numpy backend.
    executor_options:
        Keyword arguments forwarded to the process pool constructor
        (``start_method``, ``request_timeout``, ``supervise``,
        ``supervisor``, ``fault_injector``, ``breaker_threshold``,
        ``breaker_cooldown_s``); ignored under ``executor="threads"``.
    snapshot_history:
        How many superseded version vectors (each with its store) the
        database keeps for version-pinned snapshot readers
        (:meth:`snapshot`, ``coordinator().at(...)``); older pins raise
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
        self._independent = isinstance(database, TupleIndependentDatabase)
        self._subscribers: List[Callable[[int, Hashable], None]] = []
        self._coordinator: Optional[Any] = None
        store = database.columns.by_best_score()
        self._shard_of: Dict[Hashable, int] = dict(
            zip(store.keys, self._assign(store, partitioner))
        )
        self._shards: List[DatabaseShard] = [
            DatabaseShard(self, index) for index in range(shard_count)
        ]
        if validate_scores:
            self._check_distinct_scores(store)
            store.tie_free = True
        #: The published state; replaced as one unit under _apply_lock.
        self._state: State = (
            (0,) * shard_count, store, self._views(store)
        )
        #: Superseded version vector -> its state, oldest first.
        self._history: "OrderedDict[Tuple[int, ...], State]" = OrderedDict()

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _assign(
        self, store: FlatColumns, partitioner: Partitioner
    ) -> List[int]:
        """The shard index of every block of ``store``."""
        keys = store.keys
        if callable(partitioner):
            return [self._checked_index(partitioner(key)) for key in keys]
        if partitioner == "hash":
            return [hash_shard_of(key, self._shard_count) for key in keys]
        if partitioner == "range":
            for row in store.backend.unscored_rows(store.scores):
                key = store.alternative(row).key
                raise ModelError(
                    f"block {key!r} has an unscored row; range "
                    "partitioning requires scored tuples"
                )
            # The store's blocks are numbered by decreasing best score.
            chunk = -(-len(keys) // self._shard_count) if keys else 1
            return [
                min(block // chunk, self._shard_count - 1)
                for block in range(len(keys))
            ]
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

    def _views(self, store: FlatColumns) -> List[Any]:
        """Every shard's rows of ``store``, in the store's score order
        (row order while a row is unscored)."""
        backend = store.backend
        owners = [self._shard_of[key] for key in store.keys]
        blocks = backend.vector_values(store.blocks)
        rows: Iterable[int] = range(len(blocks))
        if not backend.unscored_rows(store.scores):
            rows = backend.vector_values(store.order)
        views: List[List[int]] = [[] for _ in self._shards]
        for row in rows:
            views[owners[blocks[row]]].append(row)
        return [backend.index_vector(view) for view in views]

    def _check_distinct_scores(self, columns: FlatColumns) -> None:
        self._score_owner: Dict[float, Hashable] = {}
        blocks = columns.backend.vector_values(columns.blocks)
        for score, block in zip(columns.score_list(), blocks):
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
    def independent(self) -> bool:
        """Whether the source is tuple-independent (else BID)."""
        return self._independent

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

    def versions(self) -> Tuple[int, ...]:
        """Per-shard version counters (bumped by every update)."""
        return self._state[0]

    def state(self) -> State:
        """The live ``(versions, store, views)``, published as one unit."""
        return self._state

    def state_at(self, versions: Sequence[int]) -> State:
        """The state published at one version vector: the live one, or a
        superseded one still in the bounded history.

        Raises :class:`~repro.exceptions.SnapshotTooOldError` once the
        vector has left the history.
        """
        versions = tuple(versions)
        state = self._state
        if state[0] == versions:
            return state
        with self._apply_lock:
            state = self._history.get(versions)
        if state is None:
            raise SnapshotTooOldError(
                f"version vector {versions} is no longer in the snapshot "
                f"history (depth {self._snapshot_history}); re-pin at the "
                "current vector"
            )
        return state

    def coordinator(self) -> Any:
        """The cross-shard :class:`~repro.sharding.ShardedQuerySession`.

        Created once and cached; the coordinator follows the published
        state, so it stays valid across updates (its artifacts are filed
        per version vector and rebuilt lazily).
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
        concurrent updates, until the vector leaves the bounded snapshot
        history.
        """
        return DatabaseSnapshot(self, self.versions())

    def cache_info(self) -> CacheInfo:
        """Cache counters of the coordinator and the worker sessions.

        A read-only snapshot: nothing is built.  Worker sessions' counters
        travel back as picklable :class:`~repro.session.CacheInfo` and add
        into the coordinator's.
        """
        info = CacheInfo()
        if self._pool is not None and not self._pool.closed:
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

    @staticmethod
    def _block_scores(
        columns: FlatColumns, key: Hashable
    ) -> Tuple[float, ...]:
        """The numeric scores of ``key``'s block."""
        scores = columns.backend.vector_values(
            columns.scores, columns.rows_of(key)
        )
        # Unscored rows hold None (pure backend) or NaN (numpy).
        return tuple(
            score for score in scores if score is not None and score == score
        )

    def prepare_update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> PendingUpdate:
        """Build (but do not apply) a tuple update for ``key``.

        Only tuple-independent databases support in-place
        probability/score updates; use :meth:`prepare_block_update` for
        BID blocks.
        """
        shard_index = self.shard_of(key)
        if not self._independent:
            raise ModelError(
                f"tuple {key!r} belongs to a BID block; use "
                "update_block() to replace its alternatives"
            )
        versions, store, _ = self._state
        row = store.rows_of(key)[0]
        value = store.values[row]
        old_score = store.explicit_scores[row]
        new_score = old_score if score is None else float(score)
        # A score update also moves the value when the value doubles as
        # the score (the common generator layout).
        if score is not None and (old_score is None or value == old_score):
            value = new_score
        new_probability = (
            float(store.probabilities[row])
            if probability is None
            else float(probability)
        )
        return self._stage_pending(
            shard_index,
            versions[shard_index],
            store,
            key,
            [(value, new_score, new_probability)],
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
        shard_index = self.shard_of(key)
        versions, store, _ = self._state
        rows = [
            (value, None if score is None else float(score), float(probability))
            for value, score, probability in alternatives
        ]
        if self._independent and len(rows) != 1:
            raise ModelError(
                f"tuple {key!r} is tuple-independent; a replacement "
                "block must hold exactly one alternative"
            )
        return self._stage_pending(
            shard_index, versions[shard_index], store, key, rows
        )

    def _stage_pending(
        self,
        shard_index: int,
        base_version: int,
        store: FlatColumns,
        key: Hashable,
        rows: List[Row],
    ) -> PendingUpdate:
        """Patch ``key``'s block into a copy of ``store``, the store the
        shard's ``base_version`` was read from (one published state)."""
        patched = self._patched(store, key, rows)
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        if self._validate_scores:
            removed = self._block_scores(store, key)
            added = self._block_scores(patched, key)
            if added == removed:
                removed = added = ()
            self._check_score_free(key, added)
        return PendingUpdate(
            shard_index, key, rows, base_version, store, patched, removed,
            added,
        )

    def _patched(
        self, store: FlatColumns, key: Hashable, rows: List[Row]
    ) -> FlatColumns:
        """``store`` with ``key``'s block replaced by ``rows``, its blocks
        renumbered by best score when a score, key or block moved."""
        patched = store.replace_block(key, rows, self._independent)
        if not patched.same_rows(store):
            patched = patched.by_best_score()
        return patched

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
        """Publish the patched store and fan the invalidation out.

        Raises :class:`StaleUpdateError` when the shard's version changed
        after the update was prepared (a concurrent update won the race);
        the caller should re-prepare and retry.  An update of another
        shard published since is kept: the block is patched into the live
        store instead.  The outgoing state joins the snapshot history.

        Under ``executor="processes"`` the worker commits first and the
        parent publishes second; the pool pairs the worker's new state id
        with the shard's new version, so a summary it ships is only ever
        read with the rows it was computed from.  When the worker misses
        the commit (it crashed, timed out or lost the message) the parent
        publishes anyway and the worker is respawned from the new store.
        """
        index = pending.shard_index
        with self._apply_lock:
            state = self._state
            versions, store, views = state
            if versions[index] != pending.base_version:
                raise StaleUpdateError(
                    f"shard {index} moved from version "
                    f"{pending.base_version} to {versions[index]} since the "
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
            patched = pending.columns
            if store is not pending.base:
                patched = self._patched(store, pending.key, pending.rows)
            if self._validate_scores:
                patched.tie_free = True  # the registry holds every score
            version = versions[index] + 1
            missed = (
                self._executor == "processes"
                and self._independent
                and not self.process_pool().commit_replace(
                    index, pending.key, pending.rows, version
                )
            )
            self._history[versions] = state
            while len(self._history) > self._snapshot_history:
                self._history.popitem(last=False)
            self._state = (
                versions[:index] + (version,) + versions[index + 1 :],
                patched,
                views if patched.same_rows(store) else self._views(patched),
            )
            self._shards[index]._forget_before(
                version - self._snapshot_history
            )
        if missed and self._pool is not None:
            self._pool.restart_worker(index)
        self._notify(index, pending.key)

    def install_from_committed(
        self, index: int, install: Callable[[int, FlatColumns], None]
    ) -> None:
        """Call ``install`` with shard ``index``'s committed ``(version,
        columns)``, under the update lock.

        A process pool respawns a worker this way: an update that already
        committed on the dead worker cannot publish between the read and
        the install, leaving the new worker behind the parent.
        """
        with self._apply_lock:
            install(*self._shards[index].committed())

    def update_tuple(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> None:
        """Update one independent tuple's probability and/or score.

        Patches the store's row, bumps the owning shard's version (the
        coordinator's artifacts of the new vector are built lazily) and
        notifies subscribers.
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
        sizes = [len(view) for view in self._state[2]]
        return (
            f"ShardedDatabase({self._name!r}, rows per shard={sizes}, "
            f"partitioner={self._partitioner_name!r})"
        )


class DatabaseSnapshot:
    """A pinned shard-version vector over a :class:`ShardedDatabase`.

    Snapshot handles are cheap (they record only the vector); the store
    pinned at the vector stays in the database's bounded snapshot history
    after updates supersede it.  Use :meth:`session` for a reader that
    answers exactly as the database did at pin time.
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
        query time) once the pinned vector leaves the bounded snapshot
        history.
        """
        return self._database.coordinator().at(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseSnapshot({self._database.name!r}, "
            f"versions={self._versions}, current={self.is_current})"
        )
