"""The cross-shard coordinator session.

:class:`ShardedQuerySession` is a :class:`~repro.session.QuerySession`
over one merged relation: TI and BID relations are an and of independent
xor blocks, so the union of the shards' blocks is again one flat relation.
The coordinator merges the shards' committed
:class:`~repro.andxor.columns.FlatColumns` into one set of columns per
version vector (:meth:`~repro.andxor.columns.FlatColumns.merge`, without
opening a shard session), and the inherited session code answers every
read from them: keys, scores, alternatives, the expected-rank table and
the pairwise-preference grid (the flat closed forms of
:mod:`repro.andxor.rank_probabilities`), and, through the columns' lazily
built tree, the world-level, aggregate and sampling routes.

Only the rank matrix is merged from shard summaries.  The rank generating
function of independent shards factorizes, so the coordinator recovers the
exact global ``Pr(r(t) = i)`` matrix by convolving each tuple's *local*
rank polynomial (its own shard, own block excluded) with the other shards'
count-above-threshold partials (:class:`~repro.sharding.summary.\
ShardRankSummary`).  The whole merge is a handful of batched backend
kernels (row gathers + row-aligned truncated convolutions);
block-independent shards contribute one row per alternative, collapsed
per tuple.  Every consensus algorithm of :mod:`repro.consensus` then runs
unchanged at the coordinator, with answers identical to a single
unsharded session over the same data.

Two properties make the coordinator honest under sustained mixed traffic:

* **Incremental merging**: :class:`~repro.sharding.merge.MergeEngine` is
  the one merge path.  It keeps prefix/suffix partial products of the
  per-shard count-above polynomials on one shared score grid.  A full
  merge is O(S) row convolutions, and an update re-convolves only the
  grid rows below the first alternative whose content it changed.  A
  probability-only update patches the merged columns' probability column
  and shares everything else with them.
* **MVCC snapshot reads**: merged artifacts are memoized *per version
  vector* in a small bounded store, and :meth:`at` returns a
  :class:`SnapshotReader` pinned at one vector.  Updates publish a new
  vector (the owning database archives the outgoing shard state first),
  so in-flight readers keep answering from their pinned snapshot without
  blocking or racing the writer; a reader whose vector has been evicted
  raises :class:`~repro.exceptions.SnapshotTooOldError`.  A reader pinned
  at a superseded vector merges through a throwaway engine, so stale
  reads never touch the live engine's cached partials.

Every shard is read through one interface, whatever holds its state:
``columns`` (its committed :class:`~repro.andxor.columns.FlatColumns`),
``summary(max_rank)`` (its truncated summary, which reads those columns)
and ``session()`` (only for the single-shard shortcut).
Live shards are :class:`~repro.models.sharded.DatabaseShard` objects,
which alone know whether their state sits in this process or in a worker;
superseded ones are :class:`_ShardArchive` entries of the snapshot history
(a reader reads a live shard through a :class:`_PinnedShard`, which falls
back to the archive when a swap raced the read).  The coordinator picks
them in one hook, :meth:`ShardedQuerySession._shards`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.andxor.columns import FlatColumns, first_score_tie
from repro.engine import RankMatrix, get_backend
from repro.exceptions import ModelError, SnapshotTooOldError
from repro.session import QuerySession
from repro.sharding.merge import MergeEngine, MergeStatsSnapshot
from repro.sharding.summary import ShardRankSummary


class _ShardArchive:
    """One shard's frozen state at a historical version.

    Created by the owning database right before an update swaps the
    shard's columns, so readers pinned at the outgoing version can still
    resolve it.  It holds a reference to those (immutable) columns and
    adopts whatever the live shard already built at that version
    (:meth:`~repro.models.sharded.DatabaseShard.warm_state`); a missing
    summary comes from the archived session, opened over the archived
    columns when cold.  Answers the
    coordinator through the same ``columns`` / ``summary()`` /
    ``session()`` interface as a live shard.
    """

    __slots__ = (
        "index",
        "version",
        "columns",
        "_session",
        "_summaries",
    )

    def __init__(self, shard: Any) -> None:
        self.index = shard.index
        self.version = shard.version
        self.columns = shard.columns
        self._session, self._summaries = shard.warm_state()

    def session(self) -> Optional[QuerySession]:
        """The archived shard session (opened over the columns when cold)."""
        if self._session is None and self.columns.values:
            self._session = QuerySession(self.columns)
        return self._session

    def summary(self, max_rank: int) -> ShardRankSummary:
        cached = self._summaries.get(max_rank)
        if cached is None:
            return self.session().partial_rank_summary(max_rank)
        return cached


class _PinnedShard:
    """A live shard read by a reader pinned at the shard's version.

    The owning database archives a shard's state before a swap and bumps
    the version after it.  A read that then finds neither an archive of
    the pinned version nor a newer version saw the pinned state; any other
    read is answered from the archive, or raises ``SnapshotTooOldError``
    once that archive has been evicted.
    """

    __slots__ = ("index", "_shard", "_version", "_coordinator")

    def __init__(self, shard: Any, version: int, coordinator: Any) -> None:
        self.index = shard.index
        self._shard = shard
        self._version = version
        self._coordinator = coordinator

    def _read(self, read: Callable[[Any], Any]) -> Any:
        result = read(self._shard)
        archive = self._coordinator._archived(self.index, self._version)
        if archive is None and self._shard.version == self._version:
            return result
        archive = self._coordinator._archive_lookup(self.index, self._version)
        return read(archive)

    @property
    def columns(self) -> FlatColumns:
        return self._read(attrgetter("columns"))

    def session(self) -> Optional[QuerySession]:
        return self._read(methodcaller("session"))

    def summary(self, max_rank: int) -> ShardRankSummary:
        return self._read(methodcaller("summary", max_rank))


class ShardedQuerySession(QuerySession):
    """A session over the merged relation of a database's shards.

    Parameters
    ----------
    shards:
        The :class:`~repro.models.sharded.ShardedDatabase` to merge.  The
        coordinator follows its shard versions, swapping to a fresh
        per-vector artifact store whenever a shard is updated.
    validate_scores:
        Require pairwise-distinct scores *across* shards (each shard only
        validates its own); the merge semantics assume the paper's no-ties
        ranking.
    snapshot_history:
        How many version vectors (and per-shard archived states) to retain
        for pinned snapshot readers; older pins raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
    """

    def __init__(
        self,
        shards: Any,
        validate_scores: bool = True,
        snapshot_history: int = 4,
    ) -> None:
        if not (hasattr(shards, "sessions") and hasattr(shards, "versions")):
            raise TypeError(
                "expected a ShardedDatabase, got "
                f"{type(shards).__name__}; partition a database with "
                "ShardedDatabase(database, shard_count)"
            )
        self._database: Any = shards
        self._validate_scores = validate_scores
        self._snapshot_history = max(1, int(snapshot_history))
        self._scoring = None
        self._adopted = False
        self._use_fast_path = True
        self._versions_seen: Optional[Tuple[Any, ...]] = None
        self._engine = MergeEngine()
        # Version vector -> that vector's artifact cache dict.
        self._store: "OrderedDict[Any, Dict[Any, Any]]" = OrderedDict()
        self._history: Dict[int, "OrderedDict[int, _ShardArchive]"] = {}
        self._state_lock = threading.Lock()
        self._init_cache_state()

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _shards(self) -> List[Any]:
        """The shards to read, each answering ``columns``, ``summary()``
        and ``session()``: the database's non-empty shards."""
        return [
            shard for shard in self._database.shards() if not shard.is_empty
        ]

    @property
    def shard_count(self) -> int:
        """Number of (non-empty) shards behind the coordinator."""
        return len(self._shards())

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner."""
        return "sharded"

    def _current_versions(self) -> Tuple[Any, ...]:
        generations = tuple(shard.generation for shard in self._shards())
        return (tuple(self._database.versions()), generations)

    # ------------------------------------------------------------------
    # Version store (MVCC)
    # ------------------------------------------------------------------
    def _store_key(self, versions: Tuple[Any, ...]) -> Any:
        """Store key of a full version vector: the shard-version tuple
        (the public vector that :meth:`at` pins and the executor
        captures)."""
        return versions[0]

    def _sync(self) -> None:
        """Swap artifact stores when any shard changed since the last merge.

        Shard updates only touch their own shard (and bump its version);
        the coordinator notices lazily and rebinds to the new vector's
        (usually fresh) artifact entry.  The outgoing vector's entry stays
        in the bounded store so pinned snapshot readers keep serving from
        it; unchanged shards' partial summaries and the merge engine's
        cached partial products stay warm either way.
        """
        versions = self._current_versions()
        if self._versions_seen is None:
            self._versions_seen = versions
            with self._state_lock:
                self._store[self._store_key(versions)] = self._cache
                self._trim_store_locked()
        elif versions != self._versions_seen:
            self._swap_to(versions)

    def _swap_to(self, versions: Tuple[Any, ...]) -> None:
        old_key = self._store_key(self._versions_seen)
        new_key = self._store_key(versions)
        with self._state_lock:
            cache = self._store.get(new_key) if new_key != old_key else None
            if cache is None:
                # Same shard versions but a shard session was invalidated
                # in place (new_key == old_key), or a vector never seen:
                # either way the artifacts must be rebuilt.
                cache = {}
            self._store[new_key] = cache
            self._store.move_to_end(new_key)
            self._cache = cache
            self._trim_store_locked()
        self._versions_seen = versions
        # Version swaps keep the legacy invalidation contract observable:
        # memoized plans and callers watching `generation` re-validate.
        self._generation += 1

    def _trim_store_locked(self) -> None:
        while len(self._store) > self._snapshot_history:
            key = next(iter(self._store))
            if self._store[key] is self._cache:
                if len(self._store) == 1:
                    break
                self._store.move_to_end(key)
                continue
            del self._store[key]
            self._engine.counters["snapshot_evictions"] += 1

    def _cache_for(self, pinned: Any) -> Dict[Any, Any]:
        """Get-or-create the artifact cache of one pinned vector."""
        with self._state_lock:
            cache = self._store.setdefault(pinned, {})
            self._store.move_to_end(pinned)
            self._trim_store_locked()
            return cache

    def _memoized(self, artifact, params, compute):
        self._sync()
        return super()._memoized(artifact, params, compute)

    def _read_stamp(self) -> Any:
        # A live read files its artifacts under the vector _sync() bound
        # the cache to; an update landing before the shard reads finish
        # would file post-update rows there, where readers pinned at that
        # vector (which share the entry) would serve them.  Once the
        # vector moved, the stamp is a fresh object that matches nothing.
        versions = self._current_versions()
        return versions if versions == self._versions_seen else object()

    def invalidate(self) -> None:
        """Drop every merged artifact, snapshot entry and cached partial."""
        super().invalidate()
        self._engine.clear()
        with self._state_lock:
            self._store.clear()
            self._history.clear()
            if self._versions_seen is not None:
                self._store[self._store_key(self._versions_seen)] = (
                    self._cache
                )

    def set_scoring(self, scoring) -> None:
        raise ValueError(
            "a sharded coordinator fixes its scoring at the shards; "
            "rebuild the shard databases (or their sessions) to re-score"
        )

    def merge_stats(self) -> MergeStatsSnapshot:
        """Counters of the incremental merge engine (snapshot, subtractable)."""
        return self._engine.stats()

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        """Result-cache token: the shard-version vector, not a generation.

        The coordinator answers purely from shard state, so the per-shard
        version vector (plus the coordinator's own
        generation, which :meth:`invalidate` bumps) is the invalidation
        signal -- a single-shard update changes the vector and naturally
        misses the cache, while unrelated shards' entries stay servable.
        ``versions`` pins the token at an explicit vector (the serving
        executor passes the vector captured at request ingress).
        """
        if versions is None:
            versions = self._database.versions()
        vector = tuple(versions)
        return ("sharded", self._session_token, self._generation, vector)

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def at(self, versions: Optional[Sequence[int]] = None) -> "SnapshotReader":
        """A read-only session pinned at one shard-version vector.

        ``versions`` is a per-shard version tuple as returned by
        :meth:`~repro.models.sharded.ShardedDatabase.versions` (default:
        the current vector).  The reader answers every query exactly as
        the coordinator did at that vector, even while updates publish
        newer vectors concurrently; once the vector leaves the bounded
        snapshot history, reads raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
        """
        return SnapshotReader(self, versions)

    def _archive_shard(self, shard: Any) -> None:
        """Archive a shard's state just before its version is bumped.

        Called by the owning database with the *outgoing* state still
        live, so pinned readers that resolve the old version find whatever
        the shard had already built there -- worst case just its columns.
        """
        archive = _ShardArchive(shard)
        with self._state_lock:
            history = self._history.setdefault(shard.index, OrderedDict())
            history[shard.version] = archive
            history.move_to_end(shard.version)
            while len(history) > self._snapshot_history:
                history.popitem(last=False)
                self._engine.counters["snapshot_evictions"] += 1

    def _archived(self, index: int, version: int) -> Optional[_ShardArchive]:
        with self._state_lock:
            history = self._history.get(index)
            return history.get(version) if history is not None else None

    def _archive_lookup(self, index: int, version: int) -> _ShardArchive:
        archive = self._archived(index, version)
        if archive is None:
            raise SnapshotTooOldError(
                f"shard {index} version {version} is no longer in the "
                f"coordinator's snapshot history (depth "
                f"{self._snapshot_history}); re-pin at the current vector"
            )
        return archive

    # ------------------------------------------------------------------
    # The merged relation
    # ------------------------------------------------------------------
    @property
    def _columns(self) -> FlatColumns:
        """The merged columns of every shard, a memoized artifact of the
        vector; the inherited session code reads them."""
        return self._memoized("merged_columns", (), self._merge_columns)

    def _merge_columns(self) -> FlatColumns:
        """Patch the shared base's probabilities, or merge anew when a
        score, key or value moved.

        The patch base is the engine's ``layout_base``: one coordinator's
        engine is shared by every reader, so each live read publishes its
        ``(shard columns, source rows, merged columns)`` triple for the
        next one, and a probability-only update costs one gather of the
        shards' probability columns whichever reader meets it first.
        """
        parts = [shard.columns for shard in self._shards()]
        base = self._engine.layout_base
        if (
            parts
            and base is not None
            and len(parts) == len(base[0])
            and all(old.same_rows(new) for new, old in zip(parts, base[0]))
        ):
            _, rows, columns = base
            backend = columns.backend
            probabilities = [part.probabilities for part in parts]
            columns = columns.with_probabilities(
                backend.take_rows(backend.concatenate(probabilities), rows)
            )
            self._engine.counters["layout_patches"] += 1
        else:
            columns, rows = FlatColumns.merge(parts)
            if self._validate_scores:
                _check_cross_shard_ties(columns)
            self._engine.counters["layout_rebuilds"] += 1
        if not self._superseded():
            # A superseded reader only reads the base, as it merges through
            # a throwaway engine: publishing its older rows would make the
            # next live read patch them back.
            with self._state_lock:
                self._engine.layout_base = (parts, rows, columns)
        return columns

    # ------------------------------------------------------------------
    # The merged rank matrix
    # ------------------------------------------------------------------
    def rank_matrix(self, max_rank: Optional[int] = None) -> RankMatrix:
        """The exact global rank matrix, merged by convolving shard partials."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "rank_matrix",
            (max_rank,),
            lambda: self._merged_rank_matrix(max_rank),
        )

    def _merged_rank_matrix(self, max_rank: int) -> RankMatrix:
        backend = get_backend()
        # The merge carries the cross-shard validation (tied scores);
        # building it first means a direct rank_matrix() call fails as
        # loudly as every other read.
        columns = self._columns
        shards: List[Any] = []
        summaries: List[ShardRankSummary] = []
        for shard in self._shards():
            summary = shard.summary(max_rank)
            if summary.number_of_tuples() > 0:
                shards.append(shard)
                summaries.append(summary)
        if not summaries:
            return RankMatrix([], backend.matrix_from_rows([]), backend, max_rank)
        if (
            len(summaries) == 1
            and getattr(self._database, "executor", "threads") == "threads"
        ):
            # A single shard needs no merging; serve its own (memoized)
            # matrix so the coordinator adds zero overhead.  (On the pool
            # path the shard session lives in a worker, so the merge below
            # runs from the shipped summary instead.)
            return shards[0].session().rank_matrix(max_rank)
        live = self._merge_engine().merge(
            summaries,
            max_rank,
            columns.backend.take_rows(columns.scores, columns.order),
            columns.keys,
            backend,
        )
        # The engine hands over the merged live rows only; the matrix
        # treats the rows past them as zero.  Patched columns share one key
        # list and key index, so every re-merged matrix reuses them instead
        # of rebuilding an n-entry dict.
        return RankMatrix(
            columns.keys,
            live,
            backend,
            max_rank,
            key_index=columns.key_index,
        )

    def _superseded(self) -> bool:
        """Whether this session reads a superseded version vector."""
        return False

    def _merge_engine(self) -> MergeEngine:
        """The engine that merges this session's shard summaries."""
        if not self._superseded():
            return self._engine
        # A throwaway engine: stale reads must not replace the live
        # engine's cached partials, which current traffic keeps reusing.
        self._engine.counters["merges"] += 1
        self._engine.counters["rebuild_merges"] += 1
        return MergeEngine()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedQuerySession({self.shard_count} shards, "
            f"entries={len(self._cache)}, hits={self._hits}, "
            f"misses={self._misses}, generation={self._generation})"
        )


class SnapshotReader(ShardedQuerySession):
    """A read-only coordinator view pinned at one shard-version vector.

    Shares the parent coordinator's bounded per-vector artifact store (two
    readers at the same vector reuse each other's merged artifacts, and a
    reader at the live vector shares the coordinator's own cache) and its
    per-shard archive history.  A reader whose vector is still live merges
    through the parent's incremental engine; once any pinned shard version
    is superseded the reader resolves archived shard states and merges
    through a throwaway engine, so stale reads never thrash the live
    partial products.  The merged columns work the same way: every reader
    patches the parent's one shared patch base, and only a live reader
    publishes its result back.  Readers never mutate shard state; writers
    never wait for readers.
    """

    def __init__(
        self, parent: ShardedQuerySession, versions: Optional[Sequence[int]]
    ) -> None:
        self._parent = parent
        self._database = parent._database
        self._validate_scores = parent._validate_scores
        self._snapshot_history = parent._snapshot_history
        self._scoring = None
        self._adopted = False
        self._use_fast_path = True
        # Shared MVCC state: one store, one history, one engine.
        self._engine = parent._engine
        self._store = parent._store
        self._history = parent._history
        self._state_lock = parent._state_lock
        self._init_cache_state()
        if versions is None:
            pinned = tuple(self._database.versions())
        else:
            pinned = tuple(versions)
            if len(pinned) != len(self._database.shards()):
                raise ValueError(
                    f"version vector of length {len(pinned)} does not "
                    f"match {len(self._database.shards())} shards"
                )
        self._pinned = pinned
        self._versions_seen = pinned
        self._cache = parent._cache_for(pinned)
        self._engine.counters["snapshot_reads"] += 1

    # -- pinned-version plumbing ---------------------------------------
    @property
    def pinned_versions(self) -> Any:
        """The shard-version vector this reader answers at."""
        return self._pinned

    def _sync(self) -> None:
        # A pinned reader never swaps artifact stores.
        return None

    def _read_stamp(self) -> Any:
        # Pinned reads resolve every shard at the pinned version (live, or
        # its archive once superseded), so they never mix states.
        return None

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        # Answers computed through a pinned reader are the parent
        # coordinator's answers at the pinned vector; sharing the
        # parent's token keeps reader- and coordinator-computed entries
        # interchangeable in one result cache.
        if versions is None:
            versions = self._pinned
        return self._parent.version_token(versions)

    def _live(self) -> bool:
        return tuple(self._database.versions()) == self._pinned

    def invalidate(self) -> None:
        # Drop only this reader's (possibly shared) artifact entry.
        QuerySession.invalidate(self)

    def at(self, versions: Optional[Sequence[int]] = None) -> "SnapshotReader":
        return self._parent.at(versions)

    # -- pinned shard resolution ---------------------------------------
    def _superseded(self) -> bool:
        """Whether any pinned shard version has been replaced since the pin.

        Live pins read through the coordinator's own paths.
        """
        return not self._live()

    def _shards(self) -> List[Any]:
        """Archives for the shards updated since the pin; the others are
        read live, each through a :class:`_PinnedShard` check."""
        shards: List[Any] = []
        for shard in self._database.shards():
            pinned = self._pinned[shard.index]
            if shard.version != pinned:
                archive = self._parent._archive_lookup(shard.index, pinned)
                if archive.columns.values:
                    shards.append(archive)
            elif not shard.is_empty:
                shards.append(_PinnedShard(shard, pinned, self._parent))
        return shards

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotReader(pinned={self._pinned!r}, "
            f"entries={len(self._cache)}, live={self._live()})"
        )


def _check_cross_shard_ties(columns: FlatColumns) -> None:
    """Reject equal scores on rows of different keys of merged columns
    (each shard validated only its own rows), then mark them checked."""
    tie = first_score_tie(
        columns.backend, columns.scores, columns.blocks, columns.order
    )
    if tie is not None:
        first, second = map(columns.alternative, tie)
        raise ModelError(
            f"tuples {first.key!r} and {second.key!r} of different shards "
            f"share score {float(columns.scores[tie[0]])}; ranking assumes "
            "distinct scores"
        )
    columns.tie_free = True
