"""The cross-shard coordinator session.

:class:`ShardedQuerySession` is a :class:`~repro.session.QuerySession`
over a sharded database's one store: TI and BID relations are an and of
independent xor blocks, so the database keeps every shard's rows in one
:class:`~repro.andxor.columns.FlatColumns` (blocks numbered by decreasing
best score) and a shard is a row view of it.  The coordinator's relation
is the store published at its version vector, and the inherited session
code answers every read from it: keys, scores, alternatives, the
expected-rank table and the pairwise-preference grid (the flat closed
forms of :mod:`repro.andxor.rank_probabilities`), and, through the store's
lazily built tree, the world-level, aggregate and sampling routes.  The
store's own tie check (skipped once the database marked it tie-free)
guards the paper's no-ties ranking.

Only the rank matrix is merged from shard summaries.  The rank generating
function of independent shards factorizes, so the coordinator recovers the
exact global ``Pr(r(t) = i)`` matrix by convolving each tuple's *local*
rank polynomial (its own shard, own block excluded) with the other shards'
count-above-threshold partials (:class:`~repro.sharding.summary.\
ShardRankSummary`, one per shard view, memoised per shard version).  The
whole merge is a handful of batched backend kernels (row gathers +
row-aligned truncated convolutions); block-independent shards contribute
one row per alternative, collapsed per tuple.  A database with a single
non-empty shard on threads needs no merge: the inherited rank matrix of
the store is that shard's.  Every consensus algorithm of
:mod:`repro.consensus` then runs unchanged at the coordinator, with
answers identical to a single unsharded session over the same data.

Two properties make the coordinator honest under sustained mixed traffic:

* **Incremental merging**: :class:`~repro.sharding.merge.MergeEngine` is
  the one merge path.  It keeps prefix/suffix partial products of the
  per-shard count-above polynomials on one shared score grid.  A full
  merge is O(S) row convolutions, and an update re-convolves only the
  grid rows below the first alternative whose content it changed.
* **MVCC snapshot reads**: artifacts are memoized *per version vector* in
  a small bounded store, and :meth:`at` returns a :class:`SnapshotReader`
  pinned at one vector.  The database publishes ``(versions, store,
  views)`` as one unit and keeps the last superseded ones, so a reader
  resolves its immutable store once -- live, from the history, or
  :class:`~repro.exceptions.SnapshotTooOldError` -- and keeps answering
  from it without blocking or racing the writer.  A reader pinned at a
  superseded vector merges through a throwaway engine, so stale reads
  never touch the live engine's cached partials.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.andxor.columns import FlatColumns
from repro.engine import RankMatrix, get_backend
from repro.session import QuerySession
from repro.sharding.merge import MergeEngine, MergeStatsSnapshot


class ShardedQuerySession(QuerySession):
    """A session over a sharded database's store, at its version vector.

    Parameters
    ----------
    shards:
        The :class:`~repro.models.sharded.ShardedDatabase` to read.  The
        coordinator follows its published state, swapping to a fresh
        per-vector artifact store whenever a shard is updated.
    validate_scores:
        Require pairwise-distinct scores across keys (the store's own tie
        check); the merge semantics assume the paper's no-ties ranking.
    snapshot_history:
        How many version vectors' artifact caches to retain for pinned
        snapshot readers.
    """

    def __init__(
        self,
        shards: Any,
        validate_scores: bool = True,
        snapshot_history: int = 4,
    ) -> None:
        if not (hasattr(shards, "state_at") and hasattr(shards, "versions")):
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
        self._versions_seen: Optional[Tuple[int, ...]] = None
        self._engine = MergeEngine()
        # Version vector -> that vector's artifact cache dict.
        self._store: "OrderedDict[Any, Dict[Any, Any]]" = OrderedDict()
        self._state_lock = threading.Lock()
        self._init_cache_state()

    @property
    def shard_count(self) -> int:
        """Number of (non-empty) shards behind the coordinator."""
        return sum(1 for view in self._state()[2] if len(view))

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner."""
        return "sharded"

    # ------------------------------------------------------------------
    # Version store (MVCC)
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Swap artifact stores when any shard changed since the last read.

        Shard updates publish a new version vector; the coordinator
        notices lazily and rebinds to the new vector's (usually fresh)
        artifact entry.  The outgoing vector's entry stays in the bounded
        store so pinned snapshot readers keep serving from it; unchanged
        shards' memoised summaries and the merge engine's cached partial
        products stay warm either way.
        """
        versions = self._database.versions()
        if self._versions_seen is None:
            self._versions_seen = versions
            with self._state_lock:
                self._store[versions] = self._cache
                self._trim_store_locked()
        elif versions != self._versions_seen:
            with self._state_lock:
                cache = self._store.setdefault(versions, {})
                self._store.move_to_end(versions)
                self._cache = cache
                self._trim_store_locked()
            self._versions_seen = versions
            # Version swaps keep the legacy invalidation contract
            # observable: memoized plans and callers watching
            # `generation` re-validate.
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
        # the cache to; one that read a state published after it would
        # file post-update rows there, where readers pinned at that vector
        # (which share the entry) would serve them.  Once the vector
        # moved, the stamp is a fresh object that matches nothing.
        versions = self._database.versions()
        return versions if versions == self._versions_seen else object()

    def invalidate(self) -> None:
        """Drop every merged artifact, snapshot entry and cached partial."""
        super().invalidate()
        self._engine.clear()
        with self._state_lock:
            self._store.clear()
            if self._versions_seen is not None:
                self._store[self._versions_seen] = self._cache

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

    # ------------------------------------------------------------------
    # The store
    # ------------------------------------------------------------------
    def _state(self) -> Any:
        """The ``(versions, store, views)`` this session reads, a memoized
        artifact of its vector."""
        return self._memoized("state", (), self._resolve)

    def _resolve(self) -> Any:
        """The database's state to read: the live one."""
        return self._database.state()

    @property
    def _columns(self) -> FlatColumns:
        """The store at the session's vector; the inherited session code
        reads it."""
        return self._state()[1]

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
        state = self._state()
        _, store, views = state
        # The store's own tie check runs first, so a direct rank_matrix()
        # call fails as loudly as every other read.
        statistics = self.statistics
        shards = [
            shard
            for shard, view in zip(self._database.shards(), views)
            if len(view)
        ]
        if (
            len(shards) == 1
            and getattr(self._database, "executor", "threads") == "threads"
        ):
            # A single shard needs no merging: its rank matrix is the
            # store's.  (On the pool path the shard's sweep lives in a
            # worker, so the merge below runs from the shipped summary.)
            return statistics.rank_matrix(max_rank)
        summaries = [shard.summary(max_rank, state) for shard in shards]
        if not summaries:
            return RankMatrix([], backend.matrix_from_rows([]), backend, max_rank)
        live = self._merge_engine().merge(summaries, max_rank, store, backend)
        # The engine hands over the merged live rows only; the matrix
        # treats the rows past them as zero.  A probability patch of the
        # store shares its key list and key index, so every re-merged
        # matrix reuses them instead of rebuilding an n-entry dict.
        return RankMatrix(
            store.keys,
            live,
            backend,
            max_rank,
            key_index=store.key_index,
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
            f"ShardedQuerySession(entries={len(self._cache)}, "
            f"hits={self._hits}, misses={self._misses}, "
            f"generation={self._generation})"
        )


class SnapshotReader(ShardedQuerySession):
    """A read-only coordinator view pinned at one shard-version vector.

    Shares the parent coordinator's bounded per-vector artifact store (two
    readers at the same vector reuse each other's artifacts, and a reader
    at the live vector shares the coordinator's own cache).  It resolves
    its vector's immutable ``(versions, store, views)`` once, from the
    database's live state or its bounded history, and answers every query
    from it.  A reader whose vector is still live merges through the
    parent's incremental engine; once the vector is superseded the reader
    merges through a throwaway engine, so stale reads never thrash the
    live partial products.  Readers never mutate shard state; writers
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
        # Shared MVCC state: one artifact store, one engine.
        self._engine = parent._engine
        self._store = parent._store
        self._state_lock = parent._state_lock
        self._init_cache_state()
        if versions is None:
            pinned = self._database.versions()
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
        # Pinned reads read the pinned state only, so they never mix
        # states.
        return None

    def _resolve(self) -> Any:
        return self._database.state_at(self._pinned)

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        # Answers computed through a pinned reader are the parent
        # coordinator's answers at the pinned vector; sharing the
        # parent's token keeps reader- and coordinator-computed entries
        # interchangeable in one result cache.
        if versions is None:
            versions = self._pinned
        return self._parent.version_token(versions)

    def invalidate(self) -> None:
        # Drop only this reader's (possibly shared) artifact entry.
        QuerySession.invalidate(self)

    def at(self, versions: Optional[Sequence[int]] = None) -> "SnapshotReader":
        return self._parent.at(versions)

    def _superseded(self) -> bool:
        """Whether an update has superseded the pinned vector; live pins
        merge through the coordinator's own engine."""
        return self._database.versions() != self._pinned

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotReader(pinned={self._pinned!r}, "
            f"entries={len(self._cache)}, live={not self._superseded()})"
        )
