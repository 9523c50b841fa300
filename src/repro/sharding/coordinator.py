"""The cross-shard coordinator session.

:class:`ShardedQuerySession` is a :class:`~repro.session.QuerySession`
drop-in built over the per-shard sessions of a partitioned database.  It
never materializes a global tree for statistics: the rank generating
function of independent shards factorizes, so the coordinator recovers the
exact global ``Pr(r(t) = i)`` matrix by convolving each tuple's *local*
rank polynomial (its own shard, own block excluded) with the other shards'
count-above-threshold partials (:class:`~repro.sharding.summary.\
ShardRankSummary`).  For all-tuple-independent shardings the whole merge is
a handful of batched backend kernels (row gathers + row-aligned truncated
convolutions); block-independent shards take an equivalent scalar path.

Every consensus algorithm of :mod:`repro.consensus` then runs unchanged at
the coordinator -- the Top-k answers under the symmetric-difference,
intersection, footrule and (via the merged pairwise grid) Kendall metrics
are computed from merged statistics and are semantically identical to a
single unsharded session over the same data.

Two properties make the coordinator honest under sustained mixed traffic:

* **Incremental merging** (``merge_mode="incremental"``, the default): the
  merge runs through :class:`~repro.sharding.merge.MergeEngine`, which
  keeps prefix/suffix partial products of the per-shard count-above
  polynomials on one shared score grid, keyed by per-shard version tokens.
  A full merge is O(S) row convolutions and a single-shard update
  recomputes only the partial-product rows containing that shard.
  ``merge_mode="rebuild"`` keeps the legacy from-scratch O(S²) merge (used
  by parity tests and as the baseline of the update-latency benchmarks).
* **MVCC snapshot reads**: merged artifacts are memoized *per version
  vector* in a small bounded store, and :meth:`at` returns a
  :class:`SnapshotReader` pinned at one vector.  Updates publish a new
  vector (the owning database archives the outgoing shard state first),
  so in-flight readers keep answering from their pinned snapshot without
  blocking or racing the writer; a reader whose vector has been evicted
  raises :class:`~repro.exceptions.SnapshotTooOldError`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import PairwisePreferenceMatrix, RankMatrix, get_backend
from repro.exceptions import ModelError, SnapshotTooOldError
from repro.session import QuerySession, as_session
from repro.sharding.merge import MergeEngine, MergeStatsSnapshot
from repro.sharding.summary import ShardRankSummary, shard_layout


class _MergedLayout:
    """Light per-coordinator index of the merged key/alternative space."""

    __slots__ = (
        "keys_order",
        "presence",
        "alternatives",
        "best_score",
        "triples",
        "independent",
        "key_to_session",
        "grid_scores",
    )

    def __init__(
        self,
        keys_order: List[Hashable],
        presence: Dict[Hashable, float],
        alternatives: Dict[Hashable, List[Tuple[float, float]]],
        best_score: Dict[Hashable, float],
        triples: List[Tuple[float, float, Hashable]],
        independent: bool,
        key_to_session: Dict[Hashable, QuerySession],
        grid_scores: List[float],
    ) -> None:
        self.keys_order = keys_order
        self.presence = presence
        self.alternatives = alternatives
        self.best_score = best_score
        self.triples = triples
        self.independent = independent
        self.key_to_session = key_to_session
        self.grid_scores = grid_scores


class _VersionEntry:
    """Memoized merged artifacts of one version vector."""

    __slots__ = ("cache", "statistics", "merged_tree")

    def __init__(
        self,
        cache: Dict[Any, Any],
        statistics: Optional[RankStatistics],
        merged_tree: Optional[AndXorTree],
    ) -> None:
        self.cache = cache
        self.statistics = statistics
        self.merged_tree = merged_tree


class _ShardArchive:
    """One shard's frozen state at a historical version.

    Created by the owning database right before an update swaps the
    shard's units, so readers pinned at the outgoing version can still
    resolve it.  Whatever warm artifacts exist at archive time -- the live
    session on the in-process path, the pool's cached layout and summaries
    on the process path -- are adopted; anything missing is rebuilt lazily
    from the archived units.
    """

    __slots__ = (
        "index",
        "version",
        "units",
        "owner",
        "_session",
        "_fragment",
        "_summaries",
    )

    def __init__(self, shard: Any) -> None:
        self.index = shard.index
        self.version = shard.version
        self.units = shard.units  # a copy, by DatabaseShard contract
        self.owner = shard._owner
        self._session: Optional[QuerySession] = None
        self._fragment: Optional[Any] = None
        self._summaries: Dict[int, ShardRankSummary] = {}

    def session(self) -> Optional[QuerySession]:
        """The archived shard session (rebuilt from units when cold)."""
        if self._session is None and self.units:
            database = self.owner._build_shard_database(
                self.index, self.units
            )
            self._session = QuerySession(database.columns)
        return self._session

    def layout_fragment(self) -> Optional[Any]:
        if self._fragment is None and self.units:
            self._fragment = shard_layout(self.session())
        return self._fragment

    def summary(self, max_rank: int) -> ShardRankSummary:
        cached = self._summaries.get(max_rank)
        if cached is None:
            if self._session is not None or self._fragment is None:
                cached = self.session().partial_rank_summary(max_rank)
            else:
                cached = ShardRankSummary.from_layout(
                    self._fragment, max_rank
                )
            self._summaries[max_rank] = cached
        return cached


class ShardedQuerySession(QuerySession):
    """Coordinator session merging statistics across database shards.

    Parameters
    ----------
    shards:
        Either a :class:`~repro.models.sharded.ShardedDatabase` (the
        coordinator then follows its shard versions, swapping to a fresh
        per-vector artifact store whenever a shard is updated) or an
        iterable of per-shard sources (trees, :class:`RankStatistics` or
        sessions) with disjoint tuple keys.
    validate_scores:
        Require pairwise-distinct scores *across* shards (each shard only
        validates its own); the merge semantics assume the paper's no-ties
        ranking.
    merge_mode:
        ``"incremental"`` (default) merges through the prefix/suffix
        partial-product engine; ``"rebuild"`` keeps the legacy from-scratch
        merge on every call.
    snapshot_history:
        How many version vectors (and per-shard archived states) to retain
        for pinned snapshot readers; older pins raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
    """

    def __init__(
        self,
        shards: Any,
        validate_scores: bool = True,
        merge_mode: str = "incremental",
        snapshot_history: int = 4,
    ) -> None:
        if hasattr(shards, "sessions") and hasattr(shards, "versions"):
            self._database: Optional[Any] = shards
            self._static_sessions: Optional[List[QuerySession]] = None
        else:
            if isinstance(shards, (AndXorTree, RankStatistics, QuerySession)):
                raise TypeError(
                    "expected a ShardedDatabase or an iterable of shard "
                    "sources; a single database has nothing to merge"
                )
            self._database = None
            self._static_sessions = [
                as_session(source) for source in shards
            ]
        if merge_mode not in ("incremental", "rebuild"):
            raise ValueError(
                f"unknown merge_mode {merge_mode!r}; expected "
                "'incremental' or 'rebuild'"
            )
        self._validate_scores = validate_scores
        self._merge_mode = merge_mode
        self._snapshot_history = max(1, int(snapshot_history))
        self._scoring = None
        self._adopted = False
        self._use_fast_path = True
        self._statistics: Optional[RankStatistics] = None
        self._merged_tree: Optional[AndXorTree] = None
        self._versions_seen: Optional[Tuple[Any, ...]] = None
        self._engine = MergeEngine()
        self._store: "OrderedDict[Any, _VersionEntry]" = OrderedDict()
        self._history: Dict[int, "OrderedDict[int, _ShardArchive]"] = {}
        self._state_lock = threading.Lock()
        self._last_fragments: Optional[List[Any]] = None
        self._last_layout: Optional[_MergedLayout] = None
        self._rank_key_index: Optional[Tuple[Any, Dict[Hashable, int]]] = None
        self._init_cache_state()

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _shard_sessions(self) -> List[QuerySession]:
        if self._database is not None:
            return list(self._database.sessions())
        assert self._static_sessions is not None
        return self._static_sessions

    def _process_pool(self) -> Optional[Any]:
        """The database's started worker pool under ``executor="processes"``.

        ``None`` in every other configuration; when a pool is live the
        coordinator must not touch :meth:`_shard_sessions` on its merge
        paths -- that would rebuild every shard in the parent process and
        forfeit exactly the work the pool moved out.
        """
        if (
            self._database is not None
            and getattr(self._database, "executor", "threads") == "processes"
        ):
            return self._database.process_pool()
        return None

    def _shard_fragments(self) -> List[Tuple[Any, Any]]:
        """``(layout_fragment, session_provider)`` per non-empty shard.

        The provider is a live :class:`~repro.session.QuerySession` on the
        in-process path, or the owning
        :class:`~repro.models.sharded.DatabaseShard` on the process-pool
        path (resolved lazily -- and only -- by the tree-level fallbacks).
        """
        pool = self._process_pool()
        if pool is not None:
            shards = self._database.shards()
            return [
                (fragment, shards[index])
                for index, fragment in pool.layouts()
            ]
        return [
            (shard_layout(session), session)
            for session in self._shard_sessions()
        ]

    @staticmethod
    def _resolve_session(provider: Any) -> QuerySession:
        if isinstance(provider, QuerySession):
            return provider
        return provider.session()

    @property
    def shard_count(self) -> int:
        """Number of (non-empty) shards behind the coordinator."""
        if self._database is not None:
            return sum(
                1 for shard in self._database.shards() if not shard.is_empty
            )
        return len(self._shard_sessions())

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner."""
        return "sharded"

    def layout_kind(self) -> str:
        """Model layout, read off a shard (never off the merged tree).

        All shards of one database share a layout by construction, so the
        first shard session answers for the whole coordinator without
        materializing the merged tree.
        """
        if self._process_pool() is not None:
            fragments = self._shard_fragments()
            if not fragments:
                return "general"
            # Shard layouts are TI or BID by construction (anything else
            # is rejected at extraction time on the worker).
            return (
                "tuple-independent" if fragments[0][0].independent else "bid"
            )
        sessions = self._shard_sessions()
        if not sessions:
            return "general"
        return sessions[0].layout_kind()

    def _current_versions(self) -> Tuple[Any, ...]:
        if self._database is not None:
            shard_versions: Tuple[Any, ...] = tuple(self._database.versions())
        else:
            shard_versions = ()
        if self._process_pool() is not None:
            # Worker sessions live behind the pool; the shard versions
            # (bumped by every committed update) are the whole signal.
            return (shard_versions, ())
        generations = tuple(
            session.generation for session in self._shard_sessions()
        )
        return (shard_versions, generations)

    # ------------------------------------------------------------------
    # Version store (MVCC)
    # ------------------------------------------------------------------
    def _store_key(self, versions: Tuple[Any, ...]) -> Any:
        """Store key of a full version vector.

        Database-backed coordinators key by the shard-version tuple (the
        public vector that :meth:`at` pins and the executor captures);
        static coordinators have no shard versions, so the session
        generations carry the whole signal.
        """
        if self._database is not None:
            return versions[0]
        return versions

    def _entry(self) -> _VersionEntry:
        return _VersionEntry(self._cache, self._statistics, self._merged_tree)

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
                self._store[self._store_key(versions)] = self._entry()
                self._trim_store_locked()
        elif versions != self._versions_seen:
            self._swap_to(versions)

    def _swap_to(self, versions: Tuple[Any, ...]) -> None:
        old_key = self._store_key(self._versions_seen)
        new_key = self._store_key(versions)
        with self._state_lock:
            current = self._store.get(old_key)
            if current is not None and current.cache is self._cache:
                # Write the lazily-built singletons back so readers pinned
                # at the outgoing vector reuse them.
                current.statistics = self._statistics
                current.merged_tree = self._merged_tree
            entry = self._store.get(new_key) if new_key != old_key else None
            if entry is None:
                # Same shard versions but a shard session was invalidated
                # in place (new_key == old_key), or a vector never seen:
                # either way the artifacts must be rebuilt.
                entry = _VersionEntry({}, None, None)
            self._store[new_key] = entry
            self._store.move_to_end(new_key)
            self._cache = entry.cache
            self._statistics = entry.statistics
            self._merged_tree = entry.merged_tree
            self._trim_store_locked()
        self._versions_seen = versions
        # Version swaps keep the legacy invalidation contract observable:
        # memoized plans and callers watching `generation` re-validate.
        self._generation += 1

    def _trim_store_locked(self) -> None:
        while len(self._store) > self._snapshot_history:
            key = next(iter(self._store))
            entry = self._store[key]
            if entry.cache is self._cache:
                if len(self._store) == 1:
                    break
                self._store.move_to_end(key)
                continue
            del self._store[key]
            self._engine.counters["snapshot_evictions"] += 1

    def _entry_for(self, pinned: Any) -> _VersionEntry:
        """Get-or-create the artifact entry of one pinned vector."""
        with self._state_lock:
            entry = self._store.get(pinned)
            if entry is None:
                entry = _VersionEntry({}, None, None)
                self._store[pinned] = entry
            self._store.move_to_end(pinned)
            self._trim_store_locked()
            return entry

    def _memoized(self, artifact, params, compute):
        self._sync()
        return super()._memoized(artifact, params, compute)

    def invalidate(self) -> None:
        """Drop every merged artifact, snapshot entry and cached partial."""
        super().invalidate()
        self._merged_tree = None
        self._engine.clear()
        self._last_fragments = None
        self._last_layout = None
        with self._state_lock:
            self._store.clear()
            self._history.clear()
            if self._versions_seen is not None:
                self._store[self._store_key(self._versions_seen)] = (
                    self._entry()
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

        Database-backed coordinators answer purely from shard state, so
        the per-shard version vector (plus the coordinator's own
        generation, which :meth:`invalidate` bumps) is the invalidation
        signal -- a single-shard update changes the vector and naturally
        misses the cache, while unrelated shards' entries stay servable.
        ``versions`` pins the token at an explicit vector (the serving
        executor passes the vector captured at request ingress).
        """
        if versions is not None:
            vector: Any = tuple(versions)
        elif self._database is not None:
            vector = tuple(self._database.versions())
        else:
            vector = self._current_versions()
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
        live, so pinned readers that resolve the old version find either
        the warm session (in-process path) or the pool's cached layout
        and summaries (process path) -- worst case the raw units.
        """
        archive = _ShardArchive(shard)
        pool = None
        if (
            self._database is not None
            and getattr(self._database, "executor", "threads") == "processes"
        ):
            pool = getattr(self._database, "_pool", None)
            if pool is not None and getattr(pool, "closed", False):
                pool = None
        if pool is not None:
            archive._fragment = pool.cached_layout(shard.index)
            archive._summaries = pool.cached_summaries(shard.index)
        else:
            session = shard._session
            if session is not None:
                archive._session = session
        with self._state_lock:
            history = self._history.setdefault(shard.index, OrderedDict())
            history[shard.version] = archive
            history.move_to_end(shard.version)
            while len(history) > self._snapshot_history:
                history.popitem(last=False)
                self._engine.counters["snapshot_evictions"] += 1

    def _archive_lookup(self, index: int, version: int) -> _ShardArchive:
        with self._state_lock:
            history = self._history.get(index)
            archive = history.get(version) if history is not None else None
        if archive is None:
            raise SnapshotTooOldError(
                f"shard {index} version {version} is no longer in the "
                f"coordinator's snapshot history (depth "
                f"{self._snapshot_history}); re-pin at the current vector"
            )
        return archive

    # ------------------------------------------------------------------
    # Merged layout
    # ------------------------------------------------------------------
    def _summaries_and_tokens(
        self, max_rank: int
    ) -> Tuple[List[ShardRankSummary], List[Any]]:
        """Per-shard summaries plus content-faithful version tokens.

        The tokens key the merge engine's cached partial products, so a
        token may only repeat when the summary content is identical.  On
        the process path the worker's own state counter is authoritative
        (it changes atomically with the worker's committed state); on the
        in-process path the (version, generation) pair is re-checked after
        the summary is built so a concurrent swap cannot mislabel it.
        """
        pool = self._process_pool()
        if pool is not None:
            rows = pool.summaries_with_tokens(max_rank)
            return [row[1] for row in rows], [row[2] for row in rows]
        summaries: List[ShardRankSummary] = []
        tokens: List[Any] = []
        if self._database is not None:
            for shard in self._database.shards():
                if shard.is_empty:
                    continue
                for _ in range(8):
                    version = shard.version
                    session = shard.session()
                    summary = session.partial_rank_summary(max_rank)
                    if shard.version == version and shard._session is session:
                        break
                summaries.append(summary)
                tokens.append((version, session.generation))
            return summaries, tokens
        assert self._static_sessions is not None
        for index, session in enumerate(self._static_sessions):
            summaries.append(session.partial_rank_summary(max_rank))
            tokens.append((index, session.generation))
        return summaries, tokens

    def _summaries(self, max_rank: int) -> List[ShardRankSummary]:
        summaries, _ = self._summaries_and_tokens(max_rank)
        return summaries

    def _layout(self) -> _MergedLayout:
        return self._memoized("merged_layout", (), self._build_layout)

    def _remember_layout(
        self, fragments: List[Tuple[Any, Any]], layout: _MergedLayout
    ) -> _MergedLayout:
        self._last_fragments = [fragment for fragment, _ in fragments]
        self._last_layout = layout
        return layout

    def _patched_layout(
        self, fragments: List[Tuple[Any, Any]]
    ) -> Optional[_MergedLayout]:
        """Patch the previous merged layout when no score moved.

        A probability-only update keeps every score (hence the global
        grid, the triple positions and the key order) in place, so the new
        layout is the old one with the changed shards' dictionaries and
        triple rows substituted -- no global re-sort, no re-validation.
        Returns ``None`` whenever a full rebuild is required.
        """
        previous = self._last_layout
        cached = self._last_fragments
        if (
            previous is None
            or cached is None
            or len(fragments) != len(cached)
        ):
            return None
        changed: List[Tuple[Any, Any, Any]] = []
        for index, (fragment, provider) in enumerate(fragments):
            old = cached[index]
            if fragment is old:
                continue
            if (
                fragment.independent != old.independent
                or fragment.scores != old.scores
                or fragment.keys != old.keys
            ):
                return None
            changed.append((fragment, old, provider))
        if not changed:
            return previous
        backend = get_backend()
        presence = dict(previous.presence)
        alternatives = dict(previous.alternatives)
        triples = list(previous.triples)
        for fragment, _, provider in changed:
            presence.update(fragment.presence)
            alternatives.update(fragment.alternatives)
            # A shard's scores are a subsequence of the (unchanged) grid,
            # so each alternative's global position is its strict-above
            # count there -- one backend sweep per changed shard.
            positions = backend.descending_prefix_lengths(
                previous.grid_scores, fragment.scores
            )
            for position, triple in zip(positions, fragment.key_triples):
                triples[position] = triple
        # Scores and keys are unchanged by precondition, so the best-score
        # and key-ownership maps carry over without copying.
        return _MergedLayout(
            previous.keys_order,
            presence,
            alternatives,
            previous.best_score,
            triples,
            previous.independent,
            previous.key_to_session,
            previous.grid_scores,
        )

    def _build_layout(self) -> _MergedLayout:
        fragments = self._shard_fragments()
        patched = self._patched_layout(fragments)
        if patched is not None:
            self._engine.counters["layout_patches"] += 1
            return self._remember_layout(fragments, patched)
        presence: Dict[Hashable, float] = {}
        alternatives: Dict[Hashable, List[Tuple[float, float]]] = {}
        best_score: Dict[Hashable, float] = {}
        key_to_session: Dict[Hashable, Any] = {}
        independent = True
        per_shard_triples: List[List[Tuple[float, float, Hashable]]] = []
        total = 0
        for fragment, provider in fragments:
            independent = independent and fragment.independent
            per_shard_triples.append(fragment.key_triples)
            # Bulk dictionary merges: the per-shard fragments are memoized
            # (on their sessions, or in the pool's version-keyed cache), so
            # after one shard's update only that shard re-extracts and
            # this loop is C-speed dict work.
            presence.update(fragment.presence)
            alternatives.update(fragment.alternatives)
            best_score.update(fragment.best_score)
            key_to_session.update(
                dict.fromkeys(fragment.keys, provider)
            )
            total += len(fragment.keys)
        if len(presence) != total:
            counts: Dict[Hashable, int] = {}
            for fragment, _ in fragments:
                for key in fragment.keys:
                    counts[key] = counts.get(key, 0) + 1
            duplicates = sorted(
                repr(key) for key, count in counts.items() if count > 1
            )
            raise ModelError(
                f"tuple keys {duplicates} appear in more than one shard"
            )
        # One global decreasing-score stream of (score, probability, key):
        # each shard's list is already sorted, so Timsort merges the
        # concatenated runs in near-linear time (scores are distinct, so
        # plain reverse tuple order never compares the trailing fields).
        triples: List[Tuple[float, float, Hashable]] = []
        for shard_triples in per_shard_triples:
            triples.extend(shard_triples)
        triples.sort(reverse=True)
        if self._validate_scores:
            for first, second in zip(triples, triples[1:]):
                if first[0] == second[0] and first[2] != second[2]:
                    raise ModelError(
                        f"tuples {first[2]!r} and {second[2]!r} of different "
                        f"shards share score {first[0]}; ranking assumes "
                        "distinct scores"
                    )
        # Global key order = first appearance in the merged decreasing-score
        # stream, i.e. decreasing best-alternative score (scores are
        # distinct, so no tie-break is needed and no extra sort is paid).
        keys_order: List[Hashable] = []
        seen: Dict[Hashable, bool] = {}
        for _, _, key in triples:
            if key not in seen:
                seen[key] = True
                keys_order.append(key)
        self._engine.counters["layout_rebuilds"] += 1
        return self._remember_layout(
            fragments,
            _MergedLayout(
                keys_order,
                presence,
                alternatives,
                best_score,
                triples,
                independent,
                key_to_session,
                [score for score, _, _ in triples],
            ),
        )

    # ------------------------------------------------------------------
    # Database accessors (merged, no global statistics object)
    # ------------------------------------------------------------------
    @property
    def _tree(self) -> AndXorTree:
        """Merged and/xor tree, built lazily from the shard trees.

        Only the consensus routes that genuinely need a tree (set-level
        consensus worlds, the BID median dynamic program, world sampling)
        touch this; the rank/pairwise statistics never do.  The shard
        root children are reused, so construction is index building only.
        """
        self._sync()  # a shard update must not serve a stale merged tree
        if self._merged_tree is None:
            children = []
            for session in self._shard_sessions():
                root = session.tree.root
                if not isinstance(root, AndNode):
                    raise ModelError(
                        "sharded sessions require and-rooted shard trees"
                    )
                children.extend(root.children())
            self._layout()  # validates key disjointness and score ties
            self._merged_tree = AndXorTree(AndNode(children), validate=False)
        return self._merged_tree

    @property
    def statistics(self) -> RankStatistics:
        """Global fallback statistics over the merged tree (kept fresh).

        Only the tree-level fallbacks (e.g. :meth:`sampler`) use this; the
        sync guard mirrors :attr:`_tree` so a shard update can never serve
        stale global statistics either.
        """
        self._sync()
        return QuerySession.statistics.fget(self)  # type: ignore[attr-defined]

    def keys(self) -> List[Hashable]:
        return list(self._layout().keys_order)

    def number_of_tuples(self) -> int:
        return len(self._layout().keys_order)

    def score_of(self, alternative: TupleAlternative) -> float:
        provider = self._layout().key_to_session.get(alternative.key)
        if provider is None:
            raise ModelError(f"unknown tuple key {alternative.key!r}")
        return self._resolve_session(provider).score_of(alternative)

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        provider = self._layout().key_to_session.get(key)
        if provider is None:
            raise ModelError(f"unknown tuple key {key!r}")
        return self._resolve_session(provider).alternatives_of(key)

    def best_scores(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Best alternative scores, straight off the merged layout.

        Overrides the session default so ordering candidate keys (the
        symmetric-difference presentation order, every query's answer
        assembly) never resolves shard sessions -- essential on the
        process-pool path, a cheap win in-process too.
        """
        layout = self._layout()
        missing = [key for key in keys if key not in layout.best_score]
        if missing:
            raise ModelError(
                f"unknown tuple keys {sorted(map(repr, missing))}"
            )
        return {key: layout.best_score[key] for key in keys}

    def independent_tuple_layout(
        self,
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        layout = self._layout()
        if not layout.independent:
            return None
        return [
            (key, probability, score)
            for score, probability, key in layout.triples
        ]

    # ------------------------------------------------------------------
    # Merged statistics artifacts
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
        # The layout carries the cross-shard validation (duplicate keys,
        # tied scores); building it first means a direct rank_matrix()
        # call fails as loudly as every other merged artifact.
        layout = self._layout()
        all_summaries, all_tokens = self._summaries_and_tokens(max_rank)
        summaries: List[ShardRankSummary] = []
        tokens: List[Any] = []
        for summary, token in zip(all_summaries, all_tokens):
            if summary.number_of_tuples() > 0:
                summaries.append(summary)
                tokens.append(token)
        if not summaries:
            return RankMatrix([], backend.matrix_from_rows([]), backend, max_rank)
        if len(summaries) == 1 and self._process_pool() is None:
            # A single shard needs no merging; serve its own (memoized)
            # matrix so the coordinator adds zero overhead.  (On the pool
            # path the shard session lives in a worker, so the merge below
            # runs from the shipped summary instead.)
            only = self._shard_sessions()
            for session in only:
                if session.number_of_tuples() > 0:
                    return session.rank_matrix(max_rank)
        if self._merge_mode == "incremental":
            keys, native = self._engine.merge(
                summaries,
                tokens,
                max_rank,
                layout.grid_scores,
                layout.keys_order,
                backend,
            )
            # The engine returns the *same* key-order list across
            # incremental re-merges, so the n-entry position index is
            # shared instead of rebuilt for every updated matrix.
            cached = self._rank_key_index
            if cached is None or cached[0] is not keys:
                cached = (keys, {k: row for row, k in enumerate(keys)})
                self._rank_key_index = cached
            return RankMatrix(
                list(keys), native, backend, max_rank, key_index=cached[1]
            )
        self._engine.counters["merges"] += 1
        self._engine.counters["rebuild_merges"] += 1
        if all(summary.is_independent for summary in summaries):
            return self._merge_independent(summaries, max_rank, backend)
        return self._merge_general(summaries, max_rank, backend)

    def _merge_independent(
        self,
        summaries: List[ShardRankSummary],
        max_rank: int,
        backend: Any,
    ) -> RankMatrix:
        """Batched merge: per shard, one row-gather + convolution per peer.

        For the ``m``-th tuple of shard ``s`` (decreasing score), the local
        rank polynomial is row ``m`` of the shard's prefix table; convolving
        it with every other shard's count-above partial at the tuple's score
        and scaling by the tuple's presence probability yields the exact
        global ``Pr(r(t) = ·)`` row.
        """
        parts: List[Any] = []
        keys: List[Hashable] = []
        row_scores: List[float] = []
        for i, summary in enumerate(summaries):
            count = summary.number_of_tuples()
            scores = summary.scores()
            acc = backend.take_rows(summary.prefix_table, list(range(count)))
            for j, other in enumerate(summaries):
                if j == i:
                    continue
                indices = other.prefix_indices(scores)
                gathered = backend.take_rows(other.prefix_table, indices)
                acc = backend.convolve_rows(acc, gathered, max_rank)
            acc = backend.scale_rows(acc, summary.probabilities())
            parts.append(acc)
            keys.extend(summary.keys())
            row_scores.extend(scores)
        native = backend.stack_matrices(parts)
        order = sorted(range(len(keys)), key=lambda row: -row_scores[row])
        native = backend.take_rows(native, order)
        keys = [keys[row] for row in order]
        return RankMatrix(keys, native, backend, max_rank)

    def _merge_general(
        self,
        summaries: List[ShardRankSummary],
        max_rank: int,
        backend: Any,
    ) -> RankMatrix:
        """Scalar merge for block-independent shards.

        ``Pr(r(t) = i) = Σ_{a ∈ alts(t)} p_a · [own shard's count-above
        score(a), t's block excluded] ⊛ [⊛ other shards' count-above
        score(a)]`` -- the per-alternative threshold matters because a BID
        tuple's realized score is itself uncertain.
        """
        rows: List[List[float]] = []
        keys: List[Hashable] = []
        row_scores: List[float] = []
        for i, summary in enumerate(summaries):
            others = [s for j, s in enumerate(summaries) if j != i]
            # Scores are globally distinct, so memoizing the others-product
            # by raw score would never hit.  What *does* repeat across a
            # shard's alternatives is the vector of prefix indices their
            # thresholds induce in the other shards: two thresholds falling
            # in the same inter-score gaps share the exact same product.
            others_products: Dict[Tuple[int, ...], List[float]] = {}
            for key in summary.keys():
                row = [0.0] * max_rank
                pairs = summary.alternatives_of(key)
                for score, probability in pairs:
                    if probability <= 0.0:
                        continue
                    own = summary.count_above_excluding(score, key)
                    if others:
                        signature = tuple(
                            other.prefix_index(score) for other in others
                        )
                        product = others_products.get(signature)
                        if product is None:
                            product = backend.polynomial_product(
                                [
                                    other.prefix_polynomial(prefix)
                                    for other, prefix in zip(
                                        others, signature
                                    )
                                ],
                                max_rank,
                            )
                            others_products[signature] = product
                        combined = backend.convolve(own, product, max_rank)
                    else:
                        combined = own
                    for index in range(min(len(combined), max_rank)):
                        row[index] += probability * combined[index]
                rows.append(row)
                keys.append(key)
                row_scores.append(max(score for score, _ in pairs))
        order = sorted(range(len(keys)), key=lambda row: -row_scores[row])
        native = backend.matrix_from_rows([rows[row] for row in order])
        keys = [keys[row] for row in order]
        return RankMatrix(keys, native, backend, max_rank)

    def preference_matrix(
        self, keys: Optional[Sequence[Hashable]] = None
    ) -> PairwisePreferenceMatrix:
        """The merged ``Pr(r(t_i) < r(t_j))`` grid.

        Distinct keys are independent both across shards and within a
        tuple-independent / BID shard, so every cell has the closed form
        ``Σ_{a ∈ alts(t_i)} p_a (1 - Pr(t_j present above score(a)))`` --
        one backend kernel for all-independent shardings.
        """
        params = (None,) if keys is None else (tuple(keys),)

        def compute() -> PairwisePreferenceMatrix:
            layout = self._layout()
            backend = get_backend()
            matrix_keys = list(
                layout.keys_order if keys is None else keys
            )
            missing = [
                key for key in matrix_keys if key not in layout.presence
            ]
            if missing:
                raise ModelError(
                    f"unknown tuple keys {sorted(map(repr, missing))}"
                )
            if layout.independent:
                native = backend.pairwise_preference_matrix(
                    [layout.presence[key] for key in matrix_keys],
                    [layout.best_score[key] for key in matrix_keys],
                )
            else:
                rows = []
                for first in matrix_keys:
                    row = []
                    for second in matrix_keys:
                        if first == second:
                            row.append(0.0)
                            continue
                        value = 0.0
                        for score, probability in layout.alternatives[first]:
                            above = sum(
                                p
                                for s, p in layout.alternatives[second]
                                if s > score
                            )
                            value += probability * (1.0 - above)
                        row.append(value)
                    rows.append(row)
                native = backend.matrix_from_rows(rows)
            return PairwisePreferenceMatrix(matrix_keys, native, backend)

        return self._memoized("preference_matrix", params, compute)

    def expected_rank_table(self) -> Dict[Hashable, float]:
        """Merged Cormode-style expected ranks (closed form, O(n log n))."""

        def compute() -> Dict[Hashable, float]:
            layout = self._layout()
            triples = layout.triples
            neg_scores = [-score for score, _, _ in triples]
            prefix_mass = [0.0]
            for _, probability, _ in triples:
                prefix_mass.append(prefix_mass[-1] + probability)
            total_presence = sum(layout.presence.values())
            from bisect import bisect_left

            table: Dict[Hashable, float] = {}
            for key in layout.keys_order:
                presence = layout.presence[key]
                higher = 0.0
                for score, probability in layout.alternatives[key]:
                    above = prefix_mass[bisect_left(neg_scores, -score)]
                    own_above = sum(
                        p
                        for s, p in layout.alternatives[key]
                        if s > score
                    )
                    higher += probability * (above - own_above)
                absent = (1.0 - presence) * (total_presence - presence)
                table[key] = 1.0 + higher + absent
            return table

        return dict(self._memoized("expected_rank_table", (), compute))

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
    from scratch, so stale reads never thrash the live partial products.
    Readers never mutate shard state; writers never wait for readers.
    """

    def __init__(
        self, parent: ShardedQuerySession, versions: Optional[Sequence[int]]
    ) -> None:
        self._parent = parent
        self._database = parent._database
        self._static_sessions = parent._static_sessions
        self._validate_scores = parent._validate_scores
        self._merge_mode = parent._merge_mode
        self._snapshot_history = parent._snapshot_history
        self._scoring = None
        self._adopted = False
        self._use_fast_path = True
        self._merged_tree = None
        self._statistics = None
        # Shared MVCC state: one store, one history, one engine.
        self._engine = parent._engine
        self._store = parent._store
        self._history = parent._history
        self._state_lock = parent._state_lock
        self._last_fragments = None
        self._last_layout = None
        self._rank_key_index = None
        self._init_cache_state()
        if self._database is not None:
            if versions is None:
                pinned: Any = tuple(self._database.versions())
            else:
                pinned = tuple(versions)
                if len(pinned) != len(self._database.shards()):
                    raise ValueError(
                        f"version vector of length {len(pinned)} does not "
                        f"match {len(self._database.shards())} shards"
                    )
        else:
            if versions is not None:
                raise ValueError(
                    "a static coordinator has no shard-version vector; "
                    "call at() without arguments to pin the current state"
                )
            pinned = parent._current_versions()
        self._pinned = pinned
        self._versions_seen = pinned
        entry = parent._entry_for(pinned)
        self._cache = entry.cache
        self._statistics = entry.statistics
        self._merged_tree = entry.merged_tree
        self._engine.counters["snapshot_reads"] += 1

    # -- pinned-version plumbing ---------------------------------------
    @property
    def pinned_versions(self) -> Any:
        """The shard-version vector this reader answers at."""
        return self._pinned

    def _sync(self) -> None:
        # A pinned reader never swaps artifact stores.
        return None

    def _current_versions(self) -> Tuple[Any, ...]:
        return self._pinned

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        # Answers computed through a pinned reader are the parent
        # coordinator's answers at the pinned vector; sharing the
        # parent's token keeps reader- and coordinator-computed entries
        # interchangeable in one result cache.
        if versions is None:
            versions = self._pinned
        return self._parent.version_token(versions)

    def _live(self) -> bool:
        if self._database is None:
            return self._parent._current_versions() == self._pinned
        return tuple(self._database.versions()) == self._pinned

    def _require_live_static(self) -> None:
        if self._parent._current_versions() != self._pinned:
            raise SnapshotTooOldError(
                "static shard sessions keep no history; this pinned "
                "snapshot predates a session invalidation"
            )

    def invalidate(self) -> None:
        # Drop only this reader's (possibly shared) artifact entry.
        QuerySession.invalidate(self)
        self._merged_tree = None

    def at(self, versions: Optional[Sequence[int]] = None) -> "SnapshotReader":
        return self._parent.at(versions)

    # -- pinned shard resolution ---------------------------------------
    def _shard_fragments(self) -> List[Tuple[Any, Any]]:
        if self._database is None:
            self._require_live_static()
            return ShardedQuerySession._shard_fragments(self)
        if self._live():
            return ShardedQuerySession._shard_fragments(self)
        pool = self._process_pool()
        live_fragments: Dict[int, Any] = (
            dict(pool.layouts()) if pool is not None else {}
        )
        fragments: List[Tuple[Any, Any]] = []
        for shard in self._database.shards():
            pinned = self._pinned[shard.index]
            if shard.version == pinned:
                if pool is not None:
                    if shard.index in live_fragments:
                        fragments.append(
                            (live_fragments[shard.index], shard)
                        )
                elif not shard.is_empty:
                    session = shard.session()
                    fragments.append((shard_layout(session), session))
            else:
                archive = self._parent._archive_lookup(shard.index, pinned)
                if archive.units:
                    fragments.append(
                        (archive.layout_fragment(), archive)
                    )
        return fragments

    def _shard_sessions(self) -> List[QuerySession]:
        if self._database is None:
            self._require_live_static()
            return ShardedQuerySession._shard_sessions(self)
        if self._live():
            return ShardedQuerySession._shard_sessions(self)
        sessions: List[QuerySession] = []
        for shard in self._database.shards():
            pinned = self._pinned[shard.index]
            if shard.version == pinned:
                if not shard.is_empty:
                    sessions.append(shard.session())
            else:
                archive = self._parent._archive_lookup(shard.index, pinned)
                if archive.units:
                    sessions.append(archive.session())
        return sessions

    def _summaries_and_tokens(
        self, max_rank: int
    ) -> Tuple[List[ShardRankSummary], List[Any]]:
        if self._database is None:
            self._require_live_static()
            return ShardedQuerySession._summaries_and_tokens(self, max_rank)
        if self._live():
            return ShardedQuerySession._summaries_and_tokens(self, max_rank)
        pool = self._process_pool()
        live_rows: Dict[int, Tuple[Any, Any]] = {}
        if pool is not None:
            live_rows = {
                index: (summary, token)
                for index, summary, token in pool.summaries_with_tokens(
                    max_rank
                )
            }
        summaries: List[ShardRankSummary] = []
        tokens: List[Any] = []
        for shard in self._database.shards():
            pinned = self._pinned[shard.index]
            if shard.version == pinned:
                if pool is not None:
                    if shard.index in live_rows:
                        summary, token = live_rows[shard.index]
                        summaries.append(summary)
                        tokens.append(token)
                elif not shard.is_empty:
                    session = shard.session()
                    summaries.append(
                        session.partial_rank_summary(max_rank)
                    )
                    tokens.append((shard.version, session.generation))
            else:
                archive = self._parent._archive_lookup(shard.index, pinned)
                if archive.units:
                    summaries.append(archive.summary(max_rank))
                    tokens.append(("archive", shard.index, pinned))
        return summaries, tokens

    def _merged_rank_matrix(self, max_rank: int) -> RankMatrix:
        if self._database is None or self._live():
            return ShardedQuerySession._merged_rank_matrix(self, max_rank)
        # Pinned at a superseded vector: merge from scratch off archived
        # shard states so stale reads cannot thrash the live engine's
        # cached partial products.
        backend = get_backend()
        self._layout()
        all_summaries, _ = self._summaries_and_tokens(max_rank)
        summaries = [
            summary
            for summary in all_summaries
            if summary.number_of_tuples() > 0
        ]
        if not summaries:
            return RankMatrix(
                [], backend.matrix_from_rows([]), backend, max_rank
            )
        self._engine.counters["merges"] += 1
        self._engine.counters["rebuild_merges"] += 1
        if all(summary.is_independent for summary in summaries):
            return self._merge_independent(summaries, max_rank, backend)
        return self._merge_general(summaries, max_rank, backend)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotReader(pinned={self._pinned!r}, "
            f"entries={len(self._cache)}, live={self._live()})"
        )
