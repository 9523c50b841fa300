"""Query-session layer: shared statistics across consensus queries.

The paper's workload is many consensus queries -- Top-k answers under the
symmetric difference / intersection / footrule / Kendall metrics, Jaccard and
set consensus worlds, parameterized ranking functions, baseline semantics --
asked against the *same* probabilistic database.  Every one of those
algorithms consumes a small set of expensive shared artifacts: the batched
:class:`~repro.engine.RankMatrix`, its cumulative view, the Top-k membership
vector, the :class:`~repro.engine.PairwisePreferenceMatrix`, the
expected-rank table and the Jaccard prefix scan.

:class:`QuerySession` computes each artifact lazily, memoizes it, and hands
backend-native views to every consumer, so a warm session answers a second
consensus query (a different distance over the same tree) without
recomputing anything.  Cache behaviour is observable through
:attr:`QuerySession.cache_hits` / :attr:`QuerySession.cache_misses` /
:meth:`QuerySession.cache_info`, and :meth:`QuerySession.invalidate` (or
:meth:`QuerySession.set_scoring`) drops every artifact when the scores
change so stale statistics are never served.

The session memoizes statistics, never answers: the consensus algorithms
are the functions of :mod:`repro.consensus` and :mod:`repro.baselines`, and
each accepts a session wherever it accepts a tree or
:class:`~repro.andxor.rank_probabilities.RankStatistics` (passing a tree
builds a throwaway session).  Completed answers are cached once, by the
query layer's :class:`~repro.query.results.ResultCache`.

>>> from repro import QuerySession, TupleIndependentDatabase
>>> from repro.consensus import (
...     mean_topk_footrule, mean_topk_symmetric_difference,
... )
>>> database = TupleIndependentDatabase(
...     [("t1", 90, 0.6), ("t2", 80, 1.0), ("t3", 70, 0.5)]
... )
>>> session = QuerySession(database.tree)
>>> mean_topk_symmetric_difference(session, 2)[0]  # cold: computes
('t1', 't2')
>>> mean_topk_footrule(session, 2)[0]              # warm: reuses rank matrix
('t1', 't2')
>>> session.cache_hits > 0
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.columns import FlatColumns
from repro.andxor.rank_probabilities import RankStatistics, ScoringFunction
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import PairwisePreferenceMatrix, RankMatrix, get_backend
from repro.exceptions import UnknownKeyError

SessionSource = Union[AndXorTree, FlatColumns, RankStatistics, "QuerySession"]

#: Cache key of one memoized artifact: (artifact name, parameter tuple).
ArtifactKey = Tuple[str, Tuple[Any, ...]]

#: Process-wide session identities for result-cache keys.  ``id()`` is
#: unsafe (addresses are recycled after garbage collection); a monotone
#: counter never aliases two sessions within one process.
_SESSION_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class ArtifactCounters:
    """Hit/miss counters of one memoized artifact family."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        """Total artifact requests (hits + misses)."""
        return self.hits + self.misses

    def __getitem__(self, field_name: str) -> int:
        # Mapping-style access keeps pre-dataclass consumers working.
        if field_name in ("hits", "misses"):
            return getattr(self, field_name)
        raise KeyError(field_name)

    def __add__(self, other: "ArtifactCounters") -> "ArtifactCounters":
        return ArtifactCounters(
            self.hits + other.hits, self.misses + other.misses
        )


@dataclass(frozen=True)
class CacheInfo:
    """Stable snapshot of a session's cache counters.

    Returned by :meth:`QuerySession.cache_info` (and, rolled up with a
    sharded database's worker sessions, by
    :meth:`repro.models.sharded.ShardedDatabase.cache_info`).
    Field access is the API; ``info["hits"]``-style mapping access is kept
    for source compatibility with the pre-dataclass dictionary form.
    """

    hits: int = 0
    misses: int = 0
    entries: int = 0
    generation: int = 0
    backend: str = ""
    artifacts: Mapping[str, ArtifactCounters] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Total artifact requests (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when idle)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def __getitem__(self, field_name: str) -> Any:
        if field_name in (
            "hits", "misses", "entries", "generation", "backend", "artifacts"
        ):
            return getattr(self, field_name)
        raise KeyError(field_name)

    def __add__(self, other: "CacheInfo") -> "CacheInfo":
        """Roll two snapshots up into one (per-artifact counters merged)."""
        merged: Dict[str, ArtifactCounters] = dict(self.artifacts)
        for name, counters in other.artifacts.items():
            merged[name] = merged.get(name, ArtifactCounters()) + counters
        backend = self.backend if self.backend else other.backend
        if other.backend and other.backend != backend:
            backend = "mixed"
        return CacheInfo(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            entries=self.entries + other.entries,
            generation=self.generation + other.generation,
            backend=backend,
            artifacts=merged,
        )


class QuerySession:
    """Memoized statistics shared by every consensus query on one database.

    Parameters
    ----------
    source:
        The and/xor tree, the :class:`~repro.andxor.columns.FlatColumns` of
        a tuple-independent / BID relation (its tree is then built only by
        the world-level, sampling and general routes), or an existing
        :class:`~repro.andxor.rank_probabilities.RankStatistics` to adopt.
    scoring:
        Optional scoring function overriding
        :meth:`~repro.core.tuples.TupleAlternative.effective_score`.  Only
        allowed when ``source`` is a tree (an adopted statistics object
        already fixed its scores).
    validate_scores:
        Forwarded to :class:`RankStatistics`: require pairwise-distinct
        scores across tuples (the paper's no-ties assumption).
    """

    #: The tree or flat columns the session reads (None on the sharded
    #: coordinator, whose :attr:`_columns` is its database's store).
    _source: Union[AndXorTree, FlatColumns, None] = None
    _statistics: Optional[RankStatistics] = None

    def __init__(
        self,
        source: SessionSource,
        scoring: Optional[ScoringFunction] = None,
        validate_scores: bool = True,
    ) -> None:
        if isinstance(source, QuerySession):
            raise TypeError(
                "source is already a QuerySession; use it directly "
                "(or repro.session.as_session)"
            )
        if isinstance(source, RankStatistics):
            if scoring is not None:
                raise ValueError(
                    "cannot re-score an existing RankStatistics; pass the "
                    "tree instead"
                )
            self._source = source._given_tree or source._columns
            self._statistics = source
            self._adopted = True
            # Adopt the statistics object's construction settings so that
            # invalidate() rebuilds an equivalent object (same scoring,
            # same validation / fast-path flags) rather than the defaults.
            scoring = source._scoring
            validate_scores = source._validate_scores_flag
            self._use_fast_path = source._use_fast_path_flag
        elif isinstance(source, (AndXorTree, FlatColumns)):
            self._source = source
            self._statistics = None
            self._adopted = False
            self._use_fast_path = True
        else:
            raise TypeError(
                "expected an AndXorTree, FlatColumns or RankStatistics, got "
                f"{type(source).__name__}"
            )
        self._scoring = scoring
        self._validate_scores = validate_scores
        self._init_cache_state()

    def _init_cache_state(self) -> None:
        """Initialise the memoization machinery (shared with subclasses)."""
        self._cache: Dict[ArtifactKey, Any] = {}
        self._hits = 0
        self._misses = 0
        self._artifact_hits: Dict[str, int] = {}
        self._artifact_misses: Dict[str, int] = {}
        self._generation = 0
        self._session_token = next(_SESSION_TOKENS)
        self._cache_backend = get_backend().name

    # ------------------------------------------------------------------
    # Cache machinery
    # ------------------------------------------------------------------
    def _memoized(
        self, artifact: str, params: Tuple[Any, ...], compute: Callable[[], Any]
    ) -> Any:
        backend = get_backend().name
        if backend != self._cache_backend:
            # The compute backend switched under a warm session: every
            # cached artifact is shaped for the previous backend's
            # kernels (numpy arrays vs list-of-lists), so the whole
            # cache rebuilds.  The generation bump also rotates the
            # session's version token, keeping result caches from
            # replaying answers across the switch.
            self.invalidate()
            self._cache_backend = backend
        key: ArtifactKey = (artifact, params)
        if key in self._cache:
            self._hits += 1
            self._artifact_hits[artifact] = (
                self._artifact_hits.get(artifact, 0) + 1
            )
            return self._cache[key]
        self._misses += 1
        self._artifact_misses[artifact] = (
            self._artifact_misses.get(artifact, 0) + 1
        )
        stamp = self._read_stamp()
        value = compute()
        if self._read_stamp() == stamp:
            self._cache[key] = value
        return value

    def _read_stamp(self) -> Any:
        """What a computed artifact depends on beyond this session's own
        state.  An artifact whose stamp moved while it was computed is
        returned but not memoized: it may mix states.  A local session
        reads only its own source, so the stamp never moves."""
        return None

    @property
    def cache_hits(self) -> int:
        """Number of artifact requests served from the session cache."""
        return self._hits

    @property
    def cache_misses(self) -> int:
        """Number of artifact requests that had to compute."""
        return self._misses

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`invalidate` / :meth:`set_scoring` call."""
        return self._generation

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        """A hashable token identifying the state answers depend on.

        Result caches key completed answers by query fingerprint plus
        this token: any change that could alter an answer -- an
        :meth:`invalidate`, a :meth:`set_scoring`, or (on the sharded
        coordinator, which overrides this) a shard version bump -- must
        change the token, so stale answers are never served.  The session
        token keeps two sessions' entries distinct inside one shared
        cache.  ``versions`` is accepted for signature compatibility with
        the sharded override; a local session has no shard vector.
        """
        return ("local", self._session_token, self._generation)

    def cache_info(self) -> CacheInfo:
        """Aggregate and per-artifact hit/miss counters plus backend name.

        Returns a stable :class:`CacheInfo` dataclass (mapping-style access
        is kept for compatibility with the earlier dictionary form).
        """
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._cache),
            generation=self._generation,
            backend=get_backend().name,
            artifacts={
                name: ArtifactCounters(
                    hits=self._artifact_hits.get(name, 0),
                    misses=self._artifact_misses.get(name, 0),
                )
                for name in sorted(
                    set(self._artifact_hits) | set(self._artifact_misses)
                )
            },
        )

    def invalidate(self) -> None:
        """Drop every memoized artifact (and the statistics cache behind it).

        Call after anything that changes the scores the session was built
        with; the next artifact request recomputes from the tree instead of
        serving stale results.  Hit/miss counters are cumulative across
        invalidations; :attr:`generation` records how often the session was
        reset.
        """
        self._cache.clear()
        self._statistics = None
        self._generation += 1

    def set_scoring(self, scoring: Optional[ScoringFunction]) -> None:
        """Replace the scoring function and invalidate every artifact.

        Only allowed on sessions built from a tree: a session that adopted
        an existing :class:`RankStatistics` must stay score-consistent with
        it, because module-level calls against that statistics object route
        through this session.
        """
        if self._adopted:
            raise ValueError(
                "cannot re-score a session adopting an existing "
                "RankStatistics (module-level calls against that object "
                "share this session); build a QuerySession from the tree "
                "instead"
            )
        self._scoring = scoring
        self.invalidate()

    # ------------------------------------------------------------------
    # Database accessors
    # ------------------------------------------------------------------
    @property
    def tree(self) -> AndXorTree:
        """The underlying and/xor tree (built on first use from columns)."""
        return self._tree

    @property
    def _tree(self) -> AndXorTree:
        columns = self._columns
        return self._source if columns is None else columns.tree

    @property
    def _columns(self) -> Optional[FlatColumns]:
        """The flat columns the session reads, else None (overridden by
        the sharded coordinator, which reads its database's store)."""
        source = self._source
        return source if isinstance(source, FlatColumns) else None

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner (``local`` here;
        overridden by the sharded coordinator)."""
        return "local"

    def layout_kind(self) -> str:
        """``tuple-independent`` / ``bid`` / ``general`` model layout.

        The query planner uses this to match queries against the paper's
        model-specific results (e.g. Lemma 2's tuple-independent prefix
        structure for the mean Jaccard world).  Detection is structural
        first (score-free, so set-level queries work on unscored trees);
        trees the builders did not shape may still expose a
        tuple-independent layout through the rank statistics.
        """
        from repro.query.planner import layout_of_tree

        columns = self._columns
        if columns is not None:
            return "tuple-independent" if columns.independent else "bid"
        kind = layout_of_tree(self._tree)
        if kind == "general":
            try:
                if self.statistics.is_independent:
                    return "tuple-independent"
            except TypeError:
                pass  # unscored tree: set-level queries only
        return kind

    def execute(self, query: Any, rng: Any = None) -> Any:
        """Execute a :class:`~repro.query.ConsensusQuery` on this session.

        Returns a :class:`~repro.query.QueryAnswer`; the planner picks the
        execution path (see :meth:`explain`).
        """
        return query.execute(self, rng=rng)

    def explain(self, query: Any) -> str:
        """Render the planner's execution path for a query on this session."""
        return query.explain(self)

    @property
    def statistics(self) -> RankStatistics:
        """The rank statistics the session is built on (lazily created,
        and created again when :attr:`_columns` returns other columns)."""
        columns = self._columns
        statistics = self._statistics
        if statistics is None or (
            columns is not None and statistics._columns is not columns
        ):
            statistics = RankStatistics(
                self._tree if columns is None else columns,
                validate_scores=self._validate_scores,
                use_fast_path=self._use_fast_path,
                scoring=self._scoring,
            )
            self._statistics = statistics
        return statistics

    def keys(self) -> List[Hashable]:
        """The tuple keys of the database."""
        return self.statistics.keys()

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        """The alternatives of one tuple key (read off the columns of a
        flat relation, the sharded coordinator's store included, so no
        tree is built)."""
        columns = self._columns
        if columns is not None:
            return columns.alternatives_of(key)
        return self._tree.alternatives_of(key)

    def number_of_tuples(self) -> int:
        """Number of distinct tuple keys (structural: no scores needed)."""
        columns = self._columns
        if columns is not None:
            return len(columns.keys)
        return len(self._tree.keys())

    def score_of(self, alternative: TupleAlternative) -> float:
        """The ranking score of an alternative under the active scoring."""
        return self.statistics.score_of(alternative)

    def best_scores(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Best (maximum) alternative score per tuple key.

        The hot consumer is :func:`repro.consensus.topk.common.\
        order_by_score`, which orders a handful of answer keys.  Flat
        columns (the sharded coordinator's store too) answer from
        their score order, where answer keys sit near the top, so neither
        a key index nor a tree is built.
        """
        columns = self._columns
        if columns is not None and self._scoring is None:
            return _best_scores_by_order(columns, keys)
        return {
            key: max(
                self.score_of(alternative)
                for alternative in self.alternatives_of(key)
            )
            for key in keys
        }

    def independent_tuple_layout(
        self,
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        """``(key, probability, score)`` triples for tuple-independent
        databases (sorted by decreasing score), else None."""
        return self.statistics.independent_tuple_layout()

    def _validate_k(self, k: int) -> int:
        # Lazy import: common imports this module at load time, so the
        # shared validator (one source of truth for the rule and its error
        # messages) can only be pulled in here, at call time.
        from repro.consensus.topk.common import validate_k

        return validate_k(self, k)

    # ------------------------------------------------------------------
    # Shared statistics artifacts
    # ------------------------------------------------------------------
    def rank_matrix(self, max_rank: Optional[int] = None) -> RankMatrix:
        """The memoized ``n_tuples × max_rank`` rank-probability matrix."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "rank_matrix",
            (max_rank,),
            lambda: self.statistics.rank_matrix(max_rank),
        )

    def cumulative_rank_matrix(
        self, max_rank: Optional[int] = None
    ) -> RankMatrix:
        """The memoized cumulative (``Pr(r(t) <= i)``) view."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "cumulative_rank_matrix",
            (max_rank,),
            lambda: self.rank_matrix(max_rank).cumulative(),
        )

    def top_k_membership(self, k: int) -> Dict[Hashable, float]:
        """``Pr(r(t) <= k)`` per key, memoized per ``k``."""
        self._validate_k(k)
        return dict(
            self._memoized(
                "top_k_membership",
                (k,),
                lambda: self.rank_matrix(k).membership(),
            )
        )

    def preference_matrix(
        self, keys: Optional[Sequence[Hashable]] = None
    ) -> PairwisePreferenceMatrix:
        """The memoized pairwise-preference grid over ``keys`` (default all)."""
        params = (None,) if keys is None else (tuple(keys),)
        return self._memoized(
            "preference_matrix",
            params,
            lambda: self.statistics.preference_matrix(keys),
        )

    def expected_rank_table(self) -> Dict[Hashable, float]:
        """The memoized Cormode-style expected rank of every tuple."""
        return dict(
            self._memoized(
                "expected_rank_table",
                (),
                lambda: self.statistics.expected_rank_table(),
            )
        )

    def footrule_statistics(self, k: int) -> Any:
        """The memoized Υ1/Υ2/Υ3 footrule tables of Section 5.4."""

        def compute() -> Any:
            from repro.consensus.topk.footrule import FootruleStatistics

            return FootruleStatistics(self, k)

        return self._memoized("footrule_statistics", (k,), compute)

    def sampler(self) -> Any:
        """The memoized batched Monte-Carlo sampler for this database.

        Returns a :class:`repro.engine.MonteCarloSampler` whose flattened
        tree layout is computed once and reused by every warm batch; the
        sampler inherits the session's scoring function, if one is set (the
        leaves' effective scores otherwise), and is dropped (like every
        artifact) by :meth:`invalidate` / :meth:`set_scoring`.
        Randomness is controlled per call (``rng=`` / integer seeds) or by
        the ``REPRO_SEED`` environment variable, never memoized.
        """

        def compute() -> Any:
            from repro.engine.sampling import MonteCarloSampler

            scoring = self._scoring
            score_of = None if scoring is None else self.statistics.score_of
            return MonteCarloSampler(self._tree, score_of=score_of)

        return self._memoized("sampler", (), compute)

    def partial_rank_summary(self, max_rank: Optional[int] = None) -> Any:
        """The memoized truncated rank-polynomial summary of this database.

        Returns a :class:`repro.sharding.ShardRankSummary`: the partial
        univariate generating functions (count-above-threshold
        distributions, truncated at ``max_rank`` coefficients) that a
        sharded coordinator convolves with other shards' summaries to
        recover exact global rank probabilities without a global session.
        Only defined for tuple-independent and block-independent (BID)
        layouts -- the models whose rank generating function factorizes
        across independent shards.
        """
        if max_rank is None:
            max_rank = self.number_of_tuples()

        def compute() -> Any:
            from repro.sharding.summary import ShardRankSummary

            return ShardRankSummary(self, max_rank)

        return self._memoized("rank_partials", (max_rank,), compute)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuerySession({self._source!r}, entries={len(self._cache)}, "
            f"hits={self._hits}, misses={self._misses}, "
            f"generation={self._generation})"
        )


def _best_scores_by_order(
    columns: FlatColumns, keys: Sequence[Hashable]
) -> Dict[Hashable, float]:
    """Best score per key, read down the columns' score order.

    The first row of a key in decreasing score order is its best one, so
    the walk stops once every key was seen; it reads growing chunks of the
    order.  An unknown key raises :class:`~repro.exceptions.UnknownKeyError`,
    a ``ValueError`` as on the tree path.
    """
    wanted = set(keys)
    best: Dict[Hashable, float] = {}
    backend = columns.backend
    order = columns.order
    start, size = 0, 2 * len(wanted) + 8
    while len(best) < len(wanted) and start < len(columns.values):
        rows = backend.vector_values(
            backend.slice_rows(order, start, start + size)
        )
        blocks = backend.vector_values(columns.blocks, rows)
        scores = backend.vector_values(columns.scores, rows)
        for block, score in zip(blocks, scores):
            key = columns.keys[block]
            if key in wanted and key not in best:
                best[key] = score
        start += size
        size *= 2
    for key in keys:
        if key not in best:
            raise UnknownKeyError(f"unknown tuple key {key!r}")
    return {key: best[key] for key in keys}


def as_session(source: SessionSource) -> QuerySession:
    """Coerce a tree / statistics / session into a :class:`QuerySession`.

    An existing session is returned as-is.  A :class:`RankStatistics` gets a
    session attached to it (and reused on later coercions), so repeated
    module-level calls against the same statistics object share one warm
    cache.  A bare tree gets a fresh throwaway session.
    """
    if isinstance(source, QuerySession):
        return source
    if isinstance(source, RankStatistics):
        return source.session()
    if isinstance(source, (AndXorTree, FlatColumns)):
        return QuerySession(source)
    # Sharded databases coerce to their coordinator session, so every
    # module-level consensus function accepts one directly.
    coordinator = getattr(source, "coordinator", None)
    if callable(coordinator):
        session = coordinator()
        if isinstance(session, QuerySession):
            return session
    raise TypeError(
        "expected an AndXorTree, RankStatistics or QuerySession, got "
        f"{type(source).__name__}"
    )
