"""Immutable declarative consensus queries.

:class:`ConsensusQuery` (aliased :data:`Query`) is the single description of
one consensus question, independent of how -- or where -- it is answered:
the paper's taxonomy pairs every distance function with an exact PTIME
algorithm, an approximation, or an NP-hardness result, and the *planner*
(:mod:`repro.query.planner`), not the caller, picks the execution path.

Queries are frozen dataclasses: every builder method returns a new object,
so queries are safely hashable -- the serving layer coalesces identical
in-flight queries by this hash, and sessions memoize plans per query.

>>> from repro.query import Query
>>> query = Query.topk(k=10).distance("kendall").epsilon(0.01)
>>> query.metric, query.mode, query.target_epsilon
('kendall', 'auto', 0.01)
>>> Query.topk(k=10) == Query.topk(k=10)
True
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ConsensusError
from repro.metrics import TOPK, WORLD

#: Query families (what object is being asked for).
FAMILIES = (
    "topk",           # consensus Top-k answer under a distance metric
    "world",          # consensus possible world (set answer)
    "membership",     # Pr(r(t) <= k) per tuple
    "expected_ranks", # the expected-rank table
    "ranking",        # baseline ranking semantics (Global-Top-k, ...)
    "aggregate",      # consensus group-by count answers (Section 6.1)
)

#: Distance metrics valid for Top-k queries (Section 5).
TOPK_DISTANCES = tuple(TOPK)

#: Distance metrics valid for world (set-consensus) queries (Section 4).
WORLD_DISTANCES = tuple(WORLD)

#: Consensus statistics (mean minimizes expected distance; median picks the
#: best *possible* answer).
STATISTICS = ("mean", "median")

#: Execution modes.  ``auto`` delegates the choice to the planner; the
#: others force one of the paper's routes.
MODES = ("auto", "exact", "approximate", "sample")

#: Baseline ranking semantics for the ``ranking`` family.
RANKING_SEMANTICS = ("global", "expected_rank")


#: The named query kinds.  Each name denotes one query shape
#: ``(family, metric, statistic, mode, semantics)``:
#: :meth:`ConsensusQuery.named` builds it and :attr:`ConsensusQuery.kind`
#: reads it back.  Kind strings label serving metrics and traffic mixes,
#: so the names never change.
NAMED_KINDS: Dict[str, Tuple[str, Optional[str], str, str, Optional[str]]] = {
    "mean_topk_symmetric_difference": (
        "topk", "symmetric_difference", "mean", "auto", None,
    ),
    "median_topk_symmetric_difference": (
        "topk", "symmetric_difference", "median", "auto", None,
    ),
    "mean_topk_footrule": ("topk", "footrule", "mean", "auto", None),
    "mean_topk_intersection": ("topk", "intersection", "mean", "auto", None),
    "approximate_topk_intersection": (
        "topk", "intersection", "mean", "approximate", None,
    ),
    "approximate_topk_kendall": (
        "topk", "kendall", "mean", "approximate", None,
    ),
    "top_k_membership": ("membership", None, "mean", "auto", None),
    "expected_rank_table": ("expected_ranks", None, "mean", "auto", None),
    "global_topk": ("ranking", None, "mean", "auto", "global"),
    "expected_rank_topk": ("ranking", None, "mean", "auto", "expected_rank"),
}

_NAMES_BY_SHAPE = {shape: name for name, shape in NAMED_KINDS.items()}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sorted_params(params: Any) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(params, dict):
        return tuple(sorted(params.items()))
    return tuple(sorted(tuple(params)))


@dataclass(frozen=True)
class ConsensusQuery:
    """One declarative consensus query (immutable, hashable).

    Build instances through the class-method constructors
    (:meth:`named`, :meth:`topk`, :meth:`set_consensus`, :meth:`jaccard`,
    :meth:`membership`, :meth:`expected_ranks`, :meth:`ranking`,
    :meth:`aggregate`) and refine them with the chaining builder methods
    (:meth:`distance`, :meth:`mean` / :meth:`median`, :meth:`exact` /
    :meth:`approximate` / :meth:`sampled`, :meth:`epsilon`,
    :meth:`confidence`, :meth:`with_params`); every builder call returns a
    *new* query.

    Attributes
    ----------
    family:
        One of :data:`FAMILIES`.
    k:
        Answer size for ``topk`` / ``membership`` / ``ranking`` queries.
    metric:
        Distance function; see :data:`TOPK_DISTANCES` /
        :data:`WORLD_DISTANCES`.  Set via :meth:`distance`.
    statistic:
        ``"mean"`` or ``"median"``.
    mode:
        Execution mode (:data:`MODES`); ``"auto"`` lets the planner choose
        exact kernels for PTIME distances and Monte-Carlo estimation for
        NP-hard ones.
    target_epsilon:
        Confidence-interval half-width driving Monte-Carlo sample sizing
        (set via :meth:`epsilon`).
    confidence_level:
        Confidence level of that interval (default 0.95).
    sample_cap:
        Upper bound on Monte-Carlo samples (set via :meth:`sampled`).
    semantics:
        Baseline semantics for the ``ranking`` family
        (:data:`RANKING_SEMANTICS`).
    params:
        Canonically-sorted extra parameters (e.g. ``candidate_pool_size``
        for the Kendall pivot route).
    """

    family: str
    k: Optional[int] = None
    metric: Optional[str] = None
    statistic: str = "mean"
    mode: str = "auto"
    target_epsilon: Optional[float] = None
    confidence_level: float = 0.95
    sample_cap: Optional[int] = None
    semantics: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConsensusError(
                f"unknown query family {self.family!r}; expected one of "
                f"{FAMILIES}"
            )
        if self.statistic not in STATISTICS:
            raise ConsensusError(
                f"unknown statistic {self.statistic!r}; expected one of "
                f"{STATISTICS}"
            )
        if self.mode not in MODES:
            raise ConsensusError(
                f"unknown execution mode {self.mode!r}; expected one of "
                f"{MODES}"
            )
        if self.k is not None and (not _is_int(self.k) or self.k < 1):
            raise ConsensusError(
                f"answer size k must be a positive integer, got {self.k!r}"
            )
        if self.target_epsilon is not None and not _is_real(
            self.target_epsilon
        ):
            raise ConsensusError(
                f"epsilon must be a number, got {self.target_epsilon!r}"
            )
        if not _is_real(self.confidence_level):
            raise ConsensusError(
                f"confidence level must be a number, got "
                f"{self.confidence_level!r}"
            )
        if self.sample_cap is not None and not _is_int(self.sample_cap):
            raise ConsensusError(
                f"sample cap must be an integer, got {self.sample_cap!r}"
            )
        if self.family != "ranking" and self.semantics is not None:
            raise ConsensusError(
                "semantics is only valid for the 'ranking' family"
            )
        if self.family == "topk":
            if self.k is None:
                raise ConsensusError(
                    "a topk query requires an answer size k"
                )
            if self.metric not in TOPK_DISTANCES:
                raise ConsensusError(
                    f"unknown Top-k distance {self.metric!r}; expected one "
                    f"of {TOPK_DISTANCES}"
                )
            record = TOPK[self.metric]
            if self.statistic == "median" and record.median is None:
                raise ConsensusError(
                    f"median Top-k answers are only implemented for "
                    f"{tuple(n for n, m in TOPK.items() if m.median)} "
                    f"(got {self.metric!r})"
                )
            if self.mode == "approximate" and record.approximation is None:
                raise ConsensusError(
                    f"no approximation algorithm exists for the "
                    f"{self.metric!r} metric (approximations: "
                    f"{tuple(n for n, m in TOPK.items() if m.approximation)})"
                )
        elif self.family == "world":
            if self.metric not in WORLD_DISTANCES:
                raise ConsensusError(
                    f"unknown world distance {self.metric!r}; expected one "
                    f"of {WORLD_DISTANCES}"
                )
            if self.mode not in ("auto", "exact"):
                raise ConsensusError(
                    f"world queries only support the auto/exact modes, "
                    f"got {self.mode!r}"
                )
        else:
            if self.metric is not None:
                raise ConsensusError(
                    f"the {self.family!r} family takes no distance metric"
                )
            if self.mode not in ("auto", "exact"):
                raise ConsensusError(
                    f"the {self.family!r} family only supports the "
                    f"auto/exact modes, got {self.mode!r}"
                )
            if self.family in ("membership", "ranking") and self.k is None:
                raise ConsensusError(
                    f"a {self.family!r} query requires an answer size k"
                )
            if (
                self.family == "ranking"
                and self.semantics not in RANKING_SEMANTICS
            ):
                raise ConsensusError(
                    f"unknown ranking semantics {self.semantics!r}; "
                    f"expected one of {RANKING_SEMANTICS}"
                )
            if self.family != "aggregate" and self.statistic == "median":
                raise ConsensusError(
                    f"the {self.family!r} family has no median variant"
                )
        if self.target_epsilon is not None:
            if self.family != "topk":
                raise ConsensusError(
                    "epsilon (Monte-Carlo CI half-width) is only "
                    "meaningful for Top-k queries"
                )
            if not self.target_epsilon > 0.0:
                raise ConsensusError(
                    f"epsilon must be positive, got {self.target_epsilon}"
                )
        if not 0.0 < self.confidence_level < 1.0:
            raise ConsensusError(
                f"confidence level must lie in (0, 1), got "
                f"{self.confidence_level}"
            )
        if self.sample_cap is not None and self.sample_cap < 1:
            raise ConsensusError(
                f"sample cap must be positive, got {self.sample_cap}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def named(
        cls, name: str, k: Optional[int] = None, **params: Any
    ) -> "ConsensusQuery":
        """The query one of the :data:`NAMED_KINDS` denotes.

        Every name but ``expected_rank_table`` needs an answer size; that
        one carries ``k`` when given even though execution ignores it.
        """
        shape = NAMED_KINDS.get(name)
        if shape is None:
            raise ConsensusError(
                f"unknown query kind {name!r}; expected one of "
                f"{sorted(NAMED_KINDS)}"
            )
        family, metric, statistic, mode, semantics = shape
        if k is None and family != "expected_ranks":
            raise ConsensusError(
                f"query kind {name!r} requires an answer size k"
            )
        return cls(
            family=family,
            k=k,
            metric=metric,
            statistic=statistic,
            mode=mode,
            semantics=semantics,
            params=_sorted_params(params),
        )

    @classmethod
    def topk(
        cls, k: int, distance: str = "symmetric_difference"
    ) -> "ConsensusQuery":
        """A consensus Top-k query (Section 5); mean statistic by default."""
        return cls(family="topk", k=k, metric=distance)

    @classmethod
    def world(
        cls, distance: str = "symmetric_difference", statistic: str = "mean"
    ) -> "ConsensusQuery":
        """A consensus-world (set answer) query (Section 4)."""
        return cls(family="world", metric=distance, statistic=statistic)

    @classmethod
    def set_consensus(cls, statistic: str = "mean") -> "ConsensusQuery":
        """Consensus world under the symmetric difference (Theorem 2 / DP)."""
        return cls.world("symmetric_difference", statistic)

    @classmethod
    def jaccard(cls, statistic: str = "mean") -> "ConsensusQuery":
        """Consensus world under the Jaccard distance (Lemmas 1-2)."""
        return cls.world("jaccard", statistic)

    @classmethod
    def membership(cls, k: int) -> "ConsensusQuery":
        """The Top-k membership probabilities ``Pr(r(t) <= k)``."""
        return cls(family="membership", k=k)

    @classmethod
    def expected_ranks(cls) -> "ConsensusQuery":
        """The expected-rank table of every tuple."""
        return cls(family="expected_ranks")

    @classmethod
    def ranking(cls, semantics: str, k: int) -> "ConsensusQuery":
        """A baseline ranking-semantics answer (:data:`RANKING_SEMANTICS`)."""
        return cls(family="ranking", k=k, semantics=semantics)

    @classmethod
    def aggregate(cls, statistic: str = "mean") -> "ConsensusQuery":
        """Consensus group-by count answers (Section 6.1).

        Executed against a BID database whose blocks are exhaustive and
        whose alternative values name the groups (see
        :meth:`repro.consensus.aggregates.GroupByCountConsensus.from_bid_tree`).
        """
        return cls(family="aggregate", statistic=statistic)

    # ------------------------------------------------------------------
    # Chaining builders (each returns a new query)
    # ------------------------------------------------------------------
    def distance(self, metric: str) -> "ConsensusQuery":
        """Replace the distance metric."""
        return replace(self, metric=metric)

    def with_k(self, k: int) -> "ConsensusQuery":
        """Replace the answer size."""
        return replace(self, k=k)

    def mean(self) -> "ConsensusQuery":
        """Ask for the mean answer (minimum expected distance)."""
        return replace(self, statistic="mean")

    def median(self) -> "ConsensusQuery":
        """Ask for the median answer (best *possible* answer)."""
        return replace(self, statistic="median")

    def exact(self) -> "ConsensusQuery":
        """Force the exact execution route."""
        return replace(self, mode="exact")

    def approximate(self) -> "ConsensusQuery":
        """Force the paper's approximation algorithm."""
        return replace(self, mode="approximate")

    def sampled(self, samples: Optional[int] = None) -> "ConsensusQuery":
        """Force the Monte-Carlo route, optionally capping the samples."""
        return replace(self, mode="sample", sample_cap=samples)

    def epsilon(self, value: float) -> "ConsensusQuery":
        """Target confidence-interval half-width for Monte-Carlo routes."""
        return replace(self, target_epsilon=value)

    def confidence(self, level: float) -> "ConsensusQuery":
        """Confidence level of the Monte-Carlo interval (default 0.95)."""
        return replace(self, confidence_level=level)

    def with_params(self, **params: Any) -> "ConsensusQuery":
        """Merge extra parameters (canonically sorted, hash-stable)."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=_sorted_params(merged))

    def param(self, name: str, default: Any = None) -> Any:
        """Read one extra parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The memoized hash must not travel across processes: string
        # hashes are salted per interpreter (PYTHONHASHSEED), so an
        # unpickled query carrying the sender's hash would violate the
        # hash/eq contract against locally built equal queries.
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        # Queries are hashed on every serving dispatch (coalescing keys,
        # plan-cache lookups); cache the field-tuple hash on first use.
        cached = getattr(self, "_hash_cache", None)
        if cached is None:
            cached = hash(
                (
                    self.family,
                    self.k,
                    self.metric,
                    self.statistic,
                    self.mode,
                    self.target_epsilon,
                    self.confidence_level,
                    self.sample_cap,
                    self.semantics,
                    self.params,
                )
            )
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    @property
    def kind(self) -> str:
        """Canonical kind string (the serving layer's metric label).

        A query of one of the :data:`NAMED_KINDS` shapes (mode ``exact``
        counting as ``auto``) returns that name; anything else gets a
        structured ``family:metric:statistic:mode`` name.
        """
        shape = (
            self.family,
            self.metric,
            self.statistic,
            "auto" if self.mode == "exact" else self.mode,
            self.semantics,
        )
        name = _NAMES_BY_SHAPE.get(shape)
        if name is not None:
            return name
        parts = [self.family, self.metric or "-", self.statistic, self.mode]
        return ":".join(parts)

    def fingerprint(self) -> str:
        """A stable hex digest of the query's canonical form.

        Unlike :func:`hash` this survives process restarts, so it can key
        persistent result caches or appear in wire protocols.  Memoized on
        the instance: result-cache lookups fingerprint every submission.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None:
            return cached
        canonical = repr(
            (
                self.family,
                self.k,
                self.metric,
                self.statistic,
                self.mode,
                self.target_epsilon,
                self.confidence_level,
                self.sample_cap,
                self.semantics,
                self.params,
            )
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        object.__setattr__(self, "_fingerprint_cache", digest)
        return digest

    # ------------------------------------------------------------------
    # Execution (delegates to the planner)
    # ------------------------------------------------------------------
    def plan(self, target: Any) -> Any:
        """Plan this query against ``target`` (see :class:`ExecutionPlan`)."""
        from repro.query.planner import DEFAULT_PLANNER, resolve_session

        session, deployment = resolve_session(target)
        return DEFAULT_PLANNER.plan_for(self, session, deployment)

    def explain(self, target: Any) -> str:
        """Render the chosen execution path without running the query."""
        return self.plan(target).explain()

    def execute(
        self, target: Any, planner: Any = None, rng: Any = None
    ) -> Any:
        """Execute against ``target`` and return a :class:`QueryAnswer`.

        ``target`` is anything :func:`repro.connect` accepts: a database, a
        tree, a (sharded) session, a sharded database or a serving
        executor.  ``rng`` feeds the randomized routes (pivot tie-breaking,
        Monte-Carlo estimation) without entering the query's identity.
        """
        from repro.query.planner import DEFAULT_PLANNER, resolve_session

        active = planner if planner is not None else DEFAULT_PLANNER
        session, deployment = resolve_session(target)
        plan = active.plan_for(self, session, deployment)
        return plan.execute(rng=rng)


#: The public builder alias: ``Query.topk(k=10).distance("kendall")``.
Query = ConsensusQuery
