"""The hardness-aware query planner.

The paper's central contribution is a taxonomy: every consensus query /
distance-function pair comes with an exact PTIME algorithm, an
approximation with a guarantee, or an NP-hardness result that forces
Monte-Carlo estimation.  That taxonomy is declared once, one record per
distance, in :mod:`repro.metrics`; :data:`HARDNESS_MAP` is derived from
it plus the entries of the metric-free families.  :class:`Planner` reads
the records, inspects the execution target (model layout, database size,
sharding, active backend) and picks the execution path:

* **exact** -- the PTIME kernel (or, for NP-hard distances on tiny
  databases, exhaustive enumeration);
* **approximate** -- the paper's approximation algorithm (``H_k`` greedy
  for the intersection metric, pivot aggregation for Kendall tau), or an
  exact algorithm run on a layout its optimality proof does not cover
  (Lemma 2's prefix scan outside tuple-independent data);
* **sample** -- the batched :class:`~repro.engine.MonteCarloSampler` with
  confidence-interval-driven sample sizing, the fallback the hardness
  results prescribe.

Plans are memoized per session and per query (dropped when the session's
generation changes), so the planner adds one dictionary lookup to a warm
serving dispatch.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Dict, Optional, Tuple

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.baselines.ranking import expected_rank_topk, global_topk
from repro.exceptions import PlanningError
from repro.metrics import METRICS, TOPK, WORLD, Algorithm
from repro.query.builder import STATISTICS, ConsensusQuery
from repro.query.plan import (
    ExecutionPlan,
    ExecutionResult,
    HardnessEntry,
    TargetProfile,
)
from repro.session import QuerySession


# ----------------------------------------------------------------------
# The paper's hardness map
# ----------------------------------------------------------------------
#: ``(family, metric, statistic) -> HardnessEntry``.  ``explain()`` surfaces
#: these entries, naming the paper result behind every route choice.  The
#: metric rows are the claims of :mod:`repro.metrics`.
HARDNESS_MAP: Dict[Tuple[str, Optional[str], str], HardnessEntry] = {
    **{
        (m.family, m.name, statistic): m.exact(statistic).hardness
        for m in METRICS
        for statistic in STATISTICS
        if m.exact(statistic) is not None
    },
    ("membership", None, "mean"): HardnessEntry(
        "ptime",
        "Section 3",
        "Pr(r(t) <= k) falls out of the truncated rank generating "
        "functions in one backend sweep",
    ),
    ("expected_ranks", None, "mean"): HardnessEntry(
        "ptime",
        "Section 5.1",
        "expected ranks are linear functionals of the rank distribution",
    ),
    ("ranking", None, "mean"): HardnessEntry(
        "ptime",
        "Section 7 (baselines)",
        "prior Top-k ranking semantics evaluated for comparison",
    ),
    ("aggregate", None, "mean"): HardnessEntry(
        "ptime",
        "Section 6.1",
        "the mean group-by count answer is the vector of expected counts",
    ),
    ("aggregate", None, "median"): HardnessEntry(
        "approximation",
        "Section 6.1",
        "the closest possible count vector is recovered by min-cost-flow "
        "rounding of the expected counts",
    ),
}


def hardness_of(query: ConsensusQuery) -> HardnessEntry:
    """The paper's hardness result behind one query."""
    metric = query.metric if query.family in ("topk", "world") else None
    statistic = query.statistic if query.family in (
        "topk", "world", "aggregate"
    ) else "mean"
    try:
        return HARDNESS_MAP[(query.family, metric, statistic)]
    except KeyError:  # pragma: no cover - builder validation prevents this
        raise PlanningError(
            f"no hardness entry for {query.family}/{metric}/{statistic}"
        ) from None


# ----------------------------------------------------------------------
# Target resolution
# ----------------------------------------------------------------------
def resolve_session(target: Any) -> Tuple[QuerySession, str]:
    """Coerce any supported target into ``(session, deployment)``.

    Accepts a :class:`~repro.session.QuerySession` (or the sharded
    coordinator), a :class:`~repro.andxor.rank_probabilities.RankStatistics`,
    a bare :class:`~repro.andxor.tree.AndXorTree`, any
    :class:`~repro.models.relation.ProbabilisticRelation` (via its cached
    session), a :class:`~repro.models.sharded.ShardedDatabase` (via its
    coordinator), a :class:`~repro.serving.ServingExecutor` (via its
    database's coordinator) or a :class:`~repro.query.Connection`.
    """
    if isinstance(target, QuerySession):
        return target, target.deployment
    if isinstance(target, RankStatistics):
        return target.session(), "local"
    if isinstance(target, AndXorTree):
        return QuerySession(target), "local"
    # A Connection exposes its resolved session/deployment directly
    # (checked by duck-typing to avoid an import cycle with connection.py).
    session = getattr(target, "session", None)
    if isinstance(session, QuerySession):
        return session, getattr(target, "deployment", session.deployment)
    # ShardedDatabase: a coordinator() factory, no tree of its own.
    coordinator = getattr(target, "coordinator", None)
    if callable(coordinator):
        resolved = coordinator()
        if isinstance(resolved, QuerySession):
            return resolved, "sharded"
    # ServingExecutor: answers come from its database's coordinator.
    database = getattr(target, "database", None)
    if database is not None:
        inner = getattr(database, "coordinator", None)
        if callable(inner):
            resolved = inner()
            if isinstance(resolved, QuerySession):
                return resolved, "served"
    # Any relation-like object: its cached session, so repeated connects
    # against the same database share one warm session.
    query_session = getattr(target, "query_session", None)
    if callable(query_session):
        resolved = query_session()
        if isinstance(resolved, QuerySession):
            return resolved, "local"
    tree = getattr(target, "tree", None)
    if isinstance(tree, AndXorTree):
        return QuerySession(tree), "local"
    raise PlanningError(
        "cannot connect to a target of type "
        f"{type(target).__name__}; expected a database, tree, statistics, "
        "(sharded) session, sharded database or serving executor"
    )


def release_plans(session: QuerySession) -> None:
    """Drop the execution plans cached on ``session``.

    A cached plan references its session, so a session with plans is a
    reference cycle.  An owner that drops the session calls this so that
    reference counting frees it -- with every artifact it memoized --
    instead of a later full garbage collection.
    """
    session.__dict__.pop("_query_plan_cache", None)


def _layout_kind(session: QuerySession) -> str:
    """``tuple-independent`` / ``bid`` / ``general`` layout of a session."""
    probe = getattr(session, "layout_kind", None)
    if callable(probe):
        return probe()
    return layout_of_tree(session.tree)


def layout_of_tree(tree: AndXorTree) -> str:
    """Classify a tree as tuple-independent, BID, or general and/xor.

    Purely structural (matching the shapes the builders produce), so it
    never needs scores or rank statistics: an and root of single-leaf xor
    children is tuple-independent, an and root whose xor children hold
    multiple same-key leaves is BID, anything else is general.
    """
    root = tree.root
    if not isinstance(root, AndNode):
        return "general"
    layout = "tuple-independent"
    for child in root.children():
        if isinstance(child, Leaf):
            continue
        if isinstance(child, XorNode):
            grandchildren = child.children()
            if not all(
                isinstance(grandchild, Leaf) for grandchild in grandchildren
            ):
                return "general"
            keys = {leaf.alternative.key for leaf in grandchildren}
            if len(keys) > 1:
                return "general"
            if len(grandchildren) > 1:
                layout = "bid"
            continue
        return "general"
    return layout


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class Planner:
    """Hardness-aware execution planner.

    A route depends only on the query, the target's size, layout and
    deployment, the active backend and the options below: no planner
    decision reads a clock, the environment or the working directory.

    Parameters
    ----------
    kendall_exact_limit:
        Databases with at most this many tuples answer ``auto`` NP-hard
        Kendall queries exactly (exhaustive enumeration), provided the
        enumeration also fits :attr:`KENDALL_ENUMERATION_BUDGET`; other
        queries fall back to the Monte-Carlo route -- the paper's
        threshold between "enumerate" and "estimate".  The budget caps
        ``auto`` enumeration at n = 9 whatever this limit is; an explicit
        ``.exact()`` forces enumeration above both.  Defaults to
        :attr:`KENDALL_LIMIT_DEFAULT`.
    default_samples:
        Monte-Carlo samples drawn when the query sets no epsilon or cap.
    max_samples:
        Sample ceiling for CI-driven sizing (epsilon set, no explicit cap).
    batch_size:
        Samples per backend kernel call during CI-driven estimation; a
        fixed size keeps seeded RNG streams identical across hosts.

    Raises :class:`ValueError` when a sample count or the batch size is
    not a positive integer, or the Kendall limit is not a non-negative
    one.
    """

    #: The Kendall enumeration threshold.  Enumeration costs
    #: ``P(n, k) * 2^n`` operations: at n = 6 a Top-3 answer takes
    #: ~40-70 ms and a Top-5 one ~0.6 s, at n = 7 a Top-3 one ~140-220 ms
    #: (2-core x86 host, both backends); the sampled route takes 3-40 ms.
    #: Timed at k = 3, the two routes cross at n = 6-7.
    KENDALL_LIMIT_DEFAULT = 6
    #: The Kendall enumeration budget: an ``auto`` Kendall query routes
    #: exact only when ``P(n, k) * 2^n`` is at most this many operations
    #: as well as ``n <= kendall_exact_limit``.  2^13 admits n = 6 up to
    #: k = 3 (7680 operations, ~60 ms) and samples from k = 4 (23040,
    #: ~0.2 s); an explicit ``mode="exact"`` ignores it.
    KENDALL_ENUMERATION_BUDGET = 2**13
    #: The Monte-Carlo batch size (samples per kernel call).
    BATCH_SIZE_DEFAULT = 2048

    def __init__(
        self,
        kendall_exact_limit: int = KENDALL_LIMIT_DEFAULT,
        default_samples: int = 4000,
        max_samples: int = 100_000,
        batch_size: int = BATCH_SIZE_DEFAULT,
    ) -> None:
        for name, value, minimum in (
            ("kendall_exact_limit", kendall_exact_limit, 0),
            ("default_samples", default_samples, 1),
            ("max_samples", max_samples, 1),
            ("batch_size", batch_size, 1),
        ):
            if (
                not isinstance(value, numbers.Integral)
                or isinstance(value, bool)
                or value < minimum
            ):
                raise ValueError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        self.kendall_exact_limit = kendall_exact_limit
        self.default_samples = default_samples
        self.max_samples = max_samples
        self.batch_size = batch_size

    def calibration_table(self) -> None:
        """Always None: routes use the documented constants above.

        Kept only because ``perfbench/run.py`` calls it before its timed
        set-up.
        """
        return None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def plan_for(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        deployment: Optional[str] = None,
    ) -> ExecutionPlan:
        """The (memoized) execution plan for one query on one session.

        Plans are cached on the session keyed by the query's stable hash
        and dropped when the session's generation changes, so repeated
        dispatch costs one dictionary lookup.
        """
        if deployment is None:
            deployment = session.deployment
        cache: Dict[Any, ExecutionPlan] = session.__dict__.setdefault(
            "_query_plan_cache", {}
        )
        # The planner itself is part of the key: differently configured
        # planners (thresholds, sample budgets) must not serve each
        # other's routes off a shared session.
        key = (query, deployment, self)
        plan = cache.get(key)
        if plan is not None:
            # Routes depend only on the query, the target's structure
            # (size/layout/sharding -- invariant under updates and cache
            # invalidation) and the active backend; re-plan only when the
            # backend switched.
            from repro.engine import get_backend

            if plan.profile.backend == get_backend().name:
                return plan
        if len(cache) > 512:
            cache.clear()
        plan = self._build_plan(query, session, deployment)
        cache[key] = plan
        return plan

    def run(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        rng: Any = None,
    ) -> Any:
        """Plan (cached) and run, returning the raw legacy-shaped value."""
        return self.plan_for(query, session).run(rng)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile(
        self, session: QuerySession, deployment: str
    ) -> TargetProfile:
        """Inspect the target: deployment, layout, size, backend.

        Layout and size are structural (updates and invalidations never
        change them), so they are probed once per session and cached;
        only the backend name is re-read per plan build.
        """
        from repro.engine import get_backend

        probed = session.__dict__.get("_query_target_probe")
        if probed is None:
            probed = (_layout_kind(session), session.number_of_tuples())
            session.__dict__["_query_target_probe"] = probed
        layout, n = probed
        return TargetProfile(
            deployment=deployment,
            layout=layout,
            n=n,
            shard_count=getattr(session, "shard_count", 1),
            backend=get_backend().name,
        )

    # ------------------------------------------------------------------
    # Route selection
    # ------------------------------------------------------------------
    def _build_plan(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        deployment: str,
    ) -> ExecutionPlan:
        profile = self.profile(session, deployment)
        hardness = hardness_of(query)
        builder = {
            "topk": self._plan_topk,
            "world": self._plan_world,
            "membership": self._plan_membership,
            "expected_ranks": self._plan_expected_ranks,
            "ranking": self._plan_ranking,
            "aggregate": self._plan_aggregate,
        }[query.family]
        route, algorithm, cost, cost_note, artifacts, paired, runner = builder(
            query, profile
        )
        return ExecutionPlan(
            query=query,
            session=session,
            route=route,
            algorithm=algorithm,
            hardness=hardness,
            profile=profile,
            estimated_cost=cost,
            cost_note=cost_note,
            artifacts=artifacts,
            paired=paired,
            runner=runner,
        )

    def _plan_topk(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        metric = TOPK[query.metric]
        exact = metric.exact(query.statistic)
        # An NP-hard distance gets the paper's fallback: enumeration on
        # tiny inputs, else pivoting on the pairwise preference grid.
        pivot = exact.hardness.complexity == "np-hard"
        pool = query.param("candidate_pool_size")

        def approximate(session: QuerySession, rng: Any) -> Any:
            if pivot:
                return metric.approximation.function(
                    session, k, candidate_pool_size=pool, rng=rng
                )
            return metric.approximation.function(session, k)

        mode = query.mode
        if pivot and mode == "auto":
            enumerable = (
                profile.n <= self.kendall_exact_limit
                and exact.cost(profile.n, query)
                <= self.KENDALL_ENUMERATION_BUDGET
            )
            mode = "exact" if enumerable else "sample"
        if mode == "approximate":
            return self._route(
                metric.approximation, query, profile, approximate
            )
        if mode != "sample":
            return self._route(
                exact,
                query,
                profile,
                lambda session, rng: exact.function(session, k),
            )
        # Monte-Carlo: a candidate answer + a CI-driven estimate of its
        # expected distance.
        samples = self._sample_budget(query)
        planner = self

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            if pivot:
                answer = tuple(approximate(session, None))
            else:
                answer = tuple(exact.function(session, k)[0])
            estimate = planner._ci_estimate(
                session, answer, k, metric.name, query, rng
            )
            return ExecutionResult((answer, estimate.mean), estimate)

        return (
            "sample",
            f"{'pivot' if pivot else 'exact'} candidate + MonteCarloSampler "
            f"estimate of E[d_{metric.symbol or metric.name}] (CI-driven "
            "sample sizing)",
            float(samples) * profile.n,
            f"<= {samples} sampled worlds x n-leaf batches",
            (("rank_matrix", (k,)), ("sampler", ())),
            True,
            runner,
        )

    def _plan_world(self, query: ConsensusQuery, profile: TargetProfile):
        exact = WORLD[query.metric].exact(query.statistic)
        return self._route(
            exact,
            query,
            profile,
            lambda session, rng: exact.function(session.tree),
        )

    def _route(
        self,
        algorithm: Algorithm,
        query: ConsensusQuery,
        profile: TargetProfile,
        call: Callable[[QuerySession, Any], Any],
    ):
        """The route running ``call``: ``exact`` for a statistic's exact
        algorithm on a layout its optimality proof covers, ``approximate``
        otherwise (an explicit ``.exact()`` then fails)."""
        route = "exact" if algorithm.hardness else "approximate"
        text = algorithm.text.format(
            limit=self.kendall_exact_limit,
            budget=self.KENDALL_ENUMERATION_BUDGET,
        )
        if profile.layout not in algorithm.layouts:
            coverage = (
                f"{algorithm.hardness.paper}'s optimality covers "
                f"{' / '.join(algorithm.layouts)} data only"
            )
            if query.mode == "exact":
                raise PlanningError(
                    f"no exact algorithm for {query.kind} on a "
                    f"{profile.layout} layout: {coverage}"
                )
            route, text = "approximate", f"{text}; not exact here: {coverage}"
        return (
            route,
            text,
            algorithm.cost(profile.n, query),
            algorithm.cost_note,
            tuple((name, (query.k,)) for name in algorithm.artifacts),
            algorithm.paired,
            lambda session, rng: ExecutionResult(call(session, rng)),
        )

    def _plan_membership(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        return (
            "exact",
            "rank_matrix(k).membership() (Pr(r(t) <= k) per tuple)",
            float(profile.n) * k,
            "one truncated rank-matrix sweep (n x k)",
            (("rank_matrix", (k,)), ("top_k_membership", (k,))),
            False,
            lambda session, rng: ExecutionResult(
                session.top_k_membership(k)
            ),
        )

    def _plan_expected_ranks(
        self, query: ConsensusQuery, profile: TargetProfile
    ):
        return (
            "exact",
            "expected_rank_table (Cormode-style expected ranks)",
            float(profile.n) ** 2,
            "n^2 general / n log n TI or BID",
            (("expected_rank_table", ()),),
            False,
            lambda session, rng: ExecutionResult(
                session.expected_rank_table()
            ),
        )

    def _plan_ranking(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        if query.semantics == "global":
            return (
                "exact",
                "global_topk baseline (score order)",
                float(profile.n) * k,
                "score sort + prefix",
                (("rank_matrix", (k,)), ("top_k_membership", (k,))),
                False,
                lambda session, rng: ExecutionResult(global_topk(session, k)),
            )
        return (
            "exact",
            "expected_rank_topk baseline",
            float(profile.n) ** 2,
            "expected-rank table + prefix",
            (("expected_rank_table", ()),),
            False,
            lambda session, rng: ExecutionResult(
                expected_rank_topk(session, k)
            ),
        )

    def _plan_aggregate(self, query: ConsensusQuery, profile: TargetProfile):
        median = query.statistic == "median"

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            from repro.consensus.aggregates import GroupByCountConsensus

            consensus = GroupByCountConsensus.from_bid_tree(session.tree)
            if median:
                return ExecutionResult(
                    consensus.median_answer_approximation()
                )
            return ExecutionResult(tuple(consensus.mean_answer()))

        if median:
            return (
                "approximate",
                "GroupByCountConsensus.median_answer_approximation "
                "(min-cost-flow rounding)",
                float(profile.n) ** 2,
                "expected counts + min-cost flow over n tuples x m groups",
                (),
                True,
                runner,
            )
        return (
            "exact",
            "GroupByCountConsensus.mean_answer (expected counts)",
            float(profile.n),
            "one pass over the group probabilities",
            (),
            False,
            runner,
        )

    # ------------------------------------------------------------------
    # Fused multi-query plans
    # ------------------------------------------------------------------
    def fuse_plans(self, session: QuerySession, plans) -> int:
        """Seed one artifact sweep for a batch of rank-matrix plans.

        Plans in a micro-batch that consult the ``rank_matrix`` artifact
        at different ``k`` are all answered from *one* backend sweep at
        ``k_max``: ``Pr(r(t) = i)`` does not depend on the truncation
        bound, so :meth:`~repro.engine.RankMatrix.truncated` column-prefix
        slices are exactly identical to per-``k`` recomputation.  The
        sweep is materialized, the smaller-``k`` entries are seeded into
        the session's artifact cache as slices, and every plan in the
        group then dispatches against a warm artifact.

        Returns the number of plans answered from the fused sweep (0 when
        fewer than two distinct ``k`` values want the artifact).
        """
        wanted: Dict[int, int] = {}
        for plan in plans:
            if plan is None:
                continue
            for name, params in plan.artifacts:
                if name == "rank_matrix" and params:
                    k = params[0]
                    wanted[k] = wanted.get(k, 0) + 1
                    break
        if len(wanted) < 2:
            return 0
        ks = sorted(wanted)
        k_max = ks[-1]
        # One sweep at k_max (this also syncs sharded coordinators so the
        # seeds below land in the current version's artifact store).
        base = session.rank_matrix(k_max)
        cache = getattr(session, "_cache", None)
        if cache is None:
            return 0
        for k in ks[:-1]:
            key = ("rank_matrix", (k,))
            if key not in cache:
                cache[key] = base.truncated(k)
        return sum(wanted.values())

    # ------------------------------------------------------------------
    # Monte-Carlo machinery
    # ------------------------------------------------------------------
    def _sample_budget(self, query: ConsensusQuery) -> int:
        if query.sample_cap is not None:
            return query.sample_cap
        if query.target_epsilon is not None:
            return self.max_samples
        return self.default_samples

    def _ci_estimate(
        self,
        session: QuerySession,
        answer: Tuple,
        k: int,
        metric: str,
        query: ConsensusQuery,
        rng: Any,
    ) -> Any:
        """Estimate ``E[d(answer, tau_pw)]``, sizing samples by the CI.

        Draws batches through the session's memoized
        :class:`~repro.engine.MonteCarloSampler` until the
        normal-approximation confidence interval's half-width drops below
        the query's epsilon (when set) or the sample budget is exhausted.
        """
        from repro.engine.sampling import StreamingMoments, resolve_rng

        sampler = session.sampler()
        generator = resolve_rng(rng)
        moments = StreamingMoments()
        epsilon = query.target_epsilon
        cap = self._sample_budget(query)
        batch = min(self.batch_size, cap)
        drawn = 0
        while drawn < cap:
            count = min(batch, cap - drawn)
            world_batch = sampler.sample_batch(count, rng=generator)
            moments.add_many(world_batch.topk_distances(answer, k, metric))
            drawn += count
            if epsilon is not None:
                estimate = moments.estimate()
                low, high = estimate.confidence_interval(
                    query.confidence_level
                )
                if (high - low) / 2.0 <= epsilon:
                    break
        return moments.estimate()


#: The process-wide planner instance the convenience APIs use.
DEFAULT_PLANNER = Planner()
