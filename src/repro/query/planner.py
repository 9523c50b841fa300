"""The hardness-aware query planner.

The paper's central contribution is a taxonomy: every consensus query /
distance-function pair comes with an exact PTIME algorithm, an
approximation with a guarantee, or an NP-hardness result that forces
Monte-Carlo estimation.  :class:`Planner` encodes that taxonomy as data
(:data:`HARDNESS_MAP`), inspects the execution target (model layout,
database size, sharding, active backend) and picks the execution path:

* **exact** -- the PTIME kernel (or, for NP-hard distances on tiny
  databases, exhaustive enumeration);
* **approximate** -- the paper's approximation algorithm (``H_k`` greedy
  for the intersection metric, pivot aggregation for Kendall tau);
* **sample** -- the batched :class:`~repro.engine.MonteCarloSampler` with
  confidence-interval-driven sample sizing, the fallback the hardness
  results prescribe.

Plans are memoized per session and per query (dropped when the session's
generation changes), so the planner adds one dictionary lookup to a warm
serving dispatch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.exceptions import PlanningError
from repro.query.builder import ConsensusQuery
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
#: these entries, naming the paper result behind every route choice.
HARDNESS_MAP: Dict[Tuple[str, Optional[str], str], HardnessEntry] = {
    ("topk", "symmetric_difference", "mean"): HardnessEntry(
        "ptime",
        "Theorem 3",
        "the mean Top-k answer under d_Delta is the k tuples with the "
        "largest Pr(r(t) <= k), one rank-matrix sweep",
    ),
    ("topk", "symmetric_difference", "median"): HardnessEntry(
        "ptime",
        "Theorem 4",
        "the median Top-k answer under d_Delta is recovered exactly from "
        "per-size best-world tables",
    ),
    ("topk", "footrule", "mean"): HardnessEntry(
        "ptime",
        "Section 5.4",
        "the mean Top-k answer under Spearman footrule reduces to one "
        "min-cost assignment over the Upsilon tables",
    ),
    ("topk", "intersection", "mean"): HardnessEntry(
        "ptime",
        "Section 5.3",
        "exact mean answer under the intersection metric; an H_k-factor "
        "greedy approximation is also available",
    ),
    ("topk", "kendall", "mean"): HardnessEntry(
        "np-hard",
        "Section 5.5",
        "exact mean answers under Kendall tau are NP-hard (Kemeny rank "
        "aggregation embeds); the paper prescribes the footrule "
        "2-approximation, pivot aggregation, or Monte-Carlo estimation",
    ),
    ("world", "symmetric_difference", "mean"): HardnessEntry(
        "ptime",
        "Theorem 2",
        "the mean world under d_Delta keeps every alternative with "
        "membership probability > 1/2",
    ),
    ("world", "symmetric_difference", "median"): HardnessEntry(
        "ptime",
        "Corollary 1 / Section 4.1",
        "exact tree DP on and/xor trees; NP-hard under arbitrary "
        "correlations (MAX-2-SAT reduction)",
    ),
    ("world", "jaccard", "mean"): HardnessEntry(
        "ptime",
        "Lemma 2",
        "the mean world under Jaccard is a prefix of the tuples sorted by "
        "decreasing probability (prefix structure optimal for "
        "tuple-independent layouts)",
    ),
    ("world", "jaccard", "median"): HardnessEntry(
        "ptime",
        "Section 4.2",
        "the median world under Jaccard scans prefixes of per-block "
        "highest-probability representatives (BID layouts)",
    ),
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
    """Hardness-aware, calibration-aware execution planner.

    Parameters
    ----------
    kendall_exact_limit:
        Databases with at most this many tuples answer NP-hard Kendall
        queries exactly (exhaustive enumeration); larger databases fall
        back to the Monte-Carlo route -- the paper's size threshold between
        "enumerate" and "estimate".  ``None`` (the default) derives the
        threshold from measured kernel rates: the calibration table's
        enumeration cost against its sampling cost (see
        :func:`~repro.query.calibration.kendall_crossover`), clamped to
        ``[5, 16]``; an explicit integer always wins.
    default_samples:
        Monte-Carlo samples drawn when the query sets no epsilon or cap.
    max_samples:
        Sample ceiling for CI-driven sizing (epsilon set, no explicit cap).
    batch_size:
        Samples per backend kernel call during CI-driven estimation.
        ``None`` sizes batches from the calibrated per-sample cost
        (:func:`~repro.query.calibration.derive_batch_size`); the explicit
        default keeps seeded RNG streams stable across hosts.
    calibration:
        An explicit :class:`~repro.query.calibration.CalibrationTable`.
        When omitted the planner lazily loads the host's persisted table
        (``REPRO_CALIBRATION`` / ``benchmarks/results/calibration.json``)
        at the first calibrated decision, running the micro-probes as a
        fallback when ``micro_calibrate`` is true.
    micro_calibrate:
        Whether to time the first-use micro-probes when no persisted
        calibration matches this host.  Disable to force pure heuristics.
    """

    #: Bounds on the auto-resolved Kendall enumeration threshold: always
    #: enumerate single-digit databases, never cross the exponential wall.
    KENDALL_LIMIT_FLOOR = 5
    KENDALL_LIMIT_CEILING = 16
    #: The heuristic threshold used when no calibration is available.
    KENDALL_LIMIT_DEFAULT = 6
    #: The heuristic Monte-Carlo batch size (samples per kernel call).
    BATCH_SIZE_DEFAULT = 2048

    def __init__(
        self,
        kendall_exact_limit: Optional[int] = None,
        default_samples: int = 4000,
        max_samples: int = 100_000,
        batch_size: Optional[int] = BATCH_SIZE_DEFAULT,
        calibration: Any = None,
        micro_calibrate: bool = True,
    ) -> None:
        self._explicit_kendall_limit = kendall_exact_limit
        self.default_samples = default_samples
        self.max_samples = max_samples
        self.batch_size = batch_size
        self._calibration = calibration
        self._calibration_resolved = calibration is not None
        self._micro_calibrate = micro_calibrate
        # Backends already micro-probed (or found covered) so a backend
        # switch tops the table up at most once per backend.
        self._probed_backends: set = set()
        # Per-backend resolved decisions: (limit, note-or-None).
        self._kendall_limits: Dict[str, Tuple[int, Optional[str]]] = {}

    # ------------------------------------------------------------------
    # Calibration resolution
    # ------------------------------------------------------------------
    def calibration_table(self) -> Any:
        """The planner's calibration table, resolved lazily at first use.

        Load order: an explicitly passed table, the host's persisted table
        (environment override / ``benchmarks/results/calibration.json``),
        then the micro-probes.  A table that lacks rates for the *active*
        backend (e.g. a numpy-fitted file consulted from the pure backend)
        is topped up with micro-probes for that backend, at most once per
        backend.  Resolution failure degrades to None and every decision
        falls back to the heuristic constants.
        """
        if not self._calibration_resolved:
            self._calibration_resolved = True
            from repro.query.calibration import load_calibration

            self._calibration = load_calibration()
        if self._micro_calibrate:
            from repro.engine import get_backend

            backend = get_backend().name
            if backend not in self._probed_backends:
                self._probed_backends.add(backend)
                if self._calibration is None or not (
                    self._calibration.has_backend(backend)
                ):
                    from repro.query.calibration import (
                        micro_calibrate as run_probes,
                    )

                    try:
                        probes = run_probes()
                    except Exception:
                        probes = None
                    if probes is not None:
                        if self._calibration is None:
                            self._calibration = probes
                        else:
                            self._calibration.merge(probes)
        return self._calibration

    @property
    def kendall_exact_limit(self) -> int:
        """The exact-vs-sampling crossover for NP-hard Kendall queries.

        Explicit construction values pass through untouched; in auto mode
        the measured crossover for the active backend is used (resolved
        once per backend), clamped to
        ``[KENDALL_LIMIT_FLOOR, KENDALL_LIMIT_CEILING]``.
        """
        return self._kendall_decision()[0]

    @property
    def kendall_limit_note(self) -> Optional[str]:
        """Human-readable provenance of the Kendall threshold (None when
        the heuristic default is in effect)."""
        return self._kendall_decision()[1]

    def _kendall_decision(self) -> Tuple[int, Optional[str]]:
        if self._explicit_kendall_limit is not None:
            return self._explicit_kendall_limit, None
        from repro.engine import get_backend

        backend = get_backend().name
        resolved = self._kendall_limits.get(backend)
        if resolved is None:
            resolved = (self.KENDALL_LIMIT_DEFAULT, None)
            table = self.calibration_table()
            if table is not None:
                from repro.query.calibration import kendall_crossover

                limit, note = kendall_crossover(
                    table,
                    backend,
                    "tuple-independent",
                    samples=self.default_samples,
                    fallback=self.KENDALL_LIMIT_DEFAULT,
                    floor=self.KENDALL_LIMIT_FLOOR,
                    ceiling=self.KENDALL_LIMIT_CEILING,
                )
                resolved = (limit, note)
            self._kendall_limits[backend] = resolved
        return resolved

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
        route, algorithm, cost, cost_note, kernel, artifacts, paired, runner = (
            builder(query, profile)
        )
        cost_seconds: Optional[float] = None
        cost_source = "heuristic"
        table = self.calibration_table()
        if table is not None and kernel is not None:
            seconds = table.seconds_for(
                profile.backend, profile.layout, kernel, profile.n, cost
            )
            if seconds is not None:
                cost_seconds = seconds
                cost_source = (
                    "calibrated"
                    if table.source == "measured"
                    else "micro-calibrated"
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
            cost_seconds=cost_seconds,
            cost_source=cost_source,
        )

    def _plan_topk(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        n = profile.n
        metric = query.metric
        if metric == "kendall":
            return self._plan_topk_kendall(query, profile)
        if query.mode == "sample":
            return self._sample_route(query, profile, self._exact_topk_answer)
        if metric == "symmetric_difference":
            if query.statistic == "median":
                return (
                    "exact",
                    "median_topk_symmetric_difference (Theorem 4 size-table "
                    "merge)",
                    float(n) * k + float(n) ** 2,
                    "rank sweep n*k + per-size best-world tables n^2",
                    "size_tables",
                    (
                        ("query:median_topk_symmetric_difference", (k,)),
                    ),
                    True,
                    lambda session, rng: ExecutionResult(
                        session.median_topk_symmetric_difference(k)
                    ),
                )
            return (
                "exact",
                "mean_topk_symmetric_difference (Theorem 3 rank-matrix "
                "kernel)",
                float(n) * k,
                "one truncated rank-matrix sweep (n x k)",
                "rank_sweep",
                (
                    ("rank_matrix", (k,)),
                    ("query:mean_topk_symmetric_difference", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_topk_symmetric_difference(k)
                ),
            )
        if metric == "footrule":
            return (
                "exact",
                "mean_topk_footrule (Section 5.4 min-cost assignment over "
                "the Upsilon tables)",
                float(n) * k + float(k) ** 3,
                "footrule cost matrix n*k + assignment k^3",
                "footrule_assignment",
                (
                    ("footrule_statistics", (k,)),
                    ("query:mean_topk_footrule", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_topk_footrule(k)
                ),
            )
        # intersection
        if query.mode == "approximate":
            return (
                "approximate",
                "approximate_topk_intersection (H_k-factor greedy)",
                float(n) * k,
                "rank sweep n*k + greedy selection",
                "rank_sweep",
                (
                    ("rank_matrix", (k,)),
                    ("query:approximate_topk_intersection", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.approximate_topk_intersection(k)
                ),
            )
        return (
            "exact",
            "mean_topk_intersection (Section 5.3 exact kernel)",
            float(n) * k,
            "one truncated rank-matrix sweep (n x k)",
            "rank_sweep",
            (
                ("rank_matrix", (k,)),
                ("query:mean_topk_intersection", (k,)),
            ),
            True,
            lambda session, rng: ExecutionResult(
                session.mean_topk_intersection(k)
            ),
        )

    def _plan_topk_kendall(
        self, query: ConsensusQuery, profile: TargetProfile
    ):
        k = query.k
        n = profile.n
        pool = query.param("candidate_pool_size")
        pool_size = pool if pool is not None else min(2 * k, n)

        def pivot(session: QuerySession, rng: Any) -> Tuple:
            return session.approximate_topk_kendall(
                k, candidate_pool_size=pool, rng=rng
            )

        mode = query.mode
        if mode == "auto":
            mode = (
                "exact" if n <= self.kendall_exact_limit else "sample"
            )
        if mode == "exact":
            cost = min(float(n) ** k * 2.0 ** n, 1e300)
            threshold = (
                "feasible only below the size threshold of "
                f"{self.kendall_exact_limit} tuples"
            )
            note = self.kendall_limit_note
            if note is not None:
                threshold += f"; {note}"
            return (
                "exact",
                "brute_force_mean_topk_kendall (exhaustive candidate x "
                f"world enumeration; {threshold})",
                cost,
                "P(n,k) candidate answers x 2^n possible worlds",
                "kendall_enumeration",
                (),
                True,
                self._kendall_brute_force_runner(k),
            )
        if mode == "approximate":
            return (
                "approximate",
                "approximate_topk_kendall (KwikSort pivoting on the "
                "pairwise preference grid)",
                float(n) * k + float(pool_size) ** 2,
                "membership sweep n*k + pivot on a pool^2 preference grid",
                "pivot_grid",
                (
                    ("rank_matrix", (k,)),
                    ("query:approximate_topk_kendall", (k, pool)),
                ),
                False,
                lambda session, rng: ExecutionResult(pivot(session, rng)),
            )
        # sample: pivot candidate + CI-driven Monte-Carlo estimate of its
        # expected Kendall distance (the hardness fallback).
        samples = self._sample_budget(query)
        planner = self

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            answer = tuple(pivot(session, None))
            estimate = planner._ci_estimate(
                session, answer, k, "kendall", query, rng
            )
            return ExecutionResult((answer, estimate.mean), estimate)

        return (
            "sample",
            "pivot candidate + MonteCarloSampler estimate of E[d_K] "
            "(CI-driven sample sizing)",
            float(samples) * n,
            f"<= {samples} sampled worlds x n-leaf batches",
            "mc_sample",
            (("sampler", ()),),
            True,
            runner,
        )

    def _kendall_brute_force_runner(self, k: int):
        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            from repro.consensus.topk.kendall import (
                brute_force_mean_topk_kendall,
            )

            return ExecutionResult(brute_force_mean_topk_kendall(session, k))

        return runner

    def _exact_topk_answer(self, query: ConsensusQuery):
        """The deterministic candidate-answer call for a sampled route."""
        k = query.k
        metric = query.metric
        if metric == "symmetric_difference":
            if query.statistic == "median":
                return lambda session: session.median_topk_symmetric_difference(k)[0]
            return lambda session: session.mean_topk_symmetric_difference(k)[0]
        if metric == "footrule":
            return lambda session: session.mean_topk_footrule(k)[0]
        return lambda session: session.mean_topk_intersection(k)[0]

    def _sample_route(
        self,
        query: ConsensusQuery,
        profile: TargetProfile,
        candidate_factory,
    ):
        """Sampled validation route for a PTIME metric: exact candidate
        answer + Monte-Carlo estimate of its expected distance."""
        k = query.k
        metric = query.metric
        samples = self._sample_budget(query)
        candidate = candidate_factory(query)
        planner = self

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            answer = tuple(candidate(session))
            estimate = planner._ci_estimate(
                session, answer, k, metric, query, rng
            )
            return ExecutionResult((answer, estimate.mean), estimate)

        return (
            "sample",
            f"exact candidate + MonteCarloSampler estimate of E[d_"
            f"{metric}] (CI-driven sample sizing)",
            float(samples) * profile.n,
            f"<= {samples} sampled worlds x n-leaf batches",
            "mc_sample",
            (("sampler", ()),),
            True,
            runner,
        )

    def _plan_world(self, query: ConsensusQuery, profile: TargetProfile):
        n = profile.n
        metric = query.metric
        statistic = query.statistic
        if metric == "symmetric_difference":
            if statistic == "median":
                return (
                    "exact",
                    "median world tree DP (exact on and/xor trees)",
                    float(n),
                    "one bottom-up pass over the tree",
                    "tree_pass",
                    (("query:median_world_symmetric_difference", ()),),
                    True,
                    lambda session, rng: ExecutionResult(
                        session.median_world_symmetric_difference()
                    ),
                )
            return (
                "exact",
                "membership-probability threshold (keep Pr > 1/2, "
                "Theorem 2)",
                float(n),
                "one pass over the alternative probabilities",
                "tree_pass",
                (("query:mean_world_symmetric_difference", ()),),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_world_symmetric_difference()
                ),
            )
        # Jaccard
        if statistic == "median":
            return (
                "exact",
                "per-block representative prefix scan (Section 4.2, BID "
                "layouts)",
                float(n) ** 2,
                "n prefixes x Lemma 1 evaluation",
                "prefix_scan",
                (("query:median_world_jaccard", ()),),
                True,
                lambda session, rng: ExecutionResult(
                    session.median_world_jaccard()
                ),
            )
        return (
            "exact",
            "probability-sorted prefix scan (Lemma 2; prefix optimality "
            "guaranteed for tuple-independent layouts)",
            float(n) ** 2,
            "one O(n^2) backend prefix sweep",
            "prefix_scan",
            (("query:mean_world_jaccard", ()),),
            True,
            lambda session, rng: ExecutionResult(
                session.mean_world_jaccard()
            ),
        )

    def _plan_membership(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        return (
            "exact",
            "rank_matrix(k).membership() (Pr(r(t) <= k) per tuple)",
            float(profile.n) * k,
            "one truncated rank-matrix sweep (n x k)",
            "rank_sweep",
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
            "n^2 general / n log n tuple-independent",
            "prefix_scan",
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
                "rank_sweep",
                (("query:global_topk", (k,)),),
                False,
                lambda session, rng: ExecutionResult(session.global_topk(k)),
            )
        return (
            "exact",
            "expected_rank_topk baseline",
            float(profile.n) ** 2,
            "expected-rank table + prefix",
            "prefix_scan",
            (
                ("expected_rank_table", ()),
                ("query:expected_rank_topk", (k,)),
            ),
            False,
            lambda session, rng: ExecutionResult(
                session.expected_rank_topk(k)
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
                "prefix_scan",
                (),
                True,
                runner,
            )
        return (
            "exact",
            "GroupByCountConsensus.mean_answer (expected counts)",
            float(profile.n),
            "one pass over the group probabilities",
            "tree_pass",
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
    def _resolved_batch_size(self, session: QuerySession) -> int:
        """The Monte-Carlo batch size: explicit, or calibrated when the
        planner was built with ``batch_size=None``."""
        if self.batch_size is not None:
            return self.batch_size
        table = self.calibration_table()
        if table is not None:
            from repro.engine import get_backend
            from repro.query.calibration import derive_batch_size

            return derive_batch_size(
                table,
                get_backend().name,
                _layout_kind(session),
                session.number_of_tuples(),
                fallback=self.BATCH_SIZE_DEFAULT,
            )
        return self.BATCH_SIZE_DEFAULT

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
        batch = min(self._resolved_batch_size(session), cap)
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
