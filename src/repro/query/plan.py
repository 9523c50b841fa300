"""Execution plans: the planner's chosen path, explained and runnable.

An :class:`ExecutionPlan` binds one :class:`~repro.query.ConsensusQuery` to
one target session, records *why* the route was chosen (the paper's
hardness result for the query's distance, the target's model layout and
size, the active backend) and *what* it will cost (a coarse operation-count
estimate plus which memoized session artifacts it can reuse), and carries
the runner that produces the answer.  :meth:`ExecutionPlan.explain` renders
all of it; :meth:`ExecutionPlan.execute` runs it and wraps the result in a
:class:`~repro.query.QueryAnswer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Tuple

from repro.query.answers import QueryAnswer


@dataclass(frozen=True)
class HardnessEntry:
    """One cell of the paper's hardness map.

    ``complexity`` is ``"ptime"``, ``"np-hard"`` or ``"approximation"``;
    ``paper`` cites the result (theorem/section); ``note`` summarizes the
    prescribed algorithmic consequence.
    """

    complexity: str
    paper: str
    note: str

    def describe(self) -> str:
        label = {
            "ptime": "PTIME",
            "np-hard": "NP-hard",
            "approximation": "approximation",
        }[self.complexity]
        return f"{label} -- {self.paper}: {self.note}"


@dataclass(frozen=True)
class TargetProfile:
    """What the planner learned about the execution target.

    ``deployment`` is ``local`` / ``sharded`` / ``served``; ``layout`` is
    ``tuple-independent`` / ``bid`` / ``general``; ``n`` the number of
    distinct tuple keys; ``shard_count`` 1 for unsharded targets;
    ``backend`` the active compute backend's name.
    """

    deployment: str
    layout: str
    n: int
    shard_count: int
    backend: str

    def describe(self) -> str:
        shards = (
            f", {self.shard_count} shards" if self.shard_count > 1 else ""
        )
        return (
            f"{self.deployment}{shards}, n={self.n} tuples, "
            f"layout={self.layout}, backend={self.backend}"
        )


class ExecutionResult(NamedTuple):
    """What a plan runner returns: the raw value + an optional estimate."""

    value: Any
    estimate: Optional[Any] = None


#: A plan runner: ``(session, rng) -> ExecutionResult``.
PlanRunner = Callable[[Any, Any], ExecutionResult]


def _normalize_rng(rng: Any) -> Any:
    """Accept the library-wide rng convention at the plan boundary.

    ``None`` stays ``None`` (deterministic routes need no generator);
    generators pass through; integer seeds become seeded
    generators, matching every sampling entry point.
    """
    if rng is None:
        return None
    from repro.engine.sampling import resolve_rng

    return resolve_rng(rng)


class ExecutionPlan:
    """The planner's decision for one query against one session.

    Parameters
    ----------
    query / session:
        What will run, and where.
    route:
        ``"exact"``, ``"approximate"`` or ``"sample"``.
    algorithm:
        Human-readable name of the kernel/algorithm answering the query.
    hardness:
        The :class:`HardnessEntry` behind the route choice.
    profile:
        The :class:`TargetProfile` of the session.
    estimated_cost / cost_note:
        Coarse operation-count estimate and its formula.  The planner
        makes no wall-clock estimate: operation counts are host-free.
    artifacts:
        Keys of the memoized session statistics the route reads --
        :meth:`explain` reports which of them are already warm, and
        :meth:`~repro.query.Planner.fuse_plans` batches the rank-matrix
        ones.
    paired:
        Whether the raw value is an ``(answer, expected_distance)`` pair.
    runner:
        The callable producing the :class:`ExecutionResult`.
    """

    __slots__ = (
        "query",
        "route",
        "algorithm",
        "hardness",
        "profile",
        "estimated_cost",
        "cost_note",
        "artifacts",
        "paired",
        "generation",
        "_session",
        "_runner",
    )

    def __init__(
        self,
        query: Any,
        session: Any,
        route: str,
        algorithm: str,
        hardness: HardnessEntry,
        profile: TargetProfile,
        estimated_cost: float,
        cost_note: str,
        artifacts: Tuple[Tuple[str, Tuple[Any, ...]], ...],
        paired: bool,
        runner: PlanRunner,
    ) -> None:
        self.query = query
        self.route = route
        self.algorithm = algorithm
        self.hardness = hardness
        self.profile = profile
        self.estimated_cost = estimated_cost
        self.cost_note = cost_note
        self.artifacts = artifacts
        self.paired = paired
        self.generation = session.generation
        self._session = session
        self._runner = runner

    @property
    def session(self) -> Any:
        """The session the plan was built for."""
        return self._session

    def rebound(self, session: Any) -> "ExecutionPlan":
        """The same plan retargeted at another session.

        The serving executor plans once against the live coordinator, then
        rebinds the plan to a version-pinned snapshot reader so the actual
        read runs against immutable state.  Routing inputs (layout, size,
        backend) are identical across the rebind by construction, so the
        decision is reused as-is.
        """
        if session is self._session:
            return self
        clone = object.__new__(ExecutionPlan)
        for name in ExecutionPlan.__slots__:
            object.__setattr__(clone, name, getattr(self, name))
        clone._session = session
        clone.generation = session.generation
        return clone

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, rng: Any = None) -> Any:
        """Run the plan and return the raw (legacy-shaped) value.

        This is the low-overhead dispatch path the serving layer uses: no
        timing, no answer wrapping -- one call of the consensus algorithm
        on the session, which serves the statistics it reads from its
        memoized artifacts.  Completed answers are cached by the caller's
        :class:`~repro.query.results.ResultCache`, not here.
        """
        if rng is not None:
            rng = _normalize_rng(rng)
        return self._runner(self._session, rng).value

    def execute(self, rng: Any = None) -> QueryAnswer:
        """Run the plan and wrap the result with provenance and timing."""
        rng = _normalize_rng(rng)
        session = self._session
        hits_before = session.cache_hits
        misses_before = session.cache_misses
        started = time.perf_counter()
        result = self._runner(session, rng)
        elapsed = time.perf_counter() - started
        return QueryAnswer(
            value=result.value,
            query=self.query,
            plan=self,
            elapsed=elapsed,
            backend=self.profile.backend,
            deployment=self.profile.deployment,
            cache_hits=session.cache_hits - hits_before,
            cache_misses=session.cache_misses - misses_before,
            estimate=result.estimate,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _artifact_lines(self) -> str:
        if not self.artifacts:
            return "none"
        cache = getattr(self._session, "_cache", {})
        rendered = []
        for name, params in self.artifacts:
            state = "warm" if (name, params) in cache else "cold"
            if params:
                inner = ", ".join(repr(p) for p in params)
                rendered.append(f"{name}({inner}) [{state}]")
            else:
                rendered.append(f"{name} [{state}]")
        return ", ".join(rendered)

    def explain(self) -> str:
        """Render the chosen path, the paper result behind it, the
        operation-count estimate and the cache/artifact reuse."""
        query = self.query
        lines = [
            f"ConsensusQuery(kind={query.kind!r}, family={query.family!r}, "
            f"k={query.k}, metric={query.metric!r}, "
            f"statistic={query.statistic!r}, mode={query.mode!r})",
            f"  target:    {self.profile.describe()}",
            f"  hardness:  {self.hardness.describe()}",
            f"  route:     {self.route}",
            f"  algorithm: {self.algorithm}",
            f"  est. cost: ~{self.estimated_cost:.3g} ops ({self.cost_note})",
            f"  artifacts: {self._artifact_lines()}",
            f"  cache:     generation {self._session.generation}, "
            f"{len(getattr(self._session, '_cache', {}))} entries memoized",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan({self.query.kind!r}, route={self.route!r}, "
            f"target={self.profile.deployment!r})"
        )
