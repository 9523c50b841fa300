"""Query answers with provenance and timing.

Every planner execution returns a :class:`QueryAnswer`: the raw answer
value (shaped exactly like the legacy call path, so the serving wire format
is unchanged), plus the provenance the declarative API adds on top -- which
route answered it, the paper result behind that choice, the backend and
deployment it ran on, wall-clock time, the session-cache traffic it caused
and, for Monte-Carlo routes, the streaming estimate with its confidence
interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class PlanSummary:
    """The provenance slice of an :class:`~repro.query.ExecutionPlan`.

    A decoded wire answer cannot carry the full plan (it closes over the
    answering session), but it keeps everything
    :meth:`QueryAnswer.provenance` and the value-shape accessors read:
    the route, the algorithm name, whether the raw value is an
    ``(answer, expected_distance)`` pair, and the paper's hardness entry.
    """

    route: str
    algorithm: str
    paired: bool
    hardness: Any


@dataclass(frozen=True)
class QueryAnswer:
    """One executed consensus query: value + provenance + timing.

    Attributes
    ----------
    value:
        The raw result, shaped exactly like the legacy entry point for the
        same query (e.g. ``(answer, expected_distance)`` for mean Top-k
        kinds, a bare tuple for the Kendall pivot route, a dict for
        membership tables).
    query:
        The :class:`~repro.query.ConsensusQuery` that was executed.
    plan:
        The :class:`~repro.query.ExecutionPlan` that produced the value.
    elapsed:
        Wall-clock execution time in seconds.
    backend / deployment:
        Compute backend (``numpy`` / ``python``) and deployment
        (``local`` / ``sharded`` / ``served``) the query ran on.
    cache_hits / cache_misses:
        Session-cache traffic this execution caused (deltas, not totals).
    estimate:
        The :class:`~repro.engine.Estimate` behind a Monte-Carlo route
        (None on exact/approximate routes).
    stale:
        True when the serving layer answered from a previously computed
        answer (exact, but at a superseded shard-version vector) because
        a shard was unavailable.  The value is bit-identical to what the
        same query answered before the outage.
    degraded:
        True when the serving layer answered *fresh but approximate*:
        the query ran over the merged tree minus the unavailable
        shard(s), so the dead shards' tuples are missing and any
        confidence interval is effectively widened.
    cached:
        True when the answer was served from the cross-session
        :class:`~repro.query.ResultCache` -- numerically identical to the
        original execution (entries are keyed by query fingerprint,
        version token and backend, so a cached answer can never span a
        data change or a backend switch).
    """

    value: Any
    query: Any
    plan: Any
    elapsed: float
    backend: str
    deployment: str
    cache_hits: int = 0
    cache_misses: int = 0
    estimate: Optional[Any] = None
    stale: bool = False
    degraded: bool = False
    cached: bool = False

    @property
    def answer(self) -> Any:
        """The answer object itself (Top-k tuple, world set, table...)."""
        if self.plan is not None and self.plan.paired:
            return self.value[0]
        return self.value

    @property
    def expected_distance(self) -> Optional[float]:
        """The answer's expected distance, when the route computes one."""
        if self.plan is not None and self.plan.paired:
            return self.value[1]
        if self.estimate is not None:
            return self.estimate.mean
        return None

    @property
    def kind(self) -> str:
        """The query's canonical kind string."""
        return self.query.kind

    def confidence_interval(
        self, level: float = 0.95
    ) -> Optional[Tuple[float, float]]:
        """The Monte-Carlo confidence interval (None on exact routes)."""
        if self.estimate is None:
            return None
        return self.estimate.confidence_interval(level)

    def provenance(self) -> Dict[str, Any]:
        """A flat dictionary of how this answer was produced."""
        return {
            "kind": self.kind,
            "route": self.plan.route,
            "algorithm": self.plan.algorithm,
            "complexity": self.plan.hardness.complexity,
            "paper": self.plan.hardness.paper,
            "deployment": self.deployment,
            "backend": self.backend,
            "elapsed": self.elapsed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "samples": None if self.estimate is None else self.estimate.samples,
            "stale": self.stale,
            "degraded": self.degraded,
            "cached": self.cached,
        }

    def detached(self) -> "QueryAnswer":
        """This answer with its plan cut down to a :class:`PlanSummary`.

        An :class:`~repro.query.ExecutionPlan` closes over the session that
        answered, so an answer cache holding it keeps that session's whole
        artifact store alive; caches hold this copy instead.  It encodes
        to the same wire document.
        """
        plan = self.plan
        if plan is None or isinstance(plan, PlanSummary):
            return self
        return replace(
            self,
            plan=PlanSummary(
                plan.route, plan.algorithm, bool(plan.paired), plan.hardness
            ),
        )

    # ------------------------------------------------------------------
    # Wire form (loss-free JSON; see repro.query.wire)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe wire document of this answer.

        Carries the raw value (loss-free tagged encoding), the full query,
        the provenance flags (``stale`` / ``degraded`` / ``cached``), the
        Monte-Carlo estimate when one exists, and a :class:`PlanSummary`
        slice of the plan -- everything a remote client needs to rebuild
        an equivalent answer via :meth:`from_wire`.
        """
        from repro.query.wire import (
            encode_value,
            estimate_to_dict,
            query_to_dict,
        )

        plan = None
        if self.plan is not None:
            hardness = self.plan.hardness
            plan = {
                "route": self.plan.route,
                "algorithm": self.plan.algorithm,
                "paired": bool(self.plan.paired),
                "hardness": {
                    "complexity": hardness.complexity,
                    "paper": hardness.paper,
                    "note": hardness.note,
                },
            }
        return {
            "value": encode_value(self.value),
            "query": query_to_dict(self.query),
            "plan": plan,
            "elapsed": self.elapsed,
            "backend": self.backend,
            "deployment": self.deployment,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "estimate": estimate_to_dict(self.estimate),
            "stale": self.stale,
            "degraded": self.degraded,
            "cached": self.cached,
        }

    def to_json(self) -> str:
        """:meth:`to_wire` rendered as canonical JSON text."""
        from repro.query.wire import dumps

        return dumps(self.to_wire())

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "QueryAnswer":
        """Rebuild an answer from its wire document.

        The plan comes back as a :class:`PlanSummary`, so the
        value-shape accessors (:attr:`answer`, :attr:`expected_distance`)
        and :meth:`provenance` behave identically to the original;
        ``answer.to_wire()`` round-trips byte-identically.
        """
        from repro.query.plan import HardnessEntry
        from repro.query.wire import (
            decode_value,
            estimate_from_dict,
            query_from_dict,
        )

        plan_data = data.get("plan")
        plan: Optional[PlanSummary] = None
        if plan_data is not None:
            hardness = plan_data.get("hardness") or {}
            plan = PlanSummary(
                route=plan_data.get("route", "?"),
                algorithm=plan_data.get("algorithm", "?"),
                paired=bool(plan_data.get("paired", False)),
                hardness=HardnessEntry(
                    complexity=hardness.get("complexity", "ptime"),
                    paper=hardness.get("paper", "?"),
                    note=hardness.get("note", ""),
                ),
            )
        return cls(
            value=decode_value(data["value"]),
            query=query_from_dict(data["query"]),
            plan=plan,
            elapsed=float(data.get("elapsed", 0.0)),
            backend=data.get("backend", "?"),
            deployment=data.get("deployment", "?"),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            estimate=estimate_from_dict(data.get("estimate")),
            stale=bool(data.get("stale", False)),
            degraded=bool(data.get("degraded", False)),
            cached=bool(data.get("cached", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "QueryAnswer":
        """Parse :meth:`to_json` output back into an answer."""
        from repro.query.wire import loads

        return cls.from_wire(loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryAnswer(kind={self.kind!r}, route={self.plan.route!r}, "
            f"elapsed={self.elapsed:.6f}s)"
        )
