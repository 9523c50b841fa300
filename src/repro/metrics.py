"""One declaration per distance metric: the paper's taxonomy as data.

Li & Deshpande pair every (query, distance) combination with an exact
PTIME algorithm, an approximation, or an NP-hardness result.  This module
declares that table once, as one frozen :class:`Metric` record per
distance: the Top-k distances of Section 5 (:data:`TOPK`) and the world
distances of Section 4 (:data:`WORLD`).  The query builder, the planner,
the Monte-Carlo sampler, the answer evaluation and the brute-force
oracles all read these records.

The registry imports :mod:`repro.consensus`, so the layers below it
(:mod:`repro.core`, :mod:`repro.engine` and :mod:`repro.consensus`
itself) import it inside the functions that dispatch on a metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.consensus import jaccard, set_consensus
from repro.consensus.topk import footrule, intersection, kendall
from repro.consensus.topk import symmetric_difference as delta
from repro.core import distances, topk_distances
from repro.engine import sampling
from repro.query.plan import HardnessEntry


@dataclass(frozen=True)
class Algorithm:
    """One algorithm of a metric, as the planner runs and explains it.

    ``function`` is called ``function(session, k)`` for a Top-k metric
    and ``function(tree)`` for a world metric.  ``text`` is the route
    text, ``cost(n, query)`` the operation-count estimate and
    ``cost_note`` its formula; ``artifacts`` names the session statistics
    read, each at ``(k,)``; ``paired`` is whether the function returns
    ``(answer, expected_distance)``.  A statistic's exact algorithm
    (exhaustive enumeration when NP-hard) also carries the paper's
    ``hardness`` entry and the model ``layouts`` on which its answer is
    optimal.
    """

    function: Callable[..., Any]
    text: str
    cost: Callable[[int, Any], float]
    cost_note: str
    artifacts: Tuple[str, ...] = ()
    paired: bool = True
    hardness: Optional[HardnessEntry] = None
    layouts: Tuple[str, ...] = ("tuple-independent", "bid", "general")


@dataclass(frozen=True)
class Metric:
    """Everything the library knows about one distance.

    ``reference`` is the distance of two answers, called
    ``reference(first, second, k=k)`` for Top-k and
    ``reference(first, second)`` for worlds.  ``closed_form`` is the exact
    expected distance of a candidate, ``closed_form(session, answer, k)``
    for Top-k and ``closed_form(tree, world)`` for worlds (None where the
    paper gives none).  ``mean`` and ``median`` are the exact algorithms
    (None where the statistic is not offered), ``approximation`` the
    paper's approximation, if any, and ``estimator(view, k)`` the
    vectorised per-sample distance over a
    :class:`~repro.engine.sampling.SampleView`.  ``ordered`` is False when
    the distance ignores the order of a Top-k list; ``symbol`` is its
    subscript in route texts if not its name.
    """

    name: str
    family: str
    reference: Callable[..., float]
    closed_form: Optional[Callable[..., float]]
    mean: Algorithm
    median: Optional[Algorithm] = None
    approximation: Optional[Algorithm] = None
    estimator: Optional[Callable[..., Any]] = None
    ordered: bool = True
    symbol: str = ""

    def exact(self, statistic: str) -> Optional[Algorithm]:
        """The exact algorithm for ``"mean"`` or ``"median"``."""
        return self.median if statistic == "median" else self.mean


def _pivot_cost(n: int, query: Any) -> float:
    pool = query.param("candidate_pool_size")
    pool = pool if pool is not None else min(2 * query.k, n)
    return float(n) * query.k + float(pool) ** 2


METRICS: Tuple[Metric, ...] = (
    Metric(
        name="symmetric_difference",
        family="topk",
        reference=topk_distances.topk_symmetric_difference,
        closed_form=delta.expected_topk_symmetric_difference,
        estimator=sampling.symmetric_difference_kernel,
        ordered=False,
        mean=Algorithm(
            delta.mean_topk_symmetric_difference,
            "mean_topk_symmetric_difference (Theorem 3 rank-matrix "
            "kernel)",
            lambda n, query: float(n) * query.k,
            "one truncated rank-matrix sweep (n x k)",
            ("rank_matrix",),
            hardness=HardnessEntry(
                "ptime",
                "Theorem 3",
                "the mean Top-k answer under d_Delta is the k tuples with "
                "the largest Pr(r(t) <= k), one rank-matrix sweep",
            ),
        ),
        median=Algorithm(
            delta.median_topk_symmetric_difference,
            "median_topk_symmetric_difference (Theorem 4 size-table "
            "merge)",
            lambda n, query: float(n) * query.k + float(n) ** 2,
            "rank sweep n*k + per-size best-world tables n^2",
            ("rank_matrix", "top_k_membership"),
            hardness=HardnessEntry(
                "ptime",
                "Theorem 4",
                "the median Top-k answer under d_Delta is recovered exactly "
                "from per-size best-world tables",
            ),
        ),
    ),
    Metric(
        name="footrule",
        family="topk",
        reference=topk_distances.topk_footrule_distance,
        closed_form=footrule.expected_topk_footrule_distance,
        estimator=sampling.footrule_kernel,
        mean=Algorithm(
            footrule.mean_topk_footrule,
            "mean_topk_footrule (Section 5.4 min-cost assignment over "
            "the Upsilon tables)",
            lambda n, query: float(n) * query.k + float(query.k) ** 3,
            "footrule cost matrix n*k + assignment k^3",
            ("rank_matrix", "footrule_statistics"),
            hardness=HardnessEntry(
                "ptime",
                "Section 5.4",
                "the mean Top-k answer under Spearman footrule reduces to "
                "one min-cost assignment over the Upsilon tables",
            ),
        ),
    ),
    Metric(
        name="intersection",
        family="topk",
        reference=topk_distances.topk_intersection_distance,
        closed_form=intersection.expected_topk_intersection_distance,
        estimator=sampling.intersection_kernel,
        mean=Algorithm(
            intersection.mean_topk_intersection,
            "mean_topk_intersection (Section 5.3 exact kernel)",
            lambda n, query: float(n) * query.k,
            "one truncated rank-matrix sweep (n x k)",
            ("rank_matrix", "cumulative_rank_matrix"),
            hardness=HardnessEntry(
                "ptime",
                "Section 5.3",
                "exact mean answer under the intersection metric; an "
                "H_k-factor greedy approximation is also available",
            ),
        ),
        approximation=Algorithm(
            intersection.approximate_topk_intersection,
            "approximate_topk_intersection (H_k-factor greedy)",
            lambda n, query: float(n) * query.k,
            "rank sweep n*k + greedy selection",
            ("rank_matrix",),
        ),
    ),
    Metric(
        name="kendall",
        family="topk",
        reference=topk_distances.topk_kendall_distance,
        closed_form=None,
        estimator=sampling.kendall_kernel,
        symbol="K",
        mean=Algorithm(
            kendall.brute_force_mean_topk_kendall,
            "brute_force_mean_topk_kendall (exhaustive candidate x "
            "world enumeration; auto routes here only at most "
            "{limit} tuples and {budget} operations)",
            lambda n, query: float(min(math.perm(n, query.k) << n, 10**300)),
            "P(n,k) candidate answers x 2^n possible worlds",
            hardness=HardnessEntry(
                "np-hard",
                "Section 5.5",
                "exact mean answers under Kendall tau are NP-hard (Kemeny "
                "rank aggregation embeds); the paper prescribes the "
                "footrule 2-approximation, pivot aggregation, or "
                "Monte-Carlo estimation",
            ),
        ),
        approximation=Algorithm(
            kendall.approximate_topk_kendall,
            "approximate_topk_kendall (KwikSort pivoting on the pairwise "
            "preference grid)",
            _pivot_cost,
            "membership sweep n*k + pivot on a pool^2 preference grid",
            ("rank_matrix",),
            paired=False,
        ),
    ),
    Metric(
        name="symmetric_difference",
        family="world",
        reference=distances.symmetric_difference_distance,
        closed_form=set_consensus.expected_symmetric_difference_to_world,
        mean=Algorithm(
            set_consensus.mean_world_symmetric_difference,
            "membership-probability threshold (keep Pr > 1/2, "
            "Theorem 2)",
            lambda n, query: float(n),
            "one pass over the alternative probabilities",
            hardness=HardnessEntry(
                "ptime",
                "Theorem 2",
                "the mean world under d_Delta keeps every alternative with "
                "membership probability > 1/2",
            ),
        ),
        median=Algorithm(
            set_consensus.median_world_symmetric_difference,
            "median world tree DP (exact on and/xor trees)",
            lambda n, query: float(n),
            "one bottom-up pass over the tree",
            hardness=HardnessEntry(
                "ptime",
                "Corollary 1 / Section 4.1",
                "exact tree DP on and/xor trees; NP-hard under arbitrary "
                "correlations (MAX-2-SAT reduction)",
            ),
        ),
    ),
    Metric(
        name="jaccard",
        family="world",
        reference=distances.jaccard_distance,
        closed_form=jaccard.expected_jaccard_distance_to_world,
        mean=Algorithm(
            jaccard.mean_world_jaccard_tuple_independent,
            "probability-sorted prefix scan (Lemma 2; prefix "
            "optimality guaranteed for tuple-independent layouts)",
            lambda n, query: float(n) ** 2,
            "one O(n^2) backend prefix sweep",
            hardness=HardnessEntry(
                "ptime",
                "Lemma 2",
                "the mean world under Jaccard is a prefix of the tuples "
                "sorted by decreasing probability (prefix structure "
                "optimal for tuple-independent layouts)",
            ),
            layouts=("tuple-independent",),
        ),
        median=Algorithm(
            jaccard.median_world_jaccard_bid,
            "per-block representative prefix scan (Section 4.2, BID "
            "layouts)",
            lambda n, query: float(n) ** 2,
            "n prefixes x Lemma 1 evaluation",
            hardness=HardnessEntry(
                "ptime",
                "Section 4.2",
                "the median world under Jaccard scans prefixes of "
                "per-block highest-probability representatives (BID "
                "layouts)",
            ),
        ),
    ),
)

#: The Top-k metrics (Section 5), by name.
TOPK: Dict[str, Metric] = {m.name: m for m in METRICS if m.family == "topk"}

#: The world (set-consensus) metrics (Section 4), by name.
WORLD: Dict[str, Metric] = {m.name: m for m in METRICS if m.family == "world"}
