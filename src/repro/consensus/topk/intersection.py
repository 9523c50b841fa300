"""Top-k consensus under the intersection metric (Section 5.3).

The intersection metric averages the (normalised) symmetric differences of
all prefixes, so the expected distance of a candidate answer
``τ = (τ(1), ..., τ(k))`` is

``E[d_I(τ, τ_pw)] = (1/k) Σ_{i=1..k} (i + Σ_t Pr(r(t)<=i)
                      - 2 Σ_{t in τ^i} Pr(r(t)<=i)) / (2 i)``

Only the last sum depends on ``τ``; maximising

``A(τ) = Σ_{i=1..k} (1/i) Σ_{t in τ^i} Pr(r(t) <= i)
       = Σ_t Σ_{j=1..k} δ(t = τ(j)) Σ_{i=j..k} Pr(r(t) <= i) / i``

is an assignment problem between tuples and positions, solved exactly with
the Hungarian algorithm.  The profit table ``P(t, j) = Σ_{i=j..k}
Pr(r(t) <= i) / i`` comes from one backend kernel
(:meth:`~repro.engine.backends.Backend.intersection_profit_matrix`), and the
assignment is solved over at most ``k²`` candidate tuples: the ``k`` most
profitable tuples of every position.  The pruning lemma of
:mod:`repro.consensus.topk.footrule` (stated there for costs) applies with
"most profitable" for "cheapest", so the pruned optimum has the full
optimum's profit; when several assignments tie for it, the pruned solve may
return a different one of them.  The paper also proves that ranking tuples
by the ``Υ_H`` parameterized ranking function gives an answer ``τ_H`` with
``A(τ_H) >= A(τ*) / H_k``, i.e. an ``H_k``-approximation; both are provided
and the benchmark harness measures the empirical gap.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    assignment_table,
    rank_matrix_view,
    top_keys,
    validate_answer,
)
from repro.consensus.topk.ranking_functions import upsilon_h_weights
from repro.matching import maximize_profit_assignment


def _answer_rows(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> Tuple[List[float], List[List[float]]]:
    """Validate ``answer``; return the column totals of the cumulative
    matrix and its rows for the answer's keys, in answer order."""
    session = as_session(source)
    answer = validate_answer(session, answer, k)
    cumulative = rank_matrix_view(session, k, cumulative=True)
    return cumulative.column_totals(), [cumulative.row(key) for key in answer]


def expected_topk_intersection_distance(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """Expected intersection distance between ``answer`` and the random Top-k."""
    totals, rows = _answer_rows(source, answer, k)
    total = 0.0
    for i in range(1, k + 1):
        inside = sum(row[i - 1] for row in rows[:i])
        total += (i + totals[i - 1] - 2.0 * inside) / (2.0 * i)
    return total / k


def intersection_objective(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """The objective ``A(τ)`` maximised by the mean intersection answer."""
    _, rows = _answer_rows(source, answer, k)
    return sum(
        sum(row[i - 1] for row in rows[:i]) / i for i in range(1, k + 1)
    )


def mean_topk_intersection(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The exact mean Top-k answer under the intersection metric.

    Solved as an assignment problem: placing tuple ``t`` at position ``j``
    earns profit ``Σ_{i=j..k} Pr(r(t) <= i) / i``.  Returns the optimal
    answer and its expected intersection distance.
    """
    session = as_session(source)
    cumulative = rank_matrix_view(session, k, cumulative=True)
    # A zero row earns nothing anywhere.
    profit = cumulative.backend.intersection_profit_matrix(
        cumulative.live, k
    )
    rows, table = assignment_table(
        cumulative, profit, [0.0] * k, maximize=True
    )
    assignment, _ = maximize_profit_assignment(table)
    answer = tuple(cumulative.keys_at([rows[column] for column in assignment]))
    return answer, expected_topk_intersection_distance(session, answer, k)


def approximate_topk_intersection(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The ``Υ_H``-based ``H_k``-approximation of the mean intersection answer.

    Returns the ``k`` tuples with the largest ``Υ_H`` values, ordered by
    decreasing value, and the expected intersection distance of that answer.
    """
    session = as_session(source)
    matrix = rank_matrix_view(session, k)
    values = matrix.weighted_vector(upsilon_h_weights(k))
    answer = tuple(top_keys(matrix, values, k))
    return answer, expected_topk_intersection_distance(session, answer, k)
