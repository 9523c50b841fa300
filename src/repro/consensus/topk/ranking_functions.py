"""Parameterized ranking functions (Section 5.3).

The parameterized ranking function of Li, Saha and Deshpande assigns tuple
``t`` the value ``Υ_ω(t) = Σ_i ω(i) · Pr(r(t) = i)`` for a position-weight
function ``ω``.  The paper uses the special case

``Υ_H(t) = Σ_{i=1..k} (H_k - H_{i-1}) Pr(r(t) = i) = Σ_{i=1..k} Pr(r(t) <= i)/i``

whose Top-k answer is an ``H_k``-approximation of the mean consensus answer
under the intersection metric.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List

from repro.consensus.topk.common import (
    TreeOrStatistics,
    as_session,
    validate_k,
)
from repro.engine import RankMatrix


def harmonic_number(n: int) -> float:
    """The ``n``-th harmonic number ``H_n`` (``H_0 = 0``)."""
    if n < 0:
        raise ValueError("harmonic numbers are defined for n >= 0")
    return sum(1.0 / i for i in range(1, n + 1))


def parameterized_ranking_function(
    source: TreeOrStatistics,
    weight: Callable[[int], float],
    max_rank: int,
) -> Dict[Hashable, float]:
    """``Υ_ω(t) = Σ_{i=1..max_rank} ω(i) Pr(r(t) = i)`` for every tuple.

    Evaluated for all tuples at once as a matrix-vector product of the
    batched :class:`~repro.engine.RankMatrix` with the weight vector.
    """
    session = as_session(source)
    matrix: RankMatrix = session.rank_matrix(max_rank)
    weights = [weight(position) for position in range(1, max_rank + 1)]
    return matrix.weighted_sums(weights)


def upsilon_h_weights(k: int) -> List[float]:
    """The ``Υ_H`` position weights ``H_k - H_{i-1}`` for ``i = 1..k``."""
    h_k = harmonic_number(k)
    return [h_k - harmonic_number(i - 1) for i in range(1, k + 1)]


def upsilon_h(source: TreeOrStatistics, k: int) -> Dict[Hashable, float]:
    """The ``Υ_H`` ranking function: ``Σ_{i=1..k} Pr(r(t) <= i) / i``."""
    session = as_session(source)
    validate_k(session, k)
    return session.rank_matrix(k).weighted_sums(upsilon_h_weights(k))
