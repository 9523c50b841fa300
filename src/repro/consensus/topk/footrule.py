"""Top-k consensus under the Spearman footrule distance (Section 5.4).

With the location parameter ``ℓ = k + 1`` the footrule distance between
Top-k lists has the closed form quoted in Section 5.1; Figure 2 of the paper
rewrites its expectation against the random Top-k answer as

``E[F*(τ, τ_pw)] = C + Σ_t Σ_{i=1..k} δ(t = τ(i)) f(t, i)``

where, writing ``Υ1(t) = Σ_{i<=k} Pr(r(t)=i)``,
``Υ2(t) = Σ_{i<=k} i Pr(r(t)=i)`` and
``Υ3(t, i) = Σ_{j<=k} Pr(r(t)=j) |i-j| - i Pr(r(t) > k)``,

* ``C = (k+1) k + Σ_t ((k+1) Υ1(t) - Υ2(t))`` is independent of ``τ``, and
* ``f(t, i) = Υ3(t, i) + Υ2(t) - 2 (k+1) Υ1(t)``.

Choosing which tuple occupies which position to minimise ``Σ_i f(τ(i), i)``
is an assignment problem, solved exactly with the Hungarian algorithm.

.. note::
   The paper prints ``Υ3`` with ``+ i Pr(r(t) > k)``, but its own derivation
   in Figure 2 subtracts the ``Σ_i δ(t = τ(i)) i Pr(r(t) > k)`` term (a tuple
   of the candidate answer that falls *outside* the random Top-k contributes
   ``(k+1) - τ(t)``, whose ``-τ(t)`` part is this term).  The minus sign used
   here is the one that makes the decomposition agree with the brute-force
   expected distance; ``tests/test_topk_footrule.py`` verifies this equality
   by exhaustive enumeration.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    rank_matrix_view,
    validate_k,
)
from repro.exceptions import ConsensusError
from repro.matching import minimize_cost_assignment


class FootruleStatistics:
    """The Υ1 / Υ2 / Υ3 statistics of Section 5.4 for one database.

    Instances are memoized per ``k`` on the query session
    (:meth:`repro.session.QuerySession.footrule_statistics`), so evaluating
    several candidate answers reuses the same Υ tables.  The whole
    ``n × k`` cost table ``f(t, i)`` is produced by one backend kernel
    (:meth:`~repro.engine.backends.Backend.footrule_cost_matrix`: a matrix
    product of the truncated rank matrix against the ``k × k`` ``|i-j|``
    grid plus two rank-one updates) instead of the per-entry Υ3 loop.
    """

    def __init__(self, source: TreeOrStatistics, k: int) -> None:
        # The session is not kept: it memoizes this object, and a back
        # reference would make every session a reference cycle.
        session = as_session(source)
        self._k = validate_k(session, k)
        self._matrix = rank_matrix_view(session, k)
        # Υ1 and Υ2 for all tuples in two weighted row sums.
        self._upsilon1 = self._matrix.membership()
        self._upsilon2 = self._matrix.weighted_sums(
            [float(i) for i in range(1, k + 1)]
        )
        backend = self._matrix.backend
        self._cost = backend.footrule_cost_matrix(self._matrix.native, k)
        self._row_index = {
            key: row for row, key in enumerate(self._matrix.keys())
        }

    @property
    def k(self) -> int:
        """The answer size."""
        return self._k

    def keys(self) -> List[Hashable]:
        """The tuple keys of the database, aligned with :meth:`cost_rows`.

        ``keys()[column]`` is the tuple of column ``column`` of the cost
        table (the rank-matrix row order).
        """
        return self._matrix.keys()

    def upsilon1(self, key: Hashable) -> float:
        """``Υ1(t) = Pr(r(t) <= k)``."""
        return self._upsilon1[key]

    def upsilon2(self, key: Hashable) -> float:
        """``Υ2(t) = Σ_{i<=k} i Pr(r(t) = i)``."""
        return self._upsilon2[key]

    def upsilon3(self, key: Hashable, position: int) -> float:
        """``Υ3(t, i) = Σ_{j<=k} Pr(r(t)=j) |i-j| - i Pr(r(t) > k)``.

        See the module docstring for the sign of the second term.
        Recovered from the precomputed cost table via
        ``Υ3(t, i) = f(t, i) - Υ2(t) + 2 (k+1) Υ1(t)``.
        """
        return (
            self.position_cost(key, position)
            - self.upsilon2(key)
            + 2.0 * (self._k + 1.0) * self.upsilon1(key)
        )

    def constant_term(self) -> float:
        """The ``τ``-independent constant ``C`` of Figure 2."""
        k = self._k
        return (k + 1.0) * k + sum(
            (k + 1.0) * self.upsilon1(key) - self.upsilon2(key)
            for key in self.keys()
        )

    def position_cost(self, key: Hashable, position: int) -> float:
        """``f(t, i) = Υ3(t, i) + Υ2(t) - 2 (k+1) Υ1(t)``."""
        if not 1 <= position <= self._k:
            raise ConsensusError(
                f"position must lie in 1..{self._k}, got {position}"
            )
        return self._matrix.backend.matrix_cell(
            self._cost, self._row_index[key], position - 1
        )

    def cost_rows(self) -> List[List[float]]:
        """The ``k × n`` assignment cost table (rows = positions).

        ``cost_rows()[i - 1][column]`` is ``f(t, i)`` for the tuple at
        ``keys()[column]`` -- the orientation
        :func:`~repro.matching.minimize_cost_assignment` needs
        (``rows <= cols``).
        """
        backend = self._matrix.backend
        return backend.matrix_to_lists(backend.transpose(self._cost))


def expected_topk_footrule_distance(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """Expected footrule distance between ``answer`` and the random Top-k.

    Evaluates the Figure 2 decomposition ``C + Σ_i f(τ(i), i)`` exactly.
    """
    footrule = as_session(source).footrule_statistics(k)
    answer = tuple(answer)
    if len(answer) != k:
        raise ConsensusError(
            f"the candidate answer must have exactly k = {k} items"
        )
    if len(set(answer)) != k:
        raise ConsensusError("the candidate answer contains duplicates")
    total = footrule.constant_term()
    for position, key in enumerate(answer, start=1):
        total += footrule.position_cost(key, position)
    return total


def mean_topk_footrule(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The exact mean Top-k answer under the footrule distance ``F^(k+1)``.

    Solved as a minimum-cost assignment of tuples to the ``k`` positions with
    cost ``f(t, i)``; returns the optimal answer and its expected distance.
    """
    session = as_session(source)
    footrule = session.footrule_statistics(k)
    keys = footrule.keys()
    assignment, _ = minimize_cost_assignment(footrule.cost_rows())
    answer = tuple(keys[column] for column in assignment)
    return answer, expected_topk_footrule_distance(session, answer, k)
