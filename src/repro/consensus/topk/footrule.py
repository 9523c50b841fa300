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

**Candidate pruning.**  The assignment is solved over at most ``k²`` of the
``n`` tuples.  Let ``S_i`` be ``k`` tuples with the smallest cost at
position ``i``, so no tuple outside ``S_i`` is cheaper there.  Some optimal
assignment uses only tuples of ``∪ S_i``: if position ``i`` holds a tuple
``c ∉ S_i``, the other ``k - 1`` positions hold at most ``k - 1`` tuples of
``S_i``, so some ``c' ∈ S_i`` is free and ``f(c', i) <= f(c, i)``; swapping
``c`` for ``c'`` never raises the cost, and repeating the swap ends inside
``∪ S_i``.  (With ``n <= k²`` every tuple is kept.)  The pruned optimum
therefore has the full optimum's cost.  The caveat is ties: when several
assignments reach the optimal cost, the pruned solve may return a different
one of them than a solve over all ``n`` tuples would -- same expected
distance, different answer.

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

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    assignment_table,
    rank_matrix_view,
    validate_answer,
    validate_k,
)
from repro.exceptions import ConsensusError
from repro.matching import minimize_cost_assignment


class FootruleStatistics:
    """The Υ1 / Υ2 / Υ3 statistics of Section 5.4 for one database.

    Instances are memoized per ``k`` on the query session
    (:meth:`repro.session.QuerySession.footrule_statistics`), so evaluating
    several candidate answers reuses the same Υ tables.  The cost table
    ``f(t, i)`` is produced by one backend kernel
    (:meth:`~repro.engine.backends.Backend.footrule_cost_matrix`: a matrix
    product of the truncated rank matrix against the ``k × k`` ``|i-j|``
    grid plus two rank-one updates) instead of the per-entry Υ3 loop.
    Υ1, Υ2 and the cost table stay backend-native; the per-key accessors
    look one row up on demand.

    **Zero tail.**  The tables cover only the rank matrix's live rows
    (:attr:`~repro.engine.RankMatrix.support`).  Every later row is zero,
    so its entries have a closed form: ``Υ1 = Υ2 = 0`` and
    ``f(t, i) = -i``.  A row with mass is strictly cheaper at every
    position: with ``P_j = Pr(r(t) = j)``,
    ``f(t, i) + i = Σ_j P_j (|i-j| + i + j - 2k - 2)
    = Σ_j P_j (2 max(i, j) - 2k - 2) < 0``, as ``max(i, j) <= k``.  So
    once ``k`` rows carry mass the cheapest ``k`` of every position lie
    among the live rows, and the mean answer prunes over them alone
    (:func:`~repro.consensus.topk.common.assignment_table`).
    """

    def __init__(self, source: TreeOrStatistics, k: int) -> None:
        # The session is not kept: it memoizes this object, and a back
        # reference would make every session a reference cycle.
        session = as_session(source)
        self._k = validate_k(session, k)
        self._matrix = rank_matrix_view(session, k)
        backend = self._matrix.backend
        live = self._matrix.live
        # Υ1 and Υ2 of the live rows as two native vectors.
        self._upsilon1 = backend.row_sums(live)
        self._upsilon2 = backend.matvec(
            live, [float(i) for i in range(1, k + 1)]
        )
        self._cost = backend.footrule_cost_matrix(live, k)
        #: ``f(t, i) = -i``: the cost row of every row past the support.
        self._tail = [-float(i) for i in range(1, k + 1)]

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

    def _live_row(self, key: Hashable) -> Optional[int]:
        """The table row of ``key``, or None past the support."""
        (row,) = self._matrix.rows_of([key])
        return row if row < self._matrix.support else None

    def _vector_entry(self, vector: Any, key: Hashable) -> float:
        row = self._live_row(key)
        if row is None:
            return 0.0
        return self._matrix.backend.vector_values(vector, [row])[0]

    def upsilon1(self, key: Hashable) -> float:
        """``Υ1(t) = Pr(r(t) <= k)``."""
        return self._vector_entry(self._upsilon1, key)

    def upsilon2(self, key: Hashable) -> float:
        """``Υ2(t) = Σ_{i<=k} i Pr(r(t) = i)``."""
        return self._vector_entry(self._upsilon2, key)

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
        backend = self._matrix.backend
        return (
            (k + 1.0) * k
            + (k + 1.0) * backend.vector_sum(self._upsilon1)
            - backend.vector_sum(self._upsilon2)
        )

    def position_cost(self, key: Hashable, position: int) -> float:
        """``f(t, i) = Υ3(t, i) + Υ2(t) - 2 (k+1) Υ1(t)``."""
        if not 1 <= position <= self._k:
            raise ConsensusError(
                f"position must lie in 1..{self._k}, got {position}"
            )
        row = self._live_row(key)
        if row is None:
            return self._tail[position - 1]
        return self._matrix.backend.matrix_cell(self._cost, row, position - 1)

    def cost_rows(self) -> List[List[float]]:
        """The ``k × n`` assignment cost table (rows = positions).

        ``cost_rows()[i - 1][column]`` is ``f(t, i)`` for the tuple at
        ``keys()[column]`` -- the orientation
        :func:`~repro.matching.minimize_cost_assignment` needs
        (``rows <= cols``).  A full-width per-key view: the mean answer
        solves the pruned table instead.
        """
        backend = self._matrix.backend
        cost = backend.extend_rows(self._cost, len(self._matrix), self._tail)
        return backend.matrix_to_lists(backend.transpose(cost))


def expected_topk_footrule_distance(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """Expected footrule distance between ``answer`` and the random Top-k.

    Evaluates the Figure 2 decomposition ``C + Σ_i f(τ(i), i)`` exactly.
    """
    session = as_session(source)
    answer = validate_answer(session, answer, k)
    footrule = session.footrule_statistics(k)
    return footrule.constant_term() + sum(
        footrule.position_cost(key, position)
        for position, key in enumerate(answer, start=1)
    )


def mean_topk_footrule(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The exact mean Top-k answer under the footrule distance ``F^(k+1)``.

    Solved as a minimum-cost assignment of tuples to the ``k`` positions
    with cost ``f(t, i)``, over the at most ``k²`` candidate tuples of the
    pruning lemma (module docstring); returns the optimal answer and its
    expected distance.
    """
    session = as_session(source)
    footrule = session.footrule_statistics(k)
    matrix = footrule._matrix
    rows, table = assignment_table(
        matrix, footrule._cost, footrule._tail, maximize=False
    )
    assignment, _ = minimize_cost_assignment(table)
    answer = tuple(matrix.keys_at([rows[column] for column in assignment]))
    return answer, expected_topk_footrule_distance(session, answer, k)
