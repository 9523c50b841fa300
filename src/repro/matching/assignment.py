"""Backend-aware dispatch for the assignment solvers.

The paper's footrule and intersection consensus answers both end in a
rectangular assignment problem.  Two exact solvers are available:

* the from-scratch Hungarian implementation
  (:mod:`repro.matching.hungarian`) -- the dependency-free reference;
* SciPy's ``linear_sum_assignment`` (a C implementation of the modified
  Jonker-Volgenant algorithm), used when SciPy is importable *and* the
  NumPy compute backend is active, mirroring how the engine treats NumPy
  itself: an optional accelerator, never a requirement.

Both solvers are exact, so any optimum they return has the same total
cost; ties between distinct optimal assignments may be broken differently.
The dispatch preserves the reference contract (``rows <= cols``, every row
assigned to a distinct column, :class:`~repro.exceptions.MatchingError` on
malformed input) and is parity-tested against the Hungarian solver in
``tests/test_matching.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Sequence, Tuple

from repro.engine import get_backend
from repro.exceptions import MatchingError
from repro.matching import hungarian as _hungarian


@lru_cache(maxsize=None)
def _scipy_solver() -> Any:
    """SciPy's ``linear_sum_assignment``, or None when SciPy is missing.

    Imported on first use, not at module load: ``scipy.optimize`` takes
    longer to import than the rest of the package together.
    """
    try:  # SciPy is an optional accelerator, never a hard dependency.
        from scipy.optimize import linear_sum_assignment
    except ImportError:  # pragma: no cover - exercised on SciPy-free installs
        return None
    return linear_sum_assignment


def scipy_solver_available() -> bool:
    """True when ``scipy.optimize.linear_sum_assignment`` is importable."""
    return _scipy_solver() is not None


def _validate(cost: Sequence[Sequence[float]]) -> Tuple[int, int]:
    rows = len(cost)
    if rows == 0:
        return 0, 0
    cols = len(cost[0])
    if any(len(row) != cols for row in cost):
        raise MatchingError("cost matrix rows have inconsistent lengths")
    if rows > cols:
        raise MatchingError(
            f"assignment requires rows <= cols, got {rows} rows x {cols} cols"
        )
    return rows, cols


def minimize_cost_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Solve the rectangular assignment problem (minimisation).

    Same contract as
    :func:`repro.matching.hungarian.minimize_cost_assignment`; routed to
    SciPy's ``linear_sum_assignment`` when it is importable and the NumPy
    engine backend is active, and to the Hungarian reference otherwise.
    """
    rows, _ = _validate(cost)
    if rows == 0:
        return [], 0.0
    solver = _scipy_solver() if get_backend().name == "numpy" else None
    if solver is not None:
        row_indices, column_indices = solver(cost)
        assignment: List[int] = [-1] * rows
        total = 0.0
        for row, column in zip(row_indices, column_indices):
            assignment[int(row)] = int(column)
            total += cost[int(row)][int(column)]
        return assignment, total
    return _hungarian.minimize_cost_assignment(cost)


def maximize_profit_assignment(
    profit: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Solve the rectangular assignment problem (maximisation).

    Negates the matrix and dispatches through
    :func:`minimize_cost_assignment`.
    """
    negated = [[-value for value in row] for row in profit]
    assignment, negative_total = minimize_cost_assignment(negated)
    return assignment, -negative_total
