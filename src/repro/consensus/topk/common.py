"""Shared plumbing for the Top-k consensus algorithms."""

from __future__ import annotations

from typing import Any, Hashable, List, Sequence, Tuple, Union

from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.engine import RankMatrix
from repro.exceptions import ConsensusError
from repro.session import QuerySession
from repro.session import as_session as _as_session

TreeOrStatistics = Union[AndXorTree, RankStatistics, QuerySession]
TopKAnswer = Tuple[Hashable, ...]


def as_session(source: TreeOrStatistics) -> QuerySession:
    """Coerce a tree / statistics / session into a :class:`QuerySession`.

    This is the shared entry point of every consensus algorithm: passing an
    existing session (or a statistics object, whose attached session is
    reused) shares the memoized rank matrices, preference matrices and
    membership vectors across queries; passing a bare tree builds a
    throwaway session so the module-level API stays source-compatible.
    """
    try:
        return _as_session(source)
    except TypeError:
        raise ConsensusError(
            "expected an AndXorTree, RankStatistics or QuerySession, got "
            f"{type(source).__name__}"
        ) from None


def validate_k(source: TreeOrStatistics, k: int) -> int:
    """Validate the requested answer size against the database size."""
    if k <= 0:
        raise ConsensusError(f"k must be positive, got {k}")
    n = as_session(source).number_of_tuples()
    if k > n:
        raise ConsensusError(
            f"k = {k} exceeds the number of tuples in the database ({n})"
        )
    return k


def rank_matrix_view(
    source: TreeOrStatistics, k: int, cumulative: bool = False
) -> RankMatrix:
    """The validated ``n_tuples × k`` rank matrix of a database.

    The shared entry point the Top-k consensus algorithms use instead of
    assembling per-key ``List[float]`` dictionaries one lookup at a time;
    ``cumulative=True`` returns the ``Pr(r(t) <= i)`` view.  Both views are
    memoized on the session, so a warm session serves them without
    recomputation.
    """
    session = as_session(source)
    validate_k(session, k)
    if cumulative:
        return session.cumulative_rank_matrix(k)
    return session.rank_matrix(k)


def validate_answer(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> TopKAnswer:
    """Check a candidate Top-k answer and return it as a tuple.

    The one rule every closed-form expected distance applies: ``k`` must
    be valid for the database, and the answer must list exactly ``k``
    distinct keys of the database.  Raises
    :class:`~repro.exceptions.ConsensusError` otherwise.
    """
    matrix = rank_matrix_view(source, k)
    answer = tuple(answer)
    if len(answer) != k:
        raise ConsensusError(
            f"the candidate answer must have exactly k = {k} items"
        )
    if len(set(answer)) != k:
        raise ConsensusError("the candidate answer contains duplicates")
    for key in answer:
        if key not in matrix:
            raise ConsensusError(f"answer mentions unknown tuple {key!r}")
    return answer


def top_keys(matrix: RankMatrix, values: Any, count: int) -> List[Hashable]:
    """The ``count`` keys with the largest ``values``, ties by ``repr(key)``.

    ``values`` is a backend-native vector aligned with ``matrix``'s rows
    and zero past its :attr:`~repro.engine.RankMatrix.support` (a
    nonnegative weighting of each row, such as
    :meth:`~repro.engine.RankMatrix.membership_vector`).  The result
    equals sorting every key by ``(-value, repr(key))`` and keeping the
    first ``count``, but only the survivors of
    :meth:`~repro.engine.backends.Backend.top_indices` (every value tied
    with the ``count``-th largest included) are converted and sorted.
    They are sought among the live rows first: when the ``count``-th
    largest live value is positive, no zero row can be among them;
    otherwise every row is searched.
    """
    backend = matrix.backend
    scored: List[Tuple[float, Hashable]] = []
    if 0 < count and matrix.support < len(matrix):
        live = backend.slice_rows(values, 0, matrix.support)
        scored = _scored(matrix, values, backend.top_indices(live, count))
        if len(scored) < count or scored[count - 1][0] <= 0.0:
            scored = []
    if not scored:
        scored = _scored(matrix, values, backend.top_indices(values, count))
    return [key for _, key in scored[:count]]


def _scored(
    matrix: RankMatrix, values: Any, rows: List[int]
) -> List[Tuple[float, Hashable]]:
    """``(value, key)`` of ``rows``, by decreasing value, ties by
    ``repr(key)``."""
    return sorted(
        zip(matrix.backend.vector_values(values, rows), matrix.keys_at(rows)),
        key=lambda item: (-item[0], repr(item[1])),
    )


def assignment_table(
    matrix: RankMatrix, table: Any, tail: List[float], maximize: bool
) -> Tuple[List[int], List[List[float]]]:
    """The candidate rows of an assignment table and the ``k × len(rows)``
    position-major table over them: assignment column ``c`` is matrix row
    ``rows[c]``.

    ``table`` is a native ``support × k`` table over ``matrix``'s live
    rows (:attr:`~repro.engine.RankMatrix.live`), and ``tail`` the row
    every zero row of ``matrix`` takes in it.  The candidates
    (:meth:`~repro.engine.backends.Backend.assignment_candidates`) come
    from the live rows alone when each position's ``k`` best strictly beat
    ``tail`` -- a row with mass does unless rounding ties it, so that
    holds once ``k`` rows carry mass -- and there are more than ``k²``
    live rows; otherwise from the table padded to every row, as if no row
    were left out.
    """
    backend = matrix.backend
    k = matrix.max_rank
    rows = None
    if matrix.support < len(matrix):
        rows = backend.assignment_candidates(table, k, maximize, tail)
        if rows is None:
            table = backend.extend_rows(table, len(matrix), tail)
    if rows is None:
        rows = backend.assignment_candidates(table, k, maximize)
    pruned = backend.transpose(backend.take_rows(table, rows))
    return rows, backend.matrix_to_lists(pruned)


def order_by_score(
    source: TreeOrStatistics, keys: Sequence[Hashable]
) -> TopKAnswer:
    """Order keys by the maximum score of their alternatives (descending).

    This is the natural presentation order for order-insensitive answers such
    as the symmetric-difference consensus.
    """
    session = as_session(source)
    best_score = session.best_scores(keys)
    return tuple(
        sorted(keys, key=lambda key: (-best_score[key], repr(key)))
    )
