"""Tuple-independent probabilistic databases.

The simplest probabilistic database model: every tuple appears independently
with its own probability.  This is the model for which the paper's Jaccard
mean-world algorithm (Section 4.2) is stated.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

from repro.andxor.columns import FlatColumns, check_tuple_probability
from repro.exceptions import ProbabilityError
from repro.models.relation import ProbabilisticRelation


class TupleIndependentDatabase(ProbabilisticRelation):
    """A tuple-independent probabilistic relation.

    Parameters
    ----------
    tuples:
        Iterable of ``(key, value, probability)`` triples or
        ``(key, value, score, probability)`` quadruples.
    name:
        Optional relation name.
    """

    def __init__(
        self,
        tuples: Iterable[Tuple],
        name: str = "tuple_independent",
    ) -> None:
        rows = tuples if isinstance(tuples, list) else list(tuples)
        # One pass per column; the probability rule is checked as an array
        # by the columns.  A malformed row or a duplicate key is reported
        # by the row-by-row check, which raises the first error in row
        # order.
        lengths = set(map(len, rows))
        if not lengths <= {3, 4}:
            _raise_first_error(rows)
        keys = [row[0] for row in rows]
        if len(set(keys)) != len(keys):
            _raise_first_error(rows)
        if lengths == {4}:
            scores = [row[2] for row in rows]
        else:
            scores = [row[2] if len(row) == 4 else None for row in rows]
        super().__init__(
            FlatColumns.from_independent(
                keys,
                [row[1] for row in rows],
                scores,
                [row[-1] for row in rows],
            ),
            name=name,
        )

    def tuple_probabilities(self) -> Dict[Hashable, float]:
        """The per-key presence probabilities as given at construction."""
        columns = self._columns
        return dict(
            zip(columns.keys, columns.backend.vector_values(columns.probabilities))
        )


def _raise_first_error(rows: List[Tuple]) -> None:
    """Raise the error of the first malformed row, duplicate key or
    out-of-range probability, in row order."""
    seen: set = set()
    for item in rows:
        if len(item) not in (3, 4):
            raise ProbabilityError(
                "expected (key, value, probability) or "
                f"(key, value, score, probability), got {item!r}"
            )
        key = item[0]
        if key in seen:
            raise ProbabilityError(
                f"duplicate key {key!r} in a tuple-independent database"
            )
        seen.add(key)
        check_tuple_probability(float(item[-1]))
