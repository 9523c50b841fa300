"""Tuple-independent probabilistic databases.

The simplest probabilistic database model: every tuple appears independently
with its own probability.  This is the model for which the paper's Jaccard
mean-world algorithm (Section 4.2) is stated.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

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
        keys: List[Hashable] = []
        values: List[Hashable] = []
        scores: List[Optional[float]] = []
        probabilities: List[float] = []
        seen: set = set()
        for item in tuples:
            if len(item) == 3:
                key, value, probability = item
                score = None
            elif len(item) == 4:
                key, value, score, probability = item
            else:
                raise ProbabilityError(
                    "expected (key, value, probability) or "
                    f"(key, value, score, probability), got {item!r}"
                )
            if key in seen:
                raise ProbabilityError(
                    f"duplicate key {key!r} in a tuple-independent database"
                )
            seen.add(key)
            keys.append(key)
            values.append(value)
            scores.append(score)
            probabilities.append(check_tuple_probability(float(probability)))
        super().__init__(
            FlatColumns(
                keys, values, scores, probabilities, list(range(len(keys)))
            ),
            name=name,
        )

    def tuple_probabilities(self) -> Dict[Hashable, float]:
        """The per-key presence probabilities as given at construction."""
        return dict(zip(self._columns.keys, self._columns.probabilities))
