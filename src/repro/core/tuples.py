"""Tuple alternatives for probabilistic relations.

A probabilistic relation ``R^P(K; A)`` associates each possible-worlds key
with a set of mutually exclusive *alternatives* -- concrete (key, value)
pairs, at most one of which appears in any single possible world (Section 3.1
of the paper).

For ranking queries every alternative additionally carries a numeric *score*;
when no explicit score is given the value attribute is used as the score if
it is numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional


def effective_score(
    value: Hashable, score: Optional[float]
) -> Optional[float]:
    """The ranking score of a ``(value, score)`` pair: the explicit score,
    else a numeric (non-bool) value, else None."""
    if score is not None:
        return float(score)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass(frozen=True, order=True)
class TupleAlternative:
    """One alternative of a probabilistic tuple.

    Attributes
    ----------
    key:
        The possible-worlds key identifying the probabilistic tuple this
        alternative belongs to.  Two alternatives with the same key are
        mutually exclusive in every valid model.
    value:
        The (uncertain) value attribute.
    score:
        Optional explicit score used by ranking queries.  When omitted and
        ``value`` is numeric, the value doubles as the score.
    """

    key: Hashable
    value: Hashable
    score: Optional[float] = field(default=None, compare=True)

    def effective_score(self) -> float:
        """Return the score used for ranking.

        Falls back to the value attribute when no explicit score is set.

        Raises
        ------
        TypeError
            If neither an explicit score nor a numeric value is available.
        """
        score = effective_score(self.value, self.score)
        if score is None:
            raise TypeError(
                f"alternative {self!r} has no numeric score; "
                "provide an explicit score for ranking queries"
            )
        return score

    def with_score(self, score: float) -> "TupleAlternative":
        """Return a copy of this alternative with the given explicit score."""
        return TupleAlternative(self.key, self.value, float(score))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.score is None:
            return f"({self.key!r}, {self.value!r})"
        return f"({self.key!r}, {self.value!r}, score={self.score})"


def group_alternatives_by_key(
    alternatives: Iterable[TupleAlternative],
) -> Dict[Hashable, List[TupleAlternative]]:
    """Group alternatives by their possible-worlds key, preserving order."""
    grouped: Dict[Hashable, List[TupleAlternative]] = {}
    for alternative in alternatives:
        grouped.setdefault(alternative.key, []).append(alternative)
    return grouped


def distinct_keys(alternatives: Iterable[TupleAlternative]) -> List[Hashable]:
    """Return the distinct keys appearing among ``alternatives`` in order."""
    seen = set()
    keys = []
    for alternative in alternatives:
        if alternative.key not in seen:
            seen.add(alternative.key)
            keys.append(alternative.key)
    return keys


def validate_distinct_scores(
    alternatives: Iterable[TupleAlternative],
) -> None:
    """Raise ``ValueError`` if two alternatives share the same score.

    The paper assumes that no two tuples take the same score, to avoid ties
    in rankings (Section 5).  Ranking algorithms call this validator to fail
    fast on ambiguous inputs.
    """
    seen: Dict[float, TupleAlternative] = {}
    for alternative in alternatives:
        score = alternative.effective_score()
        if score in seen:
            raise ValueError(
                f"alternatives {seen[score]!r} and {alternative!r} share "
                f"score {score}; ranking queries require distinct scores"
            )
        seen[score] = alternative
