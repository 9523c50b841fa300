"""Block-independent disjoint (BID) probabilistic relations.

A BID relation groups alternatives by their possible-worlds key: the
alternatives of one key are mutually exclusive (their probabilities sum to at
most one), and different keys are independent (Section 3.1 of the paper).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from repro.andxor.columns import FlatColumns
from repro.exceptions import ProbabilityError
from repro.models.relation import ProbabilisticRelation

# One block: key -> list of (value, probability) or (value, score, probability)
BlockSpec = Iterable[Tuple]


class BlockIndependentDatabase(ProbabilisticRelation):
    """A block-independent disjoint relation ``R(K; A; Pr)``.

    Parameters
    ----------
    blocks:
        Mapping (or iterable of pairs) from key to an iterable of
        ``(value, probability)`` or ``(value, score, probability)``
        alternatives.
    name:
        Optional relation name.
    """

    def __init__(
        self,
        blocks: Mapping[Hashable, BlockSpec] | Iterable[Tuple[Hashable, BlockSpec]],
        name: str = "bid",
    ) -> None:
        if isinstance(blocks, Mapping):
            items = list(blocks.items())
        else:
            items = list(blocks)
        normalized: List[Tuple[Hashable, List[Tuple]]] = []
        scores: Dict[Tuple[Hashable, Hashable], float] = {}
        seen: set = set()
        for key, alternatives in items:
            if key in seen:
                raise ProbabilityError(f"duplicate block key {key!r}")
            seen.add(key)
            block: List[Tuple] = []
            for alternative in alternatives:
                if len(alternative) == 2:
                    value, probability = alternative
                elif len(alternative) == 3:
                    value, score, probability = alternative
                    scores[(key, value)] = float(score)
                else:
                    raise ProbabilityError(
                        "expected (value, probability) or "
                        f"(value, score, probability), got {alternative!r}"
                    )
                block.append((value, float(probability)))
            normalized.append((key, block))
        # Explicit scores are looked up per (key, value) once every block is
        # read, as the tree builder always did.
        super().__init__(
            FlatColumns.from_blocks(
                (
                    key,
                    [
                        (value, scores.get((key, value)), probability)
                        for value, probability in block
                    ],
                )
                for key, block in normalized
            ),
            name=name,
        )

    def blocks(self) -> Dict[Hashable, List[Tuple[Hashable, float]]]:
        """The (non-empty) blocks as ``key -> [(value, probability), ...]``."""
        columns = self._columns
        return {
            key: [
                (columns.values[row], columns.probabilities[row])
                for row in columns.rows_of(key)
            ]
            for key in columns.keys
        }

    def block_presence_probability(self, key: Hashable) -> float:
        """Probability that the block produces any alternative."""
        return self._columns.presence(key)
