"""Columnar storage of tuple-independent and block-independent relations.

Tuple-independent (TI) and BID relations are the flat special case of the
and/xor tree (Section 3.1 of the paper): an and root over independent xor
blocks whose children are leaves of one key.  Their rank statistics are
closed forms over the (score, probability, block) columns -- e.g. the
Bernoulli product ``Π (1 - p_i + p_i x)`` of the TI rank matrix -- so
:class:`FlatColumns` keeps exactly those columns, one row per alternative
in insertion order, plus a cached decreasing-score permutation.  The
equivalent :class:`~repro.andxor.tree.AndXorTree` is built lazily, with the
builders' leaf order, only for the general, world-level and sampling paths.

A :class:`FlatColumns` is immutable by contract: :meth:`replace_block`
returns a patched copy that shares every unchanged column.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative, effective_score
from repro.exceptions import ProbabilityError

#: One alternative row: ``(value, explicit score or None, probability)``.
Row = Tuple[Hashable, Optional[float], float]

_TREE_LOCK = threading.Lock()


def check_tuple_probability(probability: float) -> float:
    """The tuple-independent probability rule (``0 <= p <= 1``)."""
    if not 0.0 <= probability <= 1.0 + 1e-12:
        raise ProbabilityError(
            f"tuple probability {probability} outside [0, 1]"
        )
    return probability


def check_block(key: Hashable, rows: Sequence[Row]) -> List[float]:
    """The BID block rule; returns the (clamped) row probabilities."""
    total = 0.0
    probabilities = []
    for _, _, probability in rows:
        total += probability
        if probability < -1e-12:
            raise ProbabilityError(
                f"negative xor edge probability {probability}"
            )
        probabilities.append(max(float(probability), 0.0))
    if total > 1.0 + 1e-9:
        raise ProbabilityError(
            f"block {key!r} alternative probabilities sum to {total} > 1"
        )
    return probabilities


class FlatColumns:
    """The columns of a TI or BID relation, one row per alternative.

    ``keys`` holds the block keys (non-empty blocks, in insertion order);
    ``blocks[r]`` is the index into ``keys`` of row ``r``, so the rows of
    one block are contiguous.  ``scores`` are the effective scores (None
    for a row with neither an explicit nor a numeric value score).
    """

    __slots__ = (
        "keys",
        "values",
        "explicit_scores",
        "scores",
        "probabilities",
        "blocks",
        "_order",
        "_tree",
        "_block_index",
    )

    def __init__(
        self,
        keys: List[Hashable],
        values: List[Hashable],
        explicit_scores: List[Optional[float]],
        probabilities: List[float],
        blocks: List[int],
        scores: Optional[List[Optional[float]]] = None,
        order: Optional[List[int]] = None,
    ) -> None:
        self.keys = keys
        self.values = values
        self.explicit_scores = explicit_scores
        self.probabilities = probabilities
        self.blocks = blocks
        self.scores = (
            list(map(effective_score, values, explicit_scores))
            if scores is None
            else scores
        )
        self._order = order
        self._tree: Optional[AndXorTree] = None
        self._block_index: Optional[Dict[Hashable, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(
        cls, blocks: Iterable[Tuple[Hashable, Sequence[Row]]]
    ) -> "FlatColumns":
        """Validated columns of a BID relation (empty blocks dropped)."""
        keys: List[Hashable] = []
        values: List[Hashable] = []
        explicit: List[Optional[float]] = []
        probabilities: List[float] = []
        block_ids: List[int] = []
        for key, rows in blocks:
            checked = check_block(key, rows)
            if not rows:
                continue
            block = len(keys)
            keys.append(key)
            for (value, score, _), probability in zip(rows, checked):
                values.append(value)
                explicit.append(score)
                probabilities.append(probability)
                block_ids.append(block)
        return cls(keys, values, explicit, probabilities, block_ids)

    @classmethod
    def from_tree(cls, tree: AndXorTree) -> Optional["FlatColumns"]:
        """The columns of a flat (TI or BID shaped) tree, else None.

        Flat means an and root whose children are xor blocks of same-key
        leaves, with distinct keys across blocks; empty blocks are skipped.
        """
        root = tree.root
        if not isinstance(root, AndNode):
            return None
        keys: List[Hashable] = []
        values: List[Hashable] = []
        explicit: List[Optional[float]] = []
        probabilities: List[float] = []
        block_ids: List[int] = []
        for child in root.children():
            if not isinstance(child, XorNode):
                return None
            block = len(keys)
            for leaf, probability in child.edges():
                if not isinstance(leaf, Leaf):
                    return None
                alternative = leaf.alternative
                if len(keys) == block:
                    keys.append(alternative.key)
                elif alternative.key != keys[block]:
                    return None
                values.append(alternative.value)
                explicit.append(alternative.score)
                probabilities.append(probability)
                block_ids.append(block)
        if len(set(keys)) != len(keys):
            return None
        columns = cls(keys, values, explicit, probabilities, block_ids)
        columns._tree = tree
        return columns

    def replace_block(
        self, key: Hashable, rows: Sequence[Row], independent: bool
    ) -> "FlatColumns":
        """A copy with ``key``'s block replaced by (non-empty) ``rows``.

        Only the new rows are validated -- under the tuple-independent
        rule when ``independent``, else the BID block rule.  The other rows
        are copied (C-speed list slices), never re-validated; the key
        index, and the score permutation when no score moved, are shared.
        """
        if independent:
            (_, _, probability), = rows
            probabilities = [check_tuple_probability(float(probability))]
        else:
            probabilities = check_block(key, rows)
        block = self.block_of(key)
        start = bisect_left(self.blocks, block)
        stop = bisect_right(self.blocks, block, start)
        values = [value for value, _, _ in rows]
        explicit = [score for _, score, _ in rows]
        scores = list(map(effective_score, values, explicit))

        def spliced(column: List, replacement: List) -> List:
            return column[:start] + replacement + column[stop:]

        same_scores = self.scores[start:stop] == scores
        patched = FlatColumns(
            self.keys,
            spliced(self.values, values),
            spliced(self.explicit_scores, explicit),
            spliced(self.probabilities, probabilities),
            (
                self.blocks
                if stop - start == len(rows)
                else spliced(self.blocks, [block] * len(rows))
            ),
            scores=self.scores if same_scores else spliced(self.scores, scores),
            order=self._order if same_scores else None,
        )
        patched._block_index = self._block_index  # same keys
        return patched

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def independent(self) -> bool:
        """Whether every block holds exactly one alternative (TI layout)."""
        return len(self.keys) == len(self.values)

    @property
    def order(self) -> List[int]:
        """Row indices by decreasing score (stable: ties keep row order).

        Requires every row to be scored; callers must not mutate it.
        """
        if self._order is None:
            self._order = sorted(
                range(len(self.scores)),
                key=self.scores.__getitem__,
                reverse=True,
            )
        return self._order

    def block_of(self, key: Hashable) -> int:
        """Index of ``key``'s block (KeyError for an unknown key)."""
        if self._block_index is None:
            self._block_index = {key: i for i, key in enumerate(self.keys)}
        return self._block_index[key]

    def rows_of(self, key: Hashable) -> range:
        """The (contiguous) rows of ``key``'s block; empty when unknown."""
        try:
            block = self.block_of(key)
        except KeyError:
            return range(0)
        start = bisect_left(self.blocks, block)
        return range(start, bisect_right(self.blocks, block, start))

    def alternative(self, row: int) -> TupleAlternative:
        """The :class:`TupleAlternative` of one row."""
        return TupleAlternative(
            self.keys[self.blocks[row]],
            self.values[row],
            self.explicit_scores[row],
        )

    def row_of(self, alternative: TupleAlternative) -> int:
        """The row carrying ``alternative`` (KeyError when absent)."""
        for row in self.rows_of(alternative.key):
            if (
                self.values[row] == alternative.value
                and self.explicit_scores[row] == alternative.score
            ):
                return row
        raise KeyError(alternative)

    def row_alternatives(self) -> List[TupleAlternative]:
        """The alternative of every row, in row order."""
        return [self.alternative(row) for row in range(len(self.values))]

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        """The distinct alternatives of one key (``[]`` when unknown)."""
        return list(
            dict.fromkeys(self.alternative(row) for row in self.rows_of(key))
        )

    def presence(self, key: Hashable) -> float:
        """Probability that ``key``'s block produces an alternative."""
        return sum(self.probabilities[row] for row in self.rows_of(key))

    @property
    def tree(self) -> AndXorTree:
        """The equivalent and/xor tree, built once on first use.

        Same leaf order as :func:`~repro.andxor.builders.bid_tree` /
        :func:`~repro.andxor.builders.tuple_independent_tree`, so seeded
        sampling streams match; not re-validated (the columns were).
        """
        with _TREE_LOCK:  # one tree object: leaves are matched by identity
            if self._tree is None:
                self._tree = AndXorTree(
                    AndNode(
                        XorNode(
                            (
                                Leaf(self.alternative(row)),
                                self.probabilities[row],
                            )
                            for row in self.rows_of(key)
                        )
                        for key in self.keys
                    ),
                    validate=False,
                )
        return self._tree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatColumns({len(self.keys)} keys, {len(self.values)} rows)"
