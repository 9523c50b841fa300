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
returns a patched copy that shares every unchanged column, and a patch
that changes probabilities only shares all but the probability column
(:meth:`same_rows` is then an identity check).  Because the union of
independent blocks is again a flat relation, a sharded database keeps all
of its shards' rows in one such store, its blocks numbered by decreasing
best score (:meth:`by_best_score`); a shard is a view of its rows.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative, effective_score
from repro.engine import get_backend
from repro.engine.backends import Backend
from repro.exceptions import ProbabilityError

#: One alternative row: ``(value, explicit score or None, probability)``.
Row = Tuple[Hashable, Optional[float], float]

_TREE_LOCK = threading.Lock()

#: What converting or adding a malformed probability raises.
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError)


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


def _score_column(
    backend: Backend,
    values: Sequence[Hashable],
    explicit_scores: Sequence[Optional[float]],
) -> Any:
    """The native effective-score column of ``(value, explicit score)``
    rows (see :func:`~repro.core.tuples.effective_score`)."""
    scores = backend.score_vector(explicit_scores)
    missing = backend.unscored_rows(scores)
    if missing:  # no explicit score: the value may be the score
        fallback = backend.score_vector(
            [effective_score(values[row], explicit_scores[row]) for row in missing]
        )
        for row, score in zip(missing, fallback):
            scores[row] = score
    return scores


def first_score_tie(
    backend: Backend, scores: Any, groups: Any, order: Any
) -> Optional[Tuple[int, int]]:
    """The first two rows, adjacent in ``order`` (rows by decreasing
    score), that share a score but not a group (a block or key), else
    None."""
    tie = backend.first_tie(
        backend.take_rows(scores, order), backend.take_rows(groups, order)
    )
    if tie is None:
        return None
    first, second = backend.vector_values(order, [tie, tie + 1])
    return first, second


class FlatColumns:
    """The columns of a TI or BID relation, one row per alternative.

    ``keys`` holds the block keys (non-empty blocks, in insertion order);
    ``blocks[r]`` is the index into ``keys`` of row ``r``, so the rows of
    one block are contiguous.  ``scores`` are the effective scores (an
    unscored row, with neither an explicit nor a numeric value score, is
    None on the pure backend and NaN on numpy).

    The numeric columns -- ``probabilities``, ``scores``, ``blocks`` and
    the score :attr:`order` -- are native vectors of :attr:`backend` (the
    backend active when the columns were built): lists on the pure
    backend, float64 / intp ndarrays on numpy.  Keys, values and explicit
    scores stay Python lists.
    """

    __slots__ = (
        "keys",
        "values",
        "explicit_scores",
        "scores",
        "probabilities",
        "blocks",
        "backend",
        "tie_free",
        "_order",
        "_tree",
        "_block_index",
    )

    def __init__(
        self,
        keys: List[Hashable],
        values: List[Hashable],
        explicit_scores: List[Optional[float]],
        probabilities: Any,
        blocks: Any,
        scores: Any = None,
        order: Any = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self.backend: Backend = get_backend() if backend is None else backend
        self.keys = keys
        self.values = values
        self.explicit_scores = explicit_scores
        self.probabilities = probabilities
        self.blocks = blocks
        self.scores = (
            _score_column(self.backend, values, explicit_scores)
            if scores is None
            else scores
        )
        #: Whether the rows' own scores are known to be pairwise distinct
        #: across keys (set by :class:`~repro.andxor.rank_probabilities.\
        #: RankStatistics` once it checked them; kept by the copies of
        #: :meth:`gather` and of a :meth:`replace_block` that moves no
        #: score).
        self.tie_free = False
        self._order = order
        self._tree: Optional[AndXorTree] = None
        self._block_index: Optional[Dict[Hashable, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_independent(
        cls,
        keys: List[Hashable],
        values: List[Hashable],
        explicit_scores: List[Optional[float]],
        probabilities: Sequence[Any],
    ) -> "FlatColumns":
        """Columns of a tuple-independent relation (one block per row).

        The probability rule is checked on the whole column at once; when
        a value does not convert or is flagged, the scalar rule re-reads
        the column in row order, so the first bad row raises its own error.
        """
        backend = get_backend()
        try:
            native = backend.factor_vector(probabilities)
            clean = not backend.rows_outside(native, 0.0, 1.0 + 1e-12)
        except _CONVERSION_ERRORS:
            clean = False
        if not clean:
            native = backend.factor_vector(
                [check_tuple_probability(float(p)) for p in probabilities]
            )
        return cls(
            keys,
            values,
            explicit_scores,
            native,
            backend.index_vector(range(len(keys))),
            backend=backend,
        )

    @classmethod
    def from_blocks(
        cls, blocks: Iterable[Tuple[Hashable, Sequence[Row]]]
    ) -> "FlatColumns":
        """Validated columns of a BID relation (empty blocks dropped).

        The rows are read in one pass; the block rule is then checked on
        the probability column and the per-block totals as arrays.  When
        a value is not a number or anything is flagged, :func:`check_block`
        re-reads every block in order, so the first bad block raises its
        own error (and tolerated rounding below zero is clamped).
        """
        keys: List[Hashable] = []
        values: List[Hashable] = []
        explicit: List[Optional[float]] = []
        raw: List[Any] = []
        block_ids: List[int] = []
        starts: List[int] = []
        for key, rows in blocks:
            if not rows:
                continue
            block = len(keys)
            keys.append(key)
            starts.append(len(raw))
            for value, score, probability in rows:
                values.append(value)
                explicit.append(score)
                raw.append(probability)
                block_ids.append(block)
        backend = get_backend()
        ids = backend.index_vector(block_ids)
        try:
            sum(raw, 0.0)  # the block rule adds the raw values to a float
            probabilities = backend.factor_vector(raw)
            totals = backend.group_totals(probabilities, ids, len(keys))
            clean = not (
                backend.rows_outside(probabilities, 0.0, float("inf"))
                or backend.rows_outside(totals, float("-inf"), 1.0 + 1e-9)
            )
        except _CONVERSION_ERRORS:
            clean = False
        if not clean:
            bounds = starts + [len(raw)]
            checked: List[float] = []
            for block, key in enumerate(keys):
                rows = raw[bounds[block] : bounds[block + 1]]
                checked += check_block(key, [(None, None, p) for p in rows])
            probabilities = backend.factor_vector(checked)
        return cls(keys, values, explicit, probabilities, ids, backend=backend)

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
        backend = get_backend()
        columns = cls(
            keys,
            values,
            explicit,
            backend.factor_vector(probabilities),
            backend.index_vector(block_ids),
            backend=backend,
        )
        columns._tree = tree
        return columns

    def gather(self, blocks: Sequence[int]) -> "FlatColumns":
        """The columns of ``blocks`` only, renumbered in the given order.

        Rows are gathered (one take per column), never re-validated; the
        scores and the checked-distinct state are reused.
        """
        backend = self.backend
        rows, block_ids = backend.block_rows(self.blocks, blocks)
        picked = backend.vector_values(rows)
        gathered = FlatColumns(
            list(map(self.keys.__getitem__, blocks)),
            list(map(self.values.__getitem__, picked)),
            list(map(self.explicit_scores.__getitem__, picked)),
            backend.take_rows(self.probabilities, rows),
            block_ids,
            scores=backend.take_rows(self.scores, rows),
            backend=backend,
        )
        gathered.tie_free = self.tie_free
        return gathered

    def by_best_score(self) -> "FlatColumns":
        """These columns with their blocks numbered by decreasing best
        score (a block keeps its rows' order; blocks whose best rows tie
        keep theirs), so :attr:`keys` is the score-ordered key list.

        Returns ``self`` when the blocks already are, or when a row is
        unscored (there is no score order to follow).
        """
        backend = self.backend
        if backend.unscored_rows(self.scores):
            return self
        by_score = backend.take_rows(self.blocks, self.order)
        blocks = list(dict.fromkeys(backend.vector_values(by_score)))
        if blocks == list(range(len(blocks))):
            return self
        return self.gather(blocks)

    def replace_block(
        self, key: Hashable, rows: Sequence[Row], independent: bool
    ) -> "FlatColumns":
        """A copy with ``key``'s block replaced by ``rows``.

        Empty ``rows`` drop the block; an unknown key (e.g. a block emptied
        earlier) is appended as the last block.  Only the new rows are
        validated -- under the tuple-independent rule when
        ``independent``, else the BID block rule.  The other rows are
        spliced (one native splice per column), never re-validated.  The
        key index is shared, and so are the value, score and block
        columns, the score permutation and the checked-distinct state when
        the new rows only change probabilities.
        """
        if independent:
            (_, _, probability), = rows
            probabilities = [check_tuple_probability(float(probability))]
        else:
            probabilities = check_block(key, rows)
        backend = self.backend
        keys = self.keys
        try:
            block = self.block_of(key)
            block_index = self._block_index  # same keys
        except KeyError:
            if not rows:
                return self
            block, keys, block_index = len(keys), keys + [key], None
        start = bisect_left(self.blocks, block)
        stop = bisect_right(self.blocks, block, start)
        values = [value for value, _, _ in rows]
        explicit = [score for _, score, _ in rows]
        scores = list(map(effective_score, values, explicit))

        def spliced(column: List, replacement: List) -> List:
            if column[start:stop] == replacement:
                return column
            return column[:start] + replacement + column[stop:]

        if not rows:
            keys, block_index = keys[:block] + keys[block + 1 :], None
            blocks = backend.splice(self.blocks, start, stop, [], -1)
        elif stop - start == len(rows):
            blocks = self.blocks
        else:
            blocks = backend.splice(
                self.blocks, start, stop, [block] * len(rows)
            )
        same_scores = (
            backend.vector_values(backend.slice_rows(self.scores, start, stop))
            == scores
        )
        patched = FlatColumns(
            keys,
            spliced(self.values, values),
            spliced(self.explicit_scores, explicit),
            backend.splice(self.probabilities, start, stop, probabilities),
            blocks,
            scores=(
                self.scores
                if same_scores
                else backend.splice(
                    self.scores, start, stop, backend.score_vector(scores)
                )
            ),
            order=self._order if same_scores else None,
            backend=backend,
        )
        patched.tie_free = self.tie_free and same_scores
        patched._block_index = block_index
        return patched

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def independent(self) -> bool:
        """Whether every block holds exactly one alternative (TI layout)."""
        return len(self.keys) == len(self.values)

    @property
    def order(self) -> Any:
        """Row indices by decreasing score (stable: ties keep row order),
        as a native index vector.

        Requires every row to be scored; callers must not mutate it.
        """
        if self._order is None:
            self._order = self.backend.descending_order(self.scores)
        return self._order

    def score_list(self) -> List[Optional[float]]:
        """The effective scores as Python floats, None where unscored."""
        backend = self.backend
        scores = backend.vector_values(self.scores)
        for row in backend.unscored_rows(self.scores):
            scores[row] = None
        return scores

    @property
    def key_index(self) -> Dict[Hashable, int]:
        """Key -> index of its block, built once; callers must not mutate
        it."""
        if self._block_index is None:
            self._block_index = dict(zip(self.keys, range(len(self.keys))))
        return self._block_index

    def block_of(self, key: Hashable) -> int:
        """Index of ``key``'s block (KeyError for an unknown key)."""
        return self.key_index[key]

    def same_rows(self, other: "FlatColumns") -> bool:
        """Whether ``other`` differs from these columns at most in its
        probabilities: it shares their key list and their value, score and
        block columns, as :meth:`replace_block` shares them when the new
        rows only change probabilities."""
        return other is self or (
            other.keys is self.keys
            and other.blocks is self.blocks
            and other.scores is self.scores
            and other.values is self.values
            and other.explicit_scores is self.explicit_scores
        )

    def rows_of(self, key: Hashable) -> range:
        """The (contiguous) rows of ``key``'s block; empty when unknown."""
        try:
            block = self.block_of(key)
        except KeyError:
            return range(0)
        if self.independent:  # row r is block r
            return range(block, block + 1)
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
        return sum(
            self.backend.vector_values(self.probabilities, self.rows_of(key))
        )

    @property
    def tree(self) -> AndXorTree:
        """The equivalent and/xor tree, built once on first use.

        Same leaf order as :func:`~repro.andxor.builders.bid_tree` /
        :func:`~repro.andxor.builders.tuple_independent_tree`, so seeded
        sampling streams match; not re-validated (the columns were).
        """
        with _TREE_LOCK:  # one tree object: leaves are matched by identity
            if self._tree is None:
                backend = self.backend
                keys = self.keys
                blocks: List[List[Tuple[Leaf, float]]] = [[] for _ in keys]
                for block, value, score, probability in zip(
                    backend.vector_values(self.blocks),
                    self.values,
                    self.explicit_scores,
                    backend.vector_values(self.probabilities),
                ):
                    leaf = Leaf(TupleAlternative(keys[block], value, score))
                    blocks[block].append((leaf, probability))
                self._tree = AndXorTree(
                    AndNode(map(XorNode, blocks)), validate=False
                )
        return self._tree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatColumns({len(self.keys)} keys, {len(self.values)} rows)"
