"""Per-shard partial generating-function summaries.

A shard's contribution to any global rank statistic is fully captured by its
*count-above-threshold* distributions: for a threshold ``θ``, the univariate
generating function of the number of present tuples in the shard whose
realized score exceeds ``θ``.  Because scores are distinct, only the
``n_s + 1`` prefixes of the shard's score-sorted alternative list yield
different distributions, so the whole summary is a truncated
``(n_s + 1) × max_rank`` polynomial table -- one backend sweep for
tuple-independent shards (:meth:`~repro.engine.backends.Backend.\
prefix_count_polynomials`), one memoized Bernoulli product per requested
prefix for block-independent shards.

The ``max_rank``-independent part is a :class:`ShardLayout`: a handful of
columns gathered off the shard's flat (TI / BID) columns in decreasing
score order (:func:`shard_layout`, memoized as a session artifact and
therefore dropped on invalidation).  Summaries at several truncations and
the merge engine read those columns; nothing keeps a per-key dictionary.
(The coordinator's merged relation is built from the shards' own
:class:`~repro.andxor.columns.FlatColumns`, not from these layouts.)
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.engine import get_backend
from repro.exceptions import ModelError


class ShardLayout:
    """The truncation-independent columns of one shard.

    One instance per shard session generation, shared by every
    :class:`ShardRankSummary` over that shard and by the merge engine.
    Gathered straight off the shard's
    :class:`~repro.andxor.columns.FlatColumns` through their
    decreasing-score permutation (``flat_rows()``) -- never off a tree.
    Row ``r`` of the three row columns is the shard's ``r``-th alternative
    by decreasing score:

    ``scores`` / ``probabilities``
        the alternative's score and probability;
    ``blocks``
        (block-independent shards only; ``None`` otherwise) the index into
        ``keys`` of the alternative's block.

    ``keys`` lists the tuple keys: per row for tuple-independent shards
    (one alternative per key), in block order for block-independent ones.
    """

    __slots__ = ("independent", "keys", "scores", "probabilities", "blocks")

    def __init__(self, session: Any) -> None:
        statistics = session.statistics
        flat = statistics.flat_rows()
        if flat is None:
            raise ModelError(
                "shard summaries require a tuple-independent or "
                "block-independent database layout"
            )
        columns, row_scores, order = flat
        backend = columns.backend

        def ordered(column: Any) -> List[Any]:
            return backend.vector_values(backend.take_rows(column, order))

        self.independent: bool = statistics.is_independent
        self.scores: List[float] = ordered(row_scores)
        self.probabilities: List[float] = ordered(columns.probabilities)
        blocks = ordered(columns.blocks)
        self.blocks: Optional[List[int]] = None
        if self.independent:
            self.keys: List[Hashable] = list(
                map(columns.keys.__getitem__, blocks)
            )
        else:
            self.keys = columns.keys
            self.blocks = blocks

    def row_keys(self) -> List[Hashable]:
        """The tuple key of every row (decreasing score order)."""
        if self.blocks is None:
            return self.keys
        return list(map(self.keys.__getitem__, self.blocks))


def shard_layout(session: Any) -> ShardLayout:
    """The session's memoized :class:`ShardLayout` (one per generation)."""
    return session._memoized(
        "shard_layout", (), lambda: ShardLayout(session)
    )


class ShardRankSummary:
    """Truncated rank-polynomial summary of one database shard.

    Parameters
    ----------
    session:
        The shard's :class:`~repro.session.QuerySession` (tuple-independent
        or block-independent layout; anything else raises
        :class:`~repro.exceptions.ModelError`).
    max_rank:
        Number of coefficients kept per partial polynomial.  Convolving
        truncated partials is exact for every coefficient below the
        truncation point, so ``max_rank = k`` suffices for Top-k answers.
    """

    def __init__(self, session: Any, max_rank: int) -> None:
        self._max_rank = max(int(max_rank), 1)
        self._backend = get_backend()
        self._layout = shard_layout(session)
        self._prefix_table: Any = None
        self._block_polynomials: Dict[Tuple[int, Any], List[float]] = {}

    @classmethod
    def from_layout(
        cls,
        layout: ShardLayout,
        max_rank: int,
        prefix_table: Any = None,
    ) -> "ShardRankSummary":
        """Rebuild a summary from exported state, without a session.

        Used by the process-backed execution layer: a shard worker ships
        its (picklable) :class:`ShardLayout` plus, for tuple-independent
        shards, the dense prefix polynomial table (over a pipe or a
        shared-memory segment); the coordinator reconstructs an equivalent
        summary against the parent's active backend.  A missing
        ``prefix_table`` is recomputed lazily from the layout's
        probabilities -- identical coefficients, just without reusing the
        worker's sweep.
        """
        self = cls.__new__(cls)
        self._max_rank = max(int(max_rank), 1)
        self._backend = get_backend()
        self._layout = layout
        self._prefix_table = prefix_table
        self._block_polynomials = {}
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def layout(self) -> ShardLayout:
        """The shared truncation-independent shard layout."""
        return self._layout

    @property
    def is_independent(self) -> bool:
        """True for tuple-independent shards (dense prefix table)."""
        return self._layout.independent

    @property
    def max_rank(self) -> int:
        """Number of coefficients kept per partial polynomial."""
        return self._max_rank

    def number_of_tuples(self) -> int:
        return len(self._layout.keys)

    # ------------------------------------------------------------------
    # Partial generating functions
    # ------------------------------------------------------------------
    def prefix_indices(self, thresholds_desc: List[float]) -> List[int]:
        """Per threshold of a decreasing sequence, the number of shard
        alternatives scoring strictly above it.

        One backend sweep (two-pointer merge / vectorized bisect) -- the
        coordinator calls this with the merged score grid.
        """
        return self._backend.descending_prefix_lengths(
            self._layout.scores, thresholds_desc
        )

    @property
    def prefix_table(self) -> Any:
        """The native ``(n_s + 1) × max_rank`` prefix polynomial table.

        Row ``m`` holds the count distribution of the first ``m``
        (score-sorted) tuples; only defined for independent shards, where
        it is produced by one backend sweep.
        """
        if not self._layout.independent:
            raise ModelError(
                "the dense prefix table exists only for tuple-independent "
                "shards; use count_above() on block-independent shards"
            )
        if self._prefix_table is None:
            self._prefix_table = self._backend.prefix_count_polynomials(
                self._layout.probabilities, self._max_rank
            )
        return self._prefix_table

    def prefix_polynomial(
        self, prefix: int, excluded_block: Optional[int] = None
    ) -> List[float]:
        """Count distribution of the first ``prefix`` alternatives.

        The prefix-indexed form of :meth:`count_above`: two thresholds with
        the same prefix index have identical distributions, so callers that
        already hold prefix indices (the dense :meth:`count_table`) skip
        the lookup.  ``excluded_block`` leaves one block out -- the merge's
        local rank polynomial of a row, whose own block's alternatives are
        mutually exclusive with it.  A tuple-independent block is a single
        row, never above itself, so the exclusion is a no-op there.
        """
        layout = self._layout
        if layout.independent:
            return self._backend.matrix_row(self.prefix_table, prefix)
        cache_key = (prefix, excluded_block)
        cached = self._block_polynomials.get(cache_key)
        if cached is None:
            masses: Dict[int, float] = {}
            for probability, block in zip(
                layout.probabilities[:prefix], layout.blocks[:prefix]
            ):
                if block != excluded_block:
                    masses[block] = masses.get(block, 0.0) + probability
            cached = _pad(
                self._backend.bernoulli_product(
                    [mass for mass in masses.values() if mass > 0.0],
                    self._max_rank,
                ),
                self._max_rank,
            )
            self._block_polynomials[cache_key] = cached
        return cached

    def count_above(self, threshold: float) -> List[float]:
        """Coefficients of the count-above-``threshold`` distribution.

        This is the partial univariate generating function the coordinator
        convolves across shards: coefficient ``j`` is the probability that
        exactly ``j`` tuples of this shard are present with realized score
        above ``threshold`` (truncated at ``max_rank`` coefficients).
        """
        return self.prefix_polynomial(self.prefix_indices([threshold])[0])

    def count_table(self) -> Any:
        """The native ``(n_s + 1) × max_rank`` count-above table, both kinds.

        Row ``m`` is :meth:`prefix_polynomial` for prefix ``m``.  For
        tuple-independent shards this is exactly :attr:`prefix_table`; for
        block-independent shards the rows are the memoized Bernoulli
        products, densified once so the incremental merge engine can gather
        grid-aligned rows with one backend call per shard.
        """
        if self._layout.independent:
            return self.prefix_table
        if getattr(self, "_dense_table", None) is None:
            self._dense_table = self._backend.matrix_from_rows(
                [
                    self.prefix_polynomial(prefix)
                    for prefix in range(len(self._layout.scores) + 1)
                ]
            )
        return self._dense_table

    def aligned_count_table(
        self, grid_scores_desc: List[float], indices: Optional[List[int]] = None
    ) -> Any:
        """Rows of :meth:`count_table` aligned with a shared score grid.

        ``grid_scores_desc`` is the coordinator's merged decreasing score
        grid; row ``g`` of the result is this shard's count-above
        distribution at threshold ``grid_scores_desc[g]``.  Pass cached
        ``indices`` (from :meth:`prefix_indices`) to skip the sweep when
        the grid and the shard's scores are both unchanged.
        """
        if indices is None:
            indices = self.prefix_indices(grid_scores_desc)
        return self._backend.take_rows(self.count_table(), indices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "independent" if self._layout.independent else "block"
        return (
            f"ShardRankSummary({len(self._layout.keys)} tuples, "
            f"kind={kind!r}, max_rank={self._max_rank})"
        )


def _pad(coefficients: List[float], length: int) -> List[float]:
    if len(coefficients) >= length:
        return coefficients[:length]
    return coefficients + [0.0] * (length - len(coefficients))


def table_delta_start(
    old_probabilities: List[float], new_probabilities: List[float]
) -> Optional[int]:
    """First prefix-table row invalidated by a probability change.

    Row ``m`` of a prefix count-polynomial table depends only on the first
    ``m`` probabilities, so when two same-score layouts differ first at
    probability index ``d``, rows ``0 .. d`` are identical and only rows
    ``d + 1 ..`` need to cross the process boundary.  Returns ``None``
    when the lists differ in length (no usable delta) and
    ``len + 1`` (an empty suffix) when nothing changed.
    """
    if len(old_probabilities) != len(new_probabilities):
        return None
    # The index of the first unequal pair, found by C-level iterators.
    first = next(
        compress(count(), map(ne, old_probabilities, new_probabilities)),
        None,
    )
    if first is None:
        return len(new_probabilities) + 1
    return first + 1
