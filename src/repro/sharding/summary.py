"""Per-shard partial generating-function summaries.

A shard's contribution to any global rank statistic is fully captured by its
*count-above-threshold* distributions: for a threshold ``θ``, the univariate
generating function of the number of present tuples in the shard whose
realized score exceeds ``θ``.  Because scores are distinct, only the
``n_s + 1`` prefixes of the shard's score-sorted tuple list yield
different distributions, so the whole summary is a truncated
``(n_s + 1) × max_rank`` polynomial table, one backend sweep
(:meth:`~repro.engine.backends.Backend.prefix_count_polynomials`).
Summaries exist for tuple-independent layouts only: a sharded
block-independent database reads its rank matrix off its one store
(:class:`~repro.sharding.coordinator.ShardedQuerySession`), so nothing
merges per-shard block-independent partials.

A summary holds only the table's **live rows**: the rows before its
support, past which every row is exactly ``0.0`` (once ``max_rank``
certain tuples, or enough mass to underflow, lie above a threshold, no
tuple below it can reach the Top-``max_rank``).  The sweep reports where
it stopped, so the support costs no pass of its own.  The table's length
is its support, and every reader treats the rows past its end as zero
without materialising them: :meth:`ShardRankSummary.prefix_polynomial`
and :meth:`ShardRankSummary.aligned_count_table` return zero rows there,
a shard worker ships only the live rows, and the merge engine convolves
nothing past them.

A probability-only update re-sweeps only the **stale row suffix**.  Row
``m`` of the table depends only on the first ``m`` probabilities, and the
backend sweep is prefix-deterministic: the numpy sweep cuts its rows on a
fixed grid whose chunk size depends on the row count alone, so no row's
bits depend on where a sweep started.  :meth:`ShardRankSummary.\
seed_prefix_table` hands a new summary the live rows of the previous
summary over the same rows with the first changed row; its table then
reuses those rows up to the last grid line at or before that row and
sweeps from there (nothing when the change lies at or past the old
support).  The seeded table equals a cold sweep bit for bit.  The merge
engine seeds a changed shard's summary from the one it last merged, and a
shard worker from the one it last shipped.

A summary reads one flat relation and the rows it covers: the ``(columns,
row scores, rows in decreasing score order)`` triple of
:meth:`ShardRankSummary.from_layout`.  A sharded database's shard is a
view of the database's one store -- its rows, in the store's score
order -- so a shard summary reads the store through that view, and an
unsharded session's summary reads every row of its own columns
(:meth:`~repro.andxor.rank_probabilities.RankStatistics.flat_rows`).  It
gathers the score-ordered vectors it needs -- scores, probabilities and
row keys -- in the active backend's native form, each on first use.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Any, Hashable, List, Optional, Tuple

from repro.andxor.columns import FlatColumns
from repro.engine import get_backend
from repro.exceptions import ModelError


class ShardRankSummary:
    """Truncated rank-polynomial summary of one tuple-independent shard.

    Parameters
    ----------
    session:
        The shard's :class:`~repro.session.QuerySession` (tuple-independent
        layout; a block-independent layout or a general tree raises
        :class:`~repro.exceptions.ModelError`).
    max_rank:
        Number of coefficients kept per partial polynomial.  Convolving
        truncated partials is exact for every coefficient below the
        truncation point, so ``max_rank = k`` suffices for Top-k answers.
    """

    def __init__(self, session: Any, max_rank: int) -> None:
        self._bind(session.statistics.flat_rows(), max_rank, None)

    @classmethod
    def from_layout(
        cls,
        layout: Tuple[FlatColumns, Any, Any],
        max_rank: int,
        prefix_table: Any = None,
    ) -> "ShardRankSummary":
        """A summary over a ``(columns, row scores, rows)`` triple, without
        a session.

        ``rows`` are the rows summarised, in decreasing score order: a
        shard's view of its database's store, whose own scores rank it (a
        shard is never re-scored).  The process-backed pool pairs such a
        layout with the live rows of the prefix table a shard worker
        shipped for it (see :attr:`prefix_table`).  A missing
        ``prefix_table`` is recomputed lazily from the rows'
        probabilities -- identical coefficients, just without reusing the
        worker's sweep.
        """
        self = cls.__new__(cls)
        self._bind(layout, max_rank, prefix_table)
        return self

    def _bind(
        self,
        layout: Optional[Tuple[FlatColumns, Any, Any]],
        max_rank: int,
        prefix_table: Any,
    ) -> None:
        if layout is None or not layout[0].independent:
            raise ModelError(
                "shard summaries require a tuple-independent database "
                "layout; a block-independent database's rank matrix is "
                "read off its store"
            )
        self.columns, self._row_scores, self._order = layout
        self._max_rank = max(int(max_rank), 1)
        self._backend = get_backend()
        self._prefix_table = prefix_table
        #: ``(previous live rows, first changed row)`` for the sweep of a
        #: table seeded by :meth:`seed_prefix_table`, until it is read.
        self._seed: Optional[Tuple[Any, int]] = None

    # ------------------------------------------------------------------
    # Score-ordered columns (row ``r`` is the shard's ``r``-th tuple by
    # decreasing score), gathered on first use
    # ------------------------------------------------------------------
    def _ordered(self, column: Any) -> Any:
        return self.columns.backend.take_rows(column, self._order)

    @cached_property
    def scores(self) -> Any:
        """Every row's score, a native vector of the active backend."""
        return self._backend.factor_vector(self._ordered(self._row_scores))

    @cached_property
    def probabilities(self) -> Any:
        """Every row's probability, a native vector of the active
        backend."""
        return self._backend.factor_vector(
            self._ordered(self.columns.probabilities)
        )

    @cached_property
    def keys(self) -> List[Hashable]:
        """The keys of the summary's rank rows, one per row in score
        order."""
        columns = self.columns
        blocks = columns.backend.vector_values(self._ordered(columns.blocks))
        return list(map(columns.keys.__getitem__, blocks))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_rank(self) -> int:
        """Number of coefficients kept per partial polynomial."""
        return self._max_rank

    def number_of_tuples(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------------
    # Partial generating functions
    # ------------------------------------------------------------------
    def prefix_indices(self, thresholds_desc: Any) -> List[int]:
        """Per threshold of a decreasing sequence, the number of shard
        tuples scoring strictly above it.

        One backend sweep (two-pointer merge / vectorized bisect) -- the
        coordinator calls this with the merged score grid.
        """
        return self._backend.descending_prefix_lengths(
            self.scores, thresholds_desc
        )

    @property
    def prefix_table(self) -> Any:
        """The live rows of the native ``(n_s + 1) × max_rank`` prefix
        polynomial table.

        Row ``m`` holds the count distribution of the first ``m``
        (score-sorted) tuples; the table stops at the sweep's first
        all-zero row, and every row past its end is exactly ``0.0``.  It
        is produced by one backend sweep.
        """
        if self._prefix_table is None:
            table, live = self._backend.prefix_count_polynomials(
                self.probabilities, self._max_rank, self._seed
            )
            self._prefix_table = self._backend.slice_rows(table, 0, live)
            self._seed = None
        return self._prefix_table

    def seed_prefix_table(self, previous: "ShardRankSummary") -> int:
        """Seed :attr:`prefix_table` from ``previous``'s table and return
        the first row whose probability differs from ``previous``'s (the
        row count when none does).

        ``previous`` is a summary over the same rows
        (:meth:`~repro.andxor.columns.FlatColumns.same_rows`) and the same
        ``max_rank``; its table is read here.  Row ``m`` of a prefix table
        depends only on the first ``m`` probabilities, so rows ``0 ..``
        the returned index of both tables are equal: the merge engine's
        stale rows and the worker's row-suffix delta start below it.  The
        first read of this summary's table reuses ``previous``'s rows
        above it and re-sweeps only the rest (see
        :meth:`~repro.engine.backends.Backend.prefix_count_polynomials`),
        and it equals a cold sweep bit for bit.  A table already read is
        left as it is.
        """
        changed = self._backend.first_difference(
            previous.probabilities, self.probabilities
        )
        if self._prefix_table is None:
            self._seed = (previous.prefix_table, changed)
        return changed

    def prefix_polynomial(self, prefix: int) -> List[float]:
        """Count distribution of the first ``prefix`` tuples: row
        ``prefix`` of :attr:`prefix_table`, a zero row past its end.

        The prefix-indexed form of :meth:`count_above`: two thresholds with
        the same prefix index have identical distributions, so callers that
        already hold prefix indices skip the lookup.
        """
        table = self.prefix_table
        if prefix >= len(table):
            return [0.0] * self._max_rank
        return self._backend.matrix_row(table, prefix)

    def count_above(self, threshold: float) -> List[float]:
        """Coefficients of the count-above-``threshold`` distribution.

        This is the partial univariate generating function the coordinator
        convolves across shards: coefficient ``j`` is the probability that
        exactly ``j`` tuples of this shard are present with realized score
        above ``threshold`` (truncated at ``max_rank`` coefficients).
        """
        return self.prefix_polynomial(self.prefix_indices([threshold])[0])

    def aligned_count_table(
        self, grid_scores_desc: Any, indices: Optional[Any] = None
    ) -> Any:
        """Rows of :attr:`prefix_table` aligned with a shared score grid.

        ``grid_scores_desc`` is the coordinator's merged decreasing score
        grid; row ``g`` of the result is this shard's count-above
        distribution at threshold ``grid_scores_desc[g]``, a zero row where
        the threshold lies past the table's live rows.  Pass cached
        ``indices`` (from :meth:`prefix_indices`, or a slice of them) to
        skip the sweep when the grid and the shard's scores are both
        unchanged.
        """
        if indices is None:
            indices = self.prefix_indices(grid_scores_desc)
        table = self.prefix_table
        # Indices never decrease along a decreasing grid, so the rows that
        # read live table rows lead.
        live = bisect_left(indices, len(table))
        rows = self._backend.take_rows(
            table, self._backend.slice_rows(indices, 0, live)
        )
        return self._backend.extend_rows(
            rows, len(indices), [0.0] * self._max_rank
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRankSummary({self.number_of_tuples()} tuples, "
            f"max_rank={self._max_rank})"
        )


def splice_live_rows(
    backend: Any, head: Any, start: int, tail: Any, width: int
) -> Any:
    """The live rows of a table whose rows ``0 .. start`` are ``head``'s
    and whose rows from ``start`` on are ``tail``'s.

    ``head`` and ``tail`` hold live rows: every row past either one's end
    is ``0.0``.  An empty ``tail`` (or ``None``) cuts ``head`` at
    ``start``, and a ``head`` shorter than ``start`` is padded with zero
    rows only when ``tail`` follows it.
    """
    if tail is None or not len(tail):
        if head is None:
            return backend.slice_rows(
                backend.matrix_from_rows([[0.0] * width]), 0, 0
            )
        return backend.slice_rows(head, 0, min(start, len(head)))
    if start == 0:
        return tail
    above = backend.extend_rows(
        backend.slice_rows(head, 0, start), start, [0.0] * width
    )
    return backend.stack_matrices([above, tail])

