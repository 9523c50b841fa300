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

The ``max_rank``-independent part -- key/score/probability layout, block
structure, the decreasing-score alternative stream -- is read off the shard's
columns once per shard session (:func:`shard_layout`, memoized as a session
artifact and therefore dropped on invalidation), so summaries at several
truncations and the coordinator's merged key space all share one view.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.engine import get_backend
from repro.exceptions import ModelError


class ShardLayout:
    """The truncation-independent layout of one shard.

    One instance per shard session generation, shared by every
    :class:`ShardRankSummary` over that shard and by the coordinator's
    merged key space.  Read straight off the shard's flat (TI / BID)
    columns and their decreasing-score permutation -- never off a tree.
    Keys are in decreasing score order for independent shards and in
    block order otherwise; ``triples`` are ``(score, probability, block)``
    in decreasing score order, with ``block`` indexing ``keys``.
    """

    __slots__ = (
        "independent",
        "keys",
        "probabilities",
        "presence",
        "alternatives",
        "best_score",
        "block_of",
        "triples",
        "key_triples",
        "scores",
    )

    def __init__(self, session: Any) -> None:
        statistics = session.statistics
        flat = statistics.flat_rows()
        if flat is None:
            raise ModelError(
                "shard summaries require a tuple-independent or "
                "block-independent database layout"
            )
        columns, row_scores, order = flat
        probabilities = columns.probabilities
        self.independent = statistics.independent_tuple_layout() is not None
        if self.independent:
            blocks = range(len(order))
            self.keys: List[Hashable] = [columns.keys[row] for row in order]
            self.probabilities: List[float] = [
                probabilities[row] for row in order
            ]
        else:
            blocks = [columns.blocks[row] for row in order]
            self.keys = list(columns.keys)
            masses = [0.0] * len(self.keys)
            for block, probability in zip(columns.blocks, probabilities):
                masses[block] += probability
            self.probabilities = masses
        self.scores: List[float] = [row_scores[row] for row in order]
        self.triples: List[Tuple[float, float, int]] = list(
            zip(self.scores, (probabilities[row] for row in order), blocks)
        )
        self.key_triples: List[Tuple[float, float, Hashable]] = [
            (score, probability, self.keys[block])
            for score, probability, block in self.triples
        ]
        self.block_of: Dict[Hashable, int] = {
            key: index for index, key in enumerate(self.keys)
        }
        self.presence: Dict[Hashable, float] = dict(
            zip(self.keys, self.probabilities)
        )
        self.alternatives: Dict[Hashable, List[Tuple[float, float]]] = {}
        if self.independent:
            self.best_score: Dict[Hashable, float] = dict(
                zip(self.keys, self.scores)
            )
            for score, probability, key in self.key_triples:
                self.alternatives[key] = [(score, probability)]
            return
        for block, score, probability in zip(
            columns.blocks, row_scores, probabilities
        ):
            self.alternatives.setdefault(columns.keys[block], []).append(
                (score, probability)
            )
        # The first triple of a key carries its best score.
        self.best_score = {}
        for score, _, key in self.key_triples:
            self.best_score.setdefault(key, score)


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
        self._block_polynomials: Dict[int, List[float]] = {}
        self._excluding_polynomials: Dict[Tuple[int, int], List[float]] = {}
        # Ascending negated scores make "number of scores > θ" a bisect.
        self._neg_scores: List[float] = [
            -score for score in self._layout.scores
        ]

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
        self._excluding_polynomials = {}
        self._neg_scores = [-score for score in layout.scores]
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
        """True for tuple-independent shards (enables the batched merge)."""
        return self._layout.independent

    @property
    def max_rank(self) -> int:
        """Number of coefficients kept per partial polynomial."""
        return self._max_rank

    def keys(self) -> List[Hashable]:
        """Tuple keys of the shard (decreasing score for independent shards)."""
        return list(self._layout.keys)

    def number_of_tuples(self) -> int:
        return len(self._layout.keys)

    def presence_probability(self, key: Hashable) -> float:
        """``Pr(t present)`` for one tuple key of the shard."""
        return self._layout.presence[key]

    def probabilities(self) -> List[float]:
        """Per-key presence probabilities aligned with :meth:`keys`."""
        return list(self._layout.probabilities)

    def scores(self) -> List[float]:
        """Alternative scores in decreasing order."""
        return list(self._layout.scores)

    def alternatives_of(self, key: Hashable) -> List[Tuple[float, float]]:
        """``(score, probability)`` pairs of one tuple's alternatives."""
        return list(self._layout.alternatives[key])

    def alternative_triples(self) -> List[Tuple[float, float, Hashable]]:
        """All ``(score, probability, key)`` triples, decreasing score."""
        return list(self._layout.key_triples)

    # ------------------------------------------------------------------
    # Partial generating functions
    # ------------------------------------------------------------------
    def prefix_index(self, threshold: float) -> int:
        """Number of shard alternatives scoring strictly above ``threshold``."""
        return bisect_left(self._neg_scores, -threshold)

    def prefix_indices(self, thresholds_desc: List[float]) -> List[int]:
        """:meth:`prefix_index` for a decreasing threshold sequence.

        One backend sweep (two-pointer merge / vectorized bisect) instead
        of a bisect per threshold -- the coordinator calls this with
        another shard's score column.
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

    def _block_masses(self, prefix: int) -> Dict[int, float]:
        """Per-block probability mass among the first ``prefix`` alternatives."""
        masses: Dict[int, float] = {}
        for score, probability, block in self._layout.triples[:prefix]:
            masses[block] = masses.get(block, 0.0) + probability
        return masses

    def prefix_polynomial(self, prefix: int) -> List[float]:
        """Count distribution of the first ``prefix`` alternatives.

        The prefix-indexed form of :meth:`count_above`: two thresholds with
        the same prefix index have identical distributions, so callers that
        already hold prefix indices (the coordinator's per-threshold
        memoization, the grid-aligned tables) skip the bisect.
        """
        if self._layout.independent:
            return self._backend.matrix_row(self.prefix_table, prefix)
        cached = self._block_polynomials.get(prefix)
        if cached is None:
            masses = self._block_masses(prefix)
            cached = _pad(
                self._backend.bernoulli_product(
                    [mass for mass in masses.values() if mass > 0.0],
                    self._max_rank,
                ),
                self._max_rank,
            )
            self._block_polynomials[prefix] = cached
        return cached

    def count_above(self, threshold: float) -> List[float]:
        """Coefficients of the count-above-``threshold`` distribution.

        This is the partial univariate generating function the coordinator
        convolves across shards: coefficient ``j`` is the probability that
        exactly ``j`` tuples of this shard are present with realized score
        above ``threshold`` (truncated at ``max_rank`` coefficients).
        """
        return self.prefix_polynomial(self.prefix_index(threshold))

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

    def count_above_excluding(
        self, threshold: float, key: Hashable
    ) -> List[float]:
        """:meth:`count_above`, with ``key``'s own block left out.

        Used for the shard that owns the query tuple: its other blocks are
        independent of the tuple's realization, but alternatives of the
        tuple's own block are mutually exclusive with it and must not be
        counted.
        """
        prefix = self.prefix_index(threshold)
        block = self._layout.block_of[key]
        if self._layout.independent:
            # With distinct scores a tuple never outscores its own
            # threshold, so the prefix cannot contain the excluded key.
            return self._backend.matrix_row(self.prefix_table, prefix)
        cache_key = (prefix, block)
        cached = self._excluding_polynomials.get(cache_key)
        if cached is None:
            masses = self._block_masses(prefix)
            masses.pop(block, None)
            cached = _pad(
                self._backend.bernoulli_product(
                    [mass for mass in masses.values() if mass > 0.0],
                    self._max_rank,
                ),
                self._max_rank,
            )
            self._excluding_polynomials[cache_key] = cached
        return cached

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
    for index, (old, new) in enumerate(
        zip(old_probabilities, new_probabilities)
    ):
        if old != new:
            return index + 1
    return len(new_probabilities) + 1
