"""Pluggable array backends for the hot numeric kernels.

Every probability the paper needs is a coefficient extraction from a
generating function, and the generating-function arithmetic reduces to a
handful of dense kernels: truncated polynomial convolution (univariate and
bivariate), multiply-accumulate products of many small factors, the
``Π (1 - p_i + p_i x)`` Bernoulli products of tuple-independent databases,
and the prefix-product sweep that yields every tuple's rank distribution in
one pass.  This module defines the :class:`Backend` interface for those
kernels and two implementations:

* :class:`PurePythonBackend` -- the reference semantics, dependency-free.
  It preserves exact arithmetic (``int`` and ``fractions.Fraction``
  coefficients stay exact).
* :class:`NumpyBackend` -- vectorized ``float64`` kernels.  Inputs with
  non-float coefficients (e.g. ``Fraction``) or very small operands are
  transparently routed to the pure-Python kernels, so exactness and
  small-case speed are never sacrificed.

Backend selection lives in :mod:`repro.engine` (``get_backend`` /
``set_backend`` / the ``REPRO_BACKEND`` environment variable); this module
deliberately imports nothing from the rest of the package so every layer can
depend on it without cycles.
"""

from __future__ import annotations

import heapq as _heapq
import random as _random
from bisect import bisect_left as _bisect_left
from bisect import bisect_right as _bisect_right
from collections import Counter as _Counter
from itertools import compress as _compress
from itertools import count as _count
from math import isqrt as _isqrt
from operator import ne as _ne
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on NumPy-free installs
    _np = None

Number = Any  # int, float or fractions.Fraction
Exponents = Tuple[int, ...]


def numpy_available() -> bool:
    """True when NumPy could be imported."""
    return _np is not None


class Backend:
    """Interface of the vectorizable kernels.

    Matrix-valued results (``rank_probability_matrix``, ``matrix_from_rows``,
    ``cumulative_rows``) use a backend-native layout -- list-of-lists for the
    pure backend, a 2-D ``ndarray`` for NumPy -- and the row/aggregation
    accessors accept that same native layout, so batch consumers such as
    :class:`repro.engine.RankMatrix` never round-trip through Python lists.
    Per-row vectors (``row_sums``, ``matvec``) are native too -- a list, or
    a 1-D ``ndarray`` -- and :meth:`vector_values` converts the entries a
    caller actually reads.
    """

    name: str = "abstract"

    # -- polynomial kernels -------------------------------------------------
    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        """Truncated product of two dense coefficient lists.

        ``result[m] = Σ_i a[i] * b[m - i]`` for ``m < out_len``.
        """
        raise NotImplementedError

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        """Truncated product of two dense coefficient matrices."""
        raise NotImplementedError

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        """Product of two sparse exponent-vector term maps with truncation."""
        raise NotImplementedError

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        """Multiply-accumulate product of many dense coefficient lists."""
        raise NotImplementedError

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        """Coefficients of ``Π_i (1 - p_i + p_i x)``, optionally truncated.

        Coefficient ``j`` is the probability that exactly ``j`` of the
        independent events occur (Example 1 of the paper for a
        tuple-independent database).
        """
        raise NotImplementedError

    # -- batched rank kernels ----------------------------------------------
    def rank_probability_matrix(
        self,
        probabilities: Sequence[float],
        max_rank: int,
        blocks: Optional[Sequence[int]] = None,
        scores: Optional[Sequence[float]] = None,
        *,
        with_support: bool = False,
    ) -> Any:
        """Rank distributions of the rows of a TI or BID relation.

        ``probabilities`` lists the rows' presence probabilities in
        decreasing score order; row ``i`` of the result holds
        ``[Pr(r(row_i) = 1), ..., Pr(r(row_i) = max_rank)]``.

        * ``blocks=None`` (tuple-independent): row ``i`` is ``p_i`` times
          the truncated prefix product ``Π_{j<i} (1 - p_j + p_j x)`` (the
          rows of :meth:`prefix_count_polynomials`) -- one sweep for all
          tuples.
        * ``blocks[i]`` is the block id of row ``i`` (BID: the rows of one
          block are mutually exclusive alternatives of one tuple).  Row
          ``i`` is ``p_i · Π_{B ≠ blocks[i]} (1 - q_B(i) + q_B(i) x)``
          truncated at ``max_rank``, where ``q_B(i)`` is the probability
          mass of ``B``'s rows above row ``i``.  Only nonnegative
          arithmetic is used -- no polynomial division, which cancels as a
          block's mass nears 1: single-row blocks go through the prefix
          sweep and every larger block multiplies its factor into the
          later rows in one pass.

        A row is *above* row ``i`` when it comes earlier, or, when
        ``scores`` (the rows' scores, decreasing) are given, only when its
        score is strictly greater -- equal-score rows never count each
        other, matching the and/xor tree's strict comparison.

        **Zero tail.**  The prefix sweep stops at its first all-``0.0`` row
        (see :meth:`prefix_count_polynomials`), and every later row of the
        result is exactly ``0.0``: zero times anything stays zero.  In
        score order the live rows are a short head once enough mass lies
        above (about 800 of 12000 rows at ``max_rank = 10`` with
        probabilities uniform in ``[0.05, 1]``).  On the tuple-independent
        path without ``scores``, ``with_support=True`` returns
        ``(matrix, support)``, where ``support`` is the row count past
        which every row is exactly ``0.0``, found by :meth:`row_support`
        over only the rows before where the sweep stopped; with
        ``blocks`` or ``scores`` it raises :class:`ValueError`.
        """
        raise NotImplementedError

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> Any:
        """``Pr(r(t_i) < r(t_j))`` for independent tuples, any order.

        ``probabilities`` and ``scores`` are aligned per tuple.  Tuple ``i``
        beats tuple ``j`` exactly when ``i`` is present and either ``j`` is
        absent or ``i`` scores higher, so the cell ``(i, j)`` of the native
        ``n × n`` result is ``p_i`` when ``s_i > s_j``, ``p_i (1 - p_j)``
        when ``s_i < s_j`` and 0 on the diagonal -- the whole grid is one
        outer product instead of ``n²`` scalar joint lookups, and rows stay
        aligned with the caller's key order.
        """
        raise NotImplementedError

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        """Expected Jaccard distance of every probability-ordered prefix.

        ``probabilities`` lists the presence probabilities of independent
        tuples in decreasing probability order.  Entry ``m`` of the result is
        ``E[d_J(W_m, pw)]`` for the prefix ``W_m`` of the first ``m`` tuples
        (Lemma 2 of the paper).  Writing ``j = |pw \\ W_m|`` and using that
        the distance ``(m - i + j) / (m + j)`` is linear in ``i = |pw ∩ W_m|``
        for fixed ``j``,

        ``E[d_J] = Σ_j Pr(j) (m - μ_m + j) / (m + j)``

        with ``μ_m = Σ_{t in W_m} p_t``; the distribution of ``j`` is the
        Bernoulli product over the suffix, maintained incrementally from
        ``m = n`` down to ``0`` so the whole scan is one ``O(n²)`` sweep.
        """
        raise NotImplementedError

    # -- batched Monte-Carlo sampling kernels -------------------------------
    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> Any:
        """``samples × n`` native boolean presence matrix of independent events.

        Cell ``(s, i)`` is True when event ``i`` occurred in sample ``s``.
        This is the fast path for flattened trees whose leaves are pairwise
        independent (every xor node feeds exactly one leaf): one uniform
        draw per cell, compared against the event's probability.  The draws
        are fully determined by ``seed``, so a run is reproducible per
        backend (the two backends consume different generators and need not
        produce identical streams).
        """
        raise NotImplementedError

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> Any:
        """``samples × leaf_count`` presence matrix of a general and/xor tree.

        ``cumulatives[x]`` holds the cumulative edge probabilities of xor
        node ``x`` (a uniform draw ``u`` selects the child with the smallest
        index whose cumulative value exceeds ``u``; ``u`` beyond the last
        value selects nothing).  ``constraints[l]`` lists the
        ``(xor index, child index)`` pairs leaf ``l`` requires on its root
        path; a leaf with no constraints is always present.  One categorical
        draw per xor node covers all leaves of a sample (Definition 1's
        generative process), vectorized across the whole batch.
        """
        raise NotImplementedError

    # -- shard-merge kernels -------------------------------------------------
    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Optional[Tuple[Any, int]] = None,
    ) -> Tuple[Any, int]:
        """Truncated prefix products ``Π_{i<m} (1 - p_i + p_i x)``.

        ``probabilities`` lists independent presence probabilities in
        decreasing score order.  Row ``m`` of the ``(n + 1) × out_len``
        native result holds the coefficients of the count distribution of
        the first ``m`` events -- the *partial rank generating function* a
        database shard exports so a coordinator can recover exact global
        rank probabilities by convolving shard partials
        (:meth:`convolve_rows`).  Row 0 is the unit polynomial.

        The sweep stops at the first row that is all ``0.0`` in its own
        arithmetic (from ``max_rank`` certain events above, or from
        underflow once the mass above is large) and leaves every later
        row exactly ``0.0``; no tolerance is involved.  A sweep with no
        zero row costs what a full sweep costs.  Returns ``(table,
        support)``: ``support`` is the number of rows before that first
        zero row (``n + 1`` when there is none), known from the sweep
        without a second pass.

        **Prefix-deterministic.**  Row ``m``'s bits depend only on the
        first ``m`` probabilities (and ``n``, ``out_len``), never on where
        a sweep started or stopped.  The pure backend steps row by row.
        The numpy backend cuts the rows on a fixed grid of chunks whose
        size is a function of ``n`` alone: each grid-line row is the
        previous grid-line row convolved with its chunk's product, and
        the rows inside a chunk step from the chunk's grid-line row.

        ``base = (rows, changed)`` re-sweeps after a probability-only
        update: ``rows`` are the live rows this method returned for
        probabilities that agree with these before index ``changed``, for
        the same ``n`` and ``out_len``.  Rows ``0 ..`` ``changed`` are
        unchanged, so the rows up to the last grid line at or before
        ``changed`` (``changed`` itself on the pure backend) are reused
        and the sweep runs from there; a change at or past the old
        support sweeps nothing.  The result equals a sweep without
        ``base`` bit for bit.
        """
        raise NotImplementedError

    def convolve_rows(self, a: Any, b: Any, out_len: int) -> Any:
        """Row-aligned truncated convolution of two native matrices.

        ``result[r][m] = Σ_i a[r][i] * b[r][m - i]`` for ``m < out_len`` --
        one polynomial product per row, batched.  This is the coordinator's
        merge kernel: convolving the per-tuple local rank polynomials of one
        shard against the gathered count-above-threshold partials of another
        shard merges the two shards' contributions for every tuple at once.
        """
        raise NotImplementedError

    def take_rows(self, matrix: Any, indices: Sequence[int]) -> Any:
        """Gather rows of a native matrix (callers must not mutate them)."""
        raise NotImplementedError

    def slice_rows(
        self, matrix: Any, start: int, stop: Optional[int] = None
    ) -> Any:
        """Rows ``start .. stop`` of a native matrix or vector.

        A view on numpy and a list sharing the row objects on the pure
        backend, so callers must not mutate the result.
        """
        return matrix[start:stop]

    def row_support(self, matrix: Any) -> int:
        """The row count past which every row of a native matrix is
        exactly ``0.0``: one more than the index of its last nonzero row
        (0 when every row is zero)."""
        raise NotImplementedError

    def extend_rows(self, native: Any, count: int, fill: Any) -> Any:
        """A native vector or matrix padded to ``count`` rows with copies
        of ``fill`` (a number for a vector, a row for a matrix); ``native``
        itself when it already has ``count`` rows."""
        raise NotImplementedError

    def index_vector(self, indices: Sequence[int]) -> Sequence[int]:
        """Pre-convert row indices to the backend's native gather form.

        Callers that reuse one index list across many :meth:`take_rows`
        calls (the merge engine's grid positions live across every
        incremental re-merge) convert it once through
        this hook instead of paying a python-list conversion per call.
        """
        return list(indices)

    def factor_vector(self, factors: Sequence[float]) -> Sequence[float]:
        """Pre-convert per-row scale factors for reuse across
        :meth:`scale_rows` calls (same contract as :meth:`index_vector`)."""
        return [float(value) for value in factors]

    # -- flat column kernels ------------------------------------------------
    # The numeric columns of a TI / BID relation (scores, probabilities,
    # block ids, the score order) are native vectors: lists on the pure
    # backend, 1-D ndarrays on numpy (see :class:`repro.andxor.columns.\
    # FlatColumns`).  Gathers use :meth:`take_rows`, conversions
    # :meth:`index_vector` / :meth:`factor_vector` / :meth:`vector_values`.
    def score_vector(self, scores: Sequence[Optional[float]]) -> Any:
        """A native score column; an unscored row (None) is NaN on numpy."""
        raise NotImplementedError

    def unscored_rows(self, scores: Any) -> List[int]:
        """Rows of a native score column that may carry no score (None,
        or NaN on numpy -- callers re-check those rows)."""
        raise NotImplementedError

    def descending_order(self, scores: Any) -> Any:
        """Row indices by decreasing score, stable: ties keep row order."""
        raise NotImplementedError

    def first_tie(self, scores: Any, groups: Any) -> Optional[int]:
        """First ``i`` with ``scores[i] == scores[i + 1]`` but
        ``groups[i] != groups[i + 1]``, else None."""
        raise NotImplementedError

    def first_difference(self, a: Any, b: Any) -> int:
        """The first index at which two native vectors of one length
        differ, or their length when they are equal."""
        raise NotImplementedError

    def rows_outside(self, values: Any, low: float, high: float) -> List[int]:
        """Ascending indices of the values not in ``[low, high]`` (NaN
        counts as outside)."""
        raise NotImplementedError

    def group_totals(self, values: Any, groups: Any, count: int) -> Any:
        """``totals[g] = Σ values[r]`` over rows with ``groups[r] == g``,
        summed in row order, as a native vector of length ``count``."""
        raise NotImplementedError

    def block_rows(
        self, blocks: Any, selected: Sequence[int]
    ) -> Tuple[Any, Any]:
        """The rows of the ``selected`` blocks of a sorted block column, in
        the given block order, and each row's position in ``selected``
        (its new block id), as two native index vectors."""
        raise NotImplementedError

    def splice(
        self,
        vector: Any,
        start: int,
        stop: int,
        replacement: Sequence[Any],
        tail_offset: int = 0,
    ) -> Any:
        """``vector[:start] + replacement + (vector[stop:] + tail_offset)``
        as a new native vector of ``vector``'s kind."""
        raise NotImplementedError

    def concatenate(self, vectors: Sequence[Any]) -> Any:
        """One or more native vectors of one kind, one after another, as a
        new native vector."""
        raise NotImplementedError

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        """Per threshold, how many scores are strictly greater than it.

        Both sequences are sorted in decreasing order; the result maps each
        threshold to the length of the score prefix lying above it.  The
        coordinator uses this to look one shard's score column up in
        another shard's prefix polynomial table.
        """
        raise NotImplementedError

    def scale_rows(self, matrix: Any, factors: Sequence[float]) -> Any:
        """Multiply row ``r`` of a native matrix by ``factors[r]``."""
        raise NotImplementedError

    def stack_matrices(self, matrices: Sequence[Any]) -> Any:
        """Concatenate native matrices with equal column counts row-wise."""
        raise NotImplementedError

    def sum_rows_by_group(
        self, matrix: Any, groups: Sequence[int], group_count: int
    ) -> Any:
        """Sum rows of a native matrix into ``group_count`` output rows.

        ``result[groups[r]] += matrix[r]`` for every row ``r``.  The
        block-independent rank matrix collapses its per-alternative rows
        into per-key rows with it.
        """
        raise NotImplementedError

    def scatter_rows(self, matrix: Any, rows: Sequence[int], count: int) -> Any:
        """A ``count``-row native matrix whose row ``rows[r]`` is row ``r``
        of ``matrix`` and whose other rows are ``0.0``; ``rows`` are
        distinct.  The merge engine places each shard's live rank rows at
        their keys' rows of the merged matrix with it.
        """
        raise NotImplementedError

    # -- consensus cost kernels --------------------------------------------
    def footrule_cost_matrix(self, matrix: Any, k: int) -> Any:
        """The footrule assignment cost table ``f(t, i)`` of Section 5.4.

        ``matrix`` is the native ``n × k`` rank matrix (cell ``(t, j-1)`` is
        ``Pr(r(t) = j)``).  Writing ``Υ1(t) = Σ_j Pr(r(t)=j)`` and
        ``Υ2(t) = Σ_j j Pr(r(t)=j)``, the result's cell ``(t, i-1)`` is

        ``f(t, i) = Σ_j Pr(r(t)=j) |i-j| - i (1 - Υ1(t))
                    + Υ2(t) - 2 (k+1) Υ1(t)``

        -- one matrix product against the ``k × k`` ``|i-j|`` grid plus two
        rank-one updates instead of the per-entry Υ3 loop.
        """
        raise NotImplementedError

    def intersection_profit_matrix(self, cumulative: Any, k: int) -> Any:
        """The intersection assignment profit table of Section 5.3.

        ``cumulative`` is the native ``n × k`` cumulative rank matrix (cell
        ``(t, i-1)`` is ``Pr(r(t) <= i)``).  The result's cell ``(t, j-1)``
        is ``P(t, j) = Σ_{i=j..k} Pr(r(t) <= i) / i``, the profit of placing
        tuple ``t`` at position ``j`` -- one product against the ``k × k``
        grid holding ``1/i`` at ``(i, j)`` for ``i >= j``, the counterpart
        of :meth:`footrule_cost_matrix`.
        """
        raise NotImplementedError

    def assignment_candidates(
        self,
        table: Any,
        count: int,
        maximize: bool = False,
        tail: Optional[Sequence[float]] = None,
    ) -> Optional[List[int]]:
        """Rows of an assignment table that some optimum is confined to.

        ``table`` is a native ``n × w`` table with one row per tuple and one
        column per position (the layout of :meth:`footrule_cost_matrix` and
        :meth:`intersection_profit_matrix`).  Returns, in ascending order,
        every row that is among the ``count`` best rows of some column
        (smallest values, or largest with ``maximize``); when
        ``n <= count * w`` that is every row.  Ties at a column's cut-off
        may be broken either way.  With ``count = w`` some optimal
        assignment of the ``w`` positions uses only these rows (the
        pruning lemma in :mod:`repro.consensus.topk.footrule`).

        ``tail`` declares ``table`` the head of a longer table whose other
        rows all equal ``tail``.  The head's candidates are the longer
        table's when every column's ``count``-th best head value strictly
        beats ``tail``'s; otherwise (and when ``n <= count * w``, where the
        longer table would be pruned) the result is ``None`` and the
        caller must pass the whole table.
        """
        raise NotImplementedError

    def top_indices(self, values: Any, count: int) -> List[int]:
        """Ascending indices of every value ``>=`` the ``count``-th largest.

        ``values`` is a native vector (or a sequence).  Every value tied
        with the ``count``-th largest is kept, so sorting the survivors by
        decreasing value under any tie-break reproduces the first ``count``
        entries of a full sort under the same tie-break;
        ``count >= len(values)`` keeps every index.
        """
        raise NotImplementedError

    # -- native matrix helpers ----------------------------------------------
    def matrix_from_rows(self, rows: Sequence[Sequence[float]]) -> Any:
        """Pack per-key coefficient rows into the backend-native layout."""
        raise NotImplementedError

    def transpose(self, matrix: Any) -> Any:
        """The transposed view/copy of a native matrix."""
        raise NotImplementedError

    def cumulative_rows(self, matrix: Any) -> Any:
        """Row-wise running sums (``Pr(r(t) = i)`` -> ``Pr(r(t) <= i)``)."""
        raise NotImplementedError

    def truncate_columns(self, matrix: Any, count: int) -> Any:
        """The first ``count`` columns of a native matrix.

        Rank probabilities do not depend on the truncation bound, so a
        prefix slice of an ``n x K`` rank matrix *is* the exact ``n x k``
        matrix for every ``k <= K`` -- the kernel behind fused
        multi-query plans that answer many Top-k sizes from one sweep.
        """
        raise NotImplementedError

    def matrix_row(self, matrix: Any, index: int) -> List[float]:
        """One row of a native matrix as a Python list."""
        raise NotImplementedError

    def matrix_column(self, matrix: Any, index: int) -> List[float]:
        """One column of a native matrix as a Python list."""
        raise NotImplementedError

    def matrix_cell(self, matrix: Any, row: int, column: int) -> float:
        """One scalar cell of a native matrix."""
        raise NotImplementedError

    def vector_sum(self, values: Sequence[float]) -> float:
        """Sum of a vector's entries."""
        raise NotImplementedError

    def row_sums(self, matrix: Any) -> Any:
        """Per-row totals of a native matrix, as a native vector."""
        raise NotImplementedError

    def column_sums(self, matrix: Any) -> List[float]:
        """Per-column totals of a native matrix."""
        raise NotImplementedError

    def matvec(self, matrix: Any, weights: Sequence[float]) -> Any:
        """Per-row weighted sums ``Σ_j matrix[i][j] * weights[j]``, as a
        native vector."""
        raise NotImplementedError

    def vector_values(
        self, vector: Any, indices: Optional[Sequence[int]] = None
    ) -> List[float]:
        """Entries of a native vector (all, or those at ``indices``) as a
        Python list."""
        raise NotImplementedError

    def matrix_to_lists(self, matrix: Any) -> List[List[float]]:
        """Convert a native matrix into a list of row lists."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# Pure-Python reference backend
# ----------------------------------------------------------------------
def _bernoulli_step(coefficients: List[float], probability: float) -> None:
    """Multiply a truncated polynomial by ``1 - p + p x`` in place."""
    previous = 0.0
    for index, current in enumerate(coefficients):
        coefficients[index] = (
            current * (1.0 - probability) + previous * probability
        )
        previous = current


def _extend_prefix_rows(
    rows: List[List[float]], probabilities: Sequence[float]
) -> None:
    """Append ``rows[-1] · Π_{j<m} (1 - p_j + p_j x)`` for ``m = 1, 2,
    ...`` to ``rows``, one row per probability, up to the first row that
    is all zero (left out)."""
    coefficients = list(rows[-1])
    for probability in probabilities:
        _bernoulli_step(coefficients, probability)
        if not any(coefficients):
            break
        rows.append(list(coefficients))


def _tie_starts(scores: Sequence[float]) -> List[int]:
    """Per row of a decreasing score list, the first row of equal score."""
    starts: List[int] = []
    for row, score in enumerate(scores):
        tied = row and score == scores[row - 1]
        starts.append(starts[-1] if tied else row)
    return starts


class PurePythonBackend(Backend):
    """Reference implementation; exact on ``int`` / ``Fraction`` inputs."""

    name = "python"

    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        result: List[Number] = [0] * out_len
        for i, coeff_a in enumerate(a):
            if coeff_a == 0 or i >= out_len:
                continue
            limit = min(len(b), out_len - i)
            for j in range(limit):
                coeff_b = b[j]
                if coeff_b != 0:
                    result[i + j] += coeff_a * coeff_b
        return result

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        rows: List[List[Number]] = [[0] * out_y for _ in range(out_x)]
        for i, row_a in enumerate(a):
            if i >= out_x:
                break
            for j, coeff_a in enumerate(row_a):
                if coeff_a == 0 or j >= out_y:
                    continue
                max_p = min(len(b), out_x - i)
                for p in range(max_p):
                    row_b = b[p]
                    max_q = min(len(row_b), out_y - j)
                    target = rows[i + p]
                    for q in range(max_q):
                        coeff_b = row_b[q]
                        if coeff_b != 0:
                            target[j + q] += coeff_a * coeff_b
        return rows

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        limits = tuple(limit_vector)
        terms: Dict[Exponents, Number] = {}
        for exp_a, coeff_a in terms_a.items():
            for exp_b, coeff_b in terms_b.items():
                combined = tuple(x + y for x, y in zip(exp_a, exp_b))
                skip = False
                for value, limit in zip(combined, limits):
                    if limit is not None and value > limit:
                        skip = True
                        break
                if skip:
                    continue
                terms[combined] = terms.get(combined, 0) + coeff_a * coeff_b
        return terms

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        result: List[Number] = [1]
        for factor in factors:
            length = len(result) + len(factor) - 1
            if out_len is not None:
                length = min(length, out_len)
            result = self.convolve(result, factor, length)
        return result

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        length = len(probabilities) + 1
        if out_len is not None:
            length = min(length, out_len)
        if length < 1:
            return []
        coefficients = [0.0] * length
        coefficients[0] = 1.0
        degree = 0
        for probability in probabilities:
            degree = min(degree + 1, length - 1)
            previous = 0.0
            for index in range(degree + 1):
                current = coefficients[index]
                coefficients[index] = (
                    current * (1.0 - probability) + previous * probability
                )
                previous = current
        return coefficients

    def rank_probability_matrix(
        self,
        probabilities: Sequence[float],
        max_rank: int,
        blocks: Optional[Sequence[int]] = None,
        scores: Optional[Sequence[float]] = None,
        *,
        with_support: bool = False,
    ) -> Any:
        if with_support and (blocks is not None or scores is not None):
            raise ValueError(
                "with_support needs tuple-independent rows without scores"
            )
        count = len(probabilities)
        if blocks is None and scores is None:
            table, live = self._prefix_products(probabilities, max_rank)
        else:
            blocks = range(count) if blocks is None else blocks
            times = range(count) if scores is None else _tie_starts(scores)
            sizes = _Counter(blocks)
            prefix, _ = self._prefix_products(
                [
                    0.0 if sizes[block] > 1 else probability
                    for probability, block in zip(probabilities, blocks)
                ],
                max_rank,
            )
            table = [list(prefix[time]) for time in times]
            shared: Dict[int, List[int]] = {}
            for row, block in enumerate(blocks):
                if sizes[block] > 1:
                    shared.setdefault(block, []).append(row)
            for block, members in shared.items():
                cursor = 0
                mass = 0.0
                for row in range(members[0] + 1, count):
                    while (
                        cursor < len(members) and members[cursor] < times[row]
                    ):
                        mass += probabilities[members[cursor]]
                        cursor += 1
                    if blocks[row] != block:
                        _bernoulli_step(table[row], mass)
        matrix = [
            [probability * c for c in row]
            for probability, row in zip(probabilities, table)
        ]
        if not with_support:
            return matrix
        return matrix, self.row_support(matrix[:live])

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> List[List[float]]:
        rows: List[List[float]] = []
        for i, (p_i, s_i) in enumerate(zip(probabilities, scores)):
            row: List[float] = []
            for j, (p_j, s_j) in enumerate(zip(probabilities, scores)):
                if i == j:
                    row.append(0.0)
                elif s_j > s_i:  # strict: ties mean j cannot outrank i
                    row.append(p_i * (1.0 - p_j))
                else:
                    row.append(p_i)
            rows.append(row)
        return rows

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        n = len(probabilities)
        prefix_mass = [0.0] * (n + 1)
        for m, probability in enumerate(probabilities):
            prefix_mass[m + 1] = prefix_mass[m] + probability
        values = [0.0] * (n + 1)
        outside = [1.0]  # distribution of |pw \ W_m|, starting at m = n
        for m in range(n, -1, -1):
            mu = prefix_mass[m]
            total = 0.0
            for j, probability in enumerate(outside):
                union = m + j
                if union > 0:
                    total += probability * (m - mu + j) / union
            values[m] = total
            if m > 0:
                p = probabilities[m - 1]
                grown = [0.0] * (len(outside) + 1)
                for j, probability in enumerate(outside):
                    grown[j] += probability * (1.0 - p)
                    grown[j + 1] += probability * p
                outside = grown
        return values

    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> List[List[bool]]:
        rng = _random.Random(seed)
        return [
            [rng.random() < probability for probability in probabilities]
            for _ in range(samples)
        ]

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> List[List[bool]]:
        rng = _random.Random(seed)
        rows: List[List[bool]] = []
        for _ in range(samples):
            choices = [
                _bisect_right(cumulative, rng.random())
                for cumulative in cumulatives
            ]
            rows.append(
                [
                    all(choices[x] == child for x, child in constraint)
                    for constraint in constraints
                ]
            )
        return rows

    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Optional[Tuple[List[List[float]], int]] = None,
    ) -> Tuple[List[List[float]], int]:
        if base is None or out_len < 1:
            return self._prefix_products(probabilities, out_len)
        above, changed = base
        rows = list(above[: changed + 1])
        if changed < len(above):
            _extend_prefix_rows(rows, probabilities[changed:])
        return self._zero_padded(rows, len(probabilities), out_len)

    def _prefix_products(
        self, probabilities: Sequence[float], out_len: int
    ) -> Tuple[List[List[float]], int]:
        """The prefix-product rows and how many lead the zero tail."""
        count = len(probabilities)
        if out_len < 1:
            return [[] for _ in range(count + 1)], 0
        rows = [[1.0] + [0.0] * (out_len - 1)]
        _extend_prefix_rows(rows, probabilities)
        return self._zero_padded(rows, count, out_len)

    @staticmethod
    def _zero_padded(
        rows: List[List[float]], count: int, out_len: int
    ) -> Tuple[List[List[float]], int]:
        live = len(rows)
        rows.extend([0.0] * out_len for _ in range(count + 1 - live))
        return rows, live

    def convolve_rows(
        self,
        a: List[List[float]],
        b: List[List[float]],
        out_len: int,
    ) -> List[List[float]]:
        if len(a) != len(b):
            raise ValueError(
                f"row counts differ: {len(a)} vs {len(b)}"
            )
        return [
            self.convolve(row_a, row_b, out_len)
            for row_a, row_b in zip(a, b)
        ]

    def take_rows(
        self, matrix: List[List[float]], indices: Sequence[int]
    ) -> List[List[float]]:
        return [matrix[index] for index in indices]

    def row_support(self, matrix: List[List[float]]) -> int:
        support = len(matrix)
        while support and not any(matrix[support - 1]):
            support -= 1
        return support

    def extend_rows(self, native: List[Any], count: int, fill: Any) -> List[Any]:
        extra = count - len(native)
        if not extra:
            return native
        if isinstance(fill, (int, float)):
            return list(native) + [fill] * extra
        return list(native) + [list(fill) for _ in range(extra)]

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        count = len(scores_desc)
        out: List[int] = []
        position = 0
        for threshold in thresholds_desc:
            while position < count and scores_desc[position] > threshold:
                position += 1
            out.append(position)
        return out

    def score_vector(
        self, scores: Sequence[Optional[float]]
    ) -> List[Optional[float]]:
        return [None if score is None else float(score) for score in scores]

    def unscored_rows(self, scores: Sequence[Optional[float]]) -> List[int]:
        if None not in scores:
            return []
        return [row for row, score in enumerate(scores) if score is None]

    def descending_order(self, scores: Sequence[float]) -> List[int]:
        return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)

    def first_tie(
        self, scores: Sequence[float], groups: Sequence[int]
    ) -> Optional[int]:
        for index in range(len(scores) - 1):
            if (
                scores[index] == scores[index + 1]
                and groups[index] != groups[index + 1]
            ):
                return index
        return None

    def first_difference(
        self, a: Sequence[float], b: Sequence[float]
    ) -> int:
        # The index of the first unequal pair, found by C-level iterators.
        return next(_compress(_count(), map(_ne, a, b)), len(a))

    def rows_outside(
        self, values: Sequence[float], low: float, high: float
    ) -> List[int]:
        return [
            index
            for index, value in enumerate(values)
            if not low <= value <= high
        ]

    def group_totals(
        self, values: Sequence[float], groups: Sequence[int], count: int
    ) -> List[float]:
        totals = [0.0] * count
        for value, group in zip(values, groups):
            totals[group] += value
        return totals

    def block_rows(
        self, blocks: Sequence[int], selected: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        rows: List[int] = []
        block_ids: List[int] = []
        for position, block in enumerate(selected):
            start = _bisect_left(blocks, block)
            stop = _bisect_right(blocks, block, start)
            rows.extend(range(start, stop))
            block_ids.extend([position] * (stop - start))
        return rows, block_ids

    def splice(
        self,
        vector: List[Any],
        start: int,
        stop: int,
        replacement: Sequence[Any],
        tail_offset: int = 0,
    ) -> List[Any]:
        tail = vector[stop:]
        if tail_offset:
            tail = [value + tail_offset for value in tail]
        return vector[:start] + list(replacement) + tail

    def concatenate(self, vectors: Sequence[List[Any]]) -> List[Any]:
        return [value for vector in vectors for value in vector]

    def scale_rows(
        self, matrix: List[List[float]], factors: Sequence[float]
    ) -> List[List[float]]:
        return [
            [value * factor for value in row]
            for row, factor in zip(matrix, factors)
        ]

    def stack_matrices(
        self, matrices: Sequence[List[List[float]]]
    ) -> List[List[float]]:
        stacked: List[List[float]] = []
        for matrix in matrices:
            stacked.extend(matrix)
        return stacked

    def sum_rows_by_group(
        self,
        matrix: List[List[float]],
        groups: Sequence[int],
        group_count: int,
    ) -> List[List[float]]:
        width = len(matrix[0]) if matrix else 0
        out = [[0.0] * width for _ in range(group_count)]
        for row, group in zip(matrix, groups):
            target = out[group]
            for index, value in enumerate(row):
                target[index] += value
        return out

    def scatter_rows(
        self, matrix: List[List[float]], rows: Sequence[int], count: int
    ) -> List[List[float]]:
        width = len(matrix[0]) if matrix else 0
        out = [[0.0] * width for _ in range(count)]
        for row, target in zip(matrix, rows):
            out[target] = list(row)
        return out

    def footrule_cost_matrix(
        self, matrix: List[List[float]], k: int
    ) -> List[List[float]]:
        rows: List[List[float]] = []
        for row in matrix:
            # spread[i - 1] = Σ_j p_j |i - j| in O(k): the forward sweep
            # charges each position the mass of the ranks before it, the
            # backward sweep the mass of the ranks after it.  The backward
            # sweep ends with mass = Υ1 and distance = Σ_j j p_j = Υ2.
            spread = [0.0] * k
            mass = distance = 0.0
            for i in range(k):
                spread[i] = distance
                mass += row[i]
                distance += mass
            mass = distance = 0.0
            for i in range(k - 1, -1, -1):
                spread[i] += distance
                mass += row[i]
                distance += mass
            absent_or_low = 1.0 - mass
            base = distance - 2.0 * (k + 1.0) * mass
            rows.append(
                [
                    spread[i] - (i + 1) * absent_or_low + base
                    for i in range(k)
                ]
            )
        return rows

    def intersection_profit_matrix(
        self, cumulative: List[List[float]], k: int
    ) -> List[List[float]]:
        rows: List[List[float]] = []
        for row in cumulative:
            out = [0.0] * k
            running = 0.0
            for i in range(k - 1, -1, -1):
                running += row[i] / (i + 1)
                out[i] = running
            rows.append(out)
        return rows

    def assignment_candidates(
        self,
        table: List[List[float]],
        count: int,
        maximize: bool = False,
        tail: Optional[Sequence[float]] = None,
    ) -> Optional[List[int]]:
        n = len(table)
        width = len(table[0]) if table else len(tail or ())
        if n <= count * width:
            return None if tail is not None else list(range(n))
        pick = _heapq.nlargest if maximize else _heapq.nsmallest
        chosen = set()
        for position in range(width):
            column = [row[position] for row in table]
            best = pick(count, range(n), key=column.__getitem__)
            if tail is not None:
                last, limit = column[best[-1]], tail[position]
                if not (last > limit if maximize else last < limit):
                    return None
            chosen.update(best)
        return sorted(chosen)

    def top_indices(self, values: Sequence[float], count: int) -> List[int]:
        if count <= 0:
            return []
        if count >= len(values):
            return list(range(len(values)))
        threshold = _heapq.nlargest(count, values)[-1]
        return [
            index for index, value in enumerate(values) if value >= threshold
        ]

    def matrix_from_rows(
        self, rows: Sequence[Sequence[float]]
    ) -> List[List[float]]:
        return [list(row) for row in rows]

    def transpose(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        return [list(column) for column in zip(*matrix)]

    def cumulative_rows(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        out: List[List[float]] = []
        for row in matrix:
            running = 0.0
            cumulative = []
            for value in row:
                running += value
                cumulative.append(running)
            out.append(cumulative)
        return out

    def truncate_columns(
        self, matrix: List[List[float]], count: int
    ) -> List[List[float]]:
        return [row[:count] for row in matrix]

    def matrix_row(self, matrix: List[List[float]], index: int) -> List[float]:
        return list(matrix[index])

    def matrix_column(
        self, matrix: List[List[float]], index: int
    ) -> List[float]:
        return [row[index] for row in matrix]

    def matrix_cell(
        self, matrix: List[List[float]], row: int, column: int
    ) -> float:
        return matrix[row][column]

    def vector_sum(self, values: Sequence[float]) -> float:
        return sum(values)

    def row_sums(self, matrix: List[List[float]]) -> List[float]:
        return [sum(row) for row in matrix]

    def column_sums(self, matrix: List[List[float]]) -> List[float]:
        if not matrix:
            return []
        totals = [0.0] * len(matrix[0])
        for row in matrix:
            for index, value in enumerate(row):
                totals[index] += value
        return totals

    def matvec(
        self, matrix: List[List[float]], weights: Sequence[float]
    ) -> List[float]:
        return [
            sum(value * weight for value, weight in zip(row, weights))
            for row in matrix
        ]

    def vector_values(
        self, vector: Sequence[float], indices: Optional[Sequence[int]] = None
    ) -> List[float]:
        if indices is None:
            return list(vector)
        return [vector[index] for index in indices]

    def matrix_to_lists(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        return [list(row) for row in matrix]


# ----------------------------------------------------------------------
# NumPy backend
# ----------------------------------------------------------------------
def _is_float_compatible(values: Sequence[Number]) -> bool:
    """True when every coefficient can be losslessly treated as float64.

    ``Fraction`` / ``Decimal`` coefficients must keep exact arithmetic, and
    general int coefficients could overflow 2**53 through the products and
    sums of a convolution, so both route to the pure-Python kernels.  Ints
    in {-1, 0, 1} are allowed: they arise from variable/one/zero
    polynomials mixed into float probability arithmetic and cannot lose
    precision.  (``numpy`` scalars subclass ``float``/``int`` or are
    rejected by the tuple check, both of which are correct.)
    """
    for value in values:
        if isinstance(value, float):
            continue
        if isinstance(value, int) and -1 <= value <= 1:
            continue
        return False
    return True


#: Below ``exp(_LOG_TINY)`` (half the smallest subnormal double) a value
#: rounds to ``0.0``.
_LOG_TINY = -745.2


def _zero_row_guess(values: Any, out_len: int) -> int:
    """Where the prefix sweep over ``values`` probably turns all-zero.

    Writing ``L_m = Σ_{i<m} log(1 - p_i)`` and ``S_m = Σ_{i<m} p_i/(1-p_i)``,
    coefficient ``j`` of row ``m`` is ``exp(L_m) · e_j(odds) <=
    exp(L_m) · S_m^j`` (Maclaurin), so once ``L_m + (out_len - 1) ·
    log max(S_m, 1)`` drops below :data:`_LOG_TINY` every coefficient of
    row ``m`` rounds to zero; while ``L_m`` stays above it, coefficient 0
    does not.  Certain rows (``p = 1``) only shift the coefficients up --
    they are left out of ``L`` and ``S`` -- and ``out_len`` of them zero a
    row exactly.  Rounding in the subnormal range can keep a row alive a
    little longer, so this is a guess: the sweep checks the row it ends
    on.  The bound is read in windows that double from 1024 rows, so a
    guess within the first rows reads only those.  Returns
    ``len(values)`` when no zero row is foreseen.
    """
    count = values.shape[0]
    with _np.errstate(divide="ignore"):
        logs = _np.log1p(-values)
    if logs.sum() >= _LOG_TINY:
        return count
    certain = _np.flatnonzero(values >= 1.0)
    if certain.shape[0] >= out_len:
        count = int(certain[out_len - 1]) + 1
    start, width, log_total, odds_total = 0, 1024, 0.0, 0.0
    while start < count:
        stop = min(start + width, count)
        uncertain = values[start:stop] < 1.0
        window = _np.where(uncertain, values[start:stop], 0.0)
        running_logs = log_total + _np.cumsum(
            _np.where(uncertain, logs[start:stop], 0.0)
        )
        running_odds = odds_total + _np.cumsum(window / (1.0 - window))
        bound = running_logs + (out_len - 1) * _np.log(
            _np.maximum(running_odds, 1.0)
        )
        below = _np.flatnonzero(bound < _LOG_TINY)
        if below.shape[0]:
            return start + int(below[0]) + 1
        log_total, odds_total = running_logs[-1], running_odds[-1]
        start, width = stop, 2 * width
    return count


def _grid_size(count: int) -> int:
    """Rows per chunk of the prefix sweep's grid over a ``count``-row
    relation.

    A sweep costs a few vectorised calls per row of a chunk and one
    convolution per chunk.  Small tables take ``√count`` rows (at least
    2), as many chunks as rows per chunk.  From 256 rows on, sixteen rows
    suit the live heads of a few hundred rows that sweeps in score order
    usually end on, and long tables without a zero row need larger
    chunks, so the size grows as ``√count / 4`` past 4096 rows.
    """
    root = _isqrt(count)
    return max(2, min(16, root), root // 4)


def _first_zero_row(rows: Any, size: int) -> Optional[int]:
    """The index of the first all-zero row of a swept segment whose grid
    lines lie every ``size`` rows from its first row; ``None`` when it
    has none.

    A row stepped from a zero row is zero, so inside a chunk the rows
    after a zero row are zero, and only the grid-line rows and every
    chunk's last row are read before the one chunk that turns zero.
    """
    last = rows.shape[0] - 1
    lines = _np.arange(0, last + 1, size)
    probes = _np.stack([lines, _np.minimum(lines + size - 1, last)], 1)
    dead = _np.flatnonzero(~rows[probes.ravel()].any(axis=1))
    if not dead.shape[0]:
        return None
    chunk, end = divmod(int(dead[0]), 2)
    line = int(lines[chunk])
    if not end:
        return line
    inside = ~rows[line + 1 : int(probes[chunk, 1]) + 1].any(axis=1)
    return line + 1 + int(inside.argmax())


class NumpyBackend(Backend):
    """Vectorized float64 kernels on top of NumPy.

    Parameters
    ----------
    small_cutoff:
        Operand-size threshold below which the scalar kernels are used for
        ``convolve`` / ``convolve2d`` / ``sparse_convolve`` /
        ``polynomial_product`` -- for tiny polynomials the ``ndarray``
        round-trip costs more than it saves.  Set to 0 to force the vector
        path (used by the parity tests).
    """

    name = "numpy"

    def __init__(self, small_cutoff: int = 256) -> None:
        if _np is None:
            raise RuntimeError(
                "NumpyBackend requested but numpy is not importable; "
                "install the [fast] extra or set REPRO_BACKEND=python"
            )
        self._small_cutoff = small_cutoff
        self._fallback = PurePythonBackend()

    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        if (
            len(a) * len(b) < self._small_cutoff
            or not _is_float_compatible(a)
            or not _is_float_compatible(b)
        ):
            return self._fallback.convolve(a, b, out_len)
        full = _np.convolve(
            _np.asarray(a, dtype=_np.float64),
            _np.asarray(b, dtype=_np.float64),
        )[:out_len]
        if full.shape[0] < out_len:  # zero-pad to match the pure backend
            full = _np.pad(full, (0, out_len - full.shape[0]))
        return full.tolist()

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        cells_a = len(a) * len(a[0]) if a else 0
        cells_b = len(b) * len(b[0]) if b else 0
        if (
            cells_a * cells_b < self._small_cutoff
            or not all(_is_float_compatible(row) for row in a)
            or not all(_is_float_compatible(row) for row in b)
        ):
            return self._fallback.convolve2d(a, b, out_x, out_y)
        matrix_a = _np.asarray(a, dtype=_np.float64)
        matrix_b = _np.asarray(b, dtype=_np.float64)
        out = _np.zeros((out_x, out_y), dtype=_np.float64)
        # 2-D truncated convolution as a sum of shifted 1-D convolutions
        # over the rows of the smaller operand.
        if matrix_b.shape[0] > matrix_a.shape[0]:
            matrix_a, matrix_b = matrix_b, matrix_a
        for p in range(min(matrix_b.shape[0], out_x)):
            row_b = matrix_b[p]
            limit_x = min(matrix_a.shape[0], out_x - p)
            for i in range(limit_x):
                segment = _np.convolve(matrix_a[i], row_b)[:out_y]
                out[i + p, : segment.shape[0]] += segment
        return out.tolist()

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        if not terms_a or not terms_b:
            return {}
        if (
            len(terms_a) * len(terms_b) < self._small_cutoff
            or not _is_float_compatible(list(terms_a.values()))
            or not _is_float_compatible(list(terms_b.values()))
        ):
            return self._fallback.sparse_convolve(
                terms_a, terms_b, limit_vector
            )
        exps_a = _np.array(list(terms_a.keys()), dtype=_np.int64)
        exps_b = _np.array(list(terms_b.keys()), dtype=_np.int64)
        coeffs_a = _np.array(list(terms_a.values()), dtype=_np.float64)
        coeffs_b = _np.array(list(terms_b.values()), dtype=_np.float64)
        combined = (exps_a[:, None, :] + exps_b[None, :, :]).reshape(
            -1, exps_a.shape[1]
        )
        products = _np.multiply.outer(coeffs_a, coeffs_b).reshape(-1)
        mask = _np.ones(combined.shape[0], dtype=bool)
        for axis, limit in enumerate(limit_vector):
            if limit is not None:
                mask &= combined[:, axis] <= limit
        combined = combined[mask]
        products = products[mask]
        if combined.shape[0] == 0:
            return {}
        unique, inverse = _np.unique(combined, axis=0, return_inverse=True)
        totals = _np.zeros(unique.shape[0], dtype=_np.float64)
        _np.add.at(totals, inverse.reshape(-1), products)
        return {
            tuple(int(e) for e in exponents): float(total)
            for exponents, total in zip(unique, totals)
        }

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        total_coefficients = sum(len(factor) for factor in factors)
        if total_coefficients < self._small_cutoff or not all(
            _is_float_compatible(factor) for factor in factors
        ):
            return self._fallback.polynomial_product(factors, out_len)
        result = _np.ones(1, dtype=_np.float64)
        for factor in factors:
            result = _np.convolve(
                result, _np.asarray(factor, dtype=_np.float64)
            )
            if out_len is not None and result.shape[0] > out_len:
                result = result[:out_len]
        return result.tolist()

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        length = len(probabilities) + 1
        if out_len is not None:
            length = min(length, out_len)
        if length < 1:
            return []
        coefficients = _np.zeros(length, dtype=_np.float64)
        coefficients[0] = 1.0
        for probability in _np.asarray(probabilities, dtype=_np.float64):
            shifted = _np.empty_like(coefficients)
            shifted[0] = 0.0
            shifted[1:] = coefficients[:-1]
            coefficients = (
                coefficients * (1.0 - probability) + shifted * probability
            )
        return coefficients.tolist()

    def rank_probability_matrix(
        self,
        probabilities: Sequence[float],
        max_rank: int,
        blocks: Optional[Sequence[int]] = None,
        scores: Optional[Sequence[float]] = None,
        *,
        with_support: bool = False,
    ) -> Any:
        if with_support and (blocks is not None or scores is not None):
            raise ValueError(
                "with_support needs tuple-independent rows without scores"
            )
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        if blocks is None and scores is None:
            table, live = self._prefix_products(values, max_rank)
            if live > count:
                out = values[:, None] * table[:-1]
            else:
                out = _np.zeros((count, max(max_rank, 0)))
                _np.multiply(
                    values[:live, None], table[:live], out=out[:live]
                )
            if not with_support:
                return out
            return out, self.row_support(out[:live])
        ids = _np.arange(count) if blocks is None else _np.asarray(blocks)
        times = _np.asarray(
            range(count) if scores is None else _tie_starts(scores),
            dtype=_np.intp,
        )
        _, inverse, sizes = _np.unique(
            ids, return_inverse=True, return_counts=True
        )
        shared = sizes[inverse] > 1
        table = self._prefix_products(
            _np.where(shared, 0.0, values), max_rank
        )[0][times]
        # The rows of every multi-row block, grouped by block, in row order.
        members = _np.flatnonzero(shared)
        members = members[_np.argsort(inverse[members], kind="stable")]
        splits = _np.flatnonzero(_np.diff(inverse[members])) + 1
        groups = (
            _np.split(members, splits) if members.size and max_rank else []
        )
        for rows in groups:
            start = _np.searchsorted(times, rows[0], side="right")
            masses = _np.zeros(rows.shape[0] + 1)
            _np.cumsum(values[rows], out=masses[1:])
            mass = masses[_np.searchsorted(rows, times[start:], side="left")]
            mass[inverse[start:] == inverse[rows[0]]] = 0.0
            later = table[start:]
            later[:, 1:] = (
                later[:, 1:] * (1.0 - mass)[:, None]
                + later[:, :-1] * mass[:, None]
            )
            later[:, 0] *= 1.0 - mass
        return values[:, None] * table

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> Any:
        values = _np.asarray(probabilities, dtype=_np.float64)
        ranks = _np.asarray(scores, dtype=_np.float64)
        # cell (i, j) = p_i * (1 - p_j * [tuple j scores higher than i])
        higher = (ranks[None, :] > ranks[:, None]).astype(_np.float64)
        matrix = values[:, None] * (1.0 - values[None, :] * higher)
        _np.fill_diagonal(matrix, 0.0)
        return matrix

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        prefix_mass = _np.concatenate(([0.0], _np.cumsum(values)))
        results = _np.zeros(count + 1, dtype=_np.float64)
        outside = _np.ones(1, dtype=_np.float64)
        for m in range(count, -1, -1):
            sizes = m + _np.arange(outside.shape[0], dtype=_np.float64)
            weights = _np.divide(
                sizes - prefix_mass[m],
                sizes,
                out=_np.zeros_like(sizes),
                where=sizes > 0,
            )
            results[m] = outside @ weights
            if m > 0:
                p = values[m - 1]
                grown = _np.empty(outside.shape[0] + 1, dtype=_np.float64)
                grown[:-1] = outside * (1.0 - p)
                grown[-1] = 0.0
                grown[1:] += outside * p
                outside = grown
        return results.tolist()

    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> Any:
        rng = _np.random.default_rng(seed)
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        presence = _np.empty((samples, count), dtype=bool)
        # Chunk the uniform draws so the float64 scratch stays bounded even
        # for very large S × n batches (the bool result is 8x smaller).
        chunk = max(1, min(samples, 8_000_000 // max(1, count)))
        for start in range(0, samples, chunk):
            stop = min(samples, start + chunk)
            presence[start:stop] = rng.random((stop - start, count)) < values
        return presence

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> Any:
        rng = _np.random.default_rng(seed)
        presence = _np.ones((samples, leaf_count), dtype=bool)
        targets_by_xor: Dict[int, List[Tuple[int, int]]] = {}
        for leaf, constraint in enumerate(constraints):
            for x, child in constraint:
                targets_by_xor.setdefault(x, []).append((leaf, child))
        for x, cumulative in enumerate(cumulatives):
            draws = rng.random(samples)
            targets = targets_by_xor.get(x)
            if not targets:
                continue
            choice = _np.searchsorted(
                _np.asarray(cumulative, dtype=_np.float64),
                draws,
                side="right",
            )
            for leaf, child in targets:
                presence[:, leaf] &= choice == child
        return presence

    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Optional[Tuple[Any, int]] = None,
    ) -> Tuple[Any, int]:
        values = _np.asarray(probabilities, dtype=_np.float64)
        if base is None or out_len < 1:
            return self._prefix_products(values, out_len)
        above, changed = base
        count, live = values.shape[0], len(above)
        size = _grid_size(count)
        rows = _np.zeros((count + size + 1, out_len))
        if changed >= live:
            rows[:live] = above
            return rows[: count + 1], live
        start = changed // size * size
        rows[: start + 1] = above[: start + 1]
        # The new support is most likely near the old one: the first
        # segment ends a chunk past it, which costs less than a second
        # segment when the support moves down a few rows.
        return self._sweep_segments(values, rows, start, live + size, size)

    def _prefix_products(self, values: Any, out_len: int) -> Tuple[Any, int]:
        """The prefix-product rows and how many lead the zero tail.

        The first segment of the sweep ends at the first grid line at or
        past :func:`_zero_row_guess`'s estimate of the first all-zero row.
        """
        count = values.shape[0]
        if out_len < 1:
            return _np.zeros((count + 1, 0)), 0
        size = _grid_size(count)
        rows = _np.zeros((count + size + 1, out_len))
        rows[0, 0] = 1.0
        return self._sweep_segments(
            values, rows, 0, _zero_row_guess(values, out_len), size
        )

    def _sweep_segments(
        self, values: Any, rows: Any, start: int, stop: int, size: int
    ) -> Tuple[Any, int]:
        """Sweep ``rows`` (the table over ``values``, ``size`` rows of
        headroom past its end) from grid-line row ``start``, which is set
        and live, and return ``(table, support)``.

        The sweep runs in segments between grid lines (the last may end
        on the table's last row): the first ends at the first grid line at
        or past row ``stop``, and while no row of a segment is zero, the
        next continues from its last row, each twice as long as the one
        before.  Once a segment holds a zero row, every row from it on is
        set to ``0.0``.
        """
        count = values.shape[0]
        stop = max(start + size, -(-stop // size) * size)
        grow = 4 * size
        while True:
            stop = min(stop, count)
            segment = rows[start : stop + 1]
            self._sweep(values[start:stop], rows[start:], size)
            zero = _first_zero_row(segment, size)
            if zero is not None:
                segment[zero:] = 0.0
                return rows[: count + 1], start + zero
            if stop == count:
                return rows[: count + 1], count + 1
            start, stop, grow = stop, stop + grow, 2 * grow

    @staticmethod
    def _sweep(values: Any, rows: Any, size: int) -> None:
        """Fill ``rows[1 : n + 1]`` with ``rows[0] · Π_{j<m} (1 - p_j +
        p_j x)`` for ``m = 1..n``, truncated at the row width, as a
        chunked sweep on a grid of ``size`` rows (``rows`` may be written
        up to row ``n + size - 1``).

        Grid-line rows come from a sequential chain: a first pass
        multiplies out each full chunk's product, advancing all chunks in
        lockstep (one vectorised step per position), and each grid-line
        row is the one before convolved with the chunk's product.  A
        second lockstep pass advances the rows inside every chunk from its
        own grid-line row.  No row is written twice, and every term is a
        sum of nonnegative products, as in a per-row sweep.
        """
        count = values.shape[0]
        if not count:
            return
        out_len = rows.shape[1]
        chunks, full = -(-count // size), count // size
        padded = _np.zeros(chunks * size)
        padded[:count] = values
        # grid[j, c] is the probability of row c·size + j (0 past the end).
        grid = padded.reshape(chunks, size).T[:, :, None]
        complement = 1.0 - grid
        if full:
            totals = _np.zeros((full, min(size + 1, out_len)))
            totals[:, 0] = 1.0
            for position in range(size):
                shifted = totals[:, :-1] * grid[position, :full]
                totals *= complement[position, :full]
                totals[:, 1:] += shifted
            for chunk, total in enumerate(totals):
                rows[(chunk + 1) * size] = _np.convolve(
                    rows[chunk * size], total
                )[:out_len]
        for position in range(min(size - 1, count)):
            current = rows[position : chunks * size : size]
            following = rows[position + 1 : chunks * size : size]
            shifted = current[:, :-1] * grid[position]
            _np.multiply(current, complement[position], out=following)
            following[:, 1:] += shifted

    def convolve_rows(self, a: Any, b: Any, out_len: int) -> Any:
        a = _np.asarray(a, dtype=_np.float64)
        b = _np.asarray(b, dtype=_np.float64)
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"row counts differ: {a.shape[0]} vs {b.shape[0]}"
            )
        rows = a.shape[0]
        width = min(a.shape[1], out_len)
        b_width = min(b.shape[1], out_len)
        if width <= 0 or out_len < 1:
            return _np.zeros((rows, max(out_len, 0)), dtype=_np.float64)
        # Per-row truncated polynomial product as one batched contraction:
        # out[r, m] = Σ_i a[r, i] · b[r, m - i].  A zero-padded copy of b
        # exposes every shifted window b[r, m - i] through a strided view
        # (stride -1 along i), so the whole product is a single einsum
        # instead of `width` shifted accumulation passes.
        padded = _np.empty((rows, width - 1 + out_len), dtype=_np.float64)
        padded[:, : width - 1] = 0.0
        padded[:, width - 1 : width - 1 + b_width] = b[:, :b_width]
        if out_len > b_width:
            padded[:, width - 1 + b_width :] = 0.0
        anchored = padded[:, width - 1 :]
        row_stride, col_stride = padded.strides
        windows = _np.lib.stride_tricks.as_strided(
            anchored,
            shape=(rows, out_len, width),
            strides=(row_stride, col_stride, -col_stride),
            writeable=False,
        )
        # Without ``optimize`` einsum neither searches a contraction path
        # on every call nor reorders a one-row batch, so every row's bits
        # are independent of the batch it sits in, which the merge
        # engine's row-suffix refresh relies on.
        return _np.einsum("rmi,ri->rm", windows, a[:, :width])

    def take_rows(self, matrix: Any, indices: Sequence[int]) -> Any:
        return matrix[_np.asarray(indices, dtype=_np.intp)]

    def row_support(self, matrix: Any) -> int:
        # Bisect for the first row of the zero tail: rows from ``stop`` on
        # are known zero, and each probe reads one contiguous block.
        start, stop = 0, matrix.shape[0]
        if stop and matrix[stop - 1].any():
            return stop
        while start < stop:
            middle = (start + stop) // 2
            if matrix[middle:stop].any():
                start = middle + 1
            else:
                stop = middle
        return stop

    def extend_rows(self, native: Any, count: int, fill: Any) -> Any:
        length = native.shape[0]
        if length == count:
            return native
        out = _np.empty((count,) + native.shape[1:])
        out[:length] = native
        out[length:] = fill
        return out

    def index_vector(self, indices: Sequence[int]) -> Any:
        if isinstance(indices, range):
            return _np.arange(
                indices.start, indices.stop, indices.step, dtype=_np.intp
            )
        return _np.asarray(indices, dtype=_np.intp)

    def factor_vector(self, factors: Sequence[float]) -> Any:
        return _np.asarray(factors, dtype=_np.float64)

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        # "scores strictly greater than θ" on a descending list is a left
        # bisect on the negated (ascending) list.
        ascending = -_np.asarray(scores_desc, dtype=_np.float64)
        queries = -_np.asarray(thresholds_desc, dtype=_np.float64)
        return _np.searchsorted(ascending, queries, side="left").tolist()

    def score_vector(self, scores: Sequence[Optional[float]]) -> Any:
        return _np.asarray(scores, dtype=_np.float64)

    def unscored_rows(self, scores: Any) -> List[int]:
        return _np.flatnonzero(_np.isnan(scores)).tolist()

    def descending_order(self, scores: Any) -> Any:
        return _np.argsort(-_np.asarray(scores), kind="stable")

    def first_tie(self, scores: Any, groups: Any) -> Optional[int]:
        scores = _np.asarray(scores)
        groups = _np.asarray(groups)
        hits = _np.flatnonzero(
            (scores[1:] == scores[:-1]) & (groups[1:] != groups[:-1])
        )
        return int(hits[0]) if hits.size else None

    def first_difference(self, a: Any, b: Any) -> int:
        hits = _np.flatnonzero(_np.asarray(a) != _np.asarray(b))
        return int(hits[0]) if hits.size else len(a)

    def rows_outside(self, values: Any, low: float, high: float) -> List[int]:
        values = _np.asarray(values)
        return _np.flatnonzero(~((values >= low) & (values <= high))).tolist()

    def group_totals(self, values: Any, groups: Any, count: int) -> Any:
        return _np.bincount(groups, weights=values, minlength=count)

    def block_rows(
        self, blocks: Any, selected: Sequence[int]
    ) -> Tuple[Any, Any]:
        selected = _np.asarray(selected, dtype=_np.intp)
        # Every block's first row from one search whose queries are
        # sorted (several times faster than searching ``selected``
        # itself): block b holds rows edges[b] .. edges[b + 1].
        count = int(selected.max()) + 2 if selected.size else 1
        edges = _np.searchsorted(blocks, _np.arange(count), side="left")
        starts = edges[selected]
        lengths = edges[selected + 1] - starts
        block_ids = _np.repeat(
            _np.arange(selected.shape[0], dtype=_np.intp), lengths
        )
        # Output row j of position b is starts[b] + (j - first row of b).
        shift = starts - (_np.cumsum(lengths) - lengths)
        rows = shift[block_ids] + _np.arange(block_ids.shape[0], dtype=_np.intp)
        return rows, block_ids

    def splice(
        self,
        vector: Any,
        start: int,
        stop: int,
        replacement: Sequence[Any],
        tail_offset: int = 0,
    ) -> Any:
        tail = vector[stop:]
        if tail_offset:
            tail = tail + tail_offset
        return _np.concatenate(
            (vector[:start], _np.asarray(replacement, dtype=vector.dtype), tail)
        )

    def concatenate(self, vectors: Sequence[Any]) -> Any:
        return _np.concatenate(vectors)

    def scale_rows(self, matrix: Any, factors: Sequence[float]) -> Any:
        return matrix * _np.asarray(factors, dtype=_np.float64)[:, None]

    def stack_matrices(self, matrices: Sequence[Any]) -> Any:
        return _np.vstack([_np.asarray(m, dtype=_np.float64) for m in matrices])

    def sum_rows_by_group(
        self, matrix: Any, groups: Sequence[int], group_count: int
    ) -> Any:
        matrix = _np.asarray(matrix, dtype=_np.float64)
        out = _np.zeros((group_count, matrix.shape[1]), dtype=_np.float64)
        _np.add.at(out, _np.asarray(groups, dtype=_np.intp), matrix)
        return out

    def scatter_rows(self, matrix: Any, rows: Sequence[int], count: int) -> Any:
        out = _np.zeros((count, matrix.shape[1]), dtype=_np.float64)
        out[_np.asarray(rows, dtype=_np.intp)] = matrix
        return out

    def footrule_cost_matrix(self, matrix: Any, k: int) -> Any:
        positions = _np.arange(1, k + 1, dtype=_np.float64)
        # grid[j - 1, i - 1] = |i - j|
        grid = _np.abs(positions[None, :] - positions[:, None])
        upsilon1 = matrix.sum(axis=1)
        upsilon2 = matrix @ positions
        cost = matrix @ grid
        cost += _np.outer(upsilon1 - 1.0, positions)
        cost += (upsilon2 - 2.0 * (k + 1.0) * upsilon1)[:, None]
        return cost

    def intersection_profit_matrix(self, cumulative: Any, k: int) -> Any:
        positions = _np.arange(1, k + 1, dtype=_np.float64)
        # grid[i - 1, j - 1] = 1/i for i >= j
        grid = _np.tril(_np.broadcast_to(1.0 / positions[:, None], (k, k)))
        return cumulative @ grid

    def assignment_candidates(
        self,
        table: Any,
        count: int,
        maximize: bool = False,
        tail: Optional[Sequence[float]] = None,
    ) -> Optional[List[int]]:
        n, width = table.shape
        if n <= count * width:
            return None if tail is not None else list(range(n))
        # Partitioning each position's row of the transposed view is about
        # twice as fast as partitioning down the columns.
        # The largest values are the smallest of the negated table: on a
        # table of mostly equal cells (an intersection profit table is
        # nearly all zeros), partitioning at ``count - 1`` is about ten
        # times faster than at ``n - count``.
        rows = -table.T if maximize else table.T
        best = _np.argpartition(rows, count - 1, axis=1)[:, :count]
        if tail is not None:
            # Partitioning leaves each position's count-th best at count - 1.
            last = rows[_np.arange(width), best[:, count - 1]]
            limit = _np.asarray(tail, dtype=_np.float64)
            if not (last < (-limit if maximize else limit)).all():
                return None
        return _np.unique(best).tolist()

    def top_indices(self, values: Any, count: int) -> List[int]:
        values = _np.asarray(values, dtype=_np.float64)
        n = len(values)
        if count <= 0:
            return []
        if count >= n:
            return list(range(n))
        threshold = _np.partition(values, n - count)[n - count]
        return _np.flatnonzero(values >= threshold).tolist()

    def matrix_from_rows(self, rows: Sequence[Sequence[float]]) -> Any:
        return _np.asarray(rows, dtype=_np.float64)

    def transpose(self, matrix: Any) -> Any:
        return matrix.T

    def cumulative_rows(self, matrix: Any) -> Any:
        return _np.cumsum(matrix, axis=1)

    def truncate_columns(self, matrix: Any, count: int) -> Any:
        return _np.ascontiguousarray(matrix[:, :count])

    def matrix_row(self, matrix: Any, index: int) -> List[float]:
        return matrix[index].tolist()

    def matrix_column(self, matrix: Any, index: int) -> List[float]:
        return matrix[:, index].tolist()

    def matrix_cell(self, matrix: Any, row: int, column: int) -> float:
        return float(matrix[row, column])

    def vector_sum(self, values: Sequence[float]) -> float:
        return float(_np.asarray(values, dtype=_np.float64).sum())

    def row_sums(self, matrix: Any) -> Any:
        return matrix.sum(axis=1)

    def column_sums(self, matrix: Any) -> List[float]:
        return matrix.sum(axis=0).tolist()

    def matvec(self, matrix: Any, weights: Sequence[float]) -> Any:
        return matrix @ _np.asarray(weights, dtype=_np.float64)

    def vector_values(
        self, vector: Any, indices: Optional[Sequence[int]] = None
    ) -> List[float]:
        if indices is None:
            return vector.tolist()
        return vector[_np.asarray(indices, dtype=_np.intp)].tolist()

    def matrix_to_lists(self, matrix: Any) -> List[List[float]]:
        return matrix.tolist()
