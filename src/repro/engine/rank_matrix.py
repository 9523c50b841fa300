"""Dense batched rank-probability matrices.

:class:`RankMatrix` packages the ``n_tuples × max_rank`` matrix of
rank-position probabilities ``Pr(r(t) = i)`` (or, after
:meth:`RankMatrix.cumulative`, ``Pr(r(t) <= i)``) together with a key index.
The matrix is produced in a single backend sweep and stays in the backend's
native array layout.  The consensus hot paths read it natively: they hand
:attr:`RankMatrix.native` (and the native vectors of
:meth:`RankMatrix.membership_vector`) to backend kernels and convert to keys
only for the handful of rows an answer picks (:meth:`RankMatrix.keys_at`,
:meth:`RankMatrix.rows_of`).  The per-key views -- :meth:`RankMatrix.to_dict`,
:meth:`RankMatrix.membership`, :meth:`RankMatrix.weighted_sums` -- build
Python dicts over every key and serve callers that want them.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.engine.backends import Backend


class _KeyRows:
    """The key -> row lookup of a matrix, shared with its derived copies.

    Until the index exists a lookup scans the key list from the front:
    the keys an answer names sit near the top of a matrix in score order,
    so a few lookups need no n-entry dict.  Once the scans have compared
    as many keys as the list holds, the index is built and serves every
    later lookup.
    """

    __slots__ = ("keys", "index", "scanned")

    def __init__(
        self, keys: List[Hashable], index: Optional[Dict[Hashable, int]]
    ) -> None:
        self.keys = keys
        self.index = index
        #: Key-list entries compared by lookups made without the index.
        self.scanned = 0

    def row(self, key: Hashable) -> int:
        """The row of ``key`` (``KeyError`` when unknown)."""
        keys = self.keys
        if self.index is None and self.scanned < len(keys):
            try:
                row = keys.index(key)
            except ValueError:
                self.scanned += len(keys)
                raise KeyError(key) from None
            self.scanned += row + 1
            return row
        if self.index is None:
            self.index = dict(zip(keys, range(len(keys))))
        return self.index[key]


class RankMatrix:
    """An immutable ``n_tuples × max_rank`` probability matrix with key index.

    Rows are aligned with :meth:`keys`; column ``i - 1`` holds the
    probabilities for rank position ``i``.  Instances are produced by
    :meth:`repro.andxor.rank_probabilities.RankStatistics.rank_matrix`.
    """

    __slots__ = (
        "_keys", "_rows", "_matrix", "_backend", "_max_rank", "_cumulative"
    )

    def __init__(
        self,
        keys: Sequence[Hashable],
        matrix: Any,
        backend: Backend,
        max_rank: int,
        cumulative: bool = False,
        key_index: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        self._keys: List[Hashable] = list(keys)
        # Caller-supplied position index (already aligned with ``keys``):
        # producers that emit many matrices over one stable key order (the
        # sharded coordinator's incremental re-merges) share one index
        # instead of rebuilding an n-entry dict per matrix.  Otherwise the
        # index is built lazily (see :class:`_KeyRows`).
        self._rows = _KeyRows(self._keys, key_index)
        distinct = len(set(self._keys) if key_index is None else key_index)
        if distinct != len(self._keys):
            raise ValueError("rank matrix keys must be distinct")
        self._matrix = matrix
        self._backend = backend
        self._max_rank = max_rank
        self._cumulative = cumulative

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_rank(self) -> int:
        """Number of rank positions (columns)."""
        return self._max_rank

    @property
    def backend(self) -> Backend:
        """The backend holding the native matrix."""
        return self._backend

    @property
    def native(self) -> Any:
        """The backend-native matrix (callers must not mutate it)."""
        return self._matrix

    def keys(self) -> List[Hashable]:
        """The tuple keys, aligned with the matrix rows."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        try:
            self._rows.row(key)
        except KeyError:
            return False
        return True

    def rows_of(self, keys: Sequence[Hashable]) -> List[int]:
        """The matrix rows of ``keys`` (``KeyError`` on an unknown key)."""
        try:
            return [self._rows.row(key) for key in keys]
        except KeyError as error:
            raise KeyError(f"unknown tuple key {error.args[0]!r}") from None

    def keys_at(self, rows: Sequence[int]) -> List[Hashable]:
        """The tuple keys of matrix rows ``rows``."""
        keys = self._keys
        return [keys[row] for row in rows]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def row(self, key: Hashable) -> List[float]:
        """``[Pr(r(t) = 1), ..., Pr(r(t) = max_rank)]`` for one tuple key."""
        try:
            position = self._rows.row(key)
        except KeyError:
            raise KeyError(f"unknown tuple key {key!r}") from None
        return self._backend.matrix_row(self._matrix, position)

    def column(self, position: int) -> List[float]:
        """Per-key probabilities of one rank position (1-based)."""
        if not 1 <= position <= self._max_rank:
            raise ValueError(
                f"position must lie in 1..{self._max_rank}, got {position}"
            )
        return self._backend.matrix_column(self._matrix, position - 1)

    def to_dict(self) -> Dict[Hashable, List[float]]:
        """The matrix as a per-key dictionary of row lists."""
        rows = self._backend.matrix_to_lists(self._matrix)
        return dict(zip(self._keys, rows))

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    @property
    def is_cumulative(self) -> bool:
        """True when cells hold ``Pr(r(t) <= i)`` rather than ``Pr(r(t) = i)``."""
        return self._cumulative

    def cumulative(self) -> "RankMatrix":
        """The matrix of running row sums: ``Pr(r(t) <= i)`` per cell."""
        if self._cumulative:
            return self
        return self._derived(
            self._backend.cumulative_rows(self._matrix), self._max_rank, True
        )

    def truncated(self, max_rank: int) -> "RankMatrix":
        """The exact ``n x max_rank`` matrix for a smaller rank bound.

        Cell values are ``Pr(r(t) = i)`` (or ``Pr(r(t) <= i)``), which do
        not depend on the truncation bound, so a column-prefix slice of a
        wider matrix is *identical* to recomputing at the smaller bound.
        Fused multi-query plans rely on this: one ``k_max`` sweep answers
        every smaller ``k`` in the batch by slicing.
        """
        if max_rank == self._max_rank:
            return self
        if not 1 <= max_rank <= self._max_rank:
            raise ValueError(
                f"truncation bound must lie in 1..{self._max_rank}, "
                f"got {max_rank}"
            )
        return self._derived(
            self._backend.truncate_columns(self._matrix, max_rank),
            max_rank,
            self._cumulative,
        )

    def _derived(
        self, matrix: Any, max_rank: int, cumulative: bool
    ) -> "RankMatrix":
        """A matrix over these (already checked) keys and their lookup."""
        derived = RankMatrix.__new__(RankMatrix)
        derived._keys = self._keys
        derived._rows = self._rows
        derived._matrix = matrix
        derived._backend = self._backend
        derived._max_rank = max_rank
        derived._cumulative = cumulative
        return derived

    def membership_vector(self) -> Any:
        """``Pr(r(t) <= max_rank)`` per row, as a backend-native vector.

        Row sums on a density matrix, the last column on a cumulative one --
        both views answer the same question.
        """
        if self._cumulative:
            unit = [0.0] * self._max_rank
            if unit:
                unit[-1] = 1.0
            return self._backend.matvec(self._matrix, unit)
        return self._backend.row_sums(self._matrix)

    def membership(self) -> Dict[Hashable, float]:
        """``Pr(r(t) <= max_rank)`` per key (see :meth:`membership_vector`)."""
        values = self._backend.vector_values(self.membership_vector())
        return dict(zip(self._keys, values))

    def column_totals(self) -> List[float]:
        """``Σ_t`` of every column (e.g. ``Σ_t Pr(r(t) <= i)``)."""
        return self._backend.column_sums(self._matrix)

    def weighted_sums(self, weights: Sequence[float]) -> Dict[Hashable, float]:
        """``Σ_i weights[i-1] * matrix[t][i-1]`` per key.

        This evaluates a parameterized ranking function ``Υ_ω`` for every
        tuple in one matrix-vector product.
        """
        if len(weights) != self._max_rank:
            raise ValueError(
                f"expected {self._max_rank} weights, got {len(weights)}"
            )
        backend = self._backend
        values = backend.vector_values(backend.matvec(self._matrix, weights))
        return dict(zip(self._keys, values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankMatrix(n_tuples={len(self._keys)}, "
            f"max_rank={self._max_rank}, backend={self._backend.name!r})"
        )
