"""Dense batched rank-probability matrices.

:class:`RankMatrix` packages the ``n_tuples × max_rank`` matrix of
rank-position probabilities ``Pr(r(t) = i)`` (or, after
:meth:`RankMatrix.cumulative`, ``Pr(r(t) <= i)``) together with a key index.
The matrix is produced in a single backend sweep and stays in the backend's
native array layout.  The consensus hot paths read it natively: they hand
:attr:`RankMatrix.live` (and the native vectors of
:meth:`RankMatrix.membership_vector`) to backend kernels and convert to keys
only for the handful of rows an answer picks (:meth:`RankMatrix.keys_at`,
:meth:`RankMatrix.rows_of`).  The per-key views -- :meth:`RankMatrix.to_dict`,
:meth:`RankMatrix.membership`, :meth:`RankMatrix.weighted_sums` -- build
Python dicts over every key and serve callers that want them.

**Support.**  Every matrix declares its :attr:`RankMatrix.support`: the row
count past which every row is exactly ``0.0``, in the matrix's own row
order.  A tuple-independent matrix in score order has a long zero tail:
once the chance that fewer than ``max_rank`` of the tuples above are
present rounds to ``0.0``, no later tuple can reach the Top-``max_rank``.
Only its first ``support`` rows -- :attr:`RankMatrix.live` -- carry mass.
The cumulative and truncated copies, the membership and weighted-sum
vectors and the column totals are computed over the live rows and padded
with the tail's closed form (zero); the Top-k consumers in
:mod:`repro.consensus.topk` read only the live rows too.
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

    :attr:`support` is the row count past which every row is exactly
    ``0.0`` -- declared by the local tuple-independent sweep, which knows
    where it stopped, or found by one
    :meth:`~repro.engine.backends.Backend.row_support` reduction, and
    inherited by every derived copy.  ``matrix`` may hold fewer rows than
    there are keys, and the rows it lacks are zero: the sharded
    coordinator hands over only the merged live rows, whose last row is
    nonzero, so the reduction stops at that row.  A matrix keeps its
    first ``support`` rows (:attr:`live`); the views that read only those
    and fill the rest from the zero tail are :meth:`cumulative` and
    :meth:`truncated` (whose copies hold only live rows), :meth:`row`,
    :meth:`membership_vector`, :meth:`membership`,
    :meth:`weighted_vector`, :meth:`weighted_sums` and
    :meth:`column_totals`.  :attr:`native` is the whole matrix, padded
    with the zero rows on first use by a matrix that holds fewer rows
    than keys.
    """

    __slots__ = (
        "_keys",
        "_rows",
        "_live",
        "_matrix",
        "_backend",
        "_max_rank",
        "_cumulative",
        "_support",
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
        keys = list(keys)
        # Caller-supplied position index (already aligned with ``keys``):
        # producers that emit many matrices over one stable key order (the
        # sharded coordinator's incremental re-merges) share one index
        # instead of rebuilding an n-entry dict per matrix.  Otherwise the
        # index is built lazily (see :class:`_KeyRows`).
        distinct = len(set(keys) if key_index is None else key_index)
        if distinct != len(keys):
            raise ValueError("rank matrix keys must be distinct")
        self._assign(
            keys, _KeyRows(keys, key_index), matrix, backend, max_rank,
            cumulative, None,
        )

    @classmethod
    def _checked(
        cls,
        keys: List[Hashable],
        matrix: Any,
        backend: Backend,
        max_rank: int,
        support: Optional[int] = None,
    ) -> "RankMatrix":
        """A matrix over a fresh list of keys its producer already proved
        distinct: no copy and no check."""
        checked = cls.__new__(cls)
        checked._assign(
            keys, _KeyRows(keys, None), matrix, backend, max_rank, False,
            support,
        )
        return checked

    def _assign(
        self,
        keys: List[Hashable],
        rows: _KeyRows,
        matrix: Any,
        backend: Backend,
        max_rank: int,
        cumulative: bool,
        support: Optional[int],
    ) -> None:
        if support is None:
            support = backend.row_support(matrix)
        held = len(matrix)
        self._keys = keys
        self._rows = rows
        # Fewer rows than keys handed over: padded on first use of native.
        self._matrix = matrix if held == len(keys) else None
        self._backend = backend
        self._max_rank = max_rank
        self._cumulative = cumulative
        self._support = support
        self._live = (
            matrix if held == support else backend.slice_rows(matrix, 0, support)
        )

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
        """The backend-native ``n × max_rank`` matrix (callers must not
        mutate it)."""
        if self._matrix is None:
            # A benign race: concurrent readers pad equal copies.
            self._matrix = self._padded(self._live, [0.0] * self._max_rank)
        return self._matrix

    @property
    def support(self) -> int:
        """The row count past which every row is exactly ``0.0``."""
        return self._support

    @property
    def live(self) -> Any:
        """The first :attr:`support` rows of :attr:`native` (callers must
        not mutate them)."""
        return self._live

    def _padded(self, live: Any, fill: Any) -> Any:
        """A native table computed over the live rows, padded to every
        row with ``fill`` -- the value every zero row takes."""
        return self._backend.extend_rows(live, len(self._keys), fill)

    def _per_key(self, live_values: Any) -> Dict[Hashable, float]:
        """A per-key dict of one native value per live row, 0.0 past."""
        values = dict.fromkeys(self._keys, 0.0)
        values.update(
            zip(self._keys, self._backend.vector_values(live_values))
        )
        return values

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
        if position >= self._support:
            return [0.0] * self._max_rank
        return self._backend.matrix_row(self._live, position)

    def column(self, position: int) -> List[float]:
        """Per-key probabilities of one rank position (1-based)."""
        if not 1 <= position <= self._max_rank:
            raise ValueError(
                f"position must lie in 1..{self._max_rank}, got {position}"
            )
        return self._backend.matrix_column(self.native, position - 1)

    def to_dict(self) -> Dict[Hashable, List[float]]:
        """The matrix as a per-key dictionary of row lists."""
        rows = self._backend.matrix_to_lists(self.native)
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
            self._backend.cumulative_rows(self._live), self._max_rank, True
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
            self._backend.truncate_columns(self._live, max_rank),
            max_rank,
            self._cumulative,
        )

    def _derived(
        self, live: Any, max_rank: int, cumulative: bool
    ) -> "RankMatrix":
        """A matrix over these (already checked) keys, their lookup and
        this matrix's support, from its live rows."""
        derived = RankMatrix.__new__(RankMatrix)
        derived._keys = self._keys
        derived._rows = self._rows
        derived._matrix = live if self._support == len(self._keys) else None
        derived._backend = self._backend
        derived._max_rank = max_rank
        derived._cumulative = cumulative
        derived._support = self._support
        derived._live = live
        return derived

    def membership_vector(self) -> Any:
        """``Pr(r(t) <= max_rank)`` per row, as a backend-native vector.

        Row sums on a density matrix, the last column on a cumulative one --
        both views answer the same question.
        """
        return self._padded(self._membership_live(), 0.0)

    def _membership_live(self) -> Any:
        if self._cumulative:
            unit = [0.0] * self._max_rank
            if unit:
                unit[-1] = 1.0
            return self._backend.matvec(self._live, unit)
        return self._backend.row_sums(self._live)

    def membership(self) -> Dict[Hashable, float]:
        """``Pr(r(t) <= max_rank)`` per key (see :meth:`membership_vector`)."""
        return self._per_key(self._membership_live())

    def column_totals(self) -> List[float]:
        """``Σ_t`` of every column (e.g. ``Σ_t Pr(r(t) <= i)``)."""
        if not self._support:
            return [0.0] * self._max_rank
        return self._backend.column_sums(self._live)

    def _weighted_live(self, weights: Sequence[float]) -> Any:
        if len(weights) != self._max_rank:
            raise ValueError(
                f"expected {self._max_rank} weights, got {len(weights)}"
            )
        return self._backend.matvec(self._live, weights)

    def weighted_vector(self, weights: Sequence[float]) -> Any:
        """``Σ_i weights[i-1] * matrix[t][i-1]`` per row, as a native
        vector."""
        return self._padded(self._weighted_live(weights), 0.0)

    def weighted_sums(self, weights: Sequence[float]) -> Dict[Hashable, float]:
        """``Σ_i weights[i-1] * matrix[t][i-1]`` per key.

        This evaluates a parameterized ranking function ``Υ_ω`` for every
        tuple in one matrix-vector product over the live rows.
        """
        return self._per_key(self._weighted_live(weights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankMatrix(n_tuples={len(self._keys)}, "
            f"max_rank={self._max_rank}, support={self._support}, "
            f"backend={self._backend.name!r})"
        )
