"""Rank-position probabilities over and/xor trees (Example 3, Section 5).

Ranking queries score every alternative and rank the tuples of a possible
world by decreasing score; ``r(t)`` denotes the (random) rank of tuple ``t``
with ``r(t) = ∞`` when ``t`` is absent.  This module computes

* ``Pr(r(t) = i)`` for every tuple and position (Example 3 of the paper),
* the cumulative probabilities ``Pr(r(t) <= i)`` used throughout Section 5,
* pairwise preference probabilities ``Pr(r(t_i) < r(t_j))`` needed by the
  Kendall-tau approximation (Section 5.5), and
* Cormode-style expected ranks used as a baseline ranking semantics.

The computation follows the paper's generating-function framework.  For a
flat (tuple-independent or BID) relation the generating function is a
closed form over the columns: alternative ``t`` of block ``B`` is ranked at
position ``j`` with probability ``p_t · [x^(j-1)] Π_{B' ≠ B} (1 - q_B' +
q_B' x)``, where ``q_B'`` is the mass of block ``B'`` scored above ``t``, so
every rank row comes out of one backend kernel sweep over the columns in
decreasing score order.  For a general and/xor tree, a leaf carrying
alternative ``(t, a)`` with score ``s`` is conditioned on being present
(which pins the independent xor choices on its root path) and the
univariate generating function marks every leaf of a *different* key with
score larger than ``s``; the coefficient of ``x^(j-1)`` times the leaf's
probability is the probability that ``t`` is ranked at position ``j``
through this leaf.  Probabilities of a tuple's leaves add up because
same-key leaves are mutually exclusive.  This is equivalent to the paper's
per-alternative bivariate generating function with ``y`` on the target
leaf, but the conditional univariate form batches its and-node products
through the engine's multiply-accumulate kernel.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.columns import FlatColumns, first_score_tie
from repro.andxor.generating import (
    conditional_univariate_generating_function,
)
from repro.andxor.nodes import Leaf
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import PairwisePreferenceMatrix, RankMatrix, get_backend
from repro.exceptions import ModelError

ScoringFunction = Callable[[TupleAlternative], float]


class RankStatistics:
    """Caches rank-position probabilities for one database.

    Parameters
    ----------
    source:
        The and/xor tree, or the :class:`~repro.andxor.columns.FlatColumns`
        of a tuple-independent / BID relation.  Every alternative must
        carry a numeric score (either an explicit score or a numeric value
        attribute) unless ``scoring`` supplies the scores.  Flat layouts
        (columns, or trees of the TI / BID shape) are read as columns; the
        tree is only built or walked by the general-layout routines.
    validate_scores:
        When True (default) scores of alternatives belonging to *different*
        tuples must be pairwise distinct, matching the paper's no-ties
        assumption.
    scoring:
        Optional scoring function overriding
        :meth:`TupleAlternative.effective_score`; this is how a
        :class:`repro.session.QuerySession` re-scores a database without
        rebuilding the tree.
    """

    def __init__(
        self,
        source: Union[AndXorTree, FlatColumns],
        validate_scores: bool = True,
        use_fast_path: bool = True,
        scoring: Optional[ScoringFunction] = None,
    ) -> None:
        if isinstance(source, FlatColumns):
            self._columns: Optional[FlatColumns] = source
            self._given_tree: Optional[AndXorTree] = None
        else:
            self._columns = FlatColumns.from_tree(source)
            self._given_tree = source
        self._scoring = scoring
        # Construction flags, re-read by QuerySession so invalidation can
        # rebuild an equivalent statistics object.
        self._validate_scores_flag = validate_scores
        self._use_fast_path_flag = use_fast_path
        # One score per row -- per leaf alternative of a flat layout, per
        # distinct alternative of a general tree -- and the rows by
        # decreasing score (stable, so ties keep row order), as native
        # vectors of the columns' backend (the active one for a tree).
        self._score_table: Optional[Dict[TupleAlternative, float]] = None
        columns = self._columns
        own_scores = columns is not None and scoring is None
        if columns is None:
            backend = get_backend()
            alternatives = self.tree.alternatives()
            row_keys = [alternative.key for alternative in alternatives]
            scores = list(map(self._score_alternative, alternatives))
            self._score_table = dict(zip(alternatives, scores))
            self._keys: List[Hashable] = list(dict.fromkeys(row_keys))
            key_index = dict(zip(self._keys, range(len(self._keys))))
            row_groups = backend.index_vector(
                [key_index[key] for key in row_keys]
            )
            row_scores = backend.score_vector(scores)
        else:
            backend = columns.backend
            self._keys = columns.keys
            row_groups = columns.blocks
            if own_scores:
                row_scores = columns.scores
                for row in backend.unscored_rows(row_scores):
                    # Raises the tree path's TypeError for an unscored row.
                    columns.alternative(row).effective_score()
            else:
                row_scores = backend.score_vector(
                    list(
                        map(self._score_alternative, columns.row_alternatives())
                    )
                )
        self._backend = backend
        self._row_scores: Any = row_scores
        self._order: Any = (
            columns.order
            if own_scores
            else backend.descending_order(row_scores)
        )
        if validate_scores and not (own_scores and columns.tie_free):
            self._validate_scores(row_groups)
            if own_scores:
                columns.tie_free = True
        self._rank_cache: Dict[Tuple[Hashable, int], List[float]] = {}
        self._layout_cache: Optional[
            List[Tuple[Hashable, float, float]]
        ] = None
        self._matrix_cache: Dict[int, RankMatrix] = {}
        self._preference_cache: Dict[
            Optional[Tuple[Hashable, ...]], PairwisePreferenceMatrix
        ] = {}
        self._expected_rank_cache: Optional[Dict[Hashable, float]] = None

    @property
    def is_independent(self) -> bool:
        """True when the database is tuple-independent with tuple-level
        uncertainty (every block holds a single alternative) and the fast
        path is on -- exactly when :meth:`independent_tuple_layout` is not
        None, without building the layout."""
        columns = self._columns
        return (
            self._use_fast_path_flag
            and columns is not None
            and columns.independent
        )

    @property
    def _rows(self) -> Optional[List[Tuple[Hashable, float, float]]]:
        """``(key, probability, score)`` per row of a flat (TI / BID) layout
        by decreasing score (built on first use); None for a general tree
        or with the fast path off."""
        if not self._use_fast_path_flag or self._columns is None:
            return None
        if self._layout_cache is None:
            self._layout_cache = list(
                zip(
                    self._ordered_keys(),
                    self._ordered_values(self._columns.probabilities),
                    self._ordered_values(self._row_scores),
                )
            )
        return self._layout_cache

    def _rows_of(
        self, keys: Sequence[Hashable]
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        """:attr:`_rows` restricted to the rows of ``keys`` (unknown keys
        have none), in the same order, found through the columns' key
        index, so a small candidate pool reads no other row."""
        columns = self._columns
        if not self._use_fast_path_flag or columns is None:
            return None
        row_keys: List[Hashable] = []
        rows: List[int] = []
        for key in dict.fromkeys(keys):
            own = columns.rows_of(key)
            row_keys += [key] * len(own)
            rows += own
        values = self._backend.vector_values
        # Stable, as the score order is: the closed forms add in row order.
        return sorted(
            zip(
                row_keys,
                values(columns.probabilities, rows),
                values(self._row_scores, rows),
            ),
            key=itemgetter(2),
            reverse=True,
        )

    def _ordered(self, column: Any) -> Any:
        """A flat layout's native ``column`` in decreasing score order."""
        return self._backend.take_rows(column, self._order)

    def _ordered_values(self, column: Any) -> List[Any]:
        """:meth:`_ordered` as a Python list."""
        return self._backend.vector_values(self._ordered(column))

    def _ordered_keys(self) -> List[Hashable]:
        """The key of every row of a flat layout, in decreasing score
        order."""
        return list(
            map(self._keys.__getitem__, self._ordered_values(self._columns.blocks))
        )

    def _score_alternative(self, alternative: TupleAlternative) -> float:
        if self._scoring is None:
            return alternative.effective_score()
        return float(self._scoring(alternative))

    @property
    def _scores(self) -> Dict[TupleAlternative, float]:
        """Score of every distinct alternative (built on first use)."""
        if self._score_table is None:
            self._score_table = dict(
                zip(
                    self._columns.row_alternatives(),
                    self._backend.vector_values(self._row_scores),
                )
            )
        return self._score_table

    def rank_matrix(self, max_rank: int | None = None) -> RankMatrix:
        """Batched rank-position probabilities for every tuple at once.

        Returns the :class:`~repro.engine.RankMatrix` whose row for key
        ``t`` is ``[Pr(r(t) = 1), ..., Pr(r(t) = max_rank)]``.  A flat
        (TI / BID) layout is one backend kernel call over the columns in
        decreasing score order
        (:meth:`~repro.engine.backends.Backend.rank_probability_matrix`):
        a tuple-independent row is its probability times the running
        product ``Π (1 - p_i + p_i x)`` of the rows above it, and a BID
        alternative's row multiplies in, for every other block, the factor
        ``1 - q + q x`` of that block's mass ``q`` scored above it; the
        per-alternative rows of a block are then summed into its key's
        row.  Only the general and/xor layout assembles the matrix from
        per-leaf conditional generating functions (see
        :meth:`_general_rank_positions`).  Matrices are cached per
        ``max_rank``.
        """
        if max_rank is None:
            max_rank = self.number_of_tuples()
        cached = self._matrix_cache.get(max_rank)
        if cached is not None:
            return cached
        backend = get_backend()
        columns = self._columns
        if self._use_fast_path_flag and columns is not None:
            # Gathered natively, then handed over in the active backend's
            # representation (no copy on numpy when the columns are
            # numpy's; the pure backend copies into lists).
            blocks = backend.index_vector(self._ordered(columns.blocks))
            probabilities = backend.factor_vector(
                self._ordered(columns.probabilities)
            )
            # Equal scores of different keys (allowed only unvalidated)
            # must not count each other as above.
            scores = (
                None
                if self._validate_scores_flag
                else backend.factor_vector(self._ordered(self._row_scores))
            )
            if columns.independent and scores is None:
                # Rows in score order: the sweep knows where the zero tail
                # starts.
                keys = self._ordered_keys()
                native, support = backend.rank_probability_matrix(
                    probabilities, max_rank, with_support=True
                )
            elif columns.independent:
                # Rows in score order: one reduction finds the zero tail.
                keys = self._ordered_keys()
                native = backend.rank_probability_matrix(
                    probabilities, max_rank, scores=scores
                )
                support = None
            else:
                keys = self.keys()
                native = backend.sum_rows_by_group(
                    backend.rank_probability_matrix(
                        probabilities, max_rank, blocks, scores
                    ),
                    blocks,
                    len(keys),
                )
                support = len(keys)
        else:
            keys = self.keys()
            native = backend.matrix_from_rows(
                [
                    self._general_rank_positions(key, max_rank)
                    for key in keys
                ]
            )
            support = len(keys)
        # The keys are distinct (proved by the columns or the tree) and
        # the lists above are fresh, so the matrix takes them unchecked.
        matrix = RankMatrix._checked(keys, native, backend, max_rank, support)
        self._matrix_cache[max_rank] = matrix
        return matrix

    def _validate_scores(self, row_groups: Any) -> None:
        """Reject equal scores on rows of different keys (adjacent in the
        decreasing-score order); ``row_groups`` numbers each row's key."""
        tie = first_score_tie(
            self._backend, self._row_scores, row_groups, self._order
        )
        if tie is None:
            return
        first, second = tie
        if self._columns is None:
            alternatives = list(self._scores)
            pair = (alternatives[first], alternatives[second])
        else:
            pair = tuple(map(self._columns.alternative, (first, second)))
        raise ModelError(
            f"alternatives {pair[0]!r} and {pair[1]!r} of different "
            f"tuples share score {float(self._row_scores[first])}; ranking "
            "assumes distinct scores"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def tree(self) -> AndXorTree:
        """The underlying and/xor tree (built on first use from columns)."""
        if self._given_tree is None:
            return self._columns.tree
        return self._given_tree

    def flat_rows(self) -> Optional[Tuple[FlatColumns, Any, Any]]:
        """``(columns, row scores, decreasing-score row order)`` of a flat
        (TI / BID) layout under the active scoring, the last two native
        vectors of ``columns.backend``; None for a general tree.  Callers
        must not mutate the vectors."""
        if self._columns is None:
            return None
        return self._columns, self._row_scores, self._order

    def session(self) -> "QuerySession":
        """The (lazily created) query session bound to these statistics.

        Repeated coercions of the same statistics object through
        :func:`repro.session.as_session` return this one session, so
        module-level consensus calls against a shared ``RankStatistics``
        transparently share a warm artifact cache.
        """
        session = getattr(self, "_query_session", None)
        if session is None:
            from repro.session import QuerySession  # local import: no cycle

            session = QuerySession(self)
            self._query_session = session
        return session

    def independent_tuple_layout(
        self,
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        """``(key, probability, score)`` triples when the database is
        tuple-independent with tuple-level uncertainty, else None.

        The list is sorted by decreasing score.  Consensus algorithms use it
        to switch to specialised linear-time routines (e.g. the median Top-k
        answer); callers must not mutate the returned list.
        """
        if not self.is_independent:
            return None
        return list(self._rows)

    def keys(self) -> List[Hashable]:
        """The tuple keys, in first-appearance order."""
        return list(self._keys)

    def number_of_tuples(self) -> int:
        """Number of distinct tuple keys."""
        return len(self._keys)

    def score_of(self, alternative: TupleAlternative) -> float:
        """The ranking score of an alternative (KeyError when absent)."""
        if self._columns is not None:
            return float(self._row_scores[self._columns.row_of(alternative)])
        return self._scores[alternative]

    # ------------------------------------------------------------------
    # Rank-position probabilities
    # ------------------------------------------------------------------
    def rank_position_probabilities(
        self, key: Hashable, max_rank: int | None = None
    ) -> List[float]:
        """Return ``[Pr(r(t) = 1), ..., Pr(r(t) = max_rank)]`` for tuple ``t``.

        ``max_rank`` defaults to the number of tuples in the tree.
        """
        if max_rank is None:
            max_rank = self.number_of_tuples()
        if self._use_fast_path_flag and self._columns is not None:
            matrix = self.rank_matrix(max_rank)
            if key in matrix:
                return matrix.row(key)
        elif key in self._keys:
            return self._general_rank_positions(key, max_rank)
        raise ModelError(f"unknown tuple key {key!r}")

    def _general_rank_positions(
        self, key: Hashable, max_rank: int
    ) -> List[float]:
        """Per-key rank distribution via conditional generating functions
        (general trees, and the ``use_fast_path=False`` oracle).

        Conditioning on one leaf of the tuple being present fixes the
        independent xor choices on its root path, so ``Pr(r(t) = j)`` is

        ``Σ_leaves Pr(leaf) · Pr(exactly j-1 higher-scored other-key leaves
        present | leaf present)``

        and the conditional count distribution is a *univariate* generating
        function of the pinned tree -- batched through the backend's
        multiply-accumulate kernel -- instead of one bivariate generating
        function per alternative.
        """
        cached = self._rank_cache.get((key, max_rank))
        if cached is not None:
            return list(cached)
        if max_rank < 1:
            return []
        result = [0.0] * max_rank
        for alternative in self.tree.alternatives_of(key):
            threshold = self._scores[alternative]

            def marked(
                leaf: Leaf,
                target_key: Hashable = key,
                score: float = threshold,
            ) -> bool:
                return (
                    leaf.alternative.key != target_key
                    and self._scores[leaf.alternative] > score
                )

            for pinned_leaf in self.tree.leaves_of_alternative(alternative):
                leaf_probability = self.tree.leaf_probability(pinned_leaf)
                if leaf_probability == 0.0:
                    continue
                pinned = {
                    xor_id: index
                    for xor_id, (index, _) in self.tree.leaf_choices(
                        pinned_leaf
                    ).items()
                }
                polynomial = conditional_univariate_generating_function(
                    self.tree,
                    pinned,
                    marked,
                    max_degree=max_rank - 1,
                )
                for exponent, coefficient in enumerate(
                    polynomial.coefficients
                ):
                    result[exponent] += leaf_probability * coefficient
        self._rank_cache[(key, max_rank)] = list(result)
        return result

    def rank_at_most(self, key: Hashable, k: int) -> float:
        """``Pr(r(t) <= k)`` -- the probability that ``t`` is in the Top-k."""
        return sum(self.rank_position_probabilities(key, max_rank=k))

    def rank_at_most_table(self, k: int) -> Dict[Hashable, List[float]]:
        """``Pr(r(t) <= i)`` for every tuple and every ``i`` in ``1..k``."""
        return self.rank_matrix(k).cumulative().to_dict()

    def top_k_membership_probabilities(self, k: int) -> Dict[Hashable, float]:
        """``Pr(r(t) <= k)`` for every tuple key."""
        return self.rank_matrix(k).membership()

    # ------------------------------------------------------------------
    # Pairwise preferences and expected ranks
    # ------------------------------------------------------------------
    def pairwise_preference(
        self, first_key: Hashable, second_key: Hashable
    ) -> float:
        """``Pr(r(t_i) < r(t_j))`` for two distinct tuples.

        ``t_i`` is ranked strictly higher than ``t_j`` exactly when ``t_i``
        is present and either ``t_j`` is absent or ``t_i``'s realised score
        exceeds ``t_j``'s.  Only pairwise joint probabilities are needed,
        which the and/xor tree provides in closed form.
        """
        if first_key == second_key:
            return 0.0
        first_alternatives = self.tree.alternatives_of(first_key)
        second_alternatives = self.tree.alternatives_of(second_key)
        presence_first = self.tree.key_probability(first_key)
        both_with_second_higher = 0.0
        for first in first_alternatives:
            for second in second_alternatives:
                if self._scores[second] > self._scores[first]:
                    both_with_second_higher += (
                        self.tree.joint_alternative_probability(first, second)
                    )
        return presence_first - both_with_second_higher

    def preference_matrix(
        self, keys: Sequence[Hashable] | None = None
    ) -> PairwisePreferenceMatrix:
        """Batched ``Pr(r(t_i) < r(t_j))`` over ``keys`` (default: all).

        Because the preference probability of a pair does not depend on the
        other tuples, a sub-grid over a candidate pool is exactly the
        restriction of the full matrix.  A flat (TI / BID) layout takes the
        closed form :func:`_flat_preference_matrix` over its rows (only
        the pool's rows for a key subset); the general layout
        and the ``use_fast_path=False`` oracle call
        :meth:`pairwise_preference` per pair.  Cached per key subset.
        """
        cache_key: Optional[Tuple[Hashable, ...]] = (
            None if keys is None else tuple(keys)
        )
        cached = self._preference_cache.get(cache_key)
        if cached is not None:
            return cached
        matrix_keys = list(self.keys() if keys is None else keys)
        rows = self._rows if keys is None else self._rows_of(matrix_keys)
        if rows is not None:
            matrix = _flat_preference_matrix(rows, matrix_keys)
        else:
            backend = get_backend()
            grid = [
                [self.pairwise_preference(first, second) for second in matrix_keys]
                for first in matrix_keys
            ]
            matrix = PairwisePreferenceMatrix(
                matrix_keys, backend.matrix_from_rows(grid), backend
            )
        self._preference_cache[cache_key] = matrix
        return matrix

    def pairwise_preference_matrix(
        self, keys: Sequence[Hashable] | None = None
    ) -> Dict[Tuple[Hashable, Hashable], float]:
        """``Pr(r(t_i) < r(t_j))`` for every ordered pair of distinct tuples.

        Thin dictionary view over :meth:`preference_matrix`, kept for source
        compatibility with pre-session callers.
        """
        return self.preference_matrix(keys).to_dict()

    def expected_rank(self, key: Hashable) -> float:
        """Cormode-style expected rank of tuple ``t``.

        In a possible world the rank of a present tuple is one plus the
        number of present tuples with a higher score; an absent tuple is
        charged rank ``|pw| + 1``.  Unlike ``r(t)`` itself (which is infinite
        for absent tuples) this quantity has a finite expectation, which is
        the "expected rank" ranking semantics of Cormode, Li and Yi used as a
        baseline in the benchmark harness.
        """
        alternatives = self.tree.alternatives_of(key)
        higher_and_present = 0.0
        for alternative in alternatives:
            for other in self.tree.alternatives():
                if other.key == key:
                    continue
                if self._scores[other] > self._scores[alternative]:
                    higher_and_present += (
                        self.tree.joint_alternative_probability(
                            alternative, other
                        )
                    )
        absent_size = 0.0
        for other_key in self.keys():
            if other_key == key:
                continue
            p_other = self.tree.key_probability(other_key)
            p_both = 0.0
            for alternative in alternatives:
                for other in self.tree.alternatives_of(other_key):
                    p_both += self.tree.joint_alternative_probability(
                        alternative, other
                    )
            absent_size += p_other - p_both
        return 1.0 + higher_and_present + absent_size

    def expected_rank_table(self) -> Dict[Hashable, float]:
        """Expected rank of every tuple key (cached).

        A flat (TI / BID) layout takes the one-pass closed form
        :func:`_flat_expected_ranks` over its rows (the sharded
        coordinator's are its database's store); the general layout and the
        ``use_fast_path=False`` oracle call :meth:`expected_rank` per key.
        """
        if self._expected_rank_cache is None:
            rows = self._rows
            self._expected_rank_cache = (
                _flat_expected_ranks(rows)
                if rows is not None
                else {key: self.expected_rank(key) for key in self.keys()}
            )
        return dict(self._expected_rank_cache)


# ----------------------------------------------------------------------
# Closed forms over flat rows (TI / BID, local or merged across shards)
# ----------------------------------------------------------------------
def _flat_expected_ranks(
    rows: Iterable[Tuple[Hashable, float, float]]
) -> Dict[Hashable, float]:
    """Cormode-style expected rank of every key of a flat relation.

    ``rows`` are ``(key, probability, score)`` triples, one per alternative,
    by decreasing score; distinct keys (TI tuples, BID blocks) are
    independent, so ``E[r(t)] = 1 + Σ_{a∈t} p_a·H_a + (1 − q_t)(Q − q_t)``
    with ``H_a`` the mass of other keys' rows strictly above ``a``, ``q_t``
    the key's mass and ``Q`` the total (an absent key ranks ``|pw| + 1``).
    "Mass above" is a running sum closed at the end of each group of equal
    scores, so tied rows (possible only unvalidated) never count each
    other.  Keys come in first-appearance order.
    """
    own: Dict[Hashable, float] = {}
    higher: Dict[Hashable, float] = {}
    above = 0.0
    tied: List[Tuple[Hashable, float]] = []
    tied_score = None
    for key, probability, score in rows:
        if score != tied_score:
            for seen, mass in tied:
                own[seen] = own.get(seen, 0.0) + mass
                above += mass
            tied = []
            tied_score = score
        higher[key] = higher.get(key, 0.0) + probability * (
            above - own.get(key, 0.0)
        )
        tied.append((key, probability))
    for seen, mass in tied:
        own[seen] = own.get(seen, 0.0) + mass
        above += mass
    return {
        key: 1.0 + value + (1.0 - own[key]) * (above - own[key])
        for key, value in higher.items()
    }


def _flat_preference_matrix(
    rows: Iterable[Tuple[Hashable, float, float]], keys: List[Hashable]
) -> PairwisePreferenceMatrix:
    """``Pr(r(t_i) < r(t_j))`` over ``keys`` of a flat relation.

    ``rows`` are ``(key, probability, score)`` triples, in any order, that
    include every row of ``keys`` (other keys' rows are skipped).  Distinct
    keys are independent, so cell ``(i, j)`` is
    ``Σ_{a∈t_i} p_a·(1 − mass of t_j strictly above a)``.  When every key
    holds one row (tuple-independent) the grid is the backend's
    :meth:`~repro.engine.backends.Backend.pairwise_preference_matrix`
    kernel; otherwise the sum runs over both keys' alternatives.
    """
    alternatives: Dict[Hashable, List[Tuple[float, float]]] = {
        key: [] for key in keys
    }
    for key, probability, score in rows:
        own = alternatives.get(key)
        if own is not None:
            own.append((probability, score))
    missing = [key for key, own in alternatives.items() if not own]
    if missing:
        raise ModelError(f"unknown tuple keys {sorted(map(repr, missing))}")
    backend = get_backend()
    if all(len(own) == 1 for own in alternatives.values()):
        native = backend.pairwise_preference_matrix(
            [alternatives[key][0][0] for key in keys],
            [alternatives[key][0][1] for key in keys],
        )
    else:

        def cell(first: Hashable, second: Hashable) -> float:
            value = 0.0
            if first != second:
                rivals = alternatives[second]
                for p, s in alternatives[first]:
                    above = 0.0
                    for q, t in rivals:
                        if t > s:
                            above += q
                    value += p * (1.0 - above)
            return value

        native = backend.matrix_from_rows(
            [[cell(first, second) for second in keys] for first in keys]
        )
    return PairwisePreferenceMatrix(keys, native, backend)


# ----------------------------------------------------------------------
# Convenience functions
# ----------------------------------------------------------------------
def rank_position_probabilities(
    tree: AndXorTree, max_rank: int | None = None
) -> Dict[Hashable, List[float]]:
    """``Pr(r(t) = i)`` for every tuple key and position ``i <= max_rank``."""
    statistics = RankStatistics(tree)
    matrix = statistics.rank_matrix(max_rank)
    return {key: matrix.row(key) for key in statistics.keys()}


def rank_at_most_probabilities(
    tree: AndXorTree, k: int
) -> Dict[Hashable, float]:
    """``Pr(r(t) <= k)`` for every tuple key."""
    statistics = RankStatistics(tree)
    return statistics.top_k_membership_probabilities(k)


def pairwise_preference_probability(
    tree: AndXorTree, first_key: Hashable, second_key: Hashable
) -> float:
    """``Pr(r(t_i) < r(t_j))`` for two tuples of the tree."""
    return RankStatistics(tree).pairwise_preference(first_key, second_key)


def expected_rank(tree: AndXorTree, key: Hashable) -> float:
    """Cormode-style expected rank of one tuple."""
    return RankStatistics(tree).expected_rank(key)
