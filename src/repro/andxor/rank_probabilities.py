"""Rank-position probabilities over and/xor trees (Example 3, Section 5).

Ranking queries score every alternative and rank the tuples of a possible
world by decreasing score; ``r(t)`` denotes the (random) rank of tuple ``t``
with ``r(t) = ∞`` when ``t`` is absent.  This module computes

* ``Pr(r(t) = i)`` for every tuple and position (Example 3 of the paper),
* the cumulative probabilities ``Pr(r(t) <= i)`` used throughout Section 5,
* pairwise preference probabilities ``Pr(r(t_i) < r(t_j))`` needed by the
  Kendall-tau approximation (Section 5.5), and
* Cormode-style expected ranks used as a baseline ranking semantics.

The computation follows the paper's generating-function framework: for a
leaf carrying alternative ``(t, a)`` with score ``s``, condition on that
leaf being present (which pins the independent xor choices on its root
path) and take the univariate generating function marking every leaf of a
*different* key with score larger than ``s``; the coefficient of
``x^(j-1)`` times the leaf's probability is the probability that ``t`` is
ranked at position ``j`` through this leaf.  Probabilities of a tuple's
leaves add up because same-key leaves are mutually exclusive.  This is
equivalent to the paper's per-alternative bivariate generating function
with ``y`` on the target leaf, but the conditional univariate form batches
its and-node products through the engine's multiply-accumulate kernel.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.columns import FlatColumns
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
        # decreasing score (stable, so ties keep row order).
        self._score_table: Optional[Dict[TupleAlternative, float]] = None
        columns = self._columns
        if columns is None:
            alternatives = self.tree.alternatives()
            row_keys = [alternative.key for alternative in alternatives]
            row_scores = list(map(self._score_alternative, alternatives))
            self._score_table = dict(zip(alternatives, row_scores))
        else:
            row_keys = [columns.keys[block] for block in columns.blocks]
            if scoring is None:
                row_scores = columns.scores
                if None in row_scores:
                    # Raises the tree path's TypeError for an unscored row.
                    columns.alternative(row_scores.index(None)).effective_score()
            else:
                row_scores = list(
                    map(self._score_alternative, columns.row_alternatives())
                )
        self._keys: List[Hashable] = (
            list(dict.fromkeys(row_keys)) if columns is None else columns.keys
        )
        self._row_scores: List[float] = row_scores
        self._order: List[int] = (
            columns.order
            if columns is not None and row_scores is columns.scores
            else sorted(
                range(len(row_scores)), key=row_scores.__getitem__, reverse=True
            )
        )
        if validate_scores:
            self._validate_scores(row_keys)
        self._rank_cache: Dict[Tuple[Hashable, int], List[float]] = {}
        # Fast path: pure tuple-level uncertainty over independent tuples
        # (every block holds a single alternative).  The rank distributions
        # of all tuples can then be computed in one O(n * max_rank) sweep;
        # the layout is the (key, probability, score) triples sorted by
        # decreasing score.
        self._fast_layout: Optional[List[Tuple[Hashable, float, float]]] = (
            [
                (row_keys[row], columns.probabilities[row], row_scores[row])
                for row in self._order
            ]
            if use_fast_path and columns is not None and columns.independent
            else None
        )
        self._matrix_cache: Dict[int, RankMatrix] = {}
        self._preference_cache: Dict[
            Optional[Tuple[Hashable, ...]], PairwisePreferenceMatrix
        ] = {}
        self._expected_rank_cache: Optional[Dict[Hashable, float]] = None

    def _score_alternative(self, alternative: TupleAlternative) -> float:
        if self._scoring is None:
            return alternative.effective_score()
        return float(self._scoring(alternative))

    @property
    def _scores(self) -> Dict[TupleAlternative, float]:
        """Score of every distinct alternative (built on first use)."""
        if self._score_table is None:
            self._score_table = dict(
                zip(self._columns.row_alternatives(), self._row_scores)
            )
        return self._score_table

    def rank_matrix(self, max_rank: int | None = None) -> RankMatrix:
        """Batched rank-position probabilities for every tuple at once.

        Returns the :class:`~repro.engine.RankMatrix` whose row for key
        ``t`` is ``[Pr(r(t) = 1), ..., Pr(r(t) = max_rank)]``.  For
        tuple-independent databases the whole matrix is produced by one
        backend sweep of the running product ``Π (1 - p_i + p_i x)`` in
        decreasing score order (the probability that a tuple has rank ``j``
        is its own probability times the coefficient of ``x^(j-1)``); the
        general and/xor layout assembles the matrix from per-leaf
        conditional univariate generating functions (see
        :meth:`_general_rank_positions`).  Matrices are cached per
        ``max_rank``.
        """
        if max_rank is None:
            max_rank = self.number_of_tuples()
        cached = self._matrix_cache.get(max_rank)
        if cached is not None:
            return cached
        backend = get_backend()
        if self._fast_layout is not None:
            keys = [key for key, _, _ in self._fast_layout]
            probabilities = [p for _, p, _ in self._fast_layout]
            native = backend.rank_probability_matrix(probabilities, max_rank)
        else:
            keys = self.keys()
            native = backend.matrix_from_rows(
                [
                    self._general_rank_positions(key, max_rank)
                    for key in keys
                ]
            )
        matrix = RankMatrix(keys, native, backend, max_rank)
        self._matrix_cache[max_rank] = matrix
        return matrix

    def _validate_scores(self, row_keys: List[Hashable]) -> None:
        """Reject equal scores on rows of different keys (adjacent in the
        decreasing-score order)."""
        scores = self._row_scores
        for first, second in zip(self._order, self._order[1:]):
            if (
                scores[first] == scores[second]
                and row_keys[first] != row_keys[second]
            ):
                if self._columns is None:
                    alternatives = list(self._scores)
                    pair = (alternatives[first], alternatives[second])
                else:
                    pair = tuple(map(self._columns.alternative, (first, second)))
                raise ModelError(
                    f"alternatives {pair[0]!r} and {pair[1]!r} of different "
                    f"tuples share score {scores[first]}; ranking assumes "
                    "distinct scores"
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

    def flat_rows(
        self,
    ) -> Optional[Tuple[FlatColumns, List[float], List[int]]]:
        """``(columns, row scores, decreasing-score row order)`` of a flat
        (TI / BID) layout under the active scoring; None for a general
        tree.  Callers must not mutate the lists."""
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
        if self._fast_layout is None:
            return None
        return list(self._fast_layout)

    def keys(self) -> List[Hashable]:
        """The tuple keys, in first-appearance order."""
        return list(self._keys)

    def number_of_tuples(self) -> int:
        """Number of distinct tuple keys."""
        return len(self._keys)

    def score_of(self, alternative: TupleAlternative) -> float:
        """The ranking score of an alternative (KeyError when absent)."""
        if self._columns is not None:
            return self._row_scores[self._columns.row_of(alternative)]
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
        if self._fast_layout is not None:
            matrix = self.rank_matrix(max_rank)
            if key not in matrix:
                raise ModelError(f"unknown tuple key {key!r}")
            return matrix.row(key)
        return self._general_rank_positions(key, max_rank)

    def _general_rank_positions(
        self, key: Hashable, max_rank: int
    ) -> List[float]:
        """Per-key rank distribution via conditional generating functions.

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
        restriction of the full matrix.  For tuple-independent databases the
        whole grid is one backend kernel call
        (:meth:`~repro.engine.backends.Backend.pairwise_preference_matrix`);
        the general and/xor layout assembles the grid from the closed-form
        pairwise joint probabilities.  Matrices are cached per key subset.
        """
        cache_key: Optional[Tuple[Hashable, ...]] = (
            None if keys is None else tuple(keys)
        )
        cached = self._preference_cache.get(cache_key)
        if cached is not None:
            return cached
        backend = get_backend()
        matrix_keys = list(self.keys() if keys is None else keys)
        if self._fast_layout is not None:
            layout = {
                key: (probability, score)
                for key, probability, score in self._fast_layout
            }
            missing = [key for key in matrix_keys if key not in layout]
            if missing:
                raise ModelError(
                    f"unknown tuple keys {sorted(map(repr, missing))}"
                )
            native = backend.pairwise_preference_matrix(
                [layout[key][0] for key in matrix_keys],
                [layout[key][1] for key in matrix_keys],
            )
        else:
            native = backend.matrix_from_rows(
                [
                    [
                        self.pairwise_preference(first, second)
                        for second in matrix_keys
                    ]
                    for first in matrix_keys
                ]
            )
        matrix = PairwisePreferenceMatrix(matrix_keys, native, backend)
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
        """Expected rank of every tuple key.

        On tuple-independent databases the whole table is assembled from
        prefix sums of the score-sorted probabilities in ``O(n log n)``
        (``E[rank(t_i)] = 1 + p_i S_i + (1 - p_i)(T - p_i)`` with ``S_i`` the
        probability mass of higher-scored tuples and ``T`` the total mass)
        instead of ``n²`` scalar joint-probability lookups; results are
        cached.
        """
        if self._expected_rank_cache is not None:
            return dict(self._expected_rank_cache)
        if self._fast_layout is not None:
            probabilities = [p for _, p, _ in self._fast_layout]
            total = sum(probabilities)
            table: Dict[Hashable, float] = {}
            higher_mass = 0.0
            for (key, probability, _), p in zip(
                self._fast_layout, probabilities
            ):
                table[key] = (
                    1.0
                    + probability * higher_mass
                    + (1.0 - probability) * (total - probability)
                )
                higher_mass += p
        else:
            table = {key: self.expected_rank(key) for key in self.keys()}
        self._expected_rank_cache = table
        return dict(table)


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
