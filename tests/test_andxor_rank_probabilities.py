"""Tests for rank-position probabilities (Example 3 and Section 5 plumbing)."""

from __future__ import annotations

import math

import pytest

from repro.andxor.builders import bid_tree, figure1_correlated_example
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import (
    RankStatistics,
    expected_rank,
    pairwise_preference_probability,
    rank_at_most_probabilities,
    rank_position_probabilities,
)
from repro.exceptions import ModelError
from repro.models import BlockIndependentDatabase, TupleIndependentDatabase
from tests.conftest import small_bid, small_tuple_independent, small_xtuple


def world_rank(world, key):
    """1-based rank of a key in a world; None when absent."""
    ranked = sorted(world, key=lambda a: -a.effective_score())
    for position, alternative in enumerate(ranked, start=1):
        if alternative.key == key:
            return position
    return None


class TestRankDistribution:
    @pytest.mark.parametrize(
        "database_factory",
        [
            lambda: small_tuple_independent(1, count=5),
            lambda: small_tuple_independent(2, count=6),
            lambda: small_bid(3, blocks=4),
            lambda: small_bid(4, blocks=4, exhaustive=True),
            lambda: small_xtuple(5, groups=3),
        ],
    )
    def test_matches_enumeration(self, database_factory):
        tree = database_factory().tree
        distribution = enumerate_worlds(tree)
        positions = rank_position_probabilities(tree)
        for key, probabilities in positions.items():
            for index, probability in enumerate(probabilities):
                expected = distribution.probability_that(
                    lambda w: world_rank(w, key) == index + 1
                )
                assert math.isclose(probability, expected, abs_tol=1e-9), (
                    key, index,
                )

    def test_figure1_rank_probability(self):
        tree = figure1_correlated_example()
        statistics = RankStatistics(tree)
        positions = statistics.rank_position_probabilities("t3")
        # (t3, 6) is top in pw1 (probability 0.3); (t3, 9) is top in pw2.
        assert positions[0] == pytest.approx(0.6)

    def test_rank_at_most(self):
        tree = small_bid(6, blocks=4).tree
        distribution = enumerate_worlds(tree)
        at_most = rank_at_most_probabilities(tree, k=2)
        for key, probability in at_most.items():
            expected = distribution.probability_that(
                lambda w: (world_rank(w, key) or 99) <= 2
            )
            assert math.isclose(probability, expected, abs_tol=1e-9)

    def test_rank_at_most_table_is_cumulative(self):
        statistics = RankStatistics(small_bid(8, blocks=4).tree)
        table = statistics.rank_at_most_table(3)
        for key, cumulative in table.items():
            assert all(
                cumulative[i] <= cumulative[i + 1] + 1e-12
                for i in range(len(cumulative) - 1)
            )
            assert cumulative[-1] <= 1.0 + 1e-9

    def test_rank_cache_returns_copies(self):
        statistics = RankStatistics(small_bid(9, blocks=3).tree)
        key = statistics.keys()[0]
        first = statistics.rank_position_probabilities(key, max_rank=2)
        first[0] = 99.0
        assert statistics.rank_position_probabilities(key, max_rank=2)[0] != 99.0

    def test_duplicate_scores_rejected(self):
        tree = bid_tree([("a", [(5, 0.5)]), ("b", [(5, 0.5)])])
        with pytest.raises(ModelError):
            RankStatistics(tree)
        # But validation can be turned off explicitly.
        RankStatistics(tree, validate_scores=False)


class TestFastPath:
    """The O(n k) tuple-independent sweep must agree with the generic path."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_fast_path_matches_generic(self, seed):
        tree = small_tuple_independent(seed, count=6).tree
        fast = RankStatistics(tree, use_fast_path=True)
        slow = RankStatistics(tree, use_fast_path=False)
        assert fast.independent_tuple_layout() is not None
        assert slow.independent_tuple_layout() is None
        for key in tree.keys():
            for max_rank in (1, 3, 6):
                a = fast.rank_position_probabilities(key, max_rank=max_rank)
                b = slow.rank_position_probabilities(key, max_rank=max_rank)
                assert all(
                    math.isclose(x, y, abs_tol=1e-9) for x, y in zip(a, b)
                )

    def test_fast_path_not_used_for_bid(self):
        tree = small_bid(1, blocks=3, max_alternatives=3).tree
        statistics = RankStatistics(tree)
        if any(len(tree.alternatives_of(key)) > 1 for key in tree.keys()):
            assert statistics.independent_tuple_layout() is None

    def test_fast_path_unknown_key(self):
        tree = small_tuple_independent(1, count=3).tree
        statistics = RankStatistics(tree)
        with pytest.raises(ModelError):
            statistics.rank_position_probabilities("missing", max_rank=2)

    def test_fast_path_matches_enumeration(self):
        tree = small_tuple_independent(7, count=6).tree
        distribution = enumerate_worlds(tree)
        statistics = RankStatistics(tree)
        assert statistics.independent_tuple_layout() is not None
        for key in tree.keys():
            positions = statistics.rank_position_probabilities(key)
            for index, probability in enumerate(positions):
                expected = distribution.probability_that(
                    lambda w: world_rank(w, key) == index + 1
                )
                assert math.isclose(probability, expected, abs_tol=1e-9)


class TestUnknownKeys:
    """Every layout rejects an unknown key instead of returning zeros."""

    @pytest.mark.parametrize(
        "statistics_factory",
        [
            lambda: RankStatistics(small_tuple_independent(1, count=4).tree),
            lambda: RankStatistics(small_bid(2, blocks=4).columns),
            lambda: RankStatistics(
                small_bid(2, blocks=4).tree, use_fast_path=False
            ),
            lambda: RankStatistics(figure1_correlated_example()),
        ],
        ids=["tuple-independent", "bid", "bid-tree-path", "general"],
    )
    def test_unknown_key_raises(self, statistics_factory):
        statistics = statistics_factory()
        with pytest.raises(ModelError, match="unknown tuple key"):
            statistics.rank_position_probabilities("nope", 2)
        with pytest.raises(ModelError, match="unknown tuple key"):
            statistics.rank_at_most("nope", 2)


class TestPairwisePreference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_enumeration(self, seed):
        tree = small_bid(seed, blocks=4).tree
        distribution = enumerate_worlds(tree)
        statistics = RankStatistics(tree)
        keys = tree.keys()
        for first in keys:
            for second in keys:
                if first == second:
                    assert statistics.pairwise_preference(first, second) == 0.0
                    continue
                expected = distribution.probability_that(
                    lambda w: (
                        (world_rank(w, first) or math.inf)
                        < (world_rank(w, second) or math.inf)
                    )
                )
                assert math.isclose(
                    statistics.pairwise_preference(first, second),
                    expected,
                    abs_tol=1e-9,
                )

    def test_module_level_function(self):
        tree = small_tuple_independent(4, count=4).tree
        keys = tree.keys()
        value = pairwise_preference_probability(tree, keys[0], keys[1])
        assert 0.0 <= value <= 1.0

    def test_preference_matrix_complete(self):
        statistics = RankStatistics(small_tuple_independent(5, count=4).tree)
        matrix = statistics.pairwise_preference_matrix()
        n = len(statistics.keys())
        assert len(matrix) == n * (n - 1)


class TestExpectedRank:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_enumeration(self, seed):
        tree = small_bid(seed, blocks=4).tree
        distribution = enumerate_worlds(tree)
        statistics = RankStatistics(tree)

        def world_expected_rank(world, key):
            rank = world_rank(world, key)
            if rank is None:
                return len(world) + 1.0
            return float(rank)

        for key in tree.keys():
            expected = distribution.expectation(
                lambda w: world_expected_rank(w, key)
            )
            assert math.isclose(
                statistics.expected_rank(key), expected, abs_tol=1e-9
            )
            assert math.isclose(
                expected_rank(tree, key), expected, abs_tol=1e-9
            )

    def test_expected_rank_table(self):
        statistics = RankStatistics(small_tuple_independent(6, count=4).tree)
        table = statistics.expected_rank_table()
        assert set(table) == set(statistics.keys())
        assert all(value >= 1.0 for value in table.values())

    @pytest.mark.parametrize(
        "database",
        [
            TupleIndependentDatabase(
                [("a", "x", 5.0, 0.5), ("b", "y", 5.0, 0.6), ("c", "z", 3.0, 0.7)]
            ),
            BlockIndependentDatabase(
                [
                    ("a", [("a1", 5.0, 0.3), ("a2", 5.0, 0.4)]),
                    ("b", [("b1", 5.0, 0.5), ("b2", 2.0, 0.2)]),
                    ("c", [("c1", 3.0, 0.6)]),
                ]
            ),
        ],
    )
    def test_unvalidated_ties_are_not_above(self, database):
        # Equal scores of different tuples (allowed only unvalidated) never
        # outrank each other, so the closed forms must not count a tied row
        # as "above" -- the tree oracle's strict comparison.
        fast = RankStatistics(database.columns, validate_scores=False)
        oracle = RankStatistics(
            database.tree, validate_scores=False, use_fast_path=False
        )
        table = fast.expected_rank_table()
        reference = oracle.expected_rank_table()
        assert table.keys() == reference.keys()
        grid = fast.preference_matrix()
        reference_grid = oracle.preference_matrix()
        for key, value in reference.items():
            assert math.isclose(table[key], value, abs_tol=1e-9)
            for other in reference:
                assert math.isclose(
                    grid.value(key, other),
                    reference_grid.value(key, other),
                    abs_tol=1e-9,
                )
        if isinstance(database, TupleIndependentDatabase):
            # 1 + (1 - 0.6)(1.8 - 0.6): a, tied with b, is never above it.
            assert math.isclose(table["b"], 1.48, abs_tol=1e-9)
