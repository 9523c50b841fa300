"""Tests for the batched Monte-Carlo estimation engine.

Covers the flattened tree layout, the batched world sampler on both
backends, seeded reproducibility (``REPRO_SEED`` / integer seeds), the
vectorized Top-k distance estimators (parity against the reference
distances and 3σ convergence to the exact session answers), the
``WorldBatch`` marginals, the memoized session sampler, and the footrule
cost-matrix kernel that replaced the scalar Υ3 loop.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.andxor.builders import (
    bid_tree,
    figure1_bid_example,
    from_explicit_worlds,
)
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.sampling import (
    estimate_expectation,
    sample_world,
    sample_worlds,
    sample_worlds_batched,
)
from repro.consensus.hardness import (
    approximate_median_answer_by_sampling,
    build_reduction,
    median_answer_by_enumeration,
)
from repro.consensus.topk.footrule import (
    FootruleStatistics,
    expected_topk_footrule_distance,
    mean_topk_footrule,
)
from repro.consensus.topk.intersection import (
    expected_topk_intersection_distance,
)
from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
)
from repro.core.topk_distances import (
    topk_footrule_distance,
    topk_intersection_distance,
    topk_kendall_distance,
    topk_symmetric_difference,
)
from repro.engine import (
    MonteCarloSampler,
    NumpyBackend,
    PurePythonBackend,
    WorldBatch,
    flatten_tree,
    numpy_available,
    reset_default_rng,
    resolve_rng,
    use_backend,
)
from repro.engine.sampling import StreamingMoments
from repro.metrics import TOPK
from repro.session import QuerySession
from tests.conftest import small_bid, small_tuple_independent, small_xtuple

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def _trees():
    return [
        small_tuple_independent(3, count=6).tree,
        small_bid(5, blocks=4).tree,
        small_xtuple(7, groups=3).tree,
        figure1_bid_example(),
        from_explicit_worlds(
            [([("a", 5), ("b", 3)], 0.35), ([("a", 5)], 0.4), ([], 0.25)]
        ),
    ]


class TestFlattenedLayout:
    def test_bernoulli_fast_path_detected(self):
        layout = flatten_tree(small_tuple_independent(1, count=5).tree)
        assert layout.bernoulli is not None
        assert len(layout.bernoulli) == 5

    def test_bid_blocks_use_general_path(self):
        layout = flatten_tree(small_bid(2, blocks=3).tree)
        # Blocks with several alternatives share one xor node, so the
        # leaves are not pairwise independent.
        tree = bid_tree(
            [("t1", [(9, 0.5), (8, 0.3)]), ("t2", [(7, 0.6)])]
        )
        assert flatten_tree(tree).bernoulli is None
        assert layout.leaf_count == len(layout.leaf_scores)

    def test_leaves_sorted_by_decreasing_score(self):
        for tree in _trees():
            layout = flatten_tree(tree)
            assert layout.leaf_scores == sorted(
                layout.leaf_scores, reverse=True
            )

    def test_cross_key_score_ties_disable_topk_estimators(self):
        """Mirror the exact path's no-ties assumption: tied scores across
        different keys keep set-level sampling usable but make the rank
        order construction-dependent, so Top-k estimation must refuse."""
        tree = bid_tree(
            [("t1", [(5, 0.5)]), ("t2", [(5, 0.4)]), ("t3", [(3, 0.6)])]
        )
        layout = flatten_tree(tree)
        assert not layout.has_scores
        assert "distinct scores" in layout.score_error
        sampler = MonteCarloSampler(tree, rng=4)
        batch = sampler.sample_batch(500)
        assert set(batch.marginals()) == {"t1", "t2", "t3"}  # set-level OK
        with pytest.raises(ValueError):
            batch.topk_marginals(2)
        with pytest.raises(ValueError):
            sampler.estimate_topk_distance(("t1", "t2"), 2, samples=10)

    def test_candidate_position_validation(self):
        layout = flatten_tree(small_tuple_independent(2, count=4).tree)
        keys = layout.keys
        with pytest.raises(ValueError):
            layout.candidate_positions(keys[:3], 2)  # wrong length
        with pytest.raises(ValueError):
            layout.candidate_positions([keys[0], keys[0]], 2)  # duplicate
        with pytest.raises(ValueError):
            layout.candidate_positions(["missing", keys[0]], 2)


class TestBatchedSampling:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_marginals_match_closed_form(self, backend):
        for tree in _trees():
            with use_backend(backend):
                sampler = MonteCarloSampler(tree, rng=101)
                batch = sampler.sample_batch(8000)
                marginals = batch.marginals()
            for key in tree.keys():
                assert abs(
                    marginals[key] - tree.key_probability(key)
                ) < 0.05, (backend, key)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worlds_respect_key_constraint(self, backend):
        tree = small_bid(9, blocks=5).tree
        with use_backend(backend):
            worlds = MonteCarloSampler(tree, rng=5).sample_batch(300).worlds()
        for world in worlds:
            keys = [alternative.key for alternative in world]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_topk_marginals_match_rank_statistics(self, backend):
        """WorldBatch Top-k marginals vs the exact membership at S = 50k."""
        database = small_tuple_independent(11, count=8)
        k = 3
        with use_backend(backend):
            statistics = RankStatistics(database.tree)
            exact = statistics.top_k_membership_probabilities(k)
            sampler = MonteCarloSampler(database.tree, rng=23)
            empirical = sampler.sample_batch(50_000).topk_marginals(k)
        for key, probability in exact.items():
            assert abs(empirical[key] - probability) < 1e-2, (backend, key)

    def test_batched_matches_per_world_distribution(self):
        """Batched and per-world sampling draw the same distribution."""
        tree = figure1_bid_example()
        per_world = sample_worlds(tree, 6000, rng=random.Random(3))
        batched = sample_worlds_batched(tree, 6000, rng=3)
        for key in tree.keys():
            frequency_walk = sum(
                1 for world in per_world if world.contains_key(key)
            ) / len(per_world)
            frequency_batch = sum(
                1 for world in batched if world.contains_key(key)
            ) / len(batched)
            assert abs(frequency_walk - frequency_batch) < 0.04

    def test_sample_batch_rejects_non_positive(self):
        sampler = MonteCarloSampler(figure1_bid_example())
        with pytest.raises(ValueError):
            sampler.sample_batch(0)
        with pytest.raises(ValueError):
            sample_worlds_batched(figure1_bid_example(), 0)


class TestReproducibility:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_seed_replays_batches(self, backend):
        tree = small_bid(4, blocks=4).tree
        with use_backend(backend):
            sampler = MonteCarloSampler(tree)
            first = sampler.sample_batch(500, rng=42).marginals()
            second = sampler.sample_batch(500, rng=42).marginals()
        assert first == second

    def test_repro_seed_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "1234")
        tree = figure1_bid_example()
        try:
            reset_default_rng()
            walk_first = sample_worlds(tree, 50)
            batch_first = sample_worlds_batched(tree, 50)
            reset_default_rng()
            walk_second = sample_worlds(tree, 50)
            batch_second = sample_worlds_batched(tree, 50)
        finally:
            reset_default_rng()
        assert walk_first == walk_second
        assert batch_first == batch_second

    def test_default_generator_is_shared(self, monkeypatch):
        """rng=None draws continue one stream instead of re-seeding."""
        monkeypatch.setenv("REPRO_SEED", "77")
        tree = figure1_bid_example()
        try:
            reset_default_rng()
            first = sample_world(tree)
            second = sample_world(tree)
            reset_default_rng()
            replay = sample_worlds(tree, 2)
        finally:
            reset_default_rng()
        assert [first, second] == replay

    def test_resolve_rng_coercions(self):
        generator = random.Random(1)
        assert resolve_rng(generator) is generator
        assert resolve_rng(9).random() == random.Random(9).random()

    def test_estimate_expectation_seeded(self):
        tree = figure1_bid_example()
        first = estimate_expectation(
            tree, lambda world: float(len(world)), samples=300, rng=8
        )
        second = estimate_expectation(
            tree, lambda world: float(len(world)), samples=300, rng=8
        )
        assert first == second


class TestEstimatorParity:
    """The vectorized NumPy estimators must agree with the reference
    distances evaluated per sample on the *same* presence matrix."""

    @requires_numpy
    @pytest.mark.parametrize("record", TOPK.values(), ids=TOPK)
    def test_vectorized_matches_reference(self, record):
        import numpy

        for seed, tree in enumerate(_trees(), start=40):
            layout = flatten_tree(tree)
            pure = PurePythonBackend()
            rows = pure.sample_xor_presence(
                layout.cumulatives,
                layout.constraints,
                layout.leaf_count,
                400,
                seed,
            )
            k = min(3, len(layout.keys))
            statistics = RankStatistics(tree)
            ordered = sorted(
                layout.keys,
                key=lambda key: -max(
                    statistics.score_of(a)
                    for a in tree.alternatives_of(key)
                ),
            )
            answer = tuple(ordered[:k])
            pure_batch = WorldBatch(layout, rows, pure, 400)
            numpy_batch = WorldBatch(
                layout, numpy.array(rows, dtype=bool), NumpyBackend(), 400
            )
            reference = pure_batch.topk_distances(answer, k, record.name)
            vectorized = numpy_batch.topk_distances(answer, k, record.name)
            assert len(reference) == len(vectorized) == 400
            for r, v in zip(reference, vectorized):
                assert math.isclose(r, v, abs_tol=1e-9), (record.name, seed)

    def test_reference_distances_match_direct_evaluation(self):
        """The pure path's per-sample answers feed the core distances."""
        tree = small_tuple_independent(6, count=5).tree
        layout = flatten_tree(tree)
        pure = PurePythonBackend()
        rows = pure.sample_xor_presence(
            layout.cumulatives, layout.constraints, layout.leaf_count, 100, 3
        )
        batch = WorldBatch(layout, rows, pure, 100)
        k = 2
        answer = tuple(layout.keys[:k])
        answers = batch.topk_answers(k)
        for metric, function in (
            ("symmetric_difference", topk_symmetric_difference),
            ("footrule", topk_footrule_distance),
            ("intersection", topk_intersection_distance),
        ):
            distances = batch.topk_distances(answer, k, metric)
            for world_answer, distance in zip(answers, distances):
                assert math.isclose(
                    distance, function(answer, world_answer, k=k), abs_tol=1e-12
                )
        kendall = batch.topk_distances(answer, k, "kendall")
        for world_answer, distance in zip(answers, kendall):
            assert math.isclose(
                distance, topk_kendall_distance(answer, world_answer),
                abs_tol=1e-12,
            )

    def test_unknown_metric_rejected(self):
        sampler = MonteCarloSampler(small_tuple_independent(1, count=4).tree)
        with pytest.raises(ValueError):
            sampler.estimate_topk_distance(
                sampler.keys()[:2], 2, metric="spearman", samples=10
            )


class TestConvergence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_estimates_match_exact_session_answers(self, backend):
        """MC estimates fall within 3σ of the exact answers (small trees)."""
        database = small_tuple_independent(21, count=7)
        k = 3
        samples = 20_000 if backend == "numpy" else 6000
        with use_backend(backend):
            session = QuerySession(database.tree)
            answer, exact_footrule = mean_topk_footrule(session, k)
            exact_symmetric = expected_topk_symmetric_difference(
                session, answer, k
            )
            exact_intersection = expected_topk_intersection_distance(
                session, answer, k
            )
            sampler = session.sampler()
            for metric, exact in (
                ("footrule", exact_footrule),
                ("symmetric_difference", exact_symmetric),
                ("intersection", exact_intersection),
            ):
                estimate = sampler.estimate_topk_distance(
                    answer, k, metric=metric, samples=samples, rng=77
                )
                tolerance = 3.0 * estimate.std_error + 1e-9
                assert abs(estimate.mean - exact) < tolerance, (
                    backend, metric, estimate, exact,
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kendall_matches_enumeration(self, backend):
        """No exact polynomial Kendall answer exists; enumeration is the
        ground truth on a small tree."""
        tree = small_bid(13, blocks=4).tree
        k = 2
        distribution = enumerate_worlds(tree)
        with use_backend(backend):
            sampler = MonteCarloSampler(tree, rng=31)
            answer = tuple(sorted(tree.keys())[:k])
            exact = distribution.expectation(
                lambda world: topk_kendall_distance(answer, world.top_k(k))
            )
            estimate = sampler.estimate_topk_distance(
                answer, k, metric="kendall", samples=12_000
            )
        assert abs(estimate.mean - exact) < 3.0 * estimate.std_error + 1e-9

    def test_estimate_expectation_with_uncertainty(self):
        tree = figure1_bid_example()
        sampler = MonteCarloSampler(tree, rng=17)
        estimate = sampler.estimate_expectation(
            lambda world: float(len(world)), samples=6000
        )
        assert abs(
            estimate.mean - tree.expected_world_size()
        ) < 3.0 * estimate.std_error + 1e-9
        low, high = estimate.confidence_interval(0.95)
        assert low < estimate.mean < high
        assert float(estimate) == estimate.mean

    def test_streaming_moments_match_batch_statistics(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 10) for _ in range(500)]
        moments = StreamingMoments()
        moments.add_many(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert math.isclose(moments.mean, mean, rel_tol=1e-12)
        assert math.isclose(moments.variance, variance, rel_tol=1e-9)

    def test_streaming_moments_chan_merge_matches_scalar_updates(self):
        rng = random.Random(6)
        values = [rng.gauss(3, 2) for _ in range(700)]
        merged = StreamingMoments()
        merged.add_many(values[:1])
        merged.add_many([])
        merged.add_many(values[1:400])
        merged.add_many(values[400:])
        scalar = StreamingMoments()
        for value in values:
            scalar.add(value)
        assert merged.count == scalar.count == len(values)
        assert math.isclose(merged.mean, scalar.mean, rel_tol=1e-12)
        assert math.isclose(merged.variance, scalar.variance, rel_tol=1e-9)

    def test_single_sample_estimate_has_infinite_uncertainty(self):
        sampler = MonteCarloSampler(figure1_bid_example(), rng=2)
        estimate = sampler.estimate_expectation(
            lambda world: float(len(world)), samples=1
        )
        assert estimate.std_error == float("inf")
        low, high = estimate.confidence_interval(0.95)
        assert low == float("-inf") and high == float("inf")


class TestSessionSampler:
    def test_sampler_is_memoized(self):
        session = QuerySession(small_tuple_independent(2, count=5).tree)
        first = session.sampler()
        assert session.sampler() is first
        info = session.cache_info().artifacts["sampler"]
        assert (info.hits, info.misses) == (1, 1)

    def test_invalidate_drops_sampler(self):
        session = QuerySession(small_tuple_independent(2, count=5).tree)
        first = session.sampler()
        session.invalidate()
        assert session.sampler() is not first

    def test_sampler_respects_session_scoring(self):
        database = small_tuple_independent(4, count=5)
        session = QuerySession(
            database.tree, scoring=lambda a: -a.effective_score()
        )
        layout = session.sampler().layout
        # Reversed scoring flips the score-sorted leaf order.
        default_layout = flatten_tree(database.tree)
        assert layout.leaf_keys == list(reversed(default_layout.leaf_keys))


class TestFootruleCostKernel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cost_matrix_matches_scalar_formula(self, backend):
        for seed in (1, 2):
            database = small_tuple_independent(seed, count=6)
            k = 4
            with use_backend(backend):
                footrule = FootruleStatistics(database.tree, k)
                matrix = footrule._matrix.to_dict()
                for key in footrule.keys():
                    row = matrix[key]
                    upsilon1 = sum(row)
                    upsilon2 = sum((j + 1) * p for j, p in enumerate(row))
                    for position in range(1, k + 1):
                        upsilon3 = sum(
                            p * abs(position - (j + 1))
                            for j, p in enumerate(row)
                        ) - position * (1.0 - upsilon1)
                        expected = (
                            upsilon3 + upsilon2 - 2.0 * (k + 1.0) * upsilon1
                        )
                        assert math.isclose(
                            footrule.position_cost(key, position),
                            expected,
                            abs_tol=1e-9,
                        )
                        assert math.isclose(
                            footrule.upsilon3(key, position),
                            upsilon3,
                            abs_tol=1e-9,
                        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cost_rows_align_with_keys(self, backend):
        database = small_tuple_independent(8, count=5)
        k = 3
        with use_backend(backend):
            footrule = FootruleStatistics(database.tree, k)
            rows = footrule.cost_rows()
            keys = footrule.keys()
        assert len(rows) == k
        for position, row in enumerate(rows, start=1):
            assert len(row) == len(keys)
            for column, key in enumerate(keys):
                assert math.isclose(
                    row[column],
                    footrule.position_cost(key, position),
                    abs_tol=1e-12,
                )

    def test_position_validation_preserved(self):
        footrule = FootruleStatistics(
            small_tuple_independent(3, count=4).tree, 2
        )
        from repro.exceptions import ConsensusError

        with pytest.raises(ConsensusError):
            footrule.position_cost(footrule.keys()[0], 0)
        with pytest.raises(ConsensusError):
            footrule.upsilon3(footrule.keys()[0], 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mean_answer_consistent_across_backends(self, backend):
        database = small_tuple_independent(14, count=8)
        with use_backend(backend):
            answer, value = mean_topk_footrule(database.tree, 3)
            assert math.isclose(
                value,
                expected_topk_footrule_distance(database.tree, answer, 3),
                abs_tol=1e-9,
            )
        with use_backend("python"):
            _, reference_value = mean_topk_footrule(database.tree, 3)
        assert math.isclose(value, reference_value, abs_tol=1e-9)


class TestHardnessSamplingFallback:
    def test_sampled_median_matches_enumeration(self):
        clauses = [
            (("x", True), ("y", False)),
            (("y", True), ("z", True)),
            (("x", False), ("z", False)),
            (("z", True), ("x", True)),
        ]
        reduction = build_reduction(clauses)
        exact_answer, _, exact_distance = median_answer_by_enumeration(
            reduction
        )
        answer, witness, distance = approximate_median_answer_by_sampling(
            reduction, samples=4000, rng=19
        )
        assert answer == exact_answer
        assert reduction.answer_of_assignment(witness) == answer
        assert abs(distance - exact_distance) < 0.1

    def test_sampled_median_rejects_non_positive_samples(self):
        from repro.exceptions import ConsensusError

        reduction = build_reduction([(("x", True), ("y", True))])
        with pytest.raises(ConsensusError):
            approximate_median_answer_by_sampling(reduction, samples=0)
