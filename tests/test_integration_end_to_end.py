"""End-to-end integration tests exercising the public API across modules."""

from __future__ import annotations

import math
import random

import pytest

import repro
from repro import (
    BlockIndependentDatabase,
    GroupByCountConsensus,
    TupleIndependentDatabase,
    consensus_clustering,
    enumerate_worlds,
)
from repro.algebra import (
    DeterministicRelation,
    ProbabilisticAlgebraRelation,
    answer_distribution,
    join,
    project,
)
from repro.andxor.builders import from_explicit_worlds
from repro.baselines.ranking import expected_rank_topk, global_topk, u_topk
from repro.consensus import (
    mean_topk_footrule,
    mean_topk_intersection,
    mean_topk_symmetric_difference,
    mean_world_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
)
from repro.core.tuples import TupleAlternative
from repro.workloads.scenarios import (
    extraction_groupby_scenario,
    movie_rating_scenario,
    sensor_network_scenario,
)


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestSensorScenarioPipeline:
    def test_topk_consensus_pipeline(self):
        scenario = sensor_network_scenario(sensor_count=7)
        tree = scenario.database.tree
        statistics = scenario.database.rank_statistics()
        k = 3
        mean_answer, mean_value = mean_topk_symmetric_difference(statistics, k)
        median_answer, median_value = median_topk_symmetric_difference(statistics, k)
        intersection_answer, _ = mean_topk_intersection(statistics, k)
        footrule_answer, _ = mean_topk_footrule(statistics, k)
        assert len(mean_answer) == len(median_answer) == k
        assert len(intersection_answer) == len(footrule_answer) == k
        assert median_value >= mean_value - 1e-9
        # Every answer only references actual sensors.
        sensors = set(tree.keys())
        for answer in (mean_answer, median_answer, intersection_answer, footrule_answer):
            assert set(answer) <= sensors

    def test_baselines_agree_with_consensus_on_certain_data(self):
        database = BlockIndependentDatabase(
            {f"s{i}": [(float(100 - i), 1.0)] for i in range(6)}
        )
        statistics = database.rank_statistics()
        k = 3
        expected = ("s0", "s1", "s2")
        assert tuple(global_topk(statistics, k)) == expected
        assert tuple(expected_rank_topk(statistics, k)) == expected
        assert tuple(u_topk(statistics, k)) == expected
        consensus, value = mean_topk_symmetric_difference(statistics, k)
        assert tuple(consensus) == expected
        assert math.isclose(value, 0.0, abs_tol=1e-12)


class TestExtractionScenarioPipeline:
    def test_groupby_consensus(self):
        scenario = extraction_groupby_scenario(mention_count=12, company_count=3)
        consensus = GroupByCountConsensus.from_bid_tree(scenario.database.tree)
        mean = consensus.mean_answer()
        assert math.isclose(sum(mean), 12.0, abs_tol=1e-9)
        median, value = consensus.median_answer_approximation()
        assert sum(median) == 12
        assert value >= consensus.count_variance() - 1e-9

    def test_clustering_consensus(self):
        scenario = extraction_groupby_scenario(mention_count=8, company_count=3)
        clustering, value = consensus_clustering(
            scenario.database.tree, rng=random.Random(0)
        )
        covered = {key for cluster in clustering for key in cluster}
        assert covered == set(scenario.database.keys())
        assert value >= 0.0


class TestMovieScenarioPipeline:
    def test_consensus_beats_or_ties_baselines(self):
        """The defining property of the mean consensus answer: no baseline
        semantics achieves a smaller expected distance."""
        scenario = movie_rating_scenario(movie_count=8)
        statistics = scenario.database.rank_statistics()
        k = 3
        _, consensus_value = mean_topk_symmetric_difference(statistics, k)
        for baseline in (global_topk, expected_rank_topk):
            answer = baseline(statistics, k)
            value = expected_topk_symmetric_difference(statistics, answer, k)
            assert consensus_value <= value + 1e-9


class TestAlgebraToConsensusPipeline:
    def test_spj_answers_feed_the_consensus_machinery(self):
        """Run an SPJ query, materialise its possible answers, convert them to
        an and/xor tree (Figure 1(iii) construction) and compute a consensus
        world -- the full pipeline the paper's introduction describes."""
        products = ProbabilisticAlgebraRelation.from_bid_blocks(
            {
                "p1": [({"product": "p1", "category": "tools"}, 0.7)],
                "p2": [
                    ({"product": "p2", "category": "tools"}, 0.4),
                    ({"product": "p2", "category": "toys"}, 0.6),
                ],
                "p3": [({"product": "p3", "category": "toys"}, 0.8)],
            },
            name="products",
        )
        categories = DeterministicRelation(
            [{"category": "tools"}, {"category": "toys"}], name="categories"
        ).as_probabilistic(products.event_space)
        result = project(join(products, categories), ["product"])
        distribution = answer_distribution(result)
        assert math.isclose(sum(distribution.values()), 1.0, abs_tol=1e-9)

        worlds = []
        for answer, probability in distribution.items():
            alternatives = [
                TupleAlternative(dict(row)["product"], dict(row)["product"])
                for row in answer
            ]
            worlds.append((alternatives, probability))
        tree = from_explicit_worlds(worlds)
        mean_world, value = mean_world_symmetric_difference(tree)
        # p1 (0.7) and p3 (0.8) and p2 (always present: 0.4 + 0.6 = 1.0).
        keys = {alternative.key for alternative in mean_world}
        assert keys == {"p1", "p2", "p3"}
        assert value == pytest.approx(0.7 * 0 + 0.3 + 0.2 + 0.0, abs=1e-9)


class TestExplicitWorldRoundTrip:
    def test_world_distribution_round_trip(self):
        database = TupleIndependentDatabase(
            [("a", 3, 0.6), ("b", 2, 0.5), ("c", 1, 0.4)]
        )
        distribution = database.possible_worlds()
        rebuilt = from_explicit_worlds(distribution)
        rebuilt_distribution = enumerate_worlds(rebuilt)
        assert len(rebuilt_distribution) == len(distribution)
        original = {
            world.alternatives: probability for world, probability in distribution
        }
        for world, probability in rebuilt_distribution:
            assert math.isclose(original[world.alternatives], probability, abs_tol=1e-9)
