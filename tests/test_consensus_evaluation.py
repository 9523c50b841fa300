"""Tests for the unified Top-k answer evaluation utilities."""

from __future__ import annotations

import math
import random

import pytest

from repro.consensus.evaluation import (
    TOPK_METRICS,
    AnswerEvaluation,
    compare_topk_answers,
    evaluate_topk_answer,
)
from repro.consensus.topk.footrule import expected_topk_footrule_distance
from repro.consensus.topk.intersection import (
    expected_topk_intersection_distance,
    intersection_objective,
)
from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
    mean_topk_symmetric_difference,
)
from repro.exceptions import ConsensusError
from tests.conftest import small_bid, small_tuple_independent


class TestEvaluateTopKAnswer:
    @pytest.mark.parametrize("seed,k", [(1, 2), (2, 3), (3, 2)])
    def test_closed_form_matches_enumeration(self, seed, k):
        tree = small_bid(seed, blocks=4, exhaustive=True).tree
        answer = tuple(tree.keys()[:k])
        closed = evaluate_topk_answer(tree, answer, k, method="closed_form")
        enumerated = evaluate_topk_answer(tree, answer, k, method="enumerate")
        for metric in ("symmetric_difference", "intersection", "footrule"):
            assert math.isclose(
                closed.distance(metric),
                enumerated.distance(metric),
                abs_tol=1e-9,
            )

    def test_sampling_approximates_closed_form(self):
        tree = small_tuple_independent(5, count=6).tree
        answer = tuple(tree.keys()[:3])
        closed = evaluate_topk_answer(tree, answer, 3, method="closed_form")
        sampled = evaluate_topk_answer(
            tree, answer, 3, method="sample", samples=4000,
            rng=random.Random(0),
        )
        assert abs(
            closed.distance("symmetric_difference")
            - sampled.distance("symmetric_difference")
        ) < 0.05

    def test_kendall_requires_non_closed_form(self):
        tree = small_tuple_independent(1, count=4).tree
        answer = tuple(tree.keys()[:2])
        with pytest.raises(ConsensusError):
            evaluate_topk_answer(tree, answer, 2, metrics=("kendall",))
        result = evaluate_topk_answer(
            tree, answer, 2, metrics=("kendall",), method="enumerate"
        )
        assert result.distance("kendall") >= 0.0

    def test_unknown_metric_and_method_rejected(self):
        tree = small_tuple_independent(1, count=4).tree
        answer = tuple(tree.keys()[:2])
        with pytest.raises(ConsensusError):
            evaluate_topk_answer(tree, answer, 2, metrics=("bogus",))
        with pytest.raises(ConsensusError):
            evaluate_topk_answer(tree, answer, 2, method="bogus")
        result = evaluate_topk_answer(tree, answer, 2)
        with pytest.raises(ConsensusError):
            result.distance("not_evaluated")

    def test_metric_registry_complete(self):
        assert set(TOPK_METRICS) == {
            "symmetric_difference", "intersection", "footrule", "kendall",
        }


class TestCompareTopKAnswers:
    def test_consensus_wins_its_metric(self):
        tree = small_bid(7, blocks=5, exhaustive=True).tree
        k = 2
        consensus_answer, _ = mean_topk_symmetric_difference(tree, k)
        other_answer = tuple(reversed(tree.keys()[-k:]))
        results = compare_topk_answers(
            tree,
            {"consensus": consensus_answer, "other": other_answer},
            k,
        )
        assert isinstance(results["consensus"], AnswerEvaluation)
        assert (
            results["consensus"].distance("symmetric_difference")
            <= results["other"].distance("symmetric_difference") + 1e-9
        )


# ----------------------------------------------------------------------
# Candidate-answer validation: one rule for every closed form
# ----------------------------------------------------------------------
SCORERS = {
    "symmetric_difference": expected_topk_symmetric_difference,
    "intersection": expected_topk_intersection_distance,
    "footrule": expected_topk_footrule_distance,
    "intersection_objective": intersection_objective,
    "evaluate_topk_answer": evaluate_topk_answer,
}


@pytest.mark.parametrize("scorer", sorted(SCORERS))
@pytest.mark.parametrize(
    "answer",
    [("t1",), ("t1", "t2", "t3"), ("t1", "t1"), ("t1", "nope")],
    ids=["short", "long", "duplicate", "unknown"],
)
def test_invalid_answer_rejected(scorer, answer):
    tree = small_tuple_independent(1, count=4).tree
    with pytest.raises(ConsensusError):
        SCORERS[scorer](tree, answer, 2)
