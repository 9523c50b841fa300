"""Tests for the unified Top-k answer evaluation utilities."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest

from repro.andxor.enumeration import enumerate_worlds
from repro.consensus.evaluation import (
    TOPK_METRICS,
    AnswerEvaluation,
    compare_topk_answers,
    evaluate_topk_answer,
)
from repro.engine import sampling
from repro.metrics import METRICS, TOPK, WORLD
from repro.query import HARDNESS_MAP, TOPK_DISTANCES, WORLD_DISTANCES
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
        """Every registry record's closed form against the expectation of
        its reference distance over the enumerated worlds."""
        tree = small_bid(seed, blocks=4, exhaustive=True).tree
        answer = tuple(tree.keys()[:k])
        world = frozenset(tree.alternatives()[:k])
        distribution = enumerate_worlds(tree)
        closed_forms = [m.name for m in TOPK.values() if m.closed_form]
        closed = evaluate_topk_answer(
            tree, answer, k, metrics=closed_forms, method="closed_form"
        )
        enumerated = evaluate_topk_answer(
            tree, answer, k, metrics=closed_forms, method="enumerate"
        )
        for metric in METRICS:
            if metric.closed_form is None:
                continue
            if metric.family == "topk":
                expected = closed.distance(metric.name)
                actual = enumerated.distance(metric.name)
            else:
                expected = metric.closed_form(tree, world)
                actual = distribution.expectation(
                    lambda w, d=metric.reference: d(world, w.alternatives)
                )
            assert math.isclose(expected, actual, abs_tol=1e-9), metric.name

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
        assert set(TOPK) == {
            "symmetric_difference", "intersection", "footrule", "kendall",
        }
        assert set(WORLD) == {"symmetric_difference", "jaccard"}
        # The per-module names are reads of the registry.
        assert set(TOPK_METRICS) == set(sampling.TOPK_METRICS) == set(TOPK)
        assert TOPK_DISTANCES == tuple(TOPK)
        assert WORLD_DISTANCES == tuple(WORLD)
        for metric in METRICS:
            for statistic in ("mean", "median"):
                exact = metric.exact(statistic)
                key = (metric.family, metric.name, statistic)
                assert HARDNESS_MAP.get(key) == (exact and exact.hardness)

    def test_registry_readers_import_first_in_a_fresh_interpreter(self):
        """The registry imports repro.consensus; no module that reads it
        may form an import cycle, whichever is imported first."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        paths = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        for module in (
            "repro.metrics",
            "repro.engine.sampling",
            "repro.core.consensus_bruteforce",
            "repro.consensus.evaluation",
            "repro.query.builder",
        ):
            result = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    f"import {module}; from repro.metrics import TOPK; "
                    "from repro.engine.sampling import TOPK_METRICS; "
                    "assert TOPK_METRICS == tuple(TOPK)",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, (module, result.stderr)


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
