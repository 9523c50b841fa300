"""Experiment E11: end-to-end scalability of the consensus Top-k stack.

Runs the full pipeline -- rank statistics, mean/median d_Delta answers, the
intersection and footrule assignment answers and the Kendall pivot answer --
on Zipf-scored tuple-independent databases of increasing size, reporting the
wall-clock time of each stage.  The paper claims polynomial time for every
stage; this experiment shows the constants are small enough for interactive
use on databases with thousands of tuples.
"""

from __future__ import annotations

import math
import os
import random
import time

from _harness import report
from repro.andxor.rank_probabilities import RankStatistics
from repro.engine import get_backend, use_backend
from repro.models import BlockIndependentDatabase, TupleIndependentDatabase
from repro.session import QuerySession
from repro.consensus.topk.footrule import mean_topk_footrule
from repro.consensus.topk.intersection import (
    approximate_topk_intersection,
    mean_topk_intersection,
)
from repro.consensus.topk.kendall import approximate_topk_kendall
from repro.consensus.topk.symmetric_difference import (
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.workloads.generators import random_tuple_independent_database

K = 10
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: E11c: tuples of the cold TI relation and blocks of the cold BID one.
COLD_TUPLES = 12000
COLD_BLOCKS = 40


def test_e11_end_to_end_scaling(benchmark):
    rows = []
    for n in (500, 1000, 2000, 4000):
        database = random_tuple_independent_database(
            n, rng=n, score_distribution="zipf"
        )
        statistics = RankStatistics(database.tree)
        timings = {}

        start = time.perf_counter()
        statistics.top_k_membership_probabilities(K)
        timings["rank statistics"] = time.perf_counter() - start

        start = time.perf_counter()
        mean_topk_symmetric_difference(statistics, K)
        timings["mean d_Delta"] = time.perf_counter() - start

        start = time.perf_counter()
        median_topk_symmetric_difference(statistics, K)
        timings["median d_Delta"] = time.perf_counter() - start

        start = time.perf_counter()
        approximate_topk_intersection(statistics, K)
        timings["Upsilon_H d_I"] = time.perf_counter() - start

        start = time.perf_counter()
        mean_topk_footrule(statistics, K)
        timings["footrule"] = time.perf_counter() - start

        start = time.perf_counter()
        approximate_topk_kendall(statistics, K)
        timings["Kendall pivot"] = time.perf_counter() - start

        rows.append(
            (
                n,
                timings["rank statistics"],
                timings["mean d_Delta"],
                timings["median d_Delta"],
                timings["Upsilon_H d_I"],
                timings["footrule"],
                timings["Kendall pivot"],
            )
        )
    report(
        "E11",
        f"End-to-end consensus Top-{K} runtime on Zipf-scored "
        "tuple-independent databases (seconds)",
        ("tuples", "rank stats", "mean d_Delta", "median d_Delta",
         "Y_H d_I", "footrule", "Kendall pivot"),
        rows,
        notes=(
            "Tuple-independent databases use the O(n log k) median sweep; "
            "the generic Theorem-4 DP (needed for attribute-level "
            "uncertainty) is measured separately in experiment E4b."
        ),
    )

    database = random_tuple_independent_database(1000, rng=1, score_distribution="zipf")

    def pipeline():
        statistics = RankStatistics(database.tree)
        mean_topk_symmetric_difference(statistics, K)
        approximate_topk_intersection(statistics, K)
        return mean_topk_footrule(statistics, K)

    benchmark.pedantic(pipeline, rounds=3, iterations=1)


def test_e11_session_cold_vs_warm(benchmark):
    """Cold-vs-warm QuerySession timings for the full consensus suite.

    A cold session computes the shared artifacts (rank matrix, membership,
    preference matrix, Υ tables); a warm session answers the same battery of
    queries from its cache.  The JSON results record the active backend, so
    BENCH trajectories can tell NumPy runs from pure-Python runs.
    """
    rows = []
    for n in (500, 1000, 2000, 4000):
        database = random_tuple_independent_database(
            n, rng=n, score_distribution="zipf"
        )

        def run_suite(session):
            mean_topk_symmetric_difference(session, K)
            median_topk_symmetric_difference(session, K)
            approximate_topk_intersection(session, K)
            mean_topk_footrule(session, K)
            approximate_topk_kendall(session, K)

        session = QuerySession(database.tree)
        start = time.perf_counter()
        run_suite(session)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        run_suite(session)
        warm = time.perf_counter() - start

        info = session.cache_info()
        rows.append(
            (
                n,
                cold,
                warm,
                cold / warm if warm > 0 else float("inf"),
                info["hits"],
                info["misses"],
            )
        )
    report(
        "E11b",
        f"QuerySession cold vs warm consensus Top-{K} suite (seconds)",
        ("tuples", "cold (s)", "warm (s)", "speedup", "cache hits",
         "cache misses"),
        rows,
        notes=(
            "Cold sessions compute the shared rank/preference matrices once; "
            "warm sessions re-run the query battery on the memoized "
            "statistics (rank matrix, membership, Upsilon tables, "
            "preference grid); answers themselves are not memoized."
        ),
    )

    database = random_tuple_independent_database(1000, rng=1, score_distribution="zipf")
    warm_session = QuerySession(database.tree)
    mean_topk_footrule(warm_session, K)

    def warm_pipeline():
        mean_topk_symmetric_difference(warm_session, K)
        approximate_topk_intersection(warm_session, K)
        return mean_topk_footrule(warm_session, K)

    benchmark.pedantic(warm_pipeline, rounds=3, iterations=1)


def _cold_rows(seed):
    """``(key, value, score, probability)`` TI rows with distinct scores,
    and sensor-shaped BID blocks of 2 or 3 alternatives summing to 1."""
    rng = random.Random(seed)
    scores = rng.sample(range(10 * COLD_TUPLES), COLD_TUPLES)
    rows = [
        (f"t{index}", f"v{index}", float(score), rng.uniform(0.05, 1.0))
        for index, score in enumerate(scores)
    ]
    sizes = [2 + index % 2 for index in range(COLD_BLOCKS)]
    block_scores = iter(rng.sample(range(10 * sum(sizes)), sum(sizes)))
    blocks = []
    for index, size in enumerate(sizes):
        weights = [rng.random() + 0.2 for _ in range(size)]
        alternatives = []
        for weight in weights:
            score = float(next(block_scores))
            alternatives.append((f"r{score:g}", score, weight / sum(weights)))
        blocks.append((f"sensor{index}", alternatives))
    return rows, blocks


def _cold_rungs(rows, blocks):
    """Per-rung seconds of one cold pass over both relations, and the
    ``(answer, expected distance)`` pairs it produced."""
    timings = dict.fromkeys(
        ("build", "statistics", "rank matrix", "assignment"), 0.0
    )
    answers = []
    for model, source in (
        (TupleIndependentDatabase, rows),
        (BlockIndependentDatabase, blocks),
    ):
        start = time.perf_counter()
        database = model(source)
        timings["build"] += time.perf_counter() - start

        start = time.perf_counter()
        statistics = RankStatistics(database.columns)
        timings["statistics"] += time.perf_counter() - start

        start = time.perf_counter()
        statistics.rank_matrix(K)
        timings["rank matrix"] += time.perf_counter() - start

        start = time.perf_counter()
        answers += [
            mean_topk_footrule(statistics, K),
            mean_topk_intersection(statistics, K),
            mean_topk_symmetric_difference(statistics, K),
        ]
        timings["assignment"] += time.perf_counter() - start
    return timings, answers


def test_e11_cold_build_from_rows(benchmark):
    """E11c: the cold TI + BID path from flat rows, rung by rung."""
    rows, blocks = _cold_rows(11)
    rounds = 1 if SMOKE else 5
    passes = [_cold_rungs(rows, blocks) for _ in range(rounds + 1)][1:]
    with use_backend("python"):
        _, reference = _cold_rungs(rows, blocks)
    for _, answers in passes:
        for (answer, value), (want, expected) in zip(answers, reference):
            assert answer == want
            assert math.isclose(value, expected, rel_tol=0.0, abs_tol=1e-9)
    rungs = list(passes[0][0])
    medians = {
        rung: sorted(timings[rung] for timings, _ in passes)[rounds // 2]
        for rung in rungs
    }
    report(
        "E11c",
        f"Cold build-to-answer rungs: TI n={COLD_TUPLES} + BID "
        f"{COLD_BLOCKS} blocks, k={K} (median ms of {rounds})",
        ("rung", "ms"),
        [(rung, 1000.0 * medians[rung]) for rung in rungs]
        + [("total", 1000.0 * sum(medians.values()))],
        notes=(
            "build: both relations from rows; statistics: RankStatistics "
            "over their columns (score order, tie check); rank matrix: "
            "rank_matrix(k); assignment: the mean footrule, intersection "
            "and symmetric-difference answers.  Answers match the pure "
            "backend's to 1e-9."
        ),
    )
    benchmark.pedantic(
        lambda: _cold_rungs(rows, blocks), rounds=rounds, iterations=1
    )


def _support_legs(rows):
    """Per-step seconds of one pass over each ``(name, rows)`` TI relation:
    the rank kernel alone, the footrule statistics and the assignment
    answers over a fresh statistics object, with each matrix's support and
    the answers."""
    legs = []
    for name, source in rows:
        statistics = RankStatistics(TupleIndependentDatabase(source).columns)
        probabilities = [
            probability
            for _, probability, _ in statistics.independent_tuple_layout()
        ]
        start = time.perf_counter()
        get_backend().rank_probability_matrix(probabilities, K)
        kernel = time.perf_counter() - start

        session = statistics.session()
        support = session.rank_matrix(K).support
        start = time.perf_counter()
        session.footrule_statistics(K)
        footrule = time.perf_counter() - start

        start = time.perf_counter()
        answers = [
            mean_topk_footrule(statistics, K),
            mean_topk_intersection(statistics, K),
        ]
        assignment = time.perf_counter() - start
        legs.append((name, support, kernel, footrule, assignment, answers))
    return legs


def test_e11_rank_matrix_support(benchmark):
    """E11d: rank matrices that stop at their support, against one with no
    zero tail.

    The perfbench-shaped relation (probabilities uniform in [0.05, 1])
    turns all-zero after a few hundred rows in score order; the
    full-support one (probabilities in [1e-4, 1e-3]) never does, so it
    measures what the early stop costs when it cannot fire.
    """
    rng = random.Random(29)
    scores = rng.sample(range(10 * COLD_TUPLES), COLD_TUPLES)
    shapes = (("perfbench-shaped", 0.05, 1.0), ("full support", 1e-4, 1e-3))
    relations = [
        (
            name,
            [
                (f"t{index}", f"v{index}", float(score), rng.uniform(low, high))
                for index, score in enumerate(scores)
            ],
        )
        for name, low, high in shapes
    ]
    rounds = 1 if SMOKE else 5
    passes = [_support_legs(relations) for _ in range(rounds + 1)][1:]
    with use_backend("python"):
        reference = _support_legs(relations)
    for legs in passes:
        (_, short, *_), (_, full, *_) = legs
        assert short < COLD_TUPLES == full
        for leg, want in zip(legs, reference):
            for (answer, value), (expected, target) in zip(leg[5], want[5]):
                assert answer == expected
                assert math.isclose(value, target, rel_tol=0.0, abs_tol=1e-9)
    table = []
    for index, (name, *_rest) in enumerate(reference):
        support = passes[0][index][1]
        medians = [
            sorted(legs[index][column] for legs in passes)[rounds // 2]
            for column in (2, 3, 4)
        ]
        table.append(
            (name, COLD_TUPLES, support)
            + tuple(1000.0 * median for median in medians)
        )
    report(
        "E11d",
        f"Rank matrices stop at their support: TI n={COLD_TUPLES}, k={K} "
        f"(median ms of {rounds})",
        ("relation", "tuples", "support", "kernel ms", "footrule stats ms",
         "assignment ms"),
        table,
        notes=(
            "kernel: rank_probability_matrix over the score-ordered "
            "probabilities; footrule stats: FootruleStatistics over the "
            "memoized matrix; assignment: the mean footrule and "
            "intersection answers.  The support is the row count past "
            "which every row is exactly 0.0.  Answers match the pure "
            "backend's to 1e-9."
        ),
    )
    benchmark.pedantic(
        lambda: _support_legs(relations), rounds=rounds, iterations=1
    )
