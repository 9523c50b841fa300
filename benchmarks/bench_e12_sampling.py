"""Experiment E12: the batched Monte-Carlo estimation engine.

Three measurements:

* **E12a** -- throughput of the batched sampler
  (``QuerySession.sampler()``, one vectorized kernel call per batch)
  against the per-world recursive walk of
  :func:`repro.andxor.sampling.sample_worlds`, for n ∈ {100, 1000, 5000}
  tuples and S ∈ {1k, 10k} samples.  The per-world walk is measured on a
  capped draw count and reported as worlds/second, so the experiment stays
  tractable at the largest sizes.
* **E12b** -- agreement of the Monte-Carlo Top-k distance estimators with
  the exact answers: brute-force enumeration on a tiny tree (footrule and
  Kendall, where no exact polynomial algorithm exists) and the exact
  session answers on a mid-size database (footrule / symmetric difference
  / intersection), reporting the standardised error ``|err| / σ̂``.
* **E12c** -- the exact-path scalar tails killed alongside the sampler:
  the pre-PR per-entry Υ3 Python loop + pure Hungarian assignment versus
  the backend ``footrule_cost_matrix`` kernel (one matmul) + the
  backend-aware assignment dispatch, at n = 2000, k = 50, with identical
  answers required.

Set ``REPRO_BENCH_SMOKE=1`` to shrink every case to seconds (the CI smoke
leg).  The JSON results record the active backend (via the harness) and
the seed used for every random draw.
"""

from __future__ import annotations

import os
import time

from _harness import report
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.sampling import sample_worlds
from repro.consensus.topk.footrule import (
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
    topk_kendall_distance,
)
from repro.matching import hungarian, scipy_solver_available
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

SEED = 20260730
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SAMPLER_GRID = (
    ((100, 1000),)
    if SMOKE
    else (
        (100, 1000),
        (100, 10_000),
        (1000, 1000),
        (1000, 10_000),
        (5000, 1000),
        (5000, 10_000),
    )
)
PER_WORLD_CAP = 200 if SMOKE else 1500


def test_e12a_batched_vs_per_world_sampler(benchmark):
    rows = []
    for n, samples in SAMPLER_GRID:
        database = random_tuple_independent_database(
            n, rng=n, score_distribution="zipf"
        )
        session = QuerySession(database.tree)
        sampler = session.sampler()  # flattening measured separately below

        start = time.perf_counter()
        sampler.sample_batch(samples, rng=SEED)
        batched_seconds = time.perf_counter() - start
        batched_rate = samples / batched_seconds

        walk_count = min(samples, PER_WORLD_CAP)
        start = time.perf_counter()
        sample_worlds(database.tree, walk_count, rng=SEED)
        walk_seconds = time.perf_counter() - start
        walk_rate = walk_count / walk_seconds

        rows.append(
            (
                n,
                samples,
                batched_seconds,
                batched_rate,
                walk_rate,
                batched_rate / walk_rate,
            )
        )
    report(
        "E12a",
        "Batched sampler vs per-world recursive walk (throughput)",
        ("tuples", "samples", "batched (s)", "batched worlds/s",
         "per-world worlds/s", "speedup"),
        rows,
        notes=(
            f"seed={SEED}; per-world rate measured on at most "
            f"{PER_WORLD_CAP} draws.  The batched sampler reuses the "
            "session's flattened tree layout; the per-world walk recurses "
            "through the whole tree once per draw."
        ),
    )

    database = random_tuple_independent_database(
        1000, rng=1, score_distribution="zipf"
    )
    warm = QuerySession(database.tree).sampler()
    benchmark.pedantic(
        lambda: warm.sample_batch(1000 if SMOKE else 10_000, rng=SEED),
        rounds=3,
        iterations=1,
    )


def test_e12b_exact_vs_mc_agreement(benchmark):
    rows = []

    # Tiny tree: brute-force enumeration is the ground truth, including for
    # Kendall tau where no exact polynomial algorithm exists.
    tiny = random_tuple_independent_database(12, rng=3)
    k = 4
    tiny_samples = 3000 if SMOKE else 30_000
    session = QuerySession(tiny.tree)
    answer, _ = mean_topk_footrule(session, k)
    distribution = enumerate_worlds(tiny.tree)
    exact_by_metric = {
        "footrule": distribution.expectation(
            lambda world: topk_footrule_distance(answer, world.top_k(k), k=k)
        ),
        "kendall": distribution.expectation(
            lambda world: topk_kendall_distance(answer, world.top_k(k))
        ),
    }
    sampler = session.sampler()
    for metric, exact in exact_by_metric.items():
        estimate = sampler.estimate_topk_distance(
            answer, k, metric=metric, samples=tiny_samples, rng=SEED
        )
        error = abs(estimate.mean - exact)
        rows.append(
            ("enumeration", 12, metric, exact, estimate.mean, error,
             estimate.std_error,
             error / estimate.std_error if estimate.std_error else 0.0)
        )

    # Mid-size database: the exact session answers are the ground truth.
    n = 100 if SMOKE else 400
    k = 10
    mid_samples = 2000 if SMOKE else 20_000
    database = random_tuple_independent_database(
        n, rng=5, score_distribution="zipf"
    )
    session = QuerySession(database.tree)
    answer, exact_footrule = mean_topk_footrule(session, k)
    cases = (
        ("footrule", exact_footrule),
        (
            "symmetric_difference",
            expected_topk_symmetric_difference(session, answer, k),
        ),
        (
            "intersection",
            expected_topk_intersection_distance(session, answer, k),
        ),
    )
    sampler = session.sampler()
    for metric, exact in cases:
        estimate = sampler.estimate_topk_distance(
            answer, k, metric=metric, samples=mid_samples, rng=SEED
        )
        error = abs(estimate.mean - exact)
        rows.append(
            ("session", n, metric, exact, estimate.mean, error,
             estimate.std_error,
             error / estimate.std_error if estimate.std_error else 0.0)
        )

    report(
        "E12b",
        "Exact vs Monte-Carlo Top-k distance estimates",
        ("oracle", "tuples", "metric", "exact", "MC mean", "|error|",
         "std error", "|error|/sigma"),
        rows,
        notes=(
            f"seed={SEED}; samples={tiny_samples} (enumeration oracle) / "
            f"{mid_samples} (session oracle).  |error|/sigma ~ N(0,1) when "
            "the estimators are unbiased."
        ),
    )

    benchmark.pedantic(
        lambda: sampler.estimate_topk_distance(
            answer, k, metric="footrule", samples=mid_samples, rng=SEED
        ),
        rounds=3,
        iterations=1,
    )


def _scalar_footrule_reference(statistics: RankStatistics, k: int):
    """The pre-PR scalar tail: per-entry Υ3 loop + pure Hungarian solver."""
    positions_table = statistics.rank_matrix(k).to_dict()
    keys = list(positions_table)
    cost = []
    for position in range(1, k + 1):
        row = []
        for key in keys:
            positions = positions_table[key]
            upsilon1 = sum(positions)
            upsilon2 = sum((j + 1) * p for j, p in enumerate(positions))
            upsilon3 = sum(
                p * abs(position - (j + 1))
                for j, p in enumerate(positions)
            ) - position * (1.0 - upsilon1)
            row.append(upsilon3 + upsilon2 - 2.0 * (k + 1.0) * upsilon1)
        cost.append(row)
    assignment, _ = hungarian.minimize_cost_assignment(cost)
    return tuple(keys[column] for column in assignment)


def test_e12c_footrule_scalar_vs_kernel(benchmark):
    n = 200 if SMOKE else 2000
    k = 10 if SMOKE else 50
    database = random_tuple_independent_database(
        n, rng=7, score_distribution="zipf"
    )
    session = QuerySession(database.tree)
    session.rank_matrix(k)  # shared input: both paths start from it

    start = time.perf_counter()
    scalar_answer = _scalar_footrule_reference(session.statistics, k)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    answer, value = mean_topk_footrule(session, k)
    kernel_seconds = time.perf_counter() - start

    assert answer == scalar_answer, (
        "batched footrule path must reproduce the scalar reference answer"
    )
    assert abs(
        value - expected_topk_footrule_distance(session, answer, k)
    ) < 1e-9

    report(
        "E12c",
        f"Footrule cost table + assignment: scalar loop vs backend kernel "
        f"(n={n}, k={k})",
        ("tuples", "k", "scalar Y3+Hungarian (s)", "kernel+dispatch (s)",
         "speedup", "scipy dispatch"),
        [
            (
                n,
                k,
                scalar_seconds,
                kernel_seconds,
                scalar_seconds / kernel_seconds,
                scipy_solver_available(),
            )
        ],
        notes=(
            f"seed={SEED}; identical answers asserted.  The kernel path is "
            "one backend matmul of the truncated rank matrix against the "
            "|i-j| grid plus the backend-aware assignment dispatch."
        ),
    )

    fresh = QuerySession(database.tree)
    fresh.rank_matrix(k)
    # Module-level call: the Υ tables are memoized after round one, so the
    # later rounds isolate the assignment-dispatch tail.
    benchmark.pedantic(
        lambda: mean_topk_footrule(fresh, k), rounds=3, iterations=1
    )
