"""Experiment E14: declarative query API dispatch overhead.

The unified API must be free: routing every query through
``ConsensusQuery`` -> ``Planner`` -> ``ExecutionPlan`` instead of calling
the consensus algorithms (and memoized session statistics) directly may
not tax the serving hot path.  Four cases:

* **E14a -- planner overhead on a realistic query mix.**  The ten named
  kinds at several Top-k sizes run against one long-lived session under
  cache-invalidation churn (the serving regime after updates), once
  through direct calls of the :mod:`repro.consensus` /
  :mod:`repro.baselines` functions on the session and once through the
  planner
  (``DEFAULT_PLANNER.run``).  Both sides pay the same artifact
  recomputation every round; plans are built once and reused across
  invalidations, so the difference isolates dispatch.  The acceptance bar
  is **< 5%** overhead.
* **E14b -- warm micro-dispatch.**  Per-call latency of a memoized
  statistic, ``session.top_k_membership(k)``, read directly vs as
  ``Query.membership(k)`` through a cached plan, reporting the absolute
  per-dispatch cost the declarative layer adds (bar: < 50 microseconds --
  a hash lookup, a generation check and one closure call).
* **E14c -- cross-session result cache under a zipf-popular mix.**  A
  served executor answers a popularity-skewed request stream twice; the
  second pass is all result-cache hits.  Bars: >= 5x median latency
  improvement warm vs cold, ``result_cache_hits > 0`` on the executor
  metrics, and 1e-9 parity of every cached answer against an uncached
  executor over the same shards.
* **E14d -- fused multi-query plans.**  A micro-batch of
  ``top_k_membership`` queries at staggered depths runs once unfused
  (one rank-matrix dynamic program per ``k``) and once through
  ``Connection.execute_many`` (one ``k_max`` sweep + exact column-prefix
  slices).  Bars: >= 1.5x throughput, 1e-9 parity, and ``fused_plans >
  0`` when the same batch rides the serving executor.

Set ``REPRO_BENCH_SMOKE=1`` to shrink sizes for the CI smoke leg.  JSON
results record the active backend and the database seed.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics as stats
import time

from _harness import report
from repro.baselines import expected_rank_topk, global_topk
from repro.consensus import (
    approximate_topk_intersection,
    approximate_topk_kendall,
    mean_topk_footrule,
    mean_topk_intersection,
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.query import DEFAULT_PLANNER, NAMED_KINDS, Query, connect
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

SEED = 20260731
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 300 if SMOKE else 4000
K_CHOICES = (3, 5, 8, 10) if SMOKE else (5, 10, 25, 40)
ROUNDS = 7  # best-of-ROUNDS fresh-session sweeps (min damps scheduler noise)
MICRO_CALLS = 2000 if SMOKE else 10_000
OVERHEAD_BAR = 0.05
MICRO_BAR_SECONDS = 50e-6

#: The serving mix: every named kind, at every k.
QUERY_SET = [
    (kind, k)
    for kind in NAMED_KINDS
    for k in K_CHOICES
]


def _database():
    return random_tuple_independent_database(N, rng=SEED)


#: The algorithm each named kind runs, called with ``(session, k)``.
DIRECT_CALLS = {
    "mean_topk_symmetric_difference": mean_topk_symmetric_difference,
    "median_topk_symmetric_difference": median_topk_symmetric_difference,
    "mean_topk_footrule": mean_topk_footrule,
    "mean_topk_intersection": mean_topk_intersection,
    "approximate_topk_intersection": approximate_topk_intersection,
    "approximate_topk_kendall": approximate_topk_kendall,
    "top_k_membership": QuerySession.top_k_membership,
    "global_topk": global_topk,
    "expected_rank_topk": expected_rank_topk,
}


def _direct_call(session: QuerySession, kind: str, k: int):
    function = DIRECT_CALLS.get(kind)
    if function is None:  # expected_rank_table takes no k
        return session.expected_rank_table()
    return function(session, k)


def _sweep_direct(session) -> float:
    session.invalidate()
    start = time.perf_counter()
    for kind, k in QUERY_SET:
        _direct_call(session, kind, k)
    return time.perf_counter() - start


def _sweep_planner(session, queries) -> float:
    session.invalidate()
    start = time.perf_counter()
    for query in queries:
        DEFAULT_PLANNER.run(query, session)
    return time.perf_counter() - start


def test_e14a_planner_overhead_on_query_mix(benchmark):
    database = _database()
    queries = [Query.named(kind, k) for kind, k in QUERY_SET]
    # One long-lived session per side (the serving deployment model); each
    # round invalidates the caches -- the churn updates cause -- so both
    # sides recompute the same artifacts and the difference isolates
    # planning + dispatch.  Rounds are interleaved so drift hits both
    # sides equally; the minimum is the noise-robust statistic for
    # same-work sweeps.
    direct_session = QuerySession(database.tree)
    planner_session = QuerySession(database.tree)
    _sweep_direct(direct_session)  # warm process + plan/artifact caches
    _sweep_planner(planner_session, queries)
    direct_times = []
    planner_times = []
    for _ in range(ROUNDS):
        direct_times.append(_sweep_direct(direct_session))
        planner_times.append(_sweep_planner(planner_session, queries))
    direct = min(direct_times)
    planned = min(planner_times)
    overhead = (planned - direct) / direct
    report(
        "E14a",
        "Planner dispatch overhead vs direct algorithm calls "
        "(long-lived sessions under invalidation churn)",
        ("queries", "tuples", "direct (s)", "planner (s)", "overhead"),
        [
            (
                len(QUERY_SET),
                N,
                direct,
                planned,
                f"{overhead * 100.0:+.2f}%",
            )
        ],
        notes=(
            f"seed={SEED}; best of {ROUNDS} interleaved rounds, every "
            f"round invalidating the session then answering all "
            f"{len(NAMED_KINDS)} named kinds x k in {K_CHOICES}.  "
            f"Acceptance bar: < {OVERHEAD_BAR:.0%}."
        ),
    )
    assert overhead < OVERHEAD_BAR, (
        f"planner dispatch overhead {overhead:.2%} exceeds "
        f"{OVERHEAD_BAR:.0%}"
    )
    benchmark.pedantic(
        lambda: _sweep_planner(planner_session, queries),
        rounds=1,
        iterations=1,
    )


def test_e14b_warm_micro_dispatch(benchmark):
    database = _database()
    session = QuerySession(database.tree)
    k = K_CHOICES[0]
    query = Query.membership(k)
    # Warm everything: the memoized statistic and the plan cache.
    session.top_k_membership(k)
    DEFAULT_PLANNER.run(query, session)

    def timed(callee) -> float:
        start = time.perf_counter()
        for _ in range(MICRO_CALLS):
            callee()
        return (time.perf_counter() - start) / MICRO_CALLS

    direct = min(
        timed(lambda: session.top_k_membership(k)) for _ in range(3)
    )
    planned = min(
        timed(lambda: DEFAULT_PLANNER.run(query, session)) for _ in range(3)
    )
    added = planned - direct
    report(
        "E14b",
        "Warm micro-dispatch: memoized statistic via plan cache vs direct",
        ("calls", "direct (us)", "planner (us)", "added (us)"),
        [
            (
                MICRO_CALLS,
                direct * 1e6,
                planned * 1e6,
                added * 1e6,
            )
        ],
        notes=(
            "Memoized top_k_membership (hash lookup on both paths); the "
            "declarative layer adds one plan-cache lookup, a generation "
            f"check and a closure call.  Bar: < {MICRO_BAR_SECONDS * 1e6:.0f} "
            "us absolute."
        ),
    )
    assert added < MICRO_BAR_SECONDS, (
        f"warm dispatch adds {added * 1e6:.1f}us per call"
    )
    benchmark.pedantic(
        lambda: DEFAULT_PLANNER.run(query, session), rounds=1, iterations=100
    )


# ---------------------------------------------------------------------------
# E14c -- cross-session result cache
# ---------------------------------------------------------------------------

CACHE_SPEEDUP_BAR = 5.0
PARITY_TOLERANCE = 1e-9
STREAM_LENGTH = 60 if SMOKE else 200

#: Deterministic exact kinds only: parity across executors must be
#: bitwise-reproducible, so Monte-Carlo routes stay out of the pool.
CACHE_KINDS = (
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "mean_topk_footrule",
    "mean_topk_intersection",
    "top_k_membership",
    "global_topk",
    "expected_rank_topk",
)


def _numeric_close(left, right, tolerance=PARITY_TOLERANCE) -> bool:
    """Recursive 1e-9 comparison over the legacy answer shapes."""
    if isinstance(left, float) or isinstance(right, float):
        return abs(float(left) - float(right)) <= tolerance
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_numeric_close(left[key], right[key]) for key in left)
        )
    if isinstance(left, (tuple, list)):
        return (
            isinstance(right, (tuple, list))
            and len(left) == len(right)
            and all(_numeric_close(a, b) for a, b in zip(left, right))
        )
    return left == right


def _zipf_stream(pool_size: int, length: int, seed: int):
    """Popularity-skewed (1/rank) index stream, deterministic."""
    rnd = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    return rnd.choices(range(pool_size), weights=weights, k=length)


def test_e14c_result_cache_zipf_mix(benchmark):
    from repro.models.sharded import ShardedDatabase
    from repro.serving import ServingExecutor

    database = _database()
    pool = [
        Query.named(kind, k)
        for kind in CACHE_KINDS
        for k in K_CHOICES[:2]
    ]
    stream = _zipf_stream(len(pool), STREAM_LENGTH, SEED)

    async def run_stream(executor):
        cold, warm, first_answers = [], [], {}
        for index in stream:  # pass 1: first occurrences compute
            start = time.perf_counter()
            answer = await executor.execute(pool[index])
            elapsed = time.perf_counter() - start
            if index not in first_answers:
                first_answers[index] = answer
                cold.append(elapsed)
        for index in stream:  # pass 2: all result-cache hits
            start = time.perf_counter()
            await executor.execute(pool[index])
            warm.append(time.perf_counter() - start)
        return cold, warm, first_answers

    async def main():
        async with ServingExecutor(ShardedDatabase(database, 4)) as cached:
            cold, warm, answers = await run_stream(cached)
            snapshot = cached.metrics()
        async with ServingExecutor(
            ShardedDatabase(database, 4),
            result_cache=False,
            fuse_batches=False,
        ) as reference:
            for index, answer in answers.items():
                baseline = await reference.execute(pool[index])
                assert _numeric_close(answer.value, baseline.value), (
                    f"cached answer diverges for {pool[index].kind}"
                )
        return cold, warm, snapshot

    cold, warm, snapshot = asyncio.run(main())
    cold_median = stats.median(cold)
    warm_median = stats.median(warm)
    speedup = cold_median / warm_median if warm_median else float("inf")
    report(
        "E14c",
        "Cross-session result cache: zipf-popular served mix, "
        "warm pass vs first-touch",
        (
            "pool",
            "requests",
            "cold median (ms)",
            "warm median (ms)",
            "speedup",
            "hits",
            "misses",
        ),
        [
            (
                len(pool),
                2 * STREAM_LENGTH,
                cold_median * 1e3,
                warm_median * 1e3,
                f"{speedup:.1f}x",
                snapshot.result_cache_hits,
                snapshot.result_cache_misses,
            )
        ],
        notes=(
            f"seed={SEED}; 1/rank popularity over {len(pool)} distinct "
            f"exact queries, {STREAM_LENGTH} requests per pass; every "
            f"cached answer checked against an uncached executor at "
            f"{PARITY_TOLERANCE:g}.  Bar: >= {CACHE_SPEEDUP_BAR:.0f}x."
        ),
    )
    assert snapshot.result_cache_hits > 0, "no result-cache hits recorded"
    assert speedup >= CACHE_SPEEDUP_BAR, (
        f"warm/cold median speedup {speedup:.1f}x below "
        f"{CACHE_SPEEDUP_BAR:.0f}x"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# E14d -- fused multi-query plans
# ---------------------------------------------------------------------------

FUSE_THROUGHPUT_BAR = 1.5
FUSE_KS = (8, 16, 24, 32, 40, 48, 56, 64)
FUSE_ROUNDS = 3 if SMOKE else 5


def test_e14d_fused_batch(benchmark):
    from repro.models.sharded import ShardedDatabase
    from repro.serving import ServingExecutor

    database = _database()
    queries = [Query.membership(k) for k in FUSE_KS]
    fused_conn = connect(QuerySession(database.tree), result_cache=False)
    unfused_conn = connect(QuerySession(database.tree), result_cache=False)

    def sweep_unfused():
        unfused_conn.session.invalidate()
        start = time.perf_counter()
        answers = [unfused_conn.execute(query) for query in queries]
        return time.perf_counter() - start, answers

    def sweep_fused():
        fused_conn.session.invalidate()
        start = time.perf_counter()
        answers = fused_conn.execute_many(queries)
        return time.perf_counter() - start, answers

    sweep_unfused(), sweep_fused()  # warm plan caches on both sides
    unfused_times, fused_times = [], []
    unfused_answers = fused_answers = None
    for _ in range(FUSE_ROUNDS):
        elapsed, unfused_answers = sweep_unfused()
        unfused_times.append(elapsed)
        elapsed, fused_answers = sweep_fused()
        fused_times.append(elapsed)
    for got, want in zip(fused_answers, unfused_answers):
        assert _numeric_close(got.value, want.value), (
            f"fused answer diverges at k={got.query.k}"
        )
    unfused = min(unfused_times)
    fused = min(fused_times)
    ratio = unfused / fused if fused else float("inf")

    # The same batch through the serving executor must take the fused
    # path (counted on the metrics snapshot) and agree numerically.
    async def served_batch():
        async with ServingExecutor(ShardedDatabase(database, 4)) as executor:
            answers = await asyncio.gather(
                *(executor.execute(query) for query in queries)
            )
            return answers, executor.metrics().fused_plans

    served_answers, fused_plans = asyncio.run(served_batch())
    for got, want in zip(served_answers, unfused_answers):
        assert _numeric_close(got.value, want.value), (
            f"served fused answer diverges at k={got.query.k}"
        )
    report(
        "E14d",
        "Fused multi-query plans: one k_max rank-matrix sweep vs "
        "per-query dynamic programs",
        (
            "batch",
            "ks",
            "unfused (s)",
            "fused (s)",
            "throughput",
            "served fused_plans",
        ),
        [
            (
                len(queries),
                "/".join(str(k) for k in FUSE_KS),
                unfused,
                fused,
                f"{ratio:.2f}x",
                fused_plans,
            )
        ],
        notes=(
            f"seed={SEED}; best of {FUSE_ROUNDS} rounds, caches "
            f"invalidated per round so the matrix work is repaid every "
            f"sweep; fused answers checked at {PARITY_TOLERANCE:g} "
            f"against the unfused sweep.  Bar: >= "
            f"{FUSE_THROUGHPUT_BAR:.1f}x."
        ),
    )
    assert fused_plans > 0, "executor micro-batch did not fuse any plans"
    assert ratio >= FUSE_THROUGHPUT_BAR, (
        f"fused batch throughput {ratio:.2f}x below "
        f"{FUSE_THROUGHPUT_BAR:.1f}x"
    )
    benchmark.pedantic(lambda: sweep_fused(), rounds=1, iterations=1)
