"""Experiment E16: self-healing serving under deterministic fault injection.

Two legs over the scaled movie-ratings scenario served by the
process-backed executor:

* **E16a -- completeness and parity under worker kills.**  The same
  seeded update-heavy stream (deterministic query kinds only) is replayed
  twice through :func:`~repro.workloads.chaos.chaos_replay`: once
  fault-free, once with a seeded schedule of periodic worker kills plus a
  stall and a dropped message.  The run asserts

  - **100% completion**: every request in the faulted run terminates --
    answered, or a typed :class:`~repro.exceptions.ReproError` -- never
    hung;
  - **recovery**: the kills actually fired and the supervisor respawned
    workers (``worker_restarts >= 1``);
  - **exact parity**: every update lands in both runs, so they end in
    identical shard state, and *every* answered read of the faulted run
    matches the fault-free baseline to 1e-9 -- none is excluded.  A shard
    whose worker failed a read is answered from the parent's columns
    (counted in the ``failover`` column), so faults never change an
    answer;
  - **bounded overhead**: wall-clock with faults stays within 2x of the
    fault-free replay (plus a small absolute slack for process respawns,
    which dominate at smoke sizes).

  Supervision heals those kills within the failing request, so a third
  replay spends the restart budget instead: one kill under
  ``max_restarts=0`` takes a shard down for the rest of the run.  Every
  read of it is then answered from the parent's columns, and the run
  asserts ``failover >= 1`` on top of the same completion and 1e-9
  parity bars.

* **E16b -- recovery time to first answer.**  For every injected kill,
  the time from the kill firing to the first answer completed after it,
  read off the injector's execution log and the chaos outcomes'
  monotonic stamps.

Set ``REPRO_BENCH_SMOKE=1`` to shrink to CI-smoke sizes.  JSON results
record the backend, the traffic seed, the fault-schedule signature and
the multiprocessing start method.
"""

from __future__ import annotations

import asyncio
import math
import os
import time

from _harness import report
from repro.models import ShardedDatabase
from repro.query import Query
from repro.serving import ServingExecutor
from repro.sharding import FaultEvent, FaultInjector, FaultSchedule, SupervisorPolicy
from repro.sharding.procpool import resolve_start_method
from repro.workloads.chaos import chaos_replay, chaos_summary
from repro.workloads.scenarios import movie_rating_scenario
from repro.workloads.traffic import update_heavy_traffic

SEED = 20260808
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SCALE = 40.0 if SMOKE else 600.0  # n = 400 smoke / 6_000 full
SHARDS = 2 if SMOKE else 4
EVENT_COUNT = 40 if SMOKE else 200
KILLS = 2 if SMOKE else 4
CONCURRENCY = 6
K = 10
TOLERANCE = 1e-9
#: Wall-clock bar: faulted replay <= 2x fault-free + respawn slack.
OVERHEAD_FACTOR = 2.0
#: Absolute slack for the fixed respawn / backoff cost, which dwarfs the
#: tiny smoke replay itself (spawn re-imports the interpreter per worker).
OVERHEAD_SLACK_S = 2.0 if SMOKE else 5.0

#: Deterministic query kinds only, so every answer of the faulted run is
#: comparable to the fault-free baseline at 1e-9.
EXACT_MIX = {
    "mean_topk_symmetric_difference": 3.0,
    "mean_topk_footrule": 2.0,
    "top_k_membership": 2.0,
}

#: Generous deterministic supervision: every kill heals, so reads fail
#: over only on the failing request itself.
SUPERVISION = SupervisorPolicy(
    max_restarts=50, backoff_base=0.0, jitter=0.0, seed=SEED
)


def _fault_schedule(horizon):
    """Kills spread over the ``horizon`` worker requests of the fault-free
    run (so every kill lands inside the replay), a stall and a drop."""
    kills = FaultSchedule.periodic(
        "kill", start=10, every=max(10, (horizon - 10) // KILLS), count=KILLS
    )
    extras = FaultSchedule(
        [
            FaultEvent(5, "drop"),
            FaultEvent(17, "stall", seconds=0.05),
        ]
    )
    return kills.merged(extras)


def _database():
    return movie_rating_scenario(scale=SCALE).database


def _events(keys):
    return update_heavy_traffic(
        keys, EVENT_COUNT, rng=SEED, query_mix=EXACT_MIX, k_choices=(K,)
    )


def _run(fault_injector, supervision=SUPERVISION):
    """One chaos replay on a fresh database; returns outcomes + timings."""
    database = _database()
    with ShardedDatabase(
        database,
        SHARDS,
        partitioner="hash",
        executor="processes",
        executor_options={
            "supervisor": supervision,
            "fault_injector": fault_injector,
        },
    ) as sharded:
        events = _events(sharded.keys())

        async def drive():
            # The fault schedule is armed by shard-request ordinal: the
            # result cache would suppress repeat requests and shift when
            # faults fire, so the chaos replay runs uncached.
            async with ServingExecutor(
                sharded, result_cache=False
            ) as executor:
                # One warm query excludes worker spawn + first merge from
                # the replay window (identical for both runs).
                await executor.submit(Query.membership(K))
                started = time.perf_counter()
                outcomes = await chaos_replay(
                    executor, events, concurrency=CONCURRENCY
                )
                elapsed = time.perf_counter() - started
                return outcomes, elapsed, executor.metrics()

        return asyncio.run(drive())


def _value_close(expected, actual, tol=TOLERANCE):
    if isinstance(expected, dict):
        return set(expected) == set(actual) and all(
            _value_close(expected[key], actual[key], tol) for key in expected
        )
    if isinstance(expected, (tuple, list)):
        return len(expected) == len(actual) and all(
            _value_close(left, right, tol)
            for left, right in zip(expected, actual)
        )
    if isinstance(expected, float):
        return math.isclose(expected, float(actual), abs_tol=tol)
    return expected == actual


def _assert_parity(baseline, faulted):
    """Completion, update parity and 1e-9 parity of every answered read
    of ``faulted`` against the fault-free ``baseline``; returns the
    faulted run's summary and the number of answers compared."""
    base_summary = chaos_summary(baseline)
    fault_summary = chaos_summary(faulted)

    # -- 100% completion: no hangs, no untyped failures, ever.
    assert fault_summary["completed"] == fault_summary["events"] == EVENT_COUNT

    # -- State parity precondition: every update applied in both runs.
    assert fault_summary["update_failures"] == 0
    assert fault_summary["updates_applied"] == base_summary["updates_applied"]

    # -- 1e-9 parity of every answered read, none excluded.
    compared = mismatches = 0
    for reference, outcome in zip(baseline, faulted):
        if reference.event.is_update or outcome.answer is None:
            continue
        compared += 1
        if not _value_close(reference.answer.value, outcome.answer.value):
            mismatches += 1
    assert compared == fault_summary["answered"] > 0
    assert mismatches == 0, (
        f"{mismatches}/{compared} answers diverged from the fault-free "
        "baseline"
    )
    return fault_summary, compared


def test_e16_selfhealing_under_faults():
    counter = FaultInjector(FaultSchedule([]))
    baseline, base_elapsed, base_metrics = _run(counter)
    schedule = _fault_schedule(counter.request_count)
    injector = FaultInjector(schedule)
    faulted, fault_elapsed, fault_metrics = _run(injector)

    base_summary = chaos_summary(baseline)
    assert base_summary["completed"] == base_summary["events"] == EVENT_COUNT
    assert base_summary["update_failures"] == 0
    fault_summary, compared = _assert_parity(baseline, faulted)

    # -- The faults actually happened and supervision healed them.
    kills = injector.fired_of_kind("kill")
    assert len(kills) == KILLS, f"only {len(kills)} of {KILLS} kills fired"
    assert fault_metrics.worker_restarts >= 1

    # -- A spent restart budget: the killed shard stays down, and its
    #    reads are answered from the parent's columns, still exactly.
    spent_injector = FaultInjector(FaultSchedule([FaultEvent(10, "kill")]))
    spent, spent_elapsed, spent_metrics = _run(
        spent_injector, SupervisorPolicy(max_restarts=0, jitter=0.0)
    )
    spent_summary, spent_compared = _assert_parity(baseline, spent)
    assert spent_injector.fired_of_kind("kill")
    assert spent_metrics.worker_restarts == 0
    assert spent_metrics.failover_served >= 1

    # -- Bounded overhead: within 2x of fault-free (+ respawn slack).
    bound = OVERHEAD_FACTOR * base_elapsed + OVERHEAD_SLACK_S
    assert fault_elapsed <= bound, (
        f"faulted replay took {fault_elapsed:.2f}s, bound {bound:.2f}s "
        f"(fault-free {base_elapsed:.2f}s)"
    )

    def throughput(elapsed):
        return EVENT_COUNT / elapsed if elapsed > 0 else float("inf")

    rows = [
        [
            "fault-free",
            base_summary["events"],
            base_summary["completed"],
            base_summary["answered"],
            base_metrics.failover_served,
            base_summary["query_failures"] + base_summary["update_failures"],
            base_metrics.worker_restarts,
            base_elapsed,
            throughput(base_elapsed),
        ],
        [
            "faulted",
            fault_summary["events"],
            fault_summary["completed"],
            fault_summary["answered"],
            fault_metrics.failover_served,
            fault_summary["query_failures"]
            + fault_summary["update_failures"],
            fault_metrics.worker_restarts,
            fault_elapsed,
            throughput(fault_elapsed),
        ],
        [
            "budget spent",
            spent_summary["events"],
            spent_summary["completed"],
            spent_summary["answered"],
            spent_metrics.failover_served,
            spent_summary["query_failures"]
            + spent_summary["update_failures"],
            spent_metrics.worker_restarts,
            spent_elapsed,
            throughput(spent_elapsed),
        ],
    ]
    report(
        "E16a",
        "Self-healing serving under seeded worker kills "
        f"(n~{int(SCALE * 10)}, {SHARDS} shards, {EVENT_COUNT} events)",
        [
            "run",
            "events",
            "completed",
            "answered",
            "failover",
            "typed_failures",
            "restarts",
            "elapsed_s",
            "events_per_s",
        ],
        rows,
        notes=(
            f"seed={SEED} schedule={schedule.signature()} "
            f"start_method={resolve_start_method()} "
            f"deadline_exceeded={fault_metrics.deadline_exceeded} "
            f"breaker_open={fault_metrics.breaker_open}; "
            f"parity: all {compared} (faulted) and {spent_compared} "
            "(budget spent) answers == baseline @ 1e-9; "
            f"overhead bound: {OVERHEAD_FACTOR:g}x + {OVERHEAD_SLACK_S:g}s"
        ),
    )

    # -- E16b: per-kill recovery time to the first answer.
    recovery_rows = []
    for fired in kills:
        first_answer = None
        for outcome in faulted:
            if (
                outcome.answer is not None
                and outcome.finished > fired.at_time
            ):
                candidate = outcome.finished - fired.at_time
                if first_answer is None or candidate < first_answer:
                    first_answer = candidate
        recovery_rows.append(
            [
                fired.ordinal,
                fired.shard_index,
                fired.op,
                "-" if first_answer is None else first_answer,
            ]
        )
        assert first_answer is not None, (
            f"no answer ever completed after the kill at request "
            f"ordinal {fired.ordinal}"
        )
    report(
        "E16b",
        "Recovery time from worker kill to first answer",
        ["kill_ordinal", "shard", "during_op", "time_to_answer_s"],
        recovery_rows,
        notes=(
            f"seed={SEED} schedule={schedule.signature()}; clock: "
            "monotonic stamps shared by the fault log and chaos outcomes"
        ),
    )
