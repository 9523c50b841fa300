"""Experiment E16: self-healing serving under deterministic fault injection.

Two legs over the scaled movie-ratings scenario served by the
process-backed executor:

* **E16a -- completeness and parity under worker kills.**  The same
  seeded update-heavy stream (deterministic query kinds only) is replayed
  twice through :func:`~repro.workloads.chaos.chaos_replay`: once
  fault-free, once with a seeded schedule of periodic worker kills plus a
  stall and a dropped message.  The run asserts

  - **100% completion**: every request in the faulted run terminates --
    answered fresh, answered stale/degraded (provenance-flagged), or a
    typed :class:`~repro.exceptions.ReproError` -- never hung;
  - **recovery**: the kills actually fired and the supervisor respawned
    workers (``worker_restarts >= 1``);
  - **state parity**: supervision healed every update (no queued/failed
    updates), so both runs end in identical shard state, and every
    non-degraded answer matches the fault-free baseline to 1e-9;
  - **provenance honesty**: any answer served while a shard was down is
    flagged ``stale`` or ``degraded`` -- silent wrong answers fail;
  - **bounded overhead**: wall-clock with faults stays within 2x of the
    fault-free replay (plus a small absolute slack for process respawns,
    which dominate at smoke sizes).

* **E16b -- recovery time to first fresh answer.**  For every injected
  kill, the time from the kill firing to the first *fresh* (non-stale,
  non-degraded) answer completed after it, read off the injector's
  execution log and the chaos outcomes' monotonic stamps.

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

#: Deterministic query kinds only, so non-degraded answers of the faulted
#: run are comparable to the fault-free baseline at 1e-9.
EXACT_MIX = {
    "mean_topk_symmetric_difference": 3.0,
    "mean_topk_footrule": 2.0,
    "top_k_membership": 2.0,
}

#: Generous deterministic supervision: every kill heals, no update ever
#: queues, so both runs end in identical shard state (the parity bar).
SUPERVISION = SupervisorPolicy(
    max_restarts=50, backoff_base=0.0, jitter=0.0, seed=SEED
)


def _fault_schedule():
    kills = FaultSchedule.periodic(
        "kill", start=10, every=max(10, EVENT_COUNT // KILLS), count=KILLS
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


def _run(fault_injector):
    """One chaos replay on a fresh database; returns outcomes + timings."""
    database = _database()
    with ShardedDatabase(
        database,
        SHARDS,
        partitioner="hash",
        executor="processes",
        executor_options={
            "supervisor": SUPERVISION,
            "fault_injector": fault_injector,
        },
    ) as sharded:
        events = _events(sharded.keys())

        async def drive():
            # The fault schedule is armed by shard-request ordinal: the
            # result cache would suppress repeat requests and shift when
            # faults fire, so the chaos replay runs uncached.
            async with ServingExecutor(
                sharded, retry_backoff=0.0, result_cache=False
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


def test_e16_selfhealing_under_faults():
    schedule = _fault_schedule()
    baseline, base_elapsed, base_metrics = _run(None)
    injector = FaultInjector(schedule)
    faulted, fault_elapsed, fault_metrics = _run(injector)

    base_summary = chaos_summary(baseline)
    fault_summary = chaos_summary(faulted)

    # -- 100% completion: no hangs, no untyped failures, ever.
    assert base_summary["completed"] == base_summary["events"] == EVENT_COUNT
    assert fault_summary["completed"] == fault_summary["events"] == EVENT_COUNT

    # -- The faults actually happened and supervision healed them.
    kills = injector.fired_of_kind("kill")
    assert len(kills) == KILLS, f"only {len(kills)} of {KILLS} kills fired"
    assert fault_metrics.worker_restarts >= 1

    # -- State parity precondition: every update applied in both runs.
    assert base_summary["update_failures"] == 0
    assert fault_summary["update_failures"] == 0
    assert fault_summary["updates_applied"] == base_summary["updates_applied"]

    # -- Provenance honesty + 1e-9 parity of non-degraded answers.
    compared = mismatches = 0
    for reference, outcome in zip(baseline, faulted):
        if reference.event.is_update or outcome.answer is None:
            continue
        flagged = outcome.answer.stale or outcome.answer.degraded
        provenance = outcome.answer.provenance()
        assert provenance["stale"] == outcome.answer.stale
        assert provenance["degraded"] == outcome.answer.degraded
        if flagged:
            continue  # degraded-path answers are allowed to differ
        compared += 1
        if not _value_close(reference.answer.value, outcome.answer.value):
            mismatches += 1
    assert compared > 0, "no non-degraded answers to compare"
    assert mismatches == 0, (
        f"{mismatches}/{compared} non-degraded answers diverged from the "
        "fault-free baseline"
    )

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
            base_summary["fresh"],
            base_summary["stale"],
            base_summary["degraded"],
            base_summary["query_failures"] + base_summary["update_failures"],
            base_metrics.worker_restarts,
            base_elapsed,
            throughput(base_elapsed),
        ],
        [
            "faulted",
            fault_summary["events"],
            fault_summary["completed"],
            fault_summary["fresh"],
            fault_summary["stale"],
            fault_summary["degraded"],
            fault_summary["query_failures"]
            + fault_summary["update_failures"],
            fault_metrics.worker_restarts,
            fault_elapsed,
            throughput(fault_elapsed),
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
            "fresh",
            "stale",
            "degraded",
            "typed_failures",
            "restarts",
            "elapsed_s",
            "events_per_s",
        ],
        rows,
        notes=(
            f"seed={SEED} schedule={schedule.signature()} "
            f"start_method={resolve_start_method()} "
            f"retries={fault_metrics.retries} "
            f"deadline_exceeded={fault_metrics.deadline_exceeded} "
            f"breaker_open={fault_metrics.breaker_open}; "
            f"parity: {compared} non-degraded answers == baseline @ 1e-9; "
            f"overhead bound: {OVERHEAD_FACTOR:g}x + {OVERHEAD_SLACK_S:g}s"
        ),
    )

    # -- E16b: per-kill recovery time to the first fresh answer.
    recovery_rows = []
    for fired in kills:
        first_fresh = None
        for outcome in faulted:
            if (
                not outcome.event.is_update
                and outcome.fresh
                and outcome.finished > fired.at_time
            ):
                candidate = outcome.finished - fired.at_time
                if first_fresh is None or candidate < first_fresh:
                    first_fresh = candidate
        recovery_rows.append(
            [
                fired.ordinal,
                fired.shard_index,
                fired.op,
                "-" if first_fresh is None else first_fresh,
            ]
        )
        assert first_fresh is not None, (
            f"no fresh answer ever completed after the kill at request "
            f"ordinal {fired.ordinal}"
        )
    report(
        "E16b",
        "Recovery time from worker kill to first fresh answer",
        ["kill_ordinal", "shard", "during_op", "time_to_fresh_s"],
        recovery_rows,
        notes=(
            f"seed={SEED} schedule={schedule.signature()}; clock: "
            "monotonic stamps shared by the fault log and chaos outcomes"
        ),
    )
