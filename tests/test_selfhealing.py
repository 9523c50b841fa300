"""Self-healing serving suite.

The acceptance bar for the robustness layer: a killed or wedged shard
worker must be respawned from the parent's columns under the
supervisor's budget, and a worker that misses a commit must come back
holding exactly the parent's state; queries must honour per-request
deadlines; when a worker cannot answer (it failed, its restart budget is
spent, or its breaker is open) its shard's reads fail over to the
parent's columns and stay exact to 1e-9, and updates to it still land;
stop/close must never hang or leak processes mid-flight or mid-restart;
and every failure path must be reproducible from a seeded
:class:`~repro.sharding.faults.FaultSchedule`.

Run under ``REPRO_PROC_START_METHOD=spawn`` in CI alongside the procpool
suite to catch fork-only pickling bugs in the respawn path.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import random
import sys
import threading
import time

import pytest

from conftest import parent_summary, small_bid, small_tuple_independent
from repro import consensus
from repro.consensus import mean_topk_footrule, mean_topk_symmetric_difference
from repro.engine import numpy_available, use_backend
from repro.exceptions import (
    DeadlineExceededError,
    WorkerCrashError,
    WorkloadError,
)
from repro.models import BlockIndependentDatabase, ShardedDatabase
from repro.query import Query
from repro.serving import ServingExecutor
from repro.serving.metrics import ServingMetrics
from repro.sharding import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    IpcSnapshot,
    SupervisorPolicy,
    WorkerSupervisor,
)
from repro.session import QuerySession
from repro.workloads import chaos_replay, chaos_summary, update_heavy_traffic
from repro.workloads.generators import random_tuple_independent_database

TOLERANCE = 1e-9
K = 4

#: Deterministic query kinds only (no Monte-Carlo), so two replays of the
#: same stream against equal databases are comparable to 1e-9.
EXACT_MIX = {
    "mean_topk_symmetric_difference": 3.0,
    "mean_topk_footrule": 2.0,
    "top_k_membership": 2.0,
}

#: Restart fast and generously in tests: no waiting, no budget pressure.
FAST_SUPERVISION = SupervisorPolicy(
    max_restarts=10, backoff_base=0.0, jitter=0.0, seed=0
)


def assert_value_parity(expected, actual, tol=TOLERANCE):
    if isinstance(expected, dict):
        assert set(expected) == set(actual)
        for key in expected:
            assert_value_parity(expected[key], actual[key], tol)
    elif isinstance(expected, (tuple, list)):
        assert len(expected) == len(actual)
        for left, right in zip(expected, actual):
            assert_value_parity(left, right, tol)
    elif isinstance(expected, float):
        assert math.isclose(expected, float(actual), abs_tol=tol)
    else:
        assert expected == actual


def no_repro_workers_alive():
    return not any(
        child.name.startswith("repro-shard")
        for child in multiprocessing.active_children()
        if child.is_alive()
    )


def kill_worker(pool, shard_index):
    """Hard-kill one worker through the deterministic exit-now hook."""
    with pytest.raises(WorkerCrashError):
        pool._request(shard_index, "exit-now")


def force_cold_reads(sharded):
    """Drop every warm artifact so the next read must consult the workers.

    The coordinator memoizes merged artifacts per version vector and the
    pool caches per-shard partials per version: with both warm, a read
    after a worker kill would be answered without any worker round-trip
    and the failure path under test would never engage.
    """
    sharded.process_pool().forget_cached_summaries()
    sharded.coordinator().invalidate()


# ---------------------------------------------------------------------------
# Supervisor policy (pure, no processes)
# ---------------------------------------------------------------------------
class TestWorkerSupervisor:
    def test_budget_and_recovery(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(max_restarts=2, backoff_base=0.0, jitter=0.0)
        )
        assert supervisor.admit_restart(0) == 0.0
        assert supervisor.admit_restart(0) == 0.0
        assert supervisor.admit_restart(0) is None  # budget spent
        assert supervisor.restarts(0) == 2
        supervisor.record_recovery(0)
        assert supervisor.admit_restart(0) == 0.0  # loop reset
        assert supervisor.restarts() == 3

    def test_budget_is_per_shard(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(max_restarts=1, backoff_base=0.0, jitter=0.0)
        )
        assert supervisor.admit_restart(0) is not None
        assert supervisor.admit_restart(0) is None
        assert supervisor.admit_restart(1) is not None

    def test_backoff_grows_and_caps(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(
                max_restarts=10,
                backoff_base=0.1,
                backoff_factor=2.0,
                backoff_cap=0.3,
                jitter=0.0,
            )
        )
        waits = [supervisor.admit_restart(3) for _ in range(4)]
        assert waits == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
            pytest.approx(0.3),  # capped
        ]

    def test_seeded_jitter_is_deterministic(self):
        policy = SupervisorPolicy(
            max_restarts=5, backoff_base=0.05, jitter=0.5, seed=99
        )
        first = [WorkerSupervisor(policy).admit_restart(0)]
        second = [WorkerSupervisor(policy).admit_restart(0)]
        assert first == second
        assert first[0] >= 0.05


# ---------------------------------------------------------------------------
# Fault schedules (pure, no processes)
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_seeded_is_deterministic(self):
        build = lambda: FaultSchedule.seeded(
            5, horizon=80, kills=2, stalls=2, delays=1, drops=2, shard_count=4
        )
        assert build() == build()
        assert build().signature() == build().signature()
        other = FaultSchedule.seeded(6, horizon=80, kills=2, stalls=2)
        assert other.signature() != build().signature()

    def test_periodic_and_merged(self):
        kills = FaultSchedule.periodic("kill", start=10, every=20, count=3)
        assert [event.at for event in kills.events] == [10, 30, 50]
        stalls = FaultSchedule.periodic(
            "stall", start=15, every=20, count=2, seconds=0.5
        )
        merged = kills.merged(stalls)
        assert len(merged) == 5
        assert [event.at for event in merged.events] == [10, 15, 30, 35, 50]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            FaultEvent(0, "kill")
        with pytest.raises(WorkloadError):
            FaultEvent(1, "meteor")
        with pytest.raises(WorkloadError):
            FaultEvent(1, "stall", seconds=-1.0)
        with pytest.raises(WorkloadError):
            FaultSchedule.seeded(1, horizon=2, kills=2, stalls=2)

    def test_injector_fires_at_ordinals_once(self):
        schedule = FaultSchedule(
            [FaultEvent(2, "drop"), FaultEvent(4, "delay", seconds=0.0)]
        )
        injector = FaultInjector(schedule)
        fired = [injector.next_event(0, "ping") for _ in range(6)]
        kinds = [event.kind if event else None for event in fired]
        assert kinds == [None, "drop", None, "delay", None, None]
        assert injector.pending_count == 0
        assert [f.ordinal for f in injector.fired] == [2, 4]
        assert injector.fired_of_kind("drop")[0].op == "ping"

    def test_shard_pinned_event_stays_armed(self):
        injector = FaultInjector(FaultSchedule([FaultEvent(1, "drop", shard=2)]))
        assert injector.next_event(0, "ping") is None  # due, wrong shard
        assert injector.next_event(1, "ping") is None
        event = injector.next_event(2, "ping")  # armed until shard 2 shows
        assert event is not None and event.kind == "drop"


# ---------------------------------------------------------------------------
# Supervised pool: restart, heartbeat, commit respawn, close escalation
# ---------------------------------------------------------------------------
class TestSupervisedPool:
    def test_kill_then_self_heal_with_parity(self):
        database = small_tuple_independent(11, count=12)
        unsharded = QuerySession(database.tree)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={"supervisor": FAST_SUPERVISION},
        ) as sharded:
            pool = sharded.process_pool()
            coordinator = sharded.coordinator()
            before = mean_topk_symmetric_difference(coordinator, K)
            victim = pool.shard_indices()[0]
            kill_worker(pool, victim)
            # The next summary fetch hits the dead worker, restarts it and
            # retries transparently; the merged answer stays exact.
            force_cold_reads(sharded)
            after = mean_topk_symmetric_difference(coordinator, K)
            reference = mean_topk_symmetric_difference(unsharded, K)
            assert after[0] == before[0] == reference[0]
            assert math.isclose(after[1], reference[1], abs_tol=TOLERANCE)
            assert pool.restart_count() == 1
            assert pool.stats().restarts == 1
            assert pool.supervisor.restarts(victim) == 1
        assert no_repro_workers_alive()

    @pytest.mark.parametrize(
        "options",
        [
            {"supervisor": SupervisorPolicy(max_restarts=0, jitter=0.0)},
            {"supervise": False},
        ],
        ids=["budget-spent", "unsupervised"],
    )
    def test_unrestartable_crash_takes_the_shard_down(self, options):
        database = small_tuple_independent(12, count=10)
        with ShardedDatabase(
            database, 2, executor="processes", executor_options=options
        ) as sharded:
            pool = sharded.process_pool()
            victim = pool.shard_indices()[0]
            kill_worker(pool, victim)
            with pytest.raises(WorkerCrashError):
                pool._request(victim, "ping")
            assert pool.restart_worker(victim) is False
            assert pool.restart_count() == 0
            assert not pool.serves(victim)

    def test_check_workers_heartbeat_restarts_dead(self):
        database = small_tuple_independent(14, count=10)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={"supervisor": FAST_SUPERVISION},
        ) as sharded:
            pool = sharded.process_pool()
            assert pool.check_workers() == []
            victim = pool.shard_indices()[-1]
            handle = pool._workers[victim]
            handle.process.terminate()
            handle.process.join(5.0)
            assert pool.check_workers() == [victim]
            # Restarted in the same sweep: alive again, answers requests.
            assert pool.check_workers() == []
            assert pool._request(victim, "ping") == "pong"
            assert pool.restart_count() == 1

    def test_update_survives_commit_crash(self):
        database = small_tuple_independent(15, count=12)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={"supervisor": FAST_SUPERVISION},
        ) as sharded:
            pool = sharded.process_pool()
            coordinator = sharded.coordinator()
            before = mean_topk_footrule(coordinator, K)
            victim = pool.shard_indices()[0]
            key = sharded.shards()[victim].keys()[0]
            pending = sharded.prepare_update(key, probability=0.999)
            # The worker is dead when the commit reaches it; the parent
            # commits anyway and respawns the worker from its new columns.
            kill_worker(pool, victim)
            sharded.apply_update(pending)
            assert pool.restart_count() >= 1
            force_cold_reads(sharded)
            ((value, score, _),) = _blocks(database)[key]
            oracle = _oracle(database, {key: [(value, score, 0.999)]})
            # The change must show in the answer, or a lost update would
            # pass unnoticed.
            expected = mean_topk_footrule(oracle, K)
            assert not math.isclose(before[1], expected[1], abs_tol=1e-6)
            for kind in EXACT_MIX:
                assert_value_parity(
                    _exact(oracle, kind), _exact(coordinator, kind)
                )
            assert_workers_match_parent(sharded)

    def test_close_escalates_past_wedged_worker(self):
        database = small_tuple_independent(16, count=10)
        sharded = ShardedDatabase(database, 2, executor="processes")
        pool = sharded.process_pool()
        handles = list(pool._workers.values())
        wedged = handles[0]
        # Wedge the worker without consuming the reply: it sleeps through
        # the cooperative shutdown send and must be terminated instead.
        with wedged.lock:
            wedged.connection.send(("stall", 30.0))
        started = time.monotonic()
        pool.close(join_timeout=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        for handle in handles:
            assert not handle.process.is_alive()
        assert no_repro_workers_alive()


# ---------------------------------------------------------------------------
# Executor: deadlines, failover, breaker
# ---------------------------------------------------------------------------
def run(coroutine):
    return asyncio.run(coroutine)


class TestDeadlines:
    def test_stalled_shard_misses_deadline(self):
        database = small_tuple_independent(21, count=12)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(1, "stall", seconds=1.0)])
        )

        async def scenario():
            with ShardedDatabase(
                database,
                2,
                executor="processes",
                executor_options={
                    "supervisor": FAST_SUPERVISION,
                    "fault_injector": injector,
                },
            ) as sharded:
                async with ServingExecutor(sharded) as executor:
                    with pytest.raises(DeadlineExceededError):
                        await executor.execute(
                            Query.named("top_k_membership", K),
                            deadline_ms=100.0,
                        )
                    assert executor.metrics().deadline_exceeded == 1
                    # The stall passes; the same query then answers fresh.
                    answer = await executor.execute(
                        Query.named("top_k_membership", K)
                    )
                    assert answer.value is not None
            assert injector.fired_of_kind("stall")

        run(scenario())

    def test_zero_or_negative_deadline_disables(self):
        database = small_tuple_independent(22, count=10)

        async def scenario():
            with ShardedDatabase(database, 2, executor="processes") as sharded:
                async with ServingExecutor(
                    sharded, deadline_ms=-5.0
                ) as executor:
                    answer = await executor.execute(
                        Query.named("mean_topk_footrule", K)
                    )
                    assert answer.value is not None
                    assert executor.metrics().deadline_exceeded == 0

        run(scenario())


def _blocks(database):
    """``{key: [(value, score, probability), ...]}`` of a database."""
    columns = database.columns
    blocks = {}
    for row, block in enumerate(columns.blocks):
        blocks.setdefault(columns.keys[block], []).append(
            (
                columns.values[row],
                columns.explicit_scores[row],
                columns.probabilities[row],
            )
        )
    return blocks


def _oracle(database, replaced=()):
    """An unsharded session over ``database``, the ``replaced`` blocks
    swapped in."""
    blocks = {**_blocks(database), **dict(replaced)}
    # A tuple-independent database is the BID one with single alternatives.
    return QuerySession(BlockIndependentDatabase(list(blocks.items())).columns)


def _exact(session, kind):
    """The ``EXACT_MIX`` answer of ``kind`` at ``K``, read off ``session``:
    the consensus algorithm, or the memoized membership statistic."""
    if kind == "top_k_membership":
        return session.top_k_membership(K)
    return getattr(consensus, kind)(session, K)


def assert_workers_match_parent(sharded):
    """Every worker's summary equals the parent-side one to 1e-12."""
    pool = sharded.process_pool()

    def content(summary):
        rows = [list(row) for row in summary.prefix_table]
        return summary.keys, list(summary.probabilities), rows

    for index in pool.shard_indices():
        worker = pool.summary(index, K)
        parent = parent_summary(sharded, index, K)
        assert_value_parity(content(parent), content(worker), 1e-12)


async def assert_exact(executor, oracle):
    """Every exact query kind answers like the unsharded oracle."""
    for kind in EXACT_MIX:
        answer = await executor.execute(Query.named(kind, K))
        assert_value_parity(_exact(oracle, kind), answer.value)


class TestFailover:
    """A shard whose worker cannot answer is answered from the parent's
    columns: exact, current, and counted as ``failover_served``."""

    @pytest.mark.parametrize("backend_name", ["python", "numpy"])
    @pytest.mark.parametrize("layout", ["ti", "bid"])
    @pytest.mark.parametrize("outage", ["breaker", "budget"])
    def test_outage_reads_and_updates_stay_exact(
        self, backend_name, layout, outage
    ):
        if backend_name == "numpy" and not numpy_available():
            pytest.skip("numpy not installed")
        if layout == "ti":
            database = small_tuple_independent(51, count=12)
        else:
            database = small_bid(52, blocks=10, max_alternatives=3)
        spent = SupervisorPolicy(max_restarts=0, backoff_base=0.0, jitter=0.0)

        options = {
            "supervisor": spent,
            "breaker_threshold": 1,
            "breaker_cooldown_s": 60.0,
        }

        async def scenario():
            with ShardedDatabase(
                database, 3, executor="processes", executor_options=options
            ) as sharded:
                async with ServingExecutor(sharded) as executor:
                    pool = sharded.process_pool()
                    if layout == "bid":
                        # BID summaries never reach a worker, so the pool
                        # spawns none and there is no worker to lose.
                        assert pool.worker_count() == 0
                        victim = sharded.shard_of(sharded.keys()[0])
                    elif outage == "breaker":
                        # The worker is healthy: only the breaker keeps
                        # the reads away from it.
                        victim = pool.shard_indices()[0]
                        pool._record_read(victim, failed=True)
                    else:
                        victim = pool.shard_indices()[0]
                        kill_worker(pool, victim)
                    force_cold_reads(sharded)
                    await assert_exact(executor, _oracle(database))
                    if layout == "ti":
                        assert executor.metrics().failover_served >= 1
                    if layout == "bid":
                        assert pool.worker_count() == 0
                    elif outage == "breaker":
                        assert victim in executor.open_breakers()
                    else:
                        assert not pool.serves(victim)
                    key = next(
                        k
                        for k in sharded.keys()
                        if sharded.shard_of(k) == victim
                    )
                    halved = [
                        (value, score, probability / 2)
                        for value, score, probability in _blocks(database)[key]
                    ]
                    if layout == "ti":
                        await executor.update(
                            key, probability=halved[0][2]
                        )
                    else:
                        sharded.update_block(key, halved)
                    updated = _oracle(database, {key: halved})
                    membership = updated.top_k_membership(K)
                    assert not math.isclose(
                        membership[key],
                        _oracle(database).top_k_membership(K)[key],
                        abs_tol=1e-6,
                    )
                    await assert_exact(executor, updated)

        with use_backend(backend_name):
            run(scenario())
        assert no_repro_workers_alive()

    def test_one_dead_worker_fails_over_alone(self):
        database = small_tuple_independent(54, count=16)
        oracle = _oracle(database)

        async def scenario():
            with ShardedDatabase(
                database,
                4,
                partitioner="range",
                executor="processes",
                executor_options={"supervise": False},
            ) as sharded:
                async with ServingExecutor(sharded) as executor:
                    pool = sharded.process_pool()
                    assert len(pool.shard_indices()) == 4
                    victim = pool.shard_indices()[1]
                    handle = pool._workers[victim]
                    handle.process.terminate()
                    handle.process.join(5.0)
                    force_cold_reads(sharded)
                    before = pool.stats().summaries
                    answer = await executor.execute(
                        Query.named("mean_topk_footrule", K)
                    )
                    assert_value_parity(
                        mean_topk_footrule(oracle, K), answer.value
                    )
                    # The three healthy shards still shipped their own
                    # summaries; only the dead one was computed here.
                    assert pool.stats().summaries - before == 3
                    assert executor.metrics().failover_served == 1

        run(scenario())

    def test_dropped_message_fails_over_exactly(self):
        database = small_tuple_independent(23, count=12)
        injector = FaultInjector(FaultSchedule([FaultEvent(1, "drop")]))
        options = {"supervisor": FAST_SUPERVISION, "fault_injector": injector}

        async def scenario():
            with ShardedDatabase(
                database, 2, executor="processes", executor_options=options
            ) as sharded:
                async with ServingExecutor(sharded) as executor:
                    await assert_exact(executor, _oracle(database))
                    assert executor.metrics().failover_served == 1
            assert injector.fired_of_kind("drop")

        run(scenario())

    @pytest.mark.parametrize("probe", ["answers", "fails"])
    def test_half_open_probe_closes_or_reopens_the_breaker(self, probe):
        database = small_tuple_independent(55, count=12)
        options = {"breaker_threshold": 3, "breaker_cooldown_s": 60.0}

        async def scenario():
            with ShardedDatabase(
                database, 2, executor="processes", executor_options=options
            ) as sharded:
                async with ServingExecutor(sharded) as executor:
                    pool = sharded.process_pool()
                    victim = pool.shard_indices()[0]
                    for _ in range(3):
                        pool._record_read(victim, failed=True)
                    assert executor.open_breakers() == (victim,)
                    # Age the trip past its cooldown: the breaker is
                    # half-open, and the next read probes the worker.
                    pool._opened[victim] -= 120.0
                    if probe == "fails":
                        pool._faults = FaultInjector(
                            FaultSchedule([FaultEvent(1, "drop", shard=victim)])
                        )
                    force_cold_reads(sharded)
                    await assert_exact(executor, _oracle(database))
                    metrics = executor.metrics()
                    if probe == "answers":
                        assert executor.open_breakers() == ()
                        assert metrics.failover_served == 0
                    else:
                        # One failed probe re-opens the breaker at once,
                        # without another run of threshold failures.
                        assert pool._faults.fired_of_kind("drop")
                        assert executor.open_breakers() == (victim,)
                        assert metrics.failover_served >= 1
                    assert metrics.breaker_open == 0  # a re-open is no trip

        run(scenario())

    def test_executors_sharing_a_pool_count_their_own_failovers(self):
        database = small_tuple_independent(59, count=16)
        query = Query.named("mean_topk_footrule", K)
        options = {
            "supervise": False,
            "breaker_threshold": 1,
            "breaker_cooldown_s": 60.0,
        }

        async def scenario():
            with ShardedDatabase(
                database,
                4,
                partitioner="range",
                executor="processes",
                executor_options=options,
            ) as sharded:
                async with ServingExecutor(
                    sharded, result_cache=False
                ) as first, ServingExecutor(
                    sharded, result_cache=False
                ) as second:
                    pool = sharded.process_pool()
                    victim = pool.shard_indices()[2]
                    handle = pool._workers[victim]
                    handle.process.terminate()
                    handle.process.join(5.0)
                    force_cold_reads(sharded)
                    await first.execute(query)
                    served = first.metrics().failover_served
                    assert served >= 1
                    assert first.metrics().breaker_open == 1
                    assert second.metrics().failover_served == 0
                    force_cold_reads(sharded)
                    answer = await second.execute(query)
                    assert_value_parity(
                        mean_topk_footrule(_oracle(database), K), answer.value
                    )
                    assert second.metrics().failover_served >= 1
                    assert second.metrics().breaker_open == 0
                    assert first.metrics().failover_served == served
                    # One owner: both executors see the pool's breaker.
                    assert first.open_breakers() == (victim,)
                    assert second.open_breakers() == (victim,)

        run(scenario())

    def test_commit_timeout_respawns_worker_from_parent(self):
        database = small_tuple_independent(56, count=12)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(2, "stall", seconds=30.0)])
        )
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={
                "supervisor": FAST_SUPERVISION,
                "fault_injector": injector,
            },
        ) as sharded:
            pool = sharded.process_pool()
            key = sharded.keys()[0]
            victim = sharded.shard_of(key)
            assert pool._request(victim, "ping") == "pong"  # request 1
            # Request 2, the commit, stalls past the timeout, so the
            # worker's state is unknown.
            pool._request_timeout = 0.5
            sharded.update_tuple(key, probability=0.999)
            pool._request_timeout = 120.0
            (fired,) = injector.fired
            assert (fired.op, fired.shard_index) == ("replace", victim)
            assert pool.restart_count() == 1
            assert 0.999 in sharded.shards()[victim].columns.probabilities
            assert_workers_match_parent(sharded)
        assert no_repro_workers_alive()


    def test_concurrent_updates_under_kills_keep_workers_in_sync(self):
        database = small_tuple_independent(57, count=16)
        injector = FaultInjector(
            FaultSchedule.periodic("kill", start=3, every=7, count=4)
        )
        options = {"supervisor": FAST_SUPERVISION, "fault_injector": injector}
        writers = 4  # more threads than cores
        with ShardedDatabase(
            database, 3, executor="processes", executor_options=options
        ) as sharded:
            sharded.process_pool()  # start the workers before the writers
            keys = sharded.keys()
            final = {}

            def write(offset):
                rng = random.Random(offset)
                for _ in range(4):
                    for key in keys[offset::writers]:
                        probability = round(rng.uniform(0.05, 0.95), 6)
                        # No retry: writers serialise on the update lock.
                        sharded.update_tuple(key, probability=probability)
                        final[key] = probability

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=write, args=(offset,))
                    for offset in range(writers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(final) == len(keys)
            assert len(injector.fired_of_kind("kill")) == 4
            blocks = _blocks(database)
            oracle = _oracle(
                database,
                {
                    key: [(*blocks[key][0][:2], probability)]
                    for key, probability in final.items()
                },
            )
            force_cold_reads(sharded)
            coordinator = sharded.coordinator()
            for kind in EXACT_MIX:
                assert_value_parity(
                    _exact(oracle, kind), _exact(coordinator, kind)
                )
            assert_workers_match_parent(sharded)


# ---------------------------------------------------------------------------
# Stop/close with batches in flight and mid-restart
# ---------------------------------------------------------------------------
class TestStopClose:
    def test_stop_with_batch_in_flight(self):
        database = small_tuple_independent(41, count=12)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(1, "stall", seconds=0.3)])
        )

        async def scenario():
            with ShardedDatabase(
                database,
                2,
                executor="processes",
                executor_options={
                    "supervisor": FAST_SUPERVISION,
                    "fault_injector": injector,
                },
            ) as sharded:
                executor = ServingExecutor(sharded)
                await executor.start()
                tasks = [
                    asyncio.ensure_future(
                        executor.execute(Query.named("top_k_membership", K))
                    )
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)  # batch underway, stalled
                await executor.stop()
                answers = await asyncio.gather(*tasks)
                for answer in answers:
                    assert answer.value is not None
                metrics = executor.metrics()
                assert metrics.queries + metrics.coalesced == 3
            assert no_repro_workers_alive()

        run(scenario())

    def test_stop_mid_worker_restart(self):
        database = small_tuple_independent(42, count=12)

        async def scenario():
            with ShardedDatabase(
                database,
                2,
                executor="processes",
                executor_options={"supervisor": FAST_SUPERVISION},
            ) as sharded:
                executor = ServingExecutor(sharded)
                await executor.start()
                pool = sharded.process_pool()
                victim = pool.shard_indices()[0]
                kill_worker(pool, victim)
                force_cold_reads(sharded)
                # The query self-heals through the restart; stop() right
                # behind it must drain cleanly, not hang.
                task = asyncio.ensure_future(
                    executor.execute(Query.named("mean_topk_footrule", K))
                )
                await asyncio.sleep(0.01)
                await executor.stop()
                answer = await task
                assert answer.value is not None
                assert executor.metrics().worker_restarts >= 0
            assert no_repro_workers_alive()

        run(scenario())

    def test_close_is_reentrant_and_leaves_no_processes(self):
        database = small_tuple_independent(43, count=10)

        async def scenario():
            with ShardedDatabase(database, 2, executor="processes") as sharded:
                executor = ServingExecutor(sharded)
                await executor.start()
                await executor.execute(Query.named("top_k_membership", K))
                executor.close()
                executor.close()  # idempotent
                await executor.stop()  # no-op after close
            assert no_repro_workers_alive()

        run(scenario())


# ---------------------------------------------------------------------------
# Metrics snapshots
# ---------------------------------------------------------------------------
class TestMetricsDelta:
    def test_snapshot_subtraction(self):
        metrics = ServingMetrics()
        metrics.count_query("top_k_membership")
        metrics.failover_served = 2
        metrics.stale_reads = 1
        before = metrics.snapshot(ipc=IpcSnapshot(commands=5, restarts=1))
        metrics.count_query("top_k_membership")
        metrics.count_query("mean_topk_footrule")
        metrics.deadline_exceeded = 1
        metrics.breaker_open = 2
        metrics.failover_served = 5
        metrics.stale_reads = 4
        after = metrics.snapshot(ipc=IpcSnapshot(commands=9, restarts=3))
        delta = after - before
        assert delta.queries == 2
        assert delta.deadline_exceeded == 1
        assert delta.breaker_open == 2
        assert delta.failover_served == 3
        assert delta.stale_reads == 3
        assert delta.worker_restarts == 2
        assert delta.ipc.commands == 4
        assert dict(delta.queries_by_kind) == {
            "top_k_membership": 1,
            "mean_topk_footrule": 1,
        }
        # Gauges come from the newer snapshot, not a meaningless delta.
        assert delta.latency_mean == after.latency_mean

    def test_worker_restarts_mirror_ipc(self):
        metrics = ServingMetrics()
        assert metrics.snapshot().worker_restarts == 0
        snapshot = metrics.snapshot(ipc=IpcSnapshot(restarts=7))
        assert snapshot.worker_restarts == 7


# ---------------------------------------------------------------------------
# Chaos smoke: seeded kills under update-heavy traffic, full accounting
# ---------------------------------------------------------------------------
class TestChaosReplay:
    def test_seeded_chaos_recovers_with_parity(self):
        events = None
        schedule = FaultSchedule.periodic(
            "kill", start=8, every=30, count=2
        ).merged(FaultSchedule([FaultEvent(20, "drop")]))

        def serve(fault_injector):
            database = random_tuple_independent_database(14, rng=61)
            with ShardedDatabase(
                database,
                2,
                executor="processes",
                executor_options={
                    "supervisor": FAST_SUPERVISION,
                    "fault_injector": fault_injector,
                },
            ) as sharded:
                stream = update_heavy_traffic(
                    sharded.keys(), 60, rng=17, query_mix=EXACT_MIX
                )
                nonlocal events
                if events is None:
                    events = stream
                assert [e.kind for e in stream] == [e.kind for e in events]

                async def drive():
                    async with ServingExecutor(sharded) as executor:
                        outcomes = await chaos_replay(
                            executor, stream, concurrency=4
                        )
                        return outcomes, executor.metrics()

                return asyncio.run(drive())

        baseline, _ = serve(None)
        injector = FaultInjector(schedule)
        faulted, metrics = serve(injector)

        base_summary = chaos_summary(baseline)
        fault_summary = chaos_summary(faulted)
        # Every request terminates: answered or typed, never hung.
        assert fault_summary["completed"] == fault_summary["events"]
        assert base_summary["completed"] == base_summary["events"]
        # The kills actually happened and were healed.
        assert injector.fired_of_kind("kill")
        assert metrics.worker_restarts >= 1
        # Every update landed, so both runs hold equal state, and every
        # answer -- failover or not -- must agree to 1e-9.
        assert fault_summary["update_failures"] == 0
        assert base_summary["update_failures"] == 0
        assert fault_summary["answered"] == fault_summary["queries"]
        compared = 0
        for reference, outcome in zip(baseline, faulted):
            if reference.event.is_update:
                continue
            assert_value_parity(reference.answer.value, outcome.answer.value)
            compared += 1
        assert compared == fault_summary["queries"]
        assert no_repro_workers_alive()
