"""Self-healing serving suite.

The acceptance bar for the robustness layer: a killed or wedged shard
worker must be respawned under the supervisor's budget with staged
rebuilds replayed (never silently lost); queries must honour per-request
deadlines and retry transient worker failures within a bounded budget;
when a shard stays down, reads degrade explicitly (``stale=True`` /
``degraded=True`` provenance, never silent wrong answers) and updates
queue bounded or fail typed; stop/close must never hang or leak
processes mid-flight or mid-restart; and every failure path must be
reproducible from a seeded :class:`~repro.sharding.faults.FaultSchedule`.

Run under ``REPRO_PROC_START_METHOD=spawn`` in CI alongside the procpool
suite to catch fork-only pickling bugs in the respawn path.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import time

import pytest

from conftest import small_tuple_independent
from repro.exceptions import (
    DeadlineExceededError,
    ProcessPoolError,
    ShardUnavailableError,
    WorkerCrashError,
    WorkloadError,
)
from repro.models import ShardedDatabase, TupleIndependentDatabase
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
# Supervised pool: restart, heartbeat, staged replay, close escalation
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
            before = coordinator.mean_topk_symmetric_difference(K)
            victim = pool.shard_indices()[0]
            kill_worker(pool, victim)
            # The next summary fetch hits the dead worker, restarts it and
            # retries transparently; the merged answer stays exact.
            force_cold_reads(sharded)
            after = coordinator.mean_topk_symmetric_difference(K)
            reference = unsharded.mean_topk_symmetric_difference(K)
            assert after[0] == before[0] == reference[0]
            assert math.isclose(after[1], reference[1], abs_tol=TOLERANCE)
            assert pool.restart_count() == 1
            assert pool.stats().restarts == 1
            assert pool.supervisor.restarts(victim) == 1
        assert no_repro_workers_alive()

    def test_restart_budget_exhaustion_surfaces_crash(self):
        database = small_tuple_independent(12, count=10)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={
                "supervisor": SupervisorPolicy(
                    max_restarts=0, backoff_base=0.0, jitter=0.0
                )
            },
        ) as sharded:
            pool = sharded.process_pool()
            victim = pool.shard_indices()[0]
            kill_worker(pool, victim)
            with pytest.raises(WorkerCrashError):
                pool._request(victim, "ping")
            assert pool.restart_count() == 0

    def test_unsupervised_pool_keeps_legacy_crash_behaviour(self):
        database = small_tuple_independent(13, count=10)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={"supervise": False},
        ) as sharded:
            pool = sharded.process_pool()
            assert not pool.supervised
            victim = pool.shard_indices()[0]
            kill_worker(pool, victim)
            with pytest.raises(WorkerCrashError):
                pool._request(victim, "ping")
            assert pool.restart_worker(victim) is False

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

    def test_staged_rebuild_replayed_through_commit_crash(self):
        database = small_tuple_independent(15, count=12)
        with ShardedDatabase(
            database,
            2,
            executor="processes",
            executor_options={"supervisor": FAST_SUPERVISION},
        ) as sharded:
            pool = sharded.process_pool()
            coordinator = sharded.coordinator()
            before = coordinator.mean_topk_footrule(K)
            victim = pool.shard_indices()[0]
            key = sharded.shards()[victim].keys()[0]
            pending = sharded.prepare_update(key, probability=0.999)
            assert pool.staged_count(victim) == 1
            # The crash takes the staged patch down with the worker; the
            # supervised commit replays it on the respawned worker.
            kill_worker(pool, victim)
            sharded.apply_update(pending)
            assert pool.restart_count() >= 1
            assert pool.staged_count(victim) == 0
            force_cold_reads(sharded)
            columns = database.columns
            oracle = QuerySession(
                TupleIndependentDatabase(
                    [
                        (k, value, score, 0.999 if k == key else p)
                        for k, value, score, p in zip(
                            columns.keys,
                            columns.values,
                            columns.explicit_scores,
                            columns.probabilities,
                        )
                    ]
                ).columns
            )
            expected = oracle.mean_topk_footrule(K)
            # The change must show in the answer, or a lost replay would
            # pass unnoticed.
            assert not math.isclose(before[1], expected[1], abs_tol=1e-6)
            replayed = coordinator.mean_topk_footrule(K)
            assert replayed[0] == expected[0]
            assert math.isclose(replayed[1], expected[1], abs_tol=TOLERANCE)
            membership = coordinator.top_k_membership(K)
            for k, probability in oracle.top_k_membership(K).items():
                assert math.isclose(
                    membership[k], probability, abs_tol=TOLERANCE
                )

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
# Executor: deadlines, retries, breaker, degradation, update queue
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
                    assert not answer.stale and not answer.degraded
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


class TestRetries:
    def test_dropped_message_retries_to_fresh_answer(self):
        database = small_tuple_independent(23, count=12)
        unsharded = QuerySession(database.tree)
        injector = FaultInjector(FaultSchedule([FaultEvent(1, "drop")]))

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
                # warm_shards off: the drop must hit the query path itself,
                # not the advisory prefetch.
                async with ServingExecutor(
                    sharded, warm_shards=False, retry_backoff=0.0
                ) as executor:
                    answer = await executor.execute(
                        Query.named("mean_topk_symmetric_difference", K)
                    )
                    metrics = executor.metrics()
                    assert metrics.retries >= 1
                    assert not answer.stale and not answer.degraded
                    reference = unsharded.mean_topk_symmetric_difference(K)
                    assert answer.value[0] == reference[0]
                    assert math.isclose(
                        answer.value[1], reference[1], abs_tol=TOLERANCE
                    )

        run(scenario())


class TestDegradedServing:
    @staticmethod
    def _dead_shard_database(seed):
        return ShardedDatabase(
            small_tuple_independent(seed, count=12),
            2,
            executor="processes",
            executor_options={"supervise": False},
        )

    def test_stale_answer_served_from_cache(self):
        async def scenario():
            with self._dead_shard_database(31) as sharded:
                async with ServingExecutor(
                    sharded,
                    max_retries=0,
                    breaker_threshold=1,
                    staleness_bound_s=60.0,
                ) as executor:
                    fresh = await executor.execute(
                        Query.named("top_k_membership", K)
                    )
                    assert not fresh.stale
                    pool = sharded.process_pool()
                    victim = pool.shard_indices()[0]
                    kill_worker(pool, victim)
                    force_cold_reads(sharded)
                    stale = await executor.execute(
                        Query.named("top_k_membership", K)
                    )
                    assert stale.stale and not stale.degraded
                    assert stale.provenance()["stale"] is True
                    assert_value_parity(fresh.value, stale.value)
                    metrics = executor.metrics()
                    assert metrics.stale_served == 1
                    assert metrics.breaker_open >= 1
                    assert victim in executor.open_breakers()

        run(scenario())

    def test_degraded_answer_excludes_dead_shard(self):
        async def scenario():
            with self._dead_shard_database(32) as sharded:
                async with ServingExecutor(
                    sharded,
                    max_retries=0,
                    breaker_threshold=1,
                    staleness_bound_s=0.0,  # never serve stale: force fresh-minus-dead
                ) as executor:
                    await executor.start()
                    pool = sharded.process_pool()
                    victim = pool.shard_indices()[0]
                    kill_worker(pool, victim)
                    force_cold_reads(sharded)
                    degraded = await executor.execute(
                        Query.named("top_k_membership", K)
                    )
                    assert degraded.degraded and not degraded.stale
                    assert degraded.provenance()["degraded"] is True
                    # The degraded answer is exact over the live shards.
                    live = [
                        shard.session()
                        for shard in sharded.shards()
                        if shard.index != victim and shard.session()
                    ]
                    from repro.sharding import ShardedQuerySession

                    reference = ShardedQuerySession(live).top_k_membership(K)
                    assert_value_parity(reference, degraded.value)
                    dead_keys = {
                        key
                        for key in sharded.keys()
                        if sharded.shard_of(key) == victim
                    }
                    assert dead_keys
                    assert dead_keys.isdisjoint(degraded.value)
                    assert executor.metrics().degraded_served == 1

        run(scenario())

    def test_degraded_reads_disabled_raises_typed(self):
        async def scenario():
            with self._dead_shard_database(33) as sharded:
                async with ServingExecutor(
                    sharded,
                    max_retries=0,
                    breaker_threshold=1,
                    degraded_reads=False,
                ) as executor:
                    await executor.start()
                    pool = sharded.process_pool()
                    kill_worker(pool, pool.shard_indices()[0])
                    force_cold_reads(sharded)
                    with pytest.raises(WorkerCrashError):
                        await executor.execute(
                            Query.named("mean_topk_footrule", K)
                        )
                    # Breaker now open: the typed refusal is immediate.
                    with pytest.raises(ShardUnavailableError):
                        await executor.execute(
                            Query.named("mean_topk_footrule", K)
                        )

        run(scenario())

    def test_updates_to_dead_shard_queue_bounded(self):
        async def scenario():
            with self._dead_shard_database(34) as sharded:
                async with ServingExecutor(
                    sharded,
                    max_retries=0,
                    breaker_threshold=1,
                    update_queue_limit=1,
                ) as executor:
                    await executor.start()
                    pool = sharded.process_pool()
                    victim = pool.shard_indices()[0]
                    kill_worker(pool, victim)
                    keys = [
                        key
                        for key in sharded.keys()
                        if sharded.shard_of(key) == victim
                    ]
                    assert keys
                    await executor.update(keys[0], probability=0.4)
                    assert executor.queued_update_count() == 1
                    assert executor.metrics().updates_queued == 1
                    with pytest.raises(ShardUnavailableError):
                        await executor.update(keys[0], probability=0.6)

        run(scenario())

    def test_queued_updates_drain_on_recovery(self):
        database = small_tuple_independent(35, count=12)

        async def scenario():
            with ShardedDatabase(database, 2, executor="processes") as sharded:
                async with ServingExecutor(
                    sharded, breaker_threshold=1, update_queue_limit=8
                ) as executor:
                    await executor.start()
                    key = sharded.keys()[0]
                    shard_index = sharded.shard_of(key)
                    version_before = sharded.versions()[shard_index]
                    # Trip the breaker by hand: the worker is healthy, so
                    # the queued update demonstrably waits on the breaker,
                    # not on the worker.
                    executor._record_shard_failure(shard_index)
                    await executor.update(key, probability=0.3)
                    assert executor.queued_update_count() == 1
                    assert sharded.versions()[shard_index] == version_before
                    executor._record_shard_success(shard_index)
                    remaining = await executor.flush_updates()
                    assert remaining == 0
                    assert sharded.versions()[shard_index] == version_before + 1
                    assert executor.metrics().updates == 1

        run(scenario())


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
                executor = ServingExecutor(sharded, retry_backoff=0.0)
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
        metrics.retries = 2
        metrics.stale_served = 1
        before = metrics.snapshot(ipc=IpcSnapshot(commands=5, restarts=1))
        metrics.count_query("top_k_membership")
        metrics.count_query("mean_topk_footrule")
        metrics.retries = 5
        metrics.deadline_exceeded = 1
        metrics.breaker_open = 2
        metrics.stale_served = 3
        metrics.degraded_served = 1
        metrics.updates_queued = 4
        after = metrics.snapshot(ipc=IpcSnapshot(commands=9, restarts=3))
        delta = after - before
        assert delta.queries == 2
        assert delta.retries == 3
        assert delta.deadline_exceeded == 1
        assert delta.breaker_open == 2
        assert delta.stale_served == 2
        assert delta.degraded_served == 1
        assert delta.updates_queued == 4
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
                    async with ServingExecutor(
                        sharded, retry_backoff=0.0
                    ) as executor:
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
        # Supervision healed every update, so both runs hold equal state
        # and the non-degraded answers must agree to 1e-9.
        assert fault_summary["update_failures"] == 0
        assert base_summary["update_failures"] == 0
        compared = 0
        for reference, outcome in zip(baseline, faulted):
            if reference.event.is_update:
                continue
            if reference.fresh and outcome.fresh:
                assert_value_parity(
                    reference.answer.value, outcome.answer.value
                )
                compared += 1
        assert compared > 0
        assert no_repro_workers_alive()
