"""Process-backed shard execution suite.

The acceptance bar for ``executor="processes"``: every merged statistic and
consensus answer gathered from worker processes must match the in-process
sharded coordinator AND an unsharded session to 1e-9, on both backends,
for 1/2/4 shards, hash and range partitioning, tuple-independent and BID
data; the version-checked update protocol must stay correct across the
process boundary (a stale race leaves the worker at the winner); a
request to a dead worker must surface
:class:`~repro.exceptions.WorkerCrashError` without hanging; and seeded
traffic replay must be byte-identical under both executors.

Run under ``REPRO_PROC_START_METHOD=spawn`` in CI to catch fork-only
pickling bugs (everything a worker needs must be importable + picklable).
"""

from __future__ import annotations

import asyncio
import math

import pytest

from conftest import small_bid, small_tuple_independent
from repro import connect
from repro.engine import numpy_available, use_backend
from repro.exceptions import (
    ModelError,
    ProcessPoolError,
    WorkerCrashError,
)
from repro.models import BlockIndependentDatabase, ShardedDatabase
from repro.models.sharded import StaleUpdateError
from repro.query import Query
from repro.serving import ServingExecutor
from repro.session import CacheInfo, QuerySession
from repro.sharding.procpool import IpcSnapshot, resolve_start_method
from repro.workloads.generators import random_tuple_independent_database
from repro.workloads.traffic import (
    generate_traffic,
    replay_traffic,
    traffic_signature,
)

BACKENDS = ["python", "numpy"]
TOLERANCE = 1e-9
K = 5


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    return backend_name


def assert_rank_matrix_parity(reference_session, session, max_rank=None):
    reference = reference_session.rank_matrix(max_rank)
    merged = session.rank_matrix(max_rank)
    assert set(reference.keys()) == set(merged.keys())
    assert reference.max_rank == merged.max_rank
    for key in reference.keys():
        for expected, actual in zip(reference.row(key), merged.row(key)):
            assert abs(expected - actual) < TOLERANCE


def assert_consensus_parity(reference_session, session, k):
    mean_ref = reference_session.mean_topk_symmetric_difference(k)
    mean_got = session.mean_topk_symmetric_difference(k)
    assert mean_got[0] == mean_ref[0]
    assert math.isclose(mean_got[1], mean_ref[1], abs_tol=TOLERANCE)

    foot_ref = reference_session.mean_topk_footrule(k)
    foot_got = session.mean_topk_footrule(k)
    assert foot_got[0] == foot_ref[0]
    assert math.isclose(foot_got[1], foot_ref[1], abs_tol=TOLERANCE)

    membership_ref = reference_session.top_k_membership(k)
    membership_got = session.top_k_membership(k)
    assert set(membership_ref) == set(membership_got)
    for key, expected in membership_ref.items():
        assert abs(membership_got[key] - expected) < TOLERANCE


class TestProcessPoolParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_tuple_independent(self, backend_name, shard_count, partitioner):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_tuple_independent_database(17, rng=41)
            unsharded = QuerySession(database.tree)
            threads = ShardedDatabase(
                database, shard_count, partitioner=partitioner
            ).coordinator()
            with ShardedDatabase(
                database,
                shard_count,
                partitioner=partitioner,
                executor="processes",
            ) as sharded:
                coordinator = sharded.coordinator()
                assert_rank_matrix_parity(unsharded, coordinator, K)
                assert_rank_matrix_parity(threads, coordinator, K)
                assert_consensus_parity(unsharded, coordinator, K)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("shard_count", [2, 4])
    def test_block_independent(self, backend_name, shard_count):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = small_bid(23, blocks=8, max_alternatives=3)
            unsharded = QuerySession(database.tree)
            with ShardedDatabase(
                database, shard_count, executor="processes"
            ) as sharded:
                coordinator = sharded.coordinator()
                assert_rank_matrix_parity(unsharded, coordinator, K)
                assert coordinator.layout_kind() == "bid"
                membership_ref = unsharded.top_k_membership(3)
                membership_got = coordinator.top_k_membership(3)
                for key, expected in membership_ref.items():
                    assert abs(membership_got[key] - expected) < TOLERANCE

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_bid_layout_when_first_shard_looks_independent(self, executor):
        # Shard 0 holds only single-alternative blocks, so on its own it
        # is tuple-independent; the sharded database is still BID.
        database = BlockIndependentDatabase(
            [
                ("a", [(1.0, 1.0, 0.5)]),
                ("b", [(2.0, 2.0, 0.3), (3.0, 3.0, 0.4)]),
                ("c", [(4.0, 4.0, 0.6)]),
                ("d", [(5.0, 5.0, 0.7)]),
            ]
        )
        query = Query.topk(k=2)
        assert "layout=bid" in connect(database).explain(query)
        with ShardedDatabase(
            database,
            2,
            partitioner=lambda key: 0 if key in ("c", "d") else 1,
            executor=executor,
        ) as sharded:
            assert sharded.shards()[0].keys() == ["c", "d"]
            assert sharded.coordinator().layout_kind() == "bid"
            assert "layout=bid" in connect(sharded).explain(query)

    def test_best_scores_served_from_layout(self):
        database = small_tuple_independent(5, count=8)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            coordinator = sharded.coordinator()
            scores = coordinator.best_scores(coordinator.keys())
            for key in coordinator.keys():
                expected = max(
                    coordinator.score_of(alternative)
                    for alternative in coordinator.alternatives_of(key)
                )
                assert scores[key] == expected
            with pytest.raises(ModelError):
                coordinator.best_scores(["nope"])

    def test_shared_memory_transport_matches_pipe(self):
        _backend_or_skip("numpy")
        with use_backend("numpy"):
            database = random_tuple_independent_database(40, rng=7)
            reference = QuerySession(database.tree).rank_matrix(K)
            for shm in ("always", "never"):
                with ShardedDatabase(
                    database,
                    2,
                    executor="processes",
                    executor_options={"shm": shm},
                ) as sharded:
                    merged = sharded.coordinator().rank_matrix(K)
                    for key in reference.keys():
                        for expected, actual in zip(
                            reference.row(key), merged.row(key)
                        ):
                            assert abs(expected - actual) < TOLERANCE
                    stats = sharded.process_pool().stats()
                    if shm == "always":
                        assert stats.shm_messages > 0
                        assert stats.pipe_messages == 0
                    else:
                        assert stats.shm_messages == 0
                        assert stats.pipe_messages > 0
                    assert stats.total_bytes > 0


class TestUpdateProtocol:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_update_parity_across_processes(self, backend_name):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_tuple_independent_database(17, rng=13)
            plain = ShardedDatabase(database, 2)
            with ShardedDatabase(
                database, 2, executor="processes"
            ) as pooled:
                key = plain.keys()[3]
                for db in (plain, pooled):
                    db.update_tuple(key, probability=0.125)
                assert_rank_matrix_parity(
                    plain.coordinator(), pooled.coordinator(), K
                )

    def test_stale_race_leaves_worker_at_winner(self):
        database = small_tuple_independent(3, count=10)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            key = sharded.keys()[0]
            pool = sharded.process_pool()
            first = sharded.prepare_update(key, probability=0.3)
            second = sharded.prepare_update(key, probability=0.7)
            sharded.apply_update(first)
            with pytest.raises(StaleUpdateError):
                sharded.apply_update(second)
            # The loser never reached the worker: a fresh merge reflects
            # the winner's probability 0.3.
            summaries = pool.summaries(K, use_cache=False)
            probabilities = {
                k: p
                for summary in summaries
                for k, p in zip(
                    summary.layout.keys, summary.layout.probabilities
                )
            }
            assert abs(probabilities[key] - 0.3) < TOLERANCE

    def test_retry_after_stale_succeeds(self):
        database = small_tuple_independent(9, count=10)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            key = sharded.keys()[1]
            loser = sharded.prepare_update(key, probability=0.6)
            sharded.update_tuple(key, probability=0.2)
            with pytest.raises(StaleUpdateError):
                sharded.apply_update(loser)
            sharded.update_tuple(key, probability=0.6)  # re-prepare + apply
            merged = sharded.coordinator()
            reference = ShardedDatabase(database, 1)
            reference.update_tuple(key, probability=0.6)
            assert_rank_matrix_parity(
                reference.coordinator(), merged, K
            )


class TestWorkerFailure:
    def test_crash_surfaces_without_hang(self):
        database = small_tuple_independent(21, count=12)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            pool = sharded.process_pool()
            victim = pool.shard_indices()[0]
            with pytest.raises(WorkerCrashError) as info:
                pool._request(victim, "exit-now")
            assert "died" in str(info.value)

    def test_pool_rebuilds_after_close(self):
        database = small_tuple_independent(21, count=12)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            before = sharded.coordinator().rank_matrix(K)
            first_pool = sharded.process_pool()
            first_pool.close()
            with pytest.raises(ProcessPoolError):
                first_pool.start()
            second_pool = sharded.process_pool()
            assert second_pool is not first_pool
            sharded.coordinator().invalidate()
            after = sharded.coordinator().rank_matrix(K)
            for key in before.keys():
                for expected, actual in zip(before.row(key), after.row(key)):
                    assert abs(expected - actual) < TOLERANCE

    def test_emptied_shard_refilled_on_a_new_pool(self):
        blocks = {"a": [(9.0, 0.5)], "b": [(8.0, 0.3), (7.0, 0.4)]}
        with ShardedDatabase(
            BlockIndependentDatabase(blocks),
            2,
            partitioner=lambda key: 1 if key == "b" else 0,
            executor="processes",
        ) as sharded:
            sharded.update_block("b", [])
            sharded.process_pool().close()
            # The new pool still spawns a worker for shard 1, which owns
            # the emptied block.
            sharded.update_block("b", [(6.0, 6.0, 0.7)])
            oracle = QuerySession(
                BlockIndependentDatabase({**blocks, "b": [(6.0, 0.7)]}).tree
            )
            assert_rank_matrix_parity(oracle, sharded.coordinator())

    def test_close_is_idempotent(self):
        database = small_tuple_independent(2, count=6)
        sharded = ShardedDatabase(database, 2, executor="processes")
        pool = sharded.process_pool()
        assert pool.worker_count() > 0
        sharded.close()
        sharded.close()
        pool.close()
        assert pool.closed

    def test_unknown_command_is_a_remote_error(self):
        database = small_tuple_independent(2, count=6)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            pool = sharded.process_pool()
            index = pool.shard_indices()[0]
            with pytest.raises(ProcessPoolError, match="unknown worker"):
                pool._request(index, "no-such-op")
            # The worker survives a protocol error and keeps serving.
            assert pool._request(index, "ping") == "pong"


class TestCacheAndMetrics:
    def test_cache_info_rolls_up_remote_workers(self):
        database = small_tuple_independent(31, count=12)
        with ShardedDatabase(database, 3, executor="processes") as sharded:
            sharded.coordinator().rank_matrix(K)
            info = sharded.cache_info()
            assert isinstance(info, CacheInfo)
            pool_info = sharded.process_pool().cache_info()
            # Worker sessions memoized their layout + partials: the remote
            # roll-up is non-empty and adds into the database total.
            assert pool_info.misses > 0
            assert info.misses >= pool_info.misses

    def test_summary_cache_refetches_only_updated_shard(self):
        database = small_tuple_independent(8, count=12)
        with ShardedDatabase(database, 2, executor="processes") as sharded:
            pool = sharded.process_pool()
            pool.summaries(K)
            baseline = pool.stats().summaries
            pool.summaries(K)  # warm: no new exchange
            assert pool.stats().summaries == baseline
            key = sharded.keys()[0]
            sharded.update_tuple(key, probability=0.4)
            pool.summaries(K)
            # Exactly one shard (the owner) re-shipped its partials.
            assert pool.stats().summaries == baseline + 1

    def test_ipc_snapshot_delta(self):
        first = IpcSnapshot(commands=5, summaries=3, pipe_bytes=100)
        second = IpcSnapshot(commands=9, summaries=4, pipe_bytes=160)
        delta = second - first
        assert delta.commands == 4
        assert delta.summaries == 1
        assert delta.total_bytes == 60


class TestServingIntegration:
    def test_executor_mounts_pool_and_reports_ipc(self):
        async def run():
            database = random_tuple_independent_database(17, rng=5)
            reference = ShardedDatabase(database, 2)
            pooled = ShardedDatabase(database, 2, executor="processes")
            async with ServingExecutor(reference) as ref_ex, ServingExecutor(
                pooled
            ) as pool_ex:
                for metric in ("symmetric_difference", "footrule"):
                    expected = await ref_ex.submit(Query.topk(K, metric))
                    actual = await pool_ex.submit(Query.topk(K, metric))
                    assert actual[0] == expected[0]
                    assert math.isclose(
                        actual[1], expected[1], abs_tol=TOLERANCE
                    )
                key = pooled.keys()[2]
                await ref_ex.update(key, probability=0.35)
                await pool_ex.update(key, probability=0.35)
                expected = await ref_ex.submit(Query.topk(K))
                actual = await pool_ex.submit(Query.topk(K))
                assert actual[0] == expected[0]
                snapshot = pool_ex.metrics()
                assert snapshot.ipc is not None
                assert snapshot.ipc.summaries > 0
                assert snapshot.updates == 1
                assert ref_ex.metrics().ipc is None
            # The executor owned the pool, so exit released the workers.
            assert pooled._pool is None or pooled._pool.closed
            pooled.close()

        asyncio.run(run())

    def test_traffic_replay_byte_identical_across_executors(self):
        async def replay(db):
            events = generate_traffic(
                db.keys(), 30, rng=99, update_ratio=0.2, k_choices=(3, 5)
            )
            signature = traffic_signature(events)
            async with ServingExecutor(db) as executor:
                results = await replay_traffic(executor, events)
            return signature, [
                repr(result) for result in results if result is not None
            ]

        async def run():
            database = random_tuple_independent_database(17, rng=23)
            threads_db = ShardedDatabase(database, 2)
            processes_db = ShardedDatabase(database, 2, executor="processes")
            threads_sig, threads_results = await replay(threads_db)
            processes_sig, processes_results = await replay(processes_db)
            # Same seed -> byte-identical streams AND byte-identical
            # replayed answers, regardless of executor mode.
            assert threads_sig == processes_sig
            assert threads_results == processes_results
            processes_db.close()

        asyncio.run(run())


class TestLifecycleAndConfig:
    def test_executor_argument_is_validated(self):
        database = small_tuple_independent(1, count=4)
        with pytest.raises(ModelError, match="executor"):
            ShardedDatabase(database, 2, executor="greenlets")
        plain = ShardedDatabase(database, 2)
        with pytest.raises(ModelError, match="processes"):
            plain.process_pool()

    def test_resolve_start_method_rejects_unknown(self):
        with pytest.raises(ProcessPoolError, match="unavailable"):
            resolve_start_method("not-a-method")
        assert resolve_start_method() in (
            "fork", "spawn", "forkserver"
        )

    def test_shm_mode_is_validated(self):
        database = small_tuple_independent(1, count=4)
        with pytest.raises(ProcessPoolError, match="shm"):
            ShardedDatabase(
                database,
                2,
                executor="processes",
                executor_options={"shm": "sometimes"},
            ).process_pool()

    def test_empty_shards_get_no_workers(self):
        database = small_tuple_independent(4, count=4)
        with ShardedDatabase(
            database, 8, executor="processes"
        ) as sharded:
            pool = sharded.process_pool()
            assert pool.worker_count() <= 4
            assert sharded.coordinator().shard_count == pool.worker_count()
            assert_rank_matrix_parity(
                QuerySession(database.tree),
                sharded.coordinator(),
                3,
            )
