"""Tests for the asyncio serving layer and the traffic generator."""

from __future__ import annotations

import asyncio
import gc
import math
import threading
import weakref

import pytest

from conftest import BENCHMARK_READS
from repro import connect
from repro.consensus import mean_topk_footrule, mean_topk_symmetric_difference
from repro.exceptions import ConsensusError, WorkloadError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.query import NAMED_KINDS, PlanSummary, Query, ResultCache
from repro.query.wire import query_from_dict
from repro.serving import ServingExecutor
from repro.serving.metrics import LatencyRecorder
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database
from repro.workloads.traffic import (
    DEFAULT_QUERY_MIX,
    TrafficEvent,
    generate_traffic,
    replay_traffic,
)

K = 4


def make_sharded(count=16, shard_count=4, seed=21):
    database = random_tuple_independent_database(count, rng=seed)
    return database, ShardedDatabase(database, shard_count)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TestRequests:
    def test_make_canonicalizes_params(self):
        first = Query.named("approximate_topk_kendall", 3, b=1, a=2)
        second = Query.named("approximate_topk_kendall", 3, a=2, b=1)
        assert first == second
        assert hash(first) == hash(second)
        assert first.fingerprint() == second.fingerprint()
        assert first.param("a") == 2
        assert first.param("missing", 7) == 7

    def test_unknown_kind_raises(self):
        with pytest.raises(ConsensusError, match="unknown query kind"):
            Query.named("no_such", 3)
        with pytest.raises(WorkloadError, match="unknown query kinds"):
            generate_traffic(["t1"], 5, query_mix={"no_such": 1.0})

    def test_missing_k_raises(self):
        with pytest.raises(ConsensusError, match="answer size"):
            Query.named("mean_topk_footrule")
        # The wire form of the same query fails the same way.
        with pytest.raises(ConsensusError, match="answer size"):
            query_from_dict({"family": "topk", "metric": "footrule"})
        # Only the expected-rank table is answered without a size.
        without_k = [
            kind for kind in NAMED_KINDS
            if _builds_without_k(kind)
        ]
        assert without_k == ["expected_rank_table"]

    def test_every_kind_dispatches(self):
        database, sharded = make_sharded()
        session = sharded.coordinator()
        oracle = QuerySession(database.tree)
        for kind in NAMED_KINDS:
            query = Query.named(kind, K)
            merged = query.execute(session).value
            reference = query.execute(oracle).value
            assert merged == reference or _close(merged, reference), kind


def _builds_without_k(kind):
    try:
        Query.named(kind)
    except ConsensusError:
        return False
    return True


def _close(a, b, tolerance=1e-9):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return all(_close(x, y, tolerance) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _close(a[key], b[key], tolerance) for key in a
        )
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, abs_tol=tolerance)
    return a == b


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class TestServingExecutor:
    def test_answers_match_unsharded_session(self):
        database, sharded = make_sharded()
        oracle = QuerySession(database.tree)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                mean = await executor.submit(Query.topk(K))
                footrule = await executor.submit(Query.topk(K, "footrule"))
                membership = await executor.submit(Query.membership(K))
                return mean, footrule, membership

        mean, footrule, membership = asyncio.run(scenario())
        assert _close(mean, mean_topk_symmetric_difference(oracle, K))
        assert _close(footrule, mean_topk_footrule(oracle, K))
        assert _close(membership, oracle.top_k_membership(K))

    def test_concurrent_identical_queries_coalesce(self):
        _, sharded = make_sharded()

        async def scenario():
            async with ServingExecutor(sharded, batch_window=0.002) as executor:
                answers = await asyncio.gather(
                    *(
                        executor.submit(Query.named("mean_topk_footrule", K))
                        for _ in range(12)
                    )
                )
                return answers, executor.metrics()

        answers, metrics = asyncio.run(scenario())
        assert all(answer == answers[0] for answer in answers)
        assert metrics.queries + metrics.coalesced == 12
        assert metrics.coalesced > 0
        assert metrics.coalesce_rate > 0.0

    def test_coalescing_can_be_disabled(self):
        _, sharded = make_sharded()

        async def scenario():
            async with ServingExecutor(sharded, coalesce=False) as executor:
                await asyncio.gather(
                    *(
                        executor.submit(Query.named("top_k_membership", K))
                        for _ in range(6)
                    )
                )
                return executor.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.queries == 6
        assert metrics.coalesced == 0

    def test_update_refreshes_answers_and_counts_invalidations(self):
        database, sharded = make_sharded()

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                before = await executor.submit(Query.topk(K))
                top_key = before[0][0]
                versions_before = sharded.versions()
                await executor.update(top_key, probability=0.001)
                after = await executor.submit(Query.topk(K))
                return (
                    before,
                    after,
                    top_key,
                    versions_before,
                    sharded.versions(),
                    executor.metrics(),
                )

        before, after, top_key, v_before, v_after, metrics = asyncio.run(
            scenario()
        )
        assert top_key in before[0]
        assert top_key not in after[0]
        owner = sharded.shard_of(top_key)
        changed = [
            index
            for index, (old, new) in enumerate(zip(v_before, v_after))
            if old != new
        ]
        assert changed == [owner]
        assert metrics.updates == 1
        assert metrics.invalidations == 1

    def test_errors_propagate_to_submitter(self):
        _, sharded = make_sharded(count=6)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                with pytest.raises(ConsensusError):
                    await executor.submit(Query.topk(999, "footrule"))
                with pytest.raises(ConsensusError):
                    await executor.submit(Query.named("nonsense", 2))
                # The executor survives failed requests.
                return await executor.submit(Query.membership(2))

        membership = asyncio.run(scenario())
        assert len(membership) == 6

    def test_metrics_latency_and_batches(self):
        _, sharded = make_sharded()

        async def scenario():
            async with ServingExecutor(sharded, batch_window=0.002) as executor:
                await asyncio.gather(
                    *(
                        executor.submit(Query.named("top_k_membership", k))
                        for k in (2, 3, 4, 2, 3, 4)
                    )
                )
                return executor.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.batches >= 1
        assert metrics.mean_batch_size >= 1.0
        assert metrics.latency_p95 >= metrics.latency_p50 >= 0.0
        kinds = dict(metrics.queries_by_kind)
        assert kinds.get("top_k_membership") == metrics.queries

    def test_stop_detaches_from_invalidation_fanout(self):
        _, sharded = make_sharded(count=8, shard_count=2)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                await executor.submit(Query.named("top_k_membership", 2))
            return executor

        stopped = asyncio.run(scenario())
        assert stopped._on_invalidation not in sharded._subscribers
        invalidations_before = stopped.metrics().invalidations
        sharded.update_tuple(sharded.keys()[0], probability=0.5)
        assert stopped.metrics().invalidations == invalidations_before

    def test_submit_auto_starts_and_stop_is_final(self):
        _, sharded = make_sharded(count=8)

        async def scenario():
            executor = ServingExecutor(sharded)
            result = await executor.submit(Query.named("top_k_membership", 2))
            await executor.stop()
            with pytest.raises(RuntimeError):
                await executor.submit(Query.named("top_k_membership", 2))
            return result

        assert len(asyncio.run(scenario())) == 8

    def test_stop_is_idempotent_and_close_releases_workers(self):
        _, sharded = make_sharded(count=8, shard_count=2)

        async def scenario():
            executor = ServingExecutor(sharded)
            await executor.start()
            await executor.submit(Query.named("top_k_membership", 2))
            await executor.stop()
            await executor.stop()  # second stop: no-op, no error
            return executor

        executor = asyncio.run(scenario())
        assert executor._update_pool is None
        assert executor._merge_pool is None
        executor.close()  # sync close after stop: still a no-op
        executor.close()

    def test_close_without_loop_releases_workers(self):
        _, sharded = make_sharded(count=8, shard_count=2)

        async def scenario():
            executor = ServingExecutor(sharded)
            await executor.start()
            await executor.submit(Query.named("top_k_membership", 2))
            return executor

        executor = asyncio.run(scenario())
        # Simulates teardown after an exception unwound past stop(): the
        # synchronous escape hatch must still release every worker pool.
        executor.close()
        assert executor._update_pool is None
        assert executor._merge_pool is None
        assert executor._dispatcher is None
        assert executor._on_invalidation not in sharded._subscribers

    def test_exception_inside_context_still_releases_workers(self):
        _, sharded = make_sharded(count=8, shard_count=2)

        async def scenario():
            executor = ServingExecutor(sharded)
            with pytest.raises(ValueError, match="boom"):
                async with executor:
                    await executor.submit(Query.named("top_k_membership", 2))
                    raise ValueError("boom")
            return executor

        executor = asyncio.run(scenario())
        assert executor._update_pool is None
        assert executor._merge_pool is None
        assert executor._on_invalidation not in sharded._subscribers


class TestThinPath:
    """An update is one hop to the update thread; a read is one hop to the
    coordinator worker, with nothing before it."""

    def test_one_hop_per_update_and_per_read(self):
        _, sharded = make_sharded(count=12, shard_count=4)

        async def scenario():
            loop = asyncio.get_running_loop()
            hops = []
            original = loop.run_in_executor

            def counting(pool, func, *args):
                hops.append(func)
                return original(pool, func, *args)

            loop.run_in_executor = counting
            async with ServingExecutor(
                sharded, result_cache=False
            ) as executor:
                for key in ("t1", "t2", "t3"):
                    hops.clear()
                    await executor.update(key, probability=0.3)
                    assert len(hops) == 1
                    assert hops == [sharded.update_tuple]
                    hops.clear()
                    await executor.execute(Query.topk(K, "footrule"))
                    assert len(hops) == 1
                    assert hops == [executor._counted]
                return executor.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.updates == 3
        assert metrics.batches == 3

    def test_update_keeps_a_racing_writer_without_retry(self):
        rows = [
            (f"t{i}", float(10 * i), float(10 * i), 0.1 + 0.05 * i)
            for i in range(1, 13)
        ]
        sharded = ShardedDatabase(TupleIndependentDatabase(rows), 4)
        owners = {}
        for key, *_ in rows:
            owners.setdefault(sharded.shard_of(key), []).append(key)
        first, second = [keys for keys in owners.values() if len(keys) > 1][:2]
        # Two served updates to two shards, and a direct update from
        # another thread to the first one's shard, landing between that
        # update's prepare and apply: the apply patches the live store,
        # so the rival's write is kept and nothing is prepared twice.
        targets = {first[0]: 0.9, second[0]: 0.8}
        rival, rival_probability = first[1], 0.7
        original = sharded.prepare_update
        prepared = []

        def racing(key, probability=None, score=None):
            pending = original(key, probability, score)
            prepared.append(key)
            if key == first[0]:
                thread = threading.Thread(
                    target=sharded.update_tuple,
                    args=(rival,),
                    kwargs={"probability": rival_probability},
                )
                thread.start()
                thread.join()
            return pending

        sharded.prepare_update = racing

        async def scenario():
            async with ServingExecutor(
                sharded, result_cache=False
            ) as executor:
                await asyncio.gather(
                    *(
                        executor.update(key, probability=probability)
                        for key, probability in targets.items()
                    )
                )
                return executor.metrics()

        metrics = asyncio.run(scenario())
        assert sorted(prepared) == sorted([first[0], second[0], rival])
        assert metrics.updates == 2
        expected = dict(targets, **{rival: rival_probability})
        oracle_rows = [
            (key, value, score, expected.get(key, probability))
            for key, value, score, probability in rows
        ]
        store = sharded.state()[1]
        for key, _, _, probability in oracle_rows:
            assert math.isclose(
                float(store.probabilities[store.rows_of(key)[0]]),
                probability,
            )
        oracle = QuerySession(TupleIndependentDatabase(oracle_rows).tree)
        assert _close(
            Query.topk(K, "footrule").execute(sharded.coordinator()).value,
            Query.topk(K, "footrule").execute(oracle).value,
        )

    def test_update_block_is_one_counted_hop(self):
        blocks = [
            (
                f"s{i}",
                [(f"a{i}", 10.0 * i + 1, 0.4), (f"b{i}", 10.0 * i + 2, 0.5)],
            )
            for i in range(12)
        ]
        sharded = ShardedDatabase(BlockIndependentDatabase(blocks), 4)
        replaced = {"s3": [("c3", 500.0, 0.6), ("d3", 0.5, 0.3)], "s7": []}

        async def scenario():
            loop = asyncio.get_running_loop()
            hops = []
            original = loop.run_in_executor

            def counting(pool, func, *args):
                hops.append(func)
                return original(pool, func, *args)

            loop.run_in_executor = counting
            async with ServingExecutor(
                sharded, result_cache=False
            ) as executor:
                for key, alternatives in replaced.items():
                    hops.clear()
                    await executor.update_block(key, alternatives)
                    assert hops == [sharded.update_block]
                values = [
                    (await executor.execute(query)).value
                    for query in BENCHMARK_READS
                ]
                return values, executor.metrics()

        values, metrics = asyncio.run(scenario())
        assert metrics.updates == 2
        oracle = connect(
            BlockIndependentDatabase(
                [(key, replaced.get(key, rows)) for key, rows in blocks]
            ),
            result_cache=False,
        )
        for query, value in zip(BENCHMARK_READS, values):
            assert _close(value, oracle.execute(query).value)


class TestCachedAnswersReleaseTheirReader:
    """A cached answer holds a :class:`PlanSummary`, not the plan that
    closes over the answering snapshot reader, so the reader (and every
    artifact it pins) is freed while the answer stays cached."""

    def test_executor_caches_drop_the_reader(self, monkeypatch):
        _, sharded = make_sharded()
        coordinator = sharded.coordinator()
        readers = []
        original_at = type(coordinator).at

        def at(session, versions=None):
            reader = original_at(session, versions)
            readers.append(weakref.ref(reader))
            return reader

        monkeypatch.setattr(type(coordinator), "at", at)
        query = Query.topk(K, "footrule")

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                answer = await executor.execute(query)
                assert not isinstance(answer.plan, PlanSummary)
                text = answer.to_json()
                key = executor._result_cache_key(query, sharded.versions())
                del answer
                await asyncio.sleep(0)  # let the loop run pending wakeups
                gc.collect()
                assert readers and all(ref() is None for ref in readers)
                cached = executor.result_cache.get(key)
                return text, cached

        text, cached = asyncio.run(scenario())
        assert isinstance(cached.plan, PlanSummary)
        assert cached.to_json() == text

    def test_connection_cache_drops_the_reader(self):
        _, sharded = make_sharded()
        reader = sharded.coordinator().at()
        alive = weakref.ref(reader)
        cache = ResultCache()
        connection = connect(reader, result_cache=cache)
        query = Query.topk(K, "symmetric_difference")
        answer = connection.execute(query)
        text = answer.to_json()
        key = connection._answer_key(query)
        del answer, connection, reader
        gc.collect()
        assert alive() is None
        assert cache.get(key).to_json() == text


class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.percentile(0.95) == 0.0
        for value in (0.4, 0.1, 0.3, 0.2, 0.5):
            recorder.record(value)
        assert recorder.count == 5
        assert math.isclose(recorder.mean(), 0.3)
        assert recorder.percentile(0.0) == 0.1
        assert recorder.percentile(0.5) == 0.3
        assert recorder.percentile(1.0) == 0.5


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class TestTrafficGenerator:
    def test_reproducible_with_explicit_seed(self):
        keys = [f"t{i}" for i in range(10)]
        first = generate_traffic(keys, 50, rng=5, update_ratio=0.25)
        second = generate_traffic(keys, 50, rng=5, update_ratio=0.25)
        assert first == second
        assert any(event.is_update for event in first)
        assert any(not event.is_update for event in first)

    @pytest.mark.parametrize(
        "options, expected",
        [
            (
                {"update_ratio": 0.3},
                "6250b499398617e22fe2427f09df0387"
                "d013c41ca22743021c7b404c7ff9bffe",
            ),
            (
                {
                    "query_mix": {
                        kind: 1.0
                        for kind in (
                            "mean_topk_symmetric_difference",
                            "median_topk_symmetric_difference",
                            "mean_topk_footrule",
                            "mean_topk_intersection",
                            "approximate_topk_intersection",
                            "approximate_topk_kendall",
                            "top_k_membership",
                            "expected_rank_table",
                            "global_topk",
                            "expected_rank_topk",
                        )
                    },
                    "k_choices": (3, 5),
                    "update_ratio": 0.25,
                    "popular_pool": None,
                    "popularity": "zipf",
                },
                "de793371b2849760796099d8fc33411d"
                "807f2771573fb304c94c9c6dd266a956",
            ),
        ],
        ids=["default_mix", "every_kind_zipf"],
    )
    def test_seeded_stream_is_pinned(self, options, expected):
        # The digest was taken from the generator before the query-layer
        # rewrite; any change to the draw sequence, the kind names or the
        # queries they denote shows up here.
        import hashlib

        keys = [f"t{i}" for i in range(12)]
        events = generate_traffic(keys, 120, rng=2024, **options)
        rows = [
            (
                event.kind,
                None if event.query is None else event.query.kind,
                None if event.query is None else event.query.k,
                None if event.query is None else event.query.fingerprint(),
                event.key,
                event.probability,
            )
            for event in events
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == expected

    def test_repro_seed_controls_default_stream(self, monkeypatch):
        from repro.engine.sampling import reset_default_rng

        keys = [f"t{i}" for i in range(8)]
        monkeypatch.setenv("REPRO_SEED", "1234")
        reset_default_rng()
        first = generate_traffic(keys, 30, update_ratio=0.3)
        reset_default_rng()
        second = generate_traffic(keys, 30, update_ratio=0.3)
        reset_default_rng()
        assert first == second

    def test_generator_rng_also_routes_through_repro_seed(self, monkeypatch):
        from repro.engine.sampling import reset_default_rng

        monkeypatch.setenv("REPRO_SEED", "777")
        reset_default_rng()
        first = random_tuple_independent_database(7)
        reset_default_rng()
        second = random_tuple_independent_database(7)
        reset_default_rng()
        assert first.tuple_probabilities() == second.tuple_probabilities()

    def test_query_mix_and_k_choices_respected(self):
        keys = [f"t{i}" for i in range(20)]
        events = generate_traffic(
            keys,
            80,
            rng=9,
            query_mix={"top_k_membership": 1.0},
            k_choices=(3, 200),
            popular_pool=None,
        )
        for event in events:
            assert event.query.kind == "top_k_membership"
            assert event.query.k in (3, 20)  # 200 clamped to |keys|

    def test_popular_pool_produces_repeats(self):
        keys = [f"t{i}" for i in range(10)]
        events = generate_traffic(keys, 60, rng=3, popular_pool=4)
        distinct = {event.query for event in events}
        assert len(distinct) <= 4

    def test_validation_errors(self):
        keys = ["t1"]
        with pytest.raises(WorkloadError):
            generate_traffic(keys, 10, update_ratio=1.0)
        with pytest.raises(WorkloadError):
            generate_traffic([], 10)
        with pytest.raises(WorkloadError):
            generate_traffic(keys, 10, query_mix={"bogus_kind": 1.0})
        with pytest.raises(WorkloadError):
            generate_traffic(keys, 10, query_mix={})
        with pytest.raises(WorkloadError):
            generate_traffic(keys, 10, popular_pool=0)
        with pytest.raises(WorkloadError):
            generate_traffic(keys, -1)

    def test_default_mix_kinds_are_named(self):
        assert set(DEFAULT_QUERY_MIX) <= set(NAMED_KINDS)

    def test_replay_orders_updates_as_barriers(self):
        _, sharded = make_sharded(count=12, shard_count=3)
        events = generate_traffic(
            sharded.keys(), 40, rng=11, update_ratio=0.2
        )

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                results = await replay_traffic(executor, events, concurrency=6)
                return results, executor.metrics()

        results, metrics = asyncio.run(scenario())
        for event, result in zip(events, results):
            if event.is_update:
                assert result is None
            else:
                assert result is not None
        assert metrics.updates == sum(1 for e in events if e.is_update)

    def test_traffic_event_fields(self):
        event = TrafficEvent(kind="update", key="t1", probability=0.5)
        assert event.is_update
        assert event.query is None
        query = TrafficEvent(kind="query", query=Query.membership(2))
        assert not query.is_update
        assert query.query.kind == "top_k_membership"
