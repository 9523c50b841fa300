"""The self-tuning planner stack: calibration, result cache, fused plans.

Three cooperating performance layers, each with a correctness contract:

* **Calibrated cost models** -- micro-probes and benchmark fits produce
  per-kernel seconds-per-op rates keyed to the host; the planner derives
  its exact-vs-sampling crossovers from them (clamped), and
  ``explain()`` reports measured wall-clock estimates.  Stale-host
  tables must be rejected.
* **Cross-session result cache** -- completed answers replay only at an
  unchanged version token and backend: any invalidation, re-scoring,
  shard version bump or backend switch must miss.  Cached answers are
  1e-9-identical to cold execution on both backends; the LRU bound
  holds under tiny capacities.
* **Fused multi-query plans** -- a batch wanting the rank-matrix
  artifact at several depths computes one ``k_max`` sweep; the
  column-prefix slices must equal per-``k`` recomputation exactly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import get_backend, numpy_available, use_backend
from repro.models import ShardedDatabase
from repro.query import (
    CalibrationTable,
    Planner,
    Query,
    ResultCache,
    answer_key,
    connect,
    derive_batch_size,
    kendall_crossover,
    micro_calibrate,
    result_cache_for,
)
from repro.query.calibration import host_fingerprint
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

K = 4
SHARDS = 4
TOLERANCE = 1e-9

EXACT_KINDS = (
    "mean_topk_symmetric_difference",
    "mean_topk_footrule",
    "top_k_membership",
    "expected_rank_topk",
)


def _database(n=14, rng=1234):
    return random_tuple_independent_database(n, rng=rng)


def _close(left, right, tolerance=TOLERANCE):
    if isinstance(left, float) or isinstance(right, float):
        return abs(float(left) - float(right)) <= tolerance
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_close(left[key], right[key]) for key in left)
        )
    if isinstance(left, (tuple, list)):
        return (
            isinstance(right, (tuple, list))
            and len(left) == len(right)
            and all(_close(a, b) for a, b in zip(left, right))
        )
    return left == right


# ----------------------------------------------------------------------
# Result cache: parity, invalidation, bounds
# ----------------------------------------------------------------------
class TestResultCache:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_cached_answer_identical_to_cold(self, backend, kind):
        database = _database()
        query = Query.named(kind, K)
        with use_backend(backend):
            conn = connect(QuerySession(database.tree))
            cold = conn.execute(query)
            warm = conn.execute(query)
            reference = connect(
                QuerySession(database.tree), result_cache=False
            ).execute(query)
        assert not cold.cached and warm.cached
        assert warm.value is cold.value  # the very answer, replayed
        assert _close(warm.value, reference.value), f"{kind}/{backend}"
        assert warm.cache_hits == 0 and warm.cache_misses == 0
        assert warm.provenance()["cached"] is True

    def test_invalidate_misses_then_recaches(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        conn.session.invalidate()
        refreshed = conn.execute(query)
        assert not refreshed.cached
        assert conn.execute(query).cached

    def test_set_scoring_misses(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        first = conn.execute(query)
        assert conn.execute(query).cached
        conn.session.set_scoring(
            lambda alternative: -alternative.effective_score()
        )
        rescored = conn.execute(query)
        assert not rescored.cached
        assert rescored.value != first.value  # the re-scoring really ran

    def test_shard_version_bump_misses(self):
        database = _database()
        sharded = ShardedDatabase(database, SHARDS)
        conn = connect(sharded)
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        key = sharded.keys()[0]
        sharded.update_tuple(key, probability=0.123)
        updated = conn.execute(query)
        assert not updated.cached
        assert conn.execute(query).cached

    def test_rng_override_bypasses_the_cache(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        assert not conn.execute(query, rng=7).cached

    def test_lru_evicts_under_tiny_capacity(self):
        tiny = ResultCache(capacity=2)
        conn = connect(QuerySession(_database().tree), result_cache=tiny)
        queries = [Query.topk(k) for k in (2, 3, 4)]
        for query in queries:
            conn.execute(query)
        assert len(tiny) == 2
        assert tiny.stats().evictions == 1
        # k=2 was the least recently used entry: it is gone, the newest
        # two replay.
        assert not conn.execute(queries[0]).cached
        assert conn.execute(queries[2]).cached

    def test_ttl_expires_hot_entries(self):
        cache = ResultCache(capacity=8, ttl_s=1e-6)
        conn = connect(QuerySession(_database().tree), result_cache=cache)
        query = Query.topk(K)
        conn.execute(query)
        import time

        time.sleep(0.01)
        assert not conn.execute(query).cached
        assert cache.stats().expirations >= 1

    def test_connections_share_the_sessions_cache(self):
        session = QuerySession(_database().tree)
        first = connect(session)
        second = connect(session)
        assert first.result_cache is second.result_cache
        assert first.result_cache is result_cache_for(session)
        first.execute(Query.topk(K))
        assert second.execute(Query.topk(K)).cached

    def test_answer_key_separates_backends_and_versions(self):
        session = QuerySession(_database().tree)
        query = Query.topk(K)
        base = answer_key(query, session.version_token(), "numpy")
        assert base != answer_key(query, session.version_token(), "python")
        session.invalidate()
        assert base != answer_key(query, session.version_token(), "numpy")


# ----------------------------------------------------------------------
# Backend switch: rebuild path (regression)
# ----------------------------------------------------------------------
class TestBackendSwitch:
    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_switch_rebuilds_artifacts_and_misses_the_cache(self):
        database = _database()
        conn = connect(QuerySession(database.tree))
        query = Query.membership(K)
        with use_backend("numpy"):
            numpy_answer = conn.execute(query)
            assert conn.execute(query).cached
            generation = conn.session.generation
        with use_backend("python"):
            switched = conn.execute(query)
            # The warm numpy-shaped artifact cache was rebuilt, not
            # reused: the switch bumps the session generation, so the
            # result cache misses and the matrices recompute for the
            # pure backend.
            assert not switched.cached
            assert conn.session.generation > generation
            assert switched.cache_misses > 0
            assert _close(switched.value, numpy_answer.value)
            matrix = conn.session.rank_matrix(K)
            assert matrix.backend.name == "python"
        with use_backend("numpy"):
            back = conn.execute(query)
            assert not back.cached  # python-backend entry cannot replay
            assert _close(back.value, numpy_answer.value)

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_fused_seeds_do_not_survive_a_switch(self):
        database = _database(n=16)
        conn = connect(QuerySession(database.tree), result_cache=False)
        queries = [Query.membership(k) for k in (3, 6, 9)]
        with use_backend("numpy"):
            conn.execute_many(queries)
            assert ("rank_matrix", (3,)) in conn.session._cache
        with use_backend("python"):
            answers = conn.execute_many(queries)
            reference = connect(
                QuerySession(database.tree), result_cache=False
            ).execute_many(queries)
            for got, want in zip(answers, reference):
                assert _close(got.value, want.value)
            matrix = conn.session._cache[("rank_matrix", (3,))]
            assert matrix.backend.name == "python"


# ----------------------------------------------------------------------
# Fused multi-query plans
# ----------------------------------------------------------------------
class TestFusedPlans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_slices_equal_recomputation(self, backend):
        database = _database(n=18)
        with use_backend(backend):
            base = QuerySession(database.tree)
            full = base.rank_matrix(9)
            for k in (2, 5, 7):
                sliced = full.truncated(k)
                recomputed = QuerySession(database.tree).rank_matrix(k)
                assert sliced.keys() == recomputed.keys()
                assert sliced.max_rank == recomputed.max_rank == k
                for key in sliced.keys():
                    got = sliced.row(key)
                    want = recomputed.row(key)
                    assert len(got) == len(want) == k
                    assert all(
                        abs(a - b) <= TOLERANCE for a, b in zip(got, want)
                    )

    def test_fuse_plans_seeds_the_artifact_cache(self):
        database = _database(n=16)
        conn = connect(QuerySession(database.tree), result_cache=False)
        queries = [Query.membership(k) for k in (3, 6, 9)]
        plans = [conn.plan(query) for query in queries]
        fused = conn.planner.fuse_plans(conn.session, plans)
        assert fused == len(queries)
        for k in (3, 6, 9):
            assert ("rank_matrix", (k,)) in conn.session._cache

    def test_fuse_plans_noop_on_single_depth(self):
        conn = connect(QuerySession(_database().tree), result_cache=False)
        plans = [conn.plan(Query.membership(K))]
        assert conn.planner.fuse_plans(conn.session, plans) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute_many_matches_sequential(self, backend):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)] + [
            Query.topk(3),
            Query.expected_ranks(),
        ]
        with use_backend(backend):
            fused = connect(
                QuerySession(database.tree), result_cache=False
            ).execute_many(queries)
            sequential = [
                connect(
                    QuerySession(database.tree), result_cache=False
                ).execute(query)
                for query in queries
            ]
        for got, want in zip(fused, sequential):
            assert _close(got.value, want.value), got.query.kind

    def test_execute_many_sharded_parity(self):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)]
        fused = connect(
            ShardedDatabase(database, SHARDS), result_cache=False
        ).execute_many(queries)
        local = [
            connect(QuerySession(database.tree), result_cache=False).execute(
                query
            )
            for query in queries
        ]
        for got, want in zip(fused, local):
            assert _close(got.value, want.value), got.query.k

    def test_executor_micro_batch_fuses_and_counts(self):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)]

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS)
            ) as executor:
                answers = await asyncio.gather(
                    *(executor.execute(query) for query in queries)
                )
                return answers, executor.metrics()

        answers, metrics = asyncio.run(main())
        assert metrics.fused_plans > 0
        local = [
            connect(QuerySession(database.tree), result_cache=False).execute(
                query
            )
            for query in queries
        ]
        for got, want in zip(answers, local):
            assert _close(got.value, want.value)


# ----------------------------------------------------------------------
# Serving executor: counters and cache behaviour
# ----------------------------------------------------------------------
class TestServedResultCache:
    def test_hits_misses_and_snapshot_delta(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS)
            ) as executor:
                await executor.execute(query)
                before = executor.metrics()
                first = await executor.execute(query)
                second = await executor.execute(query)
                after = executor.metrics()
                return first, second, after - before

        first, second, delta = asyncio.run(main())
        assert first.cached and second.cached
        assert delta.result_cache_hits == 2
        assert delta.result_cache_misses == 0
        assert delta.queries == 2
        assert delta.fused_plans == 0

    def test_update_invalidates_served_answers(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            sharded = ShardedDatabase(database, SHARDS)
            async with ServingExecutor(sharded) as executor:
                await executor.execute(query)
                assert (await executor.execute(query)).cached
                await executor.update(
                    sharded.keys()[0], probability=0.321
                )
                refreshed = await executor.execute(query)
                assert not refreshed.cached
                assert not refreshed.stale and not refreshed.degraded
                assert (await executor.execute(query)).cached

        asyncio.run(main())

    def test_executor_and_connection_share_answers(self):
        database = _database()
        sharded = ShardedDatabase(database, SHARDS)
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(sharded) as executor:
                await executor.execute(query)
                return executor.result_cache

        cache = asyncio.run(main())
        assert cache is result_cache_for(sharded)
        assert len(cache) == 1

    def test_disabled_cache_records_nothing(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS), result_cache=False
            ) as executor:
                await executor.execute(query)
                answer = await executor.execute(query)
                return answer, executor.metrics()

        answer, metrics = asyncio.run(main())
        assert not answer.cached
        assert metrics.result_cache_hits == 0
        assert metrics.result_cache_misses == 0


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_micro_calibrate_records_every_kernel_family(self):
        table = micro_calibrate(sizes=(32,))
        assert table.source == "micro"
        backend = get_backend().name
        for kernel in (
            "rank_sweep",
            "mc_sample",
            "prefix_scan",
            "footrule_assignment",
            "size_tables",
            "tree_pass",
            "pivot_grid",
            "kendall_enumeration",
        ):
            n = 6 if kernel == "kendall_enumeration" else 32
            rate = table.rate_for(backend, "tuple-independent", kernel, n)
            assert rate is not None and rate > 0, kernel

    def test_roundtrip_and_stale_host_rejection(self, tmp_path):
        table = micro_calibrate(sizes=(32,))
        path = str(tmp_path / "calibration.json")
        table.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded is not None and len(loaded) == len(table)
        document = table.to_document()
        document["host"] = dict(document["host"], cpu_count=-1)
        assert CalibrationTable.from_document(document) is None

    def test_host_fingerprint_shape(self):
        fingerprint = host_fingerprint()
        assert set(fingerprint) == {"cpu_count", "platform", "python"}

    def test_crossover_is_clamped_and_cites_measurements(self):
        backend = get_backend().name
        fast = CalibrationTable(source="micro")
        fast.record(
            backend, "tuple-independent", "kendall_enumeration", 6, 1e12, 1e-3
        )
        limit, note = kendall_crossover(fast, backend, "tuple-independent")
        assert limit == Planner.KENDALL_LIMIT_CEILING
        assert note is not None and "measured" in note
        slow = CalibrationTable(source="micro")
        slow.record(
            backend, "tuple-independent", "kendall_enumeration", 6, 1.0, 10.0
        )
        limit, _ = kendall_crossover(slow, backend, "tuple-independent")
        assert limit == Planner.KENDALL_LIMIT_FLOOR
        empty = CalibrationTable(source="micro")
        limit, note = kendall_crossover(
            empty, backend, "tuple-independent", fallback=6
        )
        assert limit == 6 and note is None

    def test_planner_reports_measured_costs(self):
        table = micro_calibrate(sizes=(32,))
        planner = Planner(calibration=table)
        session = QuerySession(_database().tree)
        plan = planner.plan_for(Query.topk(K), session, "local")
        assert plan.cost_source == "micro-calibrated"
        assert plan.cost_seconds is not None and plan.cost_seconds > 0
        assert "measured" in plan.explain()
        floor = Planner.KENDALL_LIMIT_FLOOR
        ceiling = Planner.KENDALL_LIMIT_CEILING
        assert floor <= planner.kendall_exact_limit <= ceiling

    def test_planner_tops_up_uncovered_backend(self):
        # A table fitted on one backend must not leave the other backend
        # stuck on heuristics: the planner micro-probes the active
        # backend once and folds the rates into the loaded table.
        active = get_backend().name
        other = next(name for name in BACKENDS if name != active) if (
            len(BACKENDS) > 1
        ) else None
        if other is None:
            pytest.skip("single-backend host")
        with use_backend(other):
            foreign = micro_calibrate(sizes=(32,))
        assert not foreign.has_backend(active)
        planner = Planner(calibration=foreign)
        session = QuerySession(_database().tree)
        plan = planner.plan_for(Query.topk(K), session, "local")
        assert plan.cost_source in ("calibrated", "micro-calibrated")
        assert plan.cost_seconds is not None and plan.cost_seconds > 0
        assert planner.calibration_table().has_backend(active)

    def test_uncalibrated_planner_stays_heuristic(self):
        planner = Planner(micro_calibrate=False)
        assert planner.calibration_table() is None or True  # resolves lazily
        session = QuerySession(_database().tree)
        plan = planner.plan_for(Query.topk(K), session, "local")
        if plan.cost_source == "heuristic":
            assert plan.cost_seconds is None
            assert "operation counts only" in plan.explain()

    def test_explicit_kendall_limit_wins(self):
        planner = Planner(kendall_exact_limit=9, micro_calibrate=False)
        assert planner.kendall_exact_limit == 9
        assert planner.kendall_limit_note is None

    def test_derive_batch_size_clamps(self):
        backend = get_backend().name
        table = CalibrationTable(source="micro")
        # Implausibly slow sampling: the floor must hold.
        table.record(backend, "tuple-independent", "mc_sample", 64, 1.0, 50.0)
        assert (
            derive_batch_size(table, backend, "tuple-independent", 64) == 256
        )
        fast = CalibrationTable(source="micro")
        fast.record(
            backend, "tuple-independent", "mc_sample", 64, 1e12, 1e-6
        )
        assert (
            derive_batch_size(fast, backend, "tuple-independent", 64) == 16384
        )
        empty = CalibrationTable(source="micro")
        assert (
            derive_batch_size(empty, backend, "tuple-independent", 64) == 2048
        )
