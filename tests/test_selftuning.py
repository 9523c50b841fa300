"""The self-tuning planner stack: result cache, fused plans, fixed routes.

Two cooperating performance layers, each with a correctness contract,
over a planner whose routes take no timings:

* **Cross-session result cache** -- completed answers replay only at an
  unchanged version token and backend: any invalidation, re-scoring,
  shard version bump or backend switch must miss.  Cached answers are
  1e-9-identical to cold execution on both backends; the LRU bound
  holds under tiny capacities.
* **Fused multi-query plans** -- a batch wanting the rank-matrix
  artifact at several depths computes one ``k_max`` sweep; the
  column-prefix slices must equal per-``k`` recomputation exactly.
* **Deterministic routes** -- a plan depends only on the query, the
  target and explicit planner options: the same on both backends and
  from any working directory, whatever calibration file it holds.
  Invalid options fail at construction.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine import numpy_available, use_backend
from repro.models import ShardedDatabase
from repro.query import (
    NAMED_KINDS,
    Planner,
    Query,
    ResultCache,
    answer_key,
    connect,
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
# Deterministic planning
# ----------------------------------------------------------------------
class TestCalibration:
    """What is left of calibration: the host identity benchmark results
    are stamped with."""

    def test_host_fingerprint_shape(self):
        fingerprint = host_fingerprint()
        assert set(fingerprint) == {"cpu_count", "platform", "python"}


def _plant_calibration(directory):
    """Plant ``benchmarks/results/calibration.json`` in the format version
    2 planners read: this host's fingerprint, with Kendall enumeration
    rated 4x faster than the ~2 us/op their probes measured.  A planner
    that consulted it would enumerate Kendall queries past 6 tuples."""
    results = directory / "benchmarks" / "results"
    results.mkdir(parents=True)
    probes = [
        {
            "backend": backend,
            "layout": "tuple-independent",
            "kernel": "kendall_enumeration",
            "bucket": 3,
            "rates": [0.5e-6],
        }
        for backend in BACKENDS
    ]
    document = {
        "experiment": "calibration",
        "host": host_fingerprint(),
        "source": "measured",
        "calibration": probes,
    }
    path = results / "calibration.json"
    path.write_text(json.dumps(document))
    return path


class TestDeterministicPlanner:
    KENDALL_SIZES = (5, 6, 7, 8)

    def _routes(self):
        """``(backend, query) -> (route, algorithm)`` from a fresh planner."""
        planner = Planner()
        routes = {}
        for backend in BACKENDS:
            with use_backend(backend):
                session = QuerySession(_database().tree)
                for kind in NAMED_KINDS:
                    plan = planner.plan_for(
                        Query.named(kind, K), session, "local"
                    )
                    routes[backend, kind] = (plan.route, plan.algorithm)
                for n in self.KENDALL_SIZES:
                    session = QuerySession(_database(n=n).tree)
                    plan = planner.plan_for(
                        Query.topk(2).distance("kendall"), session, "local"
                    )
                    routes[backend, n] = (plan.route, plan.algorithm)
        return routes

    def test_routes_ignore_directory_environment_and_backend(
        self, tmp_path, monkeypatch
    ):
        plain = tmp_path / "plain"
        plain.mkdir()
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        monkeypatch.chdir(plain)
        baseline = self._routes()

        planted = tmp_path / "planted"
        planted.mkdir()
        monkeypatch.setenv(
            "REPRO_CALIBRATION", str(_plant_calibration(planted))
        )
        monkeypatch.chdir(planted)
        assert self._routes() == baseline

        for backend in BACKENDS:
            for key in list(NAMED_KINDS) + list(self.KENDALL_SIZES):
                assert baseline[backend, key] == baseline[BACKENDS[0], key]
        for backend in BACKENDS:
            assert baseline[backend, 6][0] == "exact"
            assert baseline[backend, 7][0] == "sample"

    @pytest.mark.parametrize(
        "option, value",
        [
            ("default_samples", 0),
            ("max_samples", -1),
            ("batch_size", 0),
            ("batch_size", -5),
            ("batch_size", 2.5),
            ("kendall_exact_limit", -1),
        ],
    )
    def test_invalid_options_raise_at_construction(self, option, value):
        with pytest.raises(ValueError, match=option):
            Planner(**{option: value})

    def test_kendall_auto_route_is_bounded_by_operation_count(self):
        # P(6, k) * 2^6 operations: 1920 and 7680 fit the 2^13 budget,
        # 23040 and 46080 do not, although n = 6 is within the size limit.
        session = QuerySession(_database(n=6).tree)
        planner = Planner()
        for k, route in ((2, "exact"), (3, "exact"), (4, "sample"),
                         (5, "sample")):
            query = Query.topk(k).distance("kendall")
            assert planner.plan_for(query, session, "local").route == route
            forced = planner.plan_for(query.exact(), session, "local")
            assert forced.route == "exact"

    def test_defaults_are_the_documented_constants(self):
        planner = Planner()
        assert planner.kendall_exact_limit == Planner.KENDALL_LIMIT_DEFAULT
        assert Planner.KENDALL_ENUMERATION_BUDGET == 2**13
        assert planner.batch_size == Planner.BATCH_SIZE_DEFAULT
        assert Planner(kendall_exact_limit=0).kendall_exact_limit == 0
        assert planner.calibration_table() is None
