"""The declarative query API: builder, planner routing, and parity.

Three promises, all exercised here:

* **Parity** -- every query expressible through the new API returns
  1e-9-identical answers to the consensus functions, on both array
  backends, against a local session and a 4-shard sharded database.
* **Planner routing** -- PTIME distances get exact kernels, NP-hard
  distances get Monte-Carlo above the size and enumeration thresholds
  (exhaustive enumeration below them), and ``explain()`` names the paper
  result behind each choice.
* **Facade** -- ``connect()`` resolves every deployment (local, sharded,
  served) to one Connection type with identical answers.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from tests.conftest import small_bid, small_tuple_independent
from repro.baselines import expected_rank_topk, global_topk
from repro.consensus import (
    approximate_topk_intersection,
    approximate_topk_kendall,
    mean_topk_footrule,
    mean_topk_intersection,
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.consensus.jaccard import (
    mean_world_jaccard_tuple_independent,
    median_world_jaccard_bid,
)
from repro.consensus.set_consensus import (
    mean_world_symmetric_difference,
    median_world_symmetric_difference,
)
from repro.consensus.topk.kendall import (
    brute_force_mean_topk_kendall,
    expected_topk_kendall_distance,
)
from repro.engine import numpy_available, use_backend
from repro.exceptions import ConsensusError, PlanningError
from repro.models import ShardedDatabase
from repro.query import (
    DEFAULT_PLANNER,
    NAMED_KINDS,
    Connection,
    ConsensusQuery,
    Planner,
    Query,
    connect,
    hardness_of,
    resolve_session,
)
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

K = 4
SHARDS = 4


def _close(a, b, tolerance=1e-9):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _close(x, y, tolerance) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _close(a[key], b[key], tolerance) for key in a
        )
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, abs_tol=tolerance)
    return a == b


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class TestBuilder:
    def test_chaining_returns_new_immutable_queries(self):
        base = Query.topk(k=10)
        refined = base.distance("kendall").epsilon(0.01).confidence(0.9)
        assert base.metric == "symmetric_difference"
        assert base.target_epsilon is None
        assert refined.metric == "kendall"
        assert refined.target_epsilon == 0.01
        assert refined.confidence_level == 0.9
        assert refined.k == 10

    def test_equality_and_hash_stability(self):
        first = Query.topk(k=5).distance("footrule")
        second = Query.topk(k=5).distance("footrule")
        assert first == second
        assert hash(first) == hash(second)
        assert first.fingerprint() == second.fingerprint()
        assert first != first.with_k(6)
        assert first.fingerprint() != first.with_k(6).fingerprint()

    def test_params_are_canonically_sorted(self):
        first = Query.topk(k=3, distance="kendall").with_params(b=1, a=2)
        second = Query.topk(k=3, distance="kendall").with_params(a=2, b=1)
        assert first == second
        assert first.param("a") == 2
        assert first.param("missing", 7) == 7

    def test_validation_errors(self):
        with pytest.raises(ConsensusError):
            Query.topk(k=0)
        with pytest.raises(ConsensusError):
            Query.topk(k=3, distance="hamming")
        with pytest.raises(ConsensusError):
            Query.topk(k=3, distance="footrule").median()
        with pytest.raises(ConsensusError):
            Query.topk(k=3, distance="footrule").approximate()
        with pytest.raises(ConsensusError):
            Query.world("kendall")
        with pytest.raises(ConsensusError):
            Query.ranking("borda", 3)
        with pytest.raises(ConsensusError):
            Query.membership(3).epsilon(0.1)
        with pytest.raises(ConsensusError):
            Query.topk(k=3).epsilon(-1.0)
        with pytest.raises(ConsensusError):
            Query.topk(k=3).confidence(1.5)
        with pytest.raises(ConsensusError):
            Query.topk(k=3).sampled(0)

    def test_kind_round_trips_every_named_kind(self):
        for kind, shape in NAMED_KINDS.items():
            query = Query.named(kind, K)
            assert query.kind == kind, kind
            if shape[3] == "auto":
                assert query.exact().kind == kind, kind
        # Shapes without a name keep the structured kind string.
        assert Query.topk(k=K).distance("kendall").kind == (
            "topk:kendall:mean:auto"
        )
        assert Query.set_consensus().exact().kind == (
            "world:symmetric_difference:mean:exact"
        )

    def test_pickle_round_trip_preserves_hash_eq_contract(self):
        import pickle

        query = Query.topk(k=5).distance("kendall").with_params(a=1)
        hash(query)  # populate the in-process hash memo
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query
        assert hash(clone) == hash(query)
        # The memo must not travel: a fresh process would have a different
        # string-hash salt, so the cache has to be dropped on pickling.
        assert "_hash_cache" not in pickle.loads(
            pickle.dumps(query)
        ).__dict__ or hash(clone) == hash(query)
        state = query.__getstate__()
        assert "_hash_cache" not in state

    def test_named_errors_and_expected_rank_k(self):
        with pytest.raises(ConsensusError, match="unknown query kind"):
            Query.named("no_such_kind", 3)
        with pytest.raises(ConsensusError, match="requires an answer size"):
            Query.named("mean_topk_footrule")
        # expected_rank_table needs no k, but keeps one when given (seeded
        # traffic streams carry the drawn k).
        assert Query.named("expected_rank_table").family == "expected_ranks"
        assert Query.named("expected_rank_table", 5).k == 5
        assert Query.named("approximate_topk_kendall", 3, b=1, a=2) == (
            Query.named("approximate_topk_kendall", 3, a=2, b=1)
        )


# ----------------------------------------------------------------------
# Parity: new API vs the session methods
# ----------------------------------------------------------------------
def _session_answer(session: QuerySession, kind: str, k: int):
    """The session-method call path for one named kind."""
    method = {
        "mean_topk_symmetric_difference":
            lambda: mean_topk_symmetric_difference(session, k),
        "median_topk_symmetric_difference":
            lambda: median_topk_symmetric_difference(session, k),
        "mean_topk_footrule": lambda: mean_topk_footrule(session, k),
        "mean_topk_intersection": lambda: mean_topk_intersection(session, k),
        "approximate_topk_intersection":
            lambda: approximate_topk_intersection(session, k),
        "approximate_topk_kendall":
            lambda: approximate_topk_kendall(session, k),
        "top_k_membership": lambda: session.top_k_membership(k),
        "expected_rank_table": lambda: session.expected_rank_table(),
        "global_topk": lambda: global_topk(session, k),
        "expected_rank_topk": lambda: expected_rank_topk(session, k),
    }[kind]
    return method()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_new_api_matches_legacy_local_and_sharded(backend, kind):
    database = random_tuple_independent_database(16, rng=97)
    with use_backend(backend):
        oracle = QuerySession(database.tree)
        expected = _session_answer(oracle, kind, K)
        query = Query.named(kind, K)
        # Local: fresh session through the facade.
        local = connect(database.tree).execute(query)
        assert _close(local.value, expected), f"{kind} local/{backend}"
        # Sharded: 4-shard coordinator through the same facade.
        sharded = connect(ShardedDatabase(database, SHARDS)).execute(query)
        assert _close(sharded.value, expected), f"{kind} sharded/{backend}"
        assert sharded.deployment == "sharded"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_world_query_parity(backend, seed):
    ti = small_tuple_independent(seed, count=6)
    bid = small_bid(seed, blocks=4)
    with use_backend(backend):
        conn = connect(ti.tree)
        assert conn.execute(Query.set_consensus()).value == (
            mean_world_symmetric_difference(ti.tree)
        )
        assert conn.execute(Query.set_consensus("median")).value == (
            median_world_symmetric_difference(ti.tree)
        )
        assert conn.execute(Query.jaccard()).value == (
            mean_world_jaccard_tuple_independent(ti.tree)
        )
        bid_conn = connect(bid.tree)
        assert bid_conn.execute(Query.jaccard("median")).value == (
            median_world_jaccard_bid(bid.tree)
        )


def test_aggregate_query_parity():
    from repro.andxor.builders import bid_tree
    from repro.consensus.aggregates import GroupByCountConsensus

    tree = bid_tree(
        [
            ("t1", [("tools", 0.7), ("toys", 0.3)]),
            ("t2", [("tools", 0.2), ("toys", 0.8)]),
            ("t3", [("toys", 1.0)]),
        ]
    )
    reference = GroupByCountConsensus.from_bid_tree(tree)
    conn = connect(tree)
    mean = conn.execute(Query.aggregate())
    assert mean.value == tuple(reference.mean_answer())
    median = conn.execute(Query.aggregate("median"))
    assert median.value == reference.median_answer_approximation()
    assert median.plan.route == "approximate"


# ----------------------------------------------------------------------
# Planner routing
# ----------------------------------------------------------------------
class TestPlannerRouting:
    def test_ptime_distances_get_exact_kernels(self):
        database = random_tuple_independent_database(20, rng=5)
        conn = connect(database)
        for distance in ("symmetric_difference", "footrule", "intersection"):
            plan = conn.plan(Query.topk(k=K).distance(distance))
            assert plan.route == "exact", distance
            assert plan.hardness.complexity == "ptime"

    def test_kendall_auto_is_monte_carlo_above_threshold(self):
        database = random_tuple_independent_database(20, rng=5)
        plan = connect(database).plan(Query.topk(k=K).distance("kendall"))
        assert plan.route == "sample"
        assert plan.hardness.complexity == "np-hard"
        assert "MonteCarlo" in plan.algorithm

    def test_kendall_auto_is_exact_below_threshold(self):
        database = small_tuple_independent(7, count=5)
        conn = connect(database.tree)
        plan = conn.plan(Query.topk(k=2).distance("kendall"))
        assert plan.route == "exact"
        # ... and the enumeration really is the optimum.
        answer = conn.execute(Query.topk(k=2).distance("kendall"))
        expected = brute_force_mean_topk_kendall(
            QuerySession(database.tree), 2
        )
        assert answer.value[0] == expected[0]
        assert math.isclose(answer.value[1], expected[1], abs_tol=1e-9)

    def test_threshold_is_configurable(self):
        database = small_tuple_independent(7, count=5)
        planner = Planner(kendall_exact_limit=2)
        session = QuerySession(database.tree)
        plan = planner.plan_for(Query.topk(k=2).distance("kendall"), session)
        assert plan.route == "sample"

    def test_plan_cache_is_per_planner_instance(self):
        # Differently-configured planners sharing a session must not
        # serve each other's routes out of the session-local plan cache.
        database = random_tuple_independent_database(5, rng=5)
        session = QuerySession(database.tree)
        query = Query.topk(k=3).distance("kendall")
        sample_everywhere = Planner(kendall_exact_limit=0)
        assert sample_everywhere.plan_for(query, session).route == "sample"
        assert DEFAULT_PLANNER.plan_for(query, session).route == "exact"
        assert sample_everywhere.plan_for(query, session).route == "sample"

    def test_explain_names_the_paper_result(self):
        database = random_tuple_independent_database(20, rng=5)
        conn = connect(database, shards=SHARDS)
        ptime = conn.explain(Query.topk(k=K).distance("footrule"))
        assert "PTIME" in ptime and "Section 5.4" in ptime
        assert "route:     exact" in ptime
        assert "sharded" in ptime
        hard = conn.explain(Query.topk(k=K).distance("kendall"))
        assert "NP-hard" in hard and "Section 5.5" in hard
        assert "route:     sample" in hard
        mean_world = conn.explain(Query.set_consensus())
        assert "Theorem 2" in mean_world

    def test_mean_world_jaccard_is_exact_only_on_tuple_independent(self):
        """Lemma 2's prefix optimality fails on BID: this two-block
        database has a better mean world than every probability-sorted
        prefix, so the prefix scan is labelled ``approximate`` there."""
        from repro.andxor.enumeration import enumerate_worlds
        from repro.core.consensus_bruteforce import (
            brute_force_mean_world_jaccard,
        )
        from repro.models import BlockIndependentDatabase

        database = BlockIndependentDatabase(
            [
                (
                    "b0",
                    [
                        ("v00", 973, 0.26412),
                        ("v01", 200, 0.24814),
                        ("v02", 153, 0.13515),
                    ],
                ),
                ("b1", [("v10", 757, 0.46062), ("v11", 309, 0.27473)]),
            ]
        )
        conn = connect(database, result_cache=False)
        plan = conn.plan(Query.jaccard())
        assert plan.route == "approximate"
        assert "tuple-independent data only" in plan.explain()
        world, value = conn.execute(Query.jaccard()).value
        assert {a.value for a in world} == {"v10"}
        best_world, best = brute_force_mean_world_jaccard(
            enumerate_worlds(database.tree)
        )
        assert {a.value for a in best_world} == {"v00", "v10"}
        assert best < value - 1e-3
        with pytest.raises(PlanningError, match="Lemma 2"):
            conn.plan(Query.jaccard().exact())
        ti = connect(small_tuple_independent(3, count=6))
        assert ti.plan(Query.jaccard().exact()).route == "exact"
        assert ti.plan(Query.jaccard()).route == "exact"

    def test_explain_reports_artifact_reuse(self):
        database = random_tuple_independent_database(12, rng=5)
        conn = connect(database)
        query = Query.topk(k=K)
        assert "[cold]" in conn.explain(query)
        conn.execute(query)
        assert "[warm]" in conn.explain(query)

    def test_plans_are_memoized_and_survive_invalidation(self):
        database = random_tuple_independent_database(12, rng=5)
        conn = connect(database)
        query = Query.topk(k=K)
        first = conn.plan(query)
        assert conn.plan(query) is first
        # Invalidation drops artifacts, not plans: routes depend only on
        # the query and the target's structure.
        conn.session.invalidate()
        assert conn.plan(query) is first
        answer = conn.execute(query)
        assert answer.cache_misses > 0  # recomputed, not served stale

    def test_plans_rebuild_when_the_backend_switches(self):
        database = random_tuple_independent_database(12, rng=5)
        conn = connect(database)
        query = Query.topk(k=K)
        with use_backend("python"):
            first = conn.plan(query)
            assert first.profile.backend == "python"
            assert conn.plan(query) is first
        if numpy_available():
            with use_backend("numpy"):
                second = conn.plan(query)
                assert second is not first
                assert second.profile.backend == "numpy"

    def test_hardness_map_covers_every_named_kind(self):
        for kind in NAMED_KINDS:
            entry = hardness_of(Query.named(kind, K))
            assert entry.paper
            assert entry.complexity in ("ptime", "np-hard", "approximation")

    def test_answer_provenance_and_timing(self):
        database = random_tuple_independent_database(12, rng=5)
        answer = connect(database).execute(Query.topk(k=K))
        assert answer.elapsed >= 0.0
        assert answer.cache_misses > 0
        provenance = answer.provenance()
        assert provenance["paper"] == "Theorem 3"
        assert provenance["deployment"] == "local"
        assert answer.kind == "mean_topk_symmetric_difference"


# ----------------------------------------------------------------------
# Monte-Carlo routes
# ----------------------------------------------------------------------
class TestSampledRoutes:
    def test_kendall_sample_answer_matches_pivot_and_estimates_distance(self):
        database = random_tuple_independent_database(14, rng=11)
        session = QuerySession(database.tree)
        answer = connect(database.tree).execute(
            Query.topk(k=3).distance("kendall").sampled(4000), rng=7
        )
        assert answer.value[0] == approximate_topk_kendall(session, 3)
        assert answer.estimate is not None
        assert answer.estimate.samples == 4000
        exact = expected_topk_kendall_distance(
            session, answer.value[0], 3, method="enumerate"
        )
        low, high = answer.estimate.confidence_interval(0.999)
        assert low - 0.5 <= exact <= high + 0.5

    def test_epsilon_drives_sample_size(self):
        database = random_tuple_independent_database(14, rng=11)
        conn = connect(database.tree)
        loose = conn.execute(
            Query.topk(k=3).distance("kendall").epsilon(0.25), rng=3
        )
        tight = conn.execute(
            Query.topk(k=3).distance("kendall").epsilon(0.05), rng=3
        )
        assert tight.estimate.samples >= loose.estimate.samples
        low, high = tight.estimate.confidence_interval(0.95)
        assert (high - low) / 2.0 <= 0.05 + 1e-9

    def test_ptime_metric_sampled_mode_validates_exact_answer(self):
        database = random_tuple_independent_database(14, rng=11)
        session = QuerySession(database.tree)
        exact_answer, exact_value = mean_topk_footrule(session, 3)
        answer = connect(database.tree).execute(
            Query.topk(k=3).distance("footrule").sampled(8000), rng=5
        )
        assert answer.value[0] == exact_answer
        low, high = answer.estimate.confidence_interval(0.999)
        assert low - 0.5 <= exact_value <= high + 0.5

    def test_reproducible_with_seed(self):
        database = random_tuple_independent_database(14, rng=11)
        conn = connect(database.tree)
        query = Query.topk(k=3).distance("kendall").sampled(2000)
        first = conn.execute(query, rng=42)
        second = conn.execute(query, rng=42)
        assert first.value == second.value


# ----------------------------------------------------------------------
# The connect() facade
# ----------------------------------------------------------------------
class TestConnect:
    def test_connect_resolves_every_target_type(self):
        database = random_tuple_independent_database(12, rng=8)
        session = QuerySession(database.tree)
        sharded = ShardedDatabase(database, SHARDS)
        for target, deployment in (
            (database, "local"),
            (database.tree, "local"),
            (database.rank_statistics(), "local"),
            (session, "local"),
            (sharded, "sharded"),
            (sharded.coordinator(), "sharded"),
        ):
            conn = connect(target)
            assert isinstance(conn, Connection)
            assert conn.deployment == deployment, type(target).__name__
            assert len(conn) == 12

    def test_connect_is_idempotent_on_connections(self):
        database = random_tuple_independent_database(12, rng=8)
        conn = connect(database)
        assert connect(conn) is conn
        assert connect(conn, planner=conn.planner) is conn
        # A different planner rebinds (shared warm session, new routing).
        custom = Planner(kendall_exact_limit=100)
        rebound = connect(conn, planner=custom)
        assert rebound is not conn
        assert rebound.session is conn.session
        assert rebound.planner is custom

    def test_connect_shards_a_local_database(self):
        database = random_tuple_independent_database(12, rng=8)
        conn = connect(database, shards=SHARDS)
        assert conn.deployment == "sharded"
        assert conn.session.shard_count > 1
        expected = mean_topk_footrule(QuerySession(database.tree), K)
        assert _close(conn.execute(Query.topk(k=K).distance("footrule")).value,
                      expected)

    def test_connect_rejects_unknown_targets(self):
        with pytest.raises(PlanningError):
            connect(object())
        with pytest.raises(PlanningError):
            connect(random_tuple_independent_database(4, rng=1), shards=0)

    def test_connect_rejects_resharding_through_a_connection(self):
        database = random_tuple_independent_database(8, rng=1)
        conn = connect(database)
        with pytest.raises(PlanningError):
            connect(conn, shards=2)
        sharded = ShardedDatabase(database, 2)
        with pytest.raises(PlanningError):
            connect(sharded, shards=4)

    def test_connection_reuses_the_database_session(self):
        database = random_tuple_independent_database(12, rng=8)
        first = connect(database)
        second = connect(database)
        assert first.session is second.session
        first.execute(Query.topk(k=K))
        # The second connection sees the first one's warm cache.
        assert second.execute(Query.topk(k=K)).cache_misses == 0

    def test_served_connection_sync_and_async(self):
        database = random_tuple_independent_database(12, rng=8)
        sharded = ShardedDatabase(database, 2)
        oracle = QuerySession(database.tree)
        expected = mean_topk_symmetric_difference(oracle, K)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                conn = connect(executor)
                assert conn.deployment == "served"
                assert conn.executor is executor
                through_executor = await conn.execute_async(Query.topk(k=K))
                # Synchronous execute inside the executor's own event loop
                # would deadlock (and race the merge pool); it must refuse.
                with pytest.raises(PlanningError):
                    conn.execute(Query.topk(k=K))
                return conn, through_executor

        conn, through_executor = asyncio.run(scenario())
        assert _close(through_executor.value, expected)
        assert through_executor.deployment == "served"
        # Once the executor's loop is gone, the sync path answers directly
        # from the (now uncontended) coordinator session.
        direct = conn.execute(Query.topk(k=K))
        assert _close(direct.value, expected)

    def test_served_sync_execute_from_thread_routes_through_executor(self):
        database = random_tuple_independent_database(12, rng=8)
        sharded = ShardedDatabase(database, 2)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                conn = connect(executor)
                await conn.execute_async(Query.topk(k=K))
                before = executor.metrics()
                # A sync call from an application thread must serialize
                # through the executor (thread-safe loop handoff), not
                # touch the coordinator session concurrently.
                answer = await asyncio.get_running_loop().run_in_executor(
                    None, conn.execute, Query.membership(K)
                )
                after = executor.metrics()
                return answer, before, after

        answer, before, after = asyncio.run(scenario())
        assert answer.deployment == "served"
        assert after.queries + after.coalesced > before.queries + before.coalesced

    def test_session_execute_convenience(self):
        database = random_tuple_independent_database(12, rng=8)
        session = QuerySession(database.tree)
        answer = session.execute(Query.topk(k=K))
        assert answer.value == mean_topk_symmetric_difference(session, K)
        assert "Theorem 3" in session.explain(Query.topk(k=K))

    def test_resolve_session_served_deployment(self):
        database = random_tuple_independent_database(8, rng=8)
        sharded = ShardedDatabase(database, 2)
        executor = ServingExecutor(sharded)
        session, deployment = resolve_session(executor)
        assert deployment == "served"
        assert session is sharded.coordinator()


# ----------------------------------------------------------------------
# Serving integration: coalescing keyed by query hashes
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_named_and_built_queries_coalesce_together(self):
        database = random_tuple_independent_database(16, rng=13)
        sharded = ShardedDatabase(database, SHARDS)

        async def scenario():
            async with ServingExecutor(
                sharded, batch_window=0.002
            ) as executor:
                named = Query.named("mean_topk_footrule", K)
                built = Query.topk(k=K).distance("footrule")
                results = await asyncio.gather(
                    *(
                        executor.submit(named if i % 2 else built)
                        for i in range(10)
                    )
                )
                return results, executor.metrics()

        results, metrics = asyncio.run(scenario())
        assert all(result == results[0] for result in results)
        # A named query equals the built one, so they share one in-flight
        # computation.
        assert metrics.coalesced > 0

    def test_executor_execute_returns_answers_with_provenance(self):
        database = random_tuple_independent_database(12, rng=13)
        sharded = ShardedDatabase(database, 2)

        async def scenario():
            async with ServingExecutor(sharded) as executor:
                return await executor.execute(Query.topk(k=K))

        answer = asyncio.run(scenario())
        assert answer.deployment == "served"
        assert answer.provenance()["paper"] == "Theorem 3"

    def test_traffic_events_carry_queries(self):
        events = [
            event
            for event in __import__(
                "repro.workloads.traffic", fromlist=["generate_traffic"]
            ).generate_traffic([f"t{i}" for i in range(8)], 30, rng=5)
            if not event.is_update
        ]
        assert events
        for event in events:
            assert isinstance(event.query, ConsensusQuery)
            assert event.query.kind in NAMED_KINDS

    def test_traffic_stream_is_byte_identical_to_string_kind_era(self):
        # Golden stream captured from the pre-declarative generator
        # (string-kind dispatch): seeds must keep replaying identically.
        from repro.workloads.traffic import generate_traffic

        events = generate_traffic(
            [f"t{i}" for i in range(10)], 8, rng=5, update_ratio=0.25
        )
        observed = [
            ("update", event.key, round(event.probability, 9))
            if event.is_update
            else (event.query.kind, event.query.k)
            for event in events
        ]
        assert observed == [
            ("top_k_membership", 5),
            ("mean_topk_symmetric_difference", 5),
            ("update", "t1", 0.181829047),
            ("top_k_membership", 5),
            ("update", "t0", 0.248983563),
            ("update", "t2", 0.878787377),
            ("mean_topk_symmetric_difference", 5),
            ("mean_topk_symmetric_difference", 5),
        ]
