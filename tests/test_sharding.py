"""Cross-shard merge parity suite.

The acceptance bar of the sharded serving layer: every merged statistic and
consensus answer produced by a :class:`~repro.sharding.ShardedQuerySession`
coordinator must match a single unsharded :class:`~repro.session.QuerySession`
over the same data to 1e-9, on both backends, for 1/2/4/8 shards, hash and
range partitioning, tuple-independent and block-independent (blocks intact)
databases -- including the single-tuple-shard edge case.
"""

from __future__ import annotations

import math

import pytest

from conftest import small_bid, small_tuple_independent
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.rank_probabilities import RankStatistics
from repro.baselines import expected_rank_topk, global_topk
from repro.consensus import (
    approximate_topk_kendall,
    mean_topk_footrule,
    mean_topk_intersection,
    mean_topk_symmetric_difference,
    mean_world_jaccard_tuple_independent,
    mean_world_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.engine import numpy_available, use_backend
from repro.exceptions import ModelError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.models.sharded import StaleUpdateError, hash_shard_of
from repro.session import CacheInfo, QuerySession, as_session
from repro.sharding import ShardRankSummary, ShardedQuerySession
from repro.workloads.generators import (
    random_bid_database,
    random_tuple_independent_database,
)

BACKENDS = ["python", "numpy"]
TOLERANCE = 1e-9
K = 5


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    return backend_name


def assert_rank_matrix_parity(unsharded, coordinator, max_rank=None):
    reference = unsharded.rank_matrix(max_rank)
    merged = coordinator.rank_matrix(max_rank)
    assert set(reference.keys()) == set(merged.keys())
    assert reference.max_rank == merged.max_rank
    for key in reference.keys():
        for expected, actual in zip(reference.row(key), merged.row(key)):
            assert abs(expected - actual) < TOLERANCE


def assert_consensus_parity(unsharded, coordinator, k):
    mean_ref = mean_topk_symmetric_difference(unsharded, k)
    mean_merged = mean_topk_symmetric_difference(coordinator, k)
    assert mean_merged[0] == mean_ref[0]
    assert math.isclose(mean_merged[1], mean_ref[1], abs_tol=TOLERANCE)

    median_ref = median_topk_symmetric_difference(unsharded, k)
    median_merged = median_topk_symmetric_difference(coordinator, k)
    assert median_merged[0] == median_ref[0]
    assert math.isclose(median_merged[1], median_ref[1], abs_tol=TOLERANCE)

    foot_ref = mean_topk_footrule(unsharded, k)
    foot_merged = mean_topk_footrule(coordinator, k)
    assert foot_merged[0] == foot_ref[0]
    assert math.isclose(foot_merged[1], foot_ref[1], abs_tol=TOLERANCE)

    inter_ref = mean_topk_intersection(unsharded, k)
    inter_merged = mean_topk_intersection(coordinator, k)
    # Assignment optima can tie; the expected distances must agree exactly.
    assert math.isclose(inter_merged[1], inter_ref[1], abs_tol=TOLERANCE)

    membership_ref = unsharded.top_k_membership(k)
    membership_merged = coordinator.top_k_membership(k)
    assert set(membership_ref) == set(membership_merged)
    for key, expected in membership_ref.items():
        assert abs(membership_merged[key] - expected) < TOLERANCE


def brute_force_flat_statistics(tree):
    """Expected ranks and ``Pr(r(t_i) < r(t_j))`` by world enumeration."""
    keys = tree.keys()
    expected = dict.fromkeys(keys, 0.0)
    preference = dict.fromkeys(
        ((first, second) for first in keys for second in keys), 0.0
    )
    for world, probability in enumerate_worlds(tree):
        ranked = sorted(world, key=lambda a: -a.effective_score())
        rank = {a.key: position for position, a in enumerate(ranked, 1)}
        for first in keys:
            position = rank.get(first)
            expected[first] += probability * (position or len(ranked) + 1)
            if position is None:
                continue
            for second in keys:
                if rank.get(second, math.inf) > position:
                    preference[first, second] += probability
    return expected, preference


def assert_flat_statistics_parity(database):
    """The closed-form expected ranks and preference grid, unsharded and
    on a 4-shard coordinator, equal the ``use_fast_path=False`` tree
    oracle and the brute force over every world."""
    tree = database.tree
    expected, preference = brute_force_flat_statistics(tree)
    for source in (
        QuerySession(tree),
        ShardedDatabase(database, 4).coordinator(),
        RankStatistics(tree, use_fast_path=False),
    ):
        table = source.expected_rank_table()
        grid = source.preference_matrix()
        assert set(table) == set(expected)
        for first, value in expected.items():
            assert abs(table[first] - value) < TOLERANCE
            for second in expected:
                assert abs(
                    grid.value(first, second) - preference[first, second]
                ) < TOLERANCE


class TestTupleIndependentParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_full_parity(self, backend_name, shard_count, partitioner):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_tuple_independent_database(17, rng=41)
            unsharded = QuerySession(database.tree)
            sharded = ShardedDatabase(
                database, shard_count, partitioner=partitioner
            )
            coordinator = sharded.coordinator()
            assert_rank_matrix_parity(unsharded, coordinator)
            assert_rank_matrix_parity(unsharded, coordinator, max_rank=K)
            assert_consensus_parity(unsharded, coordinator, K)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_single_tuple_shards(self, backend_name, partitioner):
        """The edge case: as many shards as tuples (plus empty shards)."""
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = small_tuple_independent(7, count=6)
            unsharded = QuerySession(database.tree)
            sharded = ShardedDatabase(database, 6, partitioner=partitioner)
            coordinator = sharded.coordinator()
            if partitioner == "range":
                # Range partitioning fills shards contiguously: exactly one
                # tuple per shard here.
                assert all(
                    len(shard.keys()) == 1 for shard in sharded.shards()
                )
            assert_rank_matrix_parity(unsharded, coordinator)
            assert_consensus_parity(unsharded, coordinator, 3)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_more_shards_than_tuples(self, backend_name):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = small_tuple_independent(9, count=3)
            unsharded = QuerySession(database.tree)
            sharded = ShardedDatabase(database, 8, partitioner="hash")
            coordinator = sharded.coordinator()
            assert_rank_matrix_parity(unsharded, coordinator)
            assert_consensus_parity(unsharded, coordinator, 2)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_pairwise_grid_and_kendall(self, backend_name):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_tuple_independent_database(14, rng=23)
            assert_flat_statistics_parity(database)
            unsharded = QuerySession(database.tree)
            coordinator = ShardedDatabase(database, 4).coordinator()
            assert approximate_topk_kendall(
                coordinator, K
            ) == approximate_topk_kendall(unsharded, K)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_expected_ranks_and_baselines(self, backend_name):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_tuple_independent_database(15, rng=8)
            unsharded = QuerySession(database.tree)
            coordinator = ShardedDatabase(database, 3).coordinator()
            reference = unsharded.expected_rank_table()
            merged = coordinator.expected_rank_table()
            assert set(reference) == set(merged)
            for key, expected in reference.items():
                assert abs(merged[key] - expected) < TOLERANCE
            assert expected_rank_topk(
                coordinator, K
            ) == expected_rank_topk(unsharded, K)
            assert global_topk(coordinator, K) == global_topk(unsharded, K)


class TestBlockIndependentParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_full_parity_blocks_intact(
        self, backend_name, shard_count, partitioner
    ):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            database = random_bid_database(
                11, rng=19, min_alternatives=1, max_alternatives=3
            )
            unsharded = QuerySession(database.tree)
            sharded = ShardedDatabase(
                database, shard_count, partitioner=partitioner
            )
            # Blocks stay intact: every key lives in exactly one shard.
            seen = {}
            for shard in sharded.shards():
                for key in shard.keys():
                    assert key not in seen
                    seen[key] = shard.index
            assert set(seen) == set(database.tree.keys())
            coordinator = sharded.coordinator()
            assert_rank_matrix_parity(unsharded, coordinator)
            assert_consensus_parity(unsharded, coordinator, 4)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bid_pairwise_and_expected_ranks(self, backend_name):
        _backend_or_skip(backend_name)
        with use_backend(backend_name):
            assert_flat_statistics_parity(small_bid(5, blocks=6))
            assert_flat_statistics_parity(
                small_bid(9, blocks=5, exhaustive=True)
            )


class TestShardSummary:
    def test_count_above_matches_bernoulli_product(self):
        from repro.engine import get_backend

        database = small_tuple_independent(3, count=6)
        session = QuerySession(database.tree)
        summary = session.partial_rank_summary(6)
        layout = session.independent_tuple_layout()
        for threshold in [layout[0][2] + 1] + [s for _, _, s in layout]:
            above = [p for _, p, s in layout if s > threshold]
            oracle = get_backend().bernoulli_product(above, 6)
            observed = summary.count_above(threshold)
            for index, coefficient in enumerate(oracle):
                assert abs(observed[index] - coefficient) < TOLERANCE

    def test_summary_is_memoized_per_truncation(self):
        database = small_tuple_independent(4, count=5)
        session = QuerySession(database.tree)
        assert session.partial_rank_summary(3) is session.partial_rank_summary(3)
        assert session.partial_rank_summary(3) is not session.partial_rank_summary(4)
        counters = session.cache_info().artifacts["rank_partials"]
        assert counters.misses == 2 and counters.hits == 2

    def test_general_trees_are_rejected(self):
        from repro.workloads.generators import random_andxor_tree

        tree = random_andxor_tree(8, rng=2)
        session = QuerySession(tree)
        if session.independent_tuple_layout() is None:
            with pytest.raises(ModelError):
                ShardRankSummary(session, 4)
        # A BID layout has no summary either: a sharded BID database reads
        # its rank matrix off its store.
        session = QuerySession(small_bid(5, blocks=6).tree)
        assert session.layout_kind() == "bid"
        with pytest.raises(ModelError):
            session.partial_rank_summary(4)
        store = session.statistics.flat_rows()
        with pytest.raises(ModelError):
            ShardRankSummary.from_layout(store, 4)


class TestShardedDatabase:
    def test_hash_partitioning_is_stable_and_total(self):
        database = random_tuple_independent_database(20, rng=3)
        sharded = ShardedDatabase(database, 4, partitioner="hash")
        for key in database.tree.keys():
            index = sharded.shard_of(key)
            assert index == hash_shard_of(key, 4)
            assert key in sharded.shards()[index].keys()
        assert sorted(sharded.keys()) == sorted(database.tree.keys())
        assert len(sharded) == 20

    def test_range_partitioning_is_score_contiguous(self):
        database = random_tuple_independent_database(16, rng=6)
        sharded = ShardedDatabase(database, 4, partitioner="range")
        layouts = []
        for shard in sharded.shards():
            scores = shard.columns.score_list()
            layouts.append((max(scores), min(scores)))
        # Shard i's whole score range sits above shard i+1's.
        for (_, low), (high, _) in zip(layouts, layouts[1:]):
            assert low > high

    def test_custom_partitioner_and_bounds(self):
        database = random_tuple_independent_database(9, rng=2)
        sharded = ShardedDatabase(
            database, 3, partitioner=lambda key: int(key[1:]) % 3
        )
        assert sharded.shard_of("t4") == 1
        with pytest.raises(ModelError):
            ShardedDatabase(database, 2, partitioner=lambda key: 7)
        with pytest.raises(ModelError):
            ShardedDatabase(database, 0)
        with pytest.raises(ModelError):
            ShardedDatabase(database, 2, partitioner="zigzag")

    def test_raw_tuple_specs(self):
        sharded = ShardedDatabase(
            [("a", 3.0, 0.5), ("b", 2.0, 0.25), ("c", 1.0, 1.0)], 2
        )
        coordinator = sharded.coordinator()
        oracle = QuerySession(
            TupleIndependentDatabase(
                [("a", 3.0, 0.5), ("b", 2.0, 0.25), ("c", 1.0, 1.0)]
            ).tree
        )
        assert_rank_matrix_parity(oracle, coordinator)

    def test_cross_shard_score_collision_rejected(self):
        with pytest.raises(ModelError):
            ShardedDatabase(
                [("a", 3.0, 0.5), ("b", 3.0, 0.25)], 2, partitioner="hash"
            )

    def test_update_invalidates_only_owning_shard(self):
        database = random_tuple_independent_database(12, rng=31)
        sharded = ShardedDatabase(database, 4, partitioner="hash")
        coordinator = sharded.coordinator()
        mean_topk_symmetric_difference(coordinator, 3)
        victims = []
        sharded.subscribe(lambda index, key: victims.append((index, key)))
        target = sharded.keys()[0]
        owner = sharded.shard_of(target)
        versions_before = sharded.versions()
        summaries_before = {
            shard.index: shard.summary(3) for shard in sharded.shards()
        }
        sharded.update_tuple(target, probability=0.011)
        assert victims == [(owner, target)]
        versions_after = sharded.versions()
        for index, (before, after) in enumerate(
            zip(versions_before, versions_after)
        ):
            assert after == before + (1 if index == owner else 0)
        for shard in sharded.shards():
            summary = shard.summary(3)
            if shard.index == owner:
                assert summary is not summaries_before[shard.index]
            else:
                assert summary is summaries_before[shard.index]

    def test_update_parity_with_rebuilt_oracle(self):
        database = random_tuple_independent_database(10, rng=12)
        sharded = ShardedDatabase(database, 3)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix()
        target = sorted(sharded.keys())[2]
        sharded.update_tuple(target, probability=0.42, score=12345.0)
        rebuilt = []
        for shard in sharded.shards():
            columns = shard.columns
            for row, alternative in enumerate(columns.row_alternatives()):
                rebuilt.append(
                    (
                        alternative.key,
                        alternative.value,
                        alternative.score,
                        columns.presence(alternative.key),
                    )
                )
        oracle = QuerySession(TupleIndependentDatabase(rebuilt).tree)
        assert_rank_matrix_parity(oracle, coordinator)
        assert_consensus_parity(oracle, coordinator, 3)

    def test_update_validation(self):
        database = random_tuple_independent_database(6, rng=4)
        sharded = ShardedDatabase(database, 2)
        existing_score = next(
            s for _, _, s in QuerySession(
                database.tree
            ).independent_tuple_layout()
        )
        other = next(
            key for key in sharded.keys()
            if QuerySession(database.tree).statistics.score_of(
                database.tree.alternatives_of(key)[0]
            ) != existing_score
        )
        with pytest.raises(ModelError):
            sharded.update_tuple(other, score=existing_score)
        with pytest.raises(ModelError):
            sharded.update_tuple("no-such-key", probability=0.5)

    def test_stale_update_rejected(self):
        database = random_tuple_independent_database(8, rng=5)
        sharded = ShardedDatabase(database, 2)
        key = sharded.keys()[0]
        pending = sharded.prepare_update(key, probability=0.3)
        sharded.update_tuple(key, probability=0.6)
        with pytest.raises(StaleUpdateError):
            sharded.apply_update(pending)

    def test_abandoned_prepare_leaves_score_registry_intact(self):
        # A prepared-but-never-applied score update must not corrupt
        # distinct-score validation: the registry delta applies on swap.
        sharded = ShardedDatabase(
            [("a", 1.0, 0.5), ("b", 2.0, 0.5), ("c", 3.0, 0.5)], 2
        )
        sharded.prepare_update("a", score=9.0)  # abandoned on purpose
        # "a" still owns 1.0, so "b" must not be allowed to take it...
        with pytest.raises(ModelError):
            sharded.update_tuple("b", score=1.0)
        # ...and 9.0 was never claimed, so "c" may take it.
        sharded.update_tuple("c", score=9.0)
        with pytest.raises(ModelError):
            sharded.update_tuple("a", score=9.0)

    def test_concurrent_score_claim_caught_at_apply(self):
        sharded = ShardedDatabase(
            [("a", 1.0, 0.5), ("b", 2.0, 0.5), ("c", 3.0, 0.5)], 3,
            partitioner=lambda key: {"a": 0, "b": 1, "c": 2}[key],
        )
        pending = sharded.prepare_update("a", score=9.0)
        sharded.update_tuple("b", score=9.0)  # different shard wins 9.0
        with pytest.raises(ModelError):
            sharded.apply_update(pending)

    def test_block_update(self):
        database = random_bid_database(6, rng=7)
        sharded = ShardedDatabase(database, 2)
        coordinator = sharded.coordinator()
        before = coordinator.top_k_membership(2)
        key = sharded.keys()[0]
        sharded.update_block(key, [(99999.0, 99999.0, 1.0)])
        after = coordinator.top_k_membership(2)
        assert abs(after[key] - 1.0) < TOLERANCE
        assert before != after

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_emptied_block_refilled(self, executor, partitioner):
        database = small_bid(23, blocks=6)
        columns = database.columns
        spec = {
            key: [
                (
                    columns.values[row],
                    columns.explicit_scores[row],
                    columns.probabilities[row],
                )
                for row in columns.rows_of(key)
            ]
            for key in columns.keys
        }
        key = columns.keys[1]
        refill = [(6000.0, 6000.0, 0.4), (7.5, 7.5, 0.5)]
        with ShardedDatabase(
            database, 2, partitioner=partitioner, executor=executor
        ) as sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(3)
            for rows in ([], refill):
                sharded.update_block(key, rows)
                oracle = QuerySession(
                    BlockIndependentDatabase({**spec, key: rows}).columns
                )
                assert set(oracle.keys()) == set(coordinator.keys())
                assert_rank_matrix_parity(oracle, coordinator)
                assert_rank_matrix_parity(oracle, coordinator, max_rank=3)
                assert_consensus_parity(oracle, coordinator, 3)

    def test_cache_info_is_read_only(self):
        # A cold counters snapshot must not build shard summaries.
        database = random_tuple_independent_database(12, rng=14)
        sharded = ShardedDatabase(database, 3)
        info = sharded.cache_info()
        assert info == CacheInfo()
        assert all(not shard._summaries for shard in sharded.shards())

    def test_cache_info_rollup(self):
        database = random_tuple_independent_database(12, rng=14)
        sharded = ShardedDatabase(database, 3)
        baseline = sharded.cache_info()
        assert isinstance(baseline, CacheInfo)
        coordinator = sharded.coordinator()
        mean_topk_symmetric_difference(coordinator, 3)
        mean_topk_footrule(coordinator, 3)
        rolled = sharded.cache_info()
        assert rolled.misses > 0
        assert rolled.requests == rolled.hits + rolled.misses
        # Shards hold no sessions: on threads the coordinator's counters
        # are the whole roll-up.
        assert rolled == coordinator.cache_info()
        assert "rank_matrix" in rolled.artifacts

    def test_as_session_coerces_sharded_database(self):
        database = random_tuple_independent_database(9, rng=16)
        sharded = ShardedDatabase(database, 3)
        session = as_session(sharded)
        assert session is sharded.coordinator()
        module_level = mean_topk_symmetric_difference(sharded, 3)
        assert module_level == mean_topk_symmetric_difference(session, 3)


class TestCoordinatorConstruction:
    def test_shards_merge_in_score_order(self):
        rows = [
            ("a", 9.0, 0.5),
            ("b", 7.0, 0.8),
            ("c", 8.0, 0.4),
            ("d", 6.0, 1.0),
        ]
        sharded = ShardedDatabase(
            rows, 2, partitioner=lambda key: 0 if key in ("a", "b") else 1
        )
        coordinator = sharded.coordinator()
        oracle = QuerySession(TupleIndependentDatabase(rows).tree)
        assert coordinator.keys() == ["a", "c", "b", "d"]
        assert_rank_matrix_parity(oracle, coordinator)
        assert_consensus_parity(oracle, coordinator, 2)

    def test_non_database_sources_rejected(self):
        database = small_tuple_independent(2, count=4)
        with pytest.raises(TypeError):
            ShardedQuerySession(database.tree)
        with pytest.raises(TypeError):
            ShardedQuerySession([database.tree, QuerySession(database.tree)])

    def test_set_scoring_rejected(self):
        coordinator = ShardedDatabase(
            [("a", 9.0, 0.5), ("b", 8.0, 0.4)], 2
        ).coordinator()
        with pytest.raises(ValueError):
            coordinator.set_scoring(lambda alternative: 0.0)

    def test_cross_shard_tie_rejected(self):
        # Each shard holds one row; the store holds both, and its own tie
        # check rejects them.
        sharded = ShardedDatabase(
            [("a", 9.0, 0.5), ("b", 9.0, 0.4)],
            2,
            partitioner=lambda key: 0 if key == "a" else 1,
            validate_scores=False,
        )
        assert not sharded.state()[1].tie_free
        with pytest.raises(ModelError, match="of different tuples share"):
            ShardedQuerySession(sharded).rank_matrix()

    def test_validated_store_skips_the_tie_search(self, monkeypatch):
        # The database checked every score, so the coordinator never
        # searches its store for ties, not even after a score update.
        sharded = ShardedDatabase(
            [("a", 9.0, 0.5), ("b", 8.0, 0.4), ("c", 7.0, 0.3)], 2
        )
        assert sharded.state()[1].tie_free
        searches = []
        original = RankStatistics._validate_scores

        def counted(self, groups):
            searches.append(1)
            return original(self, groups)

        monkeypatch.setattr(RankStatistics, "_validate_scores", counted)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix()
        sharded.update_tuple("c", score=10.0)
        assert sharded.state()[1].tie_free
        assert coordinator.keys()[0] == "c"
        coordinator.rank_matrix()
        assert not searches

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_store_score_order_is_a_stable_sort(self, backend_name):
        # The store's blocks are numbered by best score, and its score
        # order is a stable sort of its rows.
        with use_backend(_backend_or_skip(backend_name)):
            for database in (
                random_bid_database(12, rng=5),
                random_tuple_independent_database(20, rng=5),
            ):
                columns = ShardedDatabase(database, 3).coordinator()._columns
                backend = columns.backend
                assert backend.vector_values(columns.order) == (
                    backend.vector_values(
                        backend.descending_order(columns.scores)
                    )
                )
                ordered = backend.vector_values(
                    backend.take_rows(columns.blocks, columns.order)
                )
                assert list(dict.fromkeys(ordered)) == sorted(set(ordered))

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_database_reads_again(self, backend_name):
        with use_backend(_backend_or_skip(backend_name)):
            coordinator = ShardedDatabase([], 2).coordinator()
            assert coordinator._columns.keys == []
            assert coordinator.rank_matrix(2).keys() == []
            coordinator.invalidate()
            assert coordinator.rank_matrix(2).keys() == []
            assert coordinator.keys() == []

    def test_expected_ranks_filed_under_the_vector_they_read(self):
        # An update landing after the merged columns were read but before
        # the expected-rank table is memoized must not file the old
        # vector's table under the new one, which pinned readers share.
        rows = [("a", 3.0, 0.5), ("b", 2.0, 0.5), ("c", 1.0, 0.5)]
        sharded = ShardedDatabase(rows, 2)
        coordinator = sharded.coordinator()
        coordinator.keys()
        memoized = coordinator._memoized

        def update_first(artifact, params, compute):
            if artifact == "expected_rank_table":
                sharded.update_tuple("c", probability=0.9)
            return memoized(artifact, params, compute)

        coordinator._memoized = update_first
        coordinator.expected_rank_table()
        del coordinator._memoized
        expected = QuerySession(
            TupleIndependentDatabase(rows[:2] + [("c", 1.0, 0.9)]).tree
        ).expected_rank_table()
        reader = coordinator.at(sharded.versions())
        filed = reader._cache[("expected_rank_table", ())]
        assert filed == pytest.approx(expected, abs=TOLERANCE)


class TestMergedTreeFallbacks:
    def test_tree_and_statistics_track_updates(self):
        # Direct tree/statistics reads between an update and the next
        # memoized query must not serve pre-update probabilities.
        sharded = ShardedDatabase(
            [("a", 3.0, 0.5), ("b", 2.0, 0.5), ("c", 1.0, 0.5)], 2
        )
        coordinator = sharded.coordinator()
        assert coordinator.tree.key_probability("a") == pytest.approx(0.5)
        sharded.update_tuple("a", probability=0.9)
        assert coordinator.tree.key_probability("a") == pytest.approx(0.9)
        sharded.update_tuple("a", probability=0.7)
        layout = coordinator.statistics.independent_tuple_layout()
        assert dict(
            (key, probability) for key, probability, _ in layout
        )["a"] == pytest.approx(0.7)

    def test_world_level_queries_use_merged_tree(self):
        database = small_tuple_independent(6, count=5)
        unsharded = QuerySession(database.tree)
        coordinator = ShardedDatabase(database, 2).coordinator()
        assert mean_world_symmetric_difference(coordinator.tree) == (
            mean_world_symmetric_difference(unsharded.tree)
        )
        assert mean_world_jaccard_tuple_independent(coordinator.tree) == (
            mean_world_jaccard_tuple_independent(unsharded.tree)
        )

    def test_sampler_runs_on_merged_tree(self):
        database = small_tuple_independent(8, count=5)
        coordinator = ShardedDatabase(database, 2).coordinator()
        batch = coordinator.sampler().sample_batch(500, rng=13)
        marginals = batch.marginals()
        probabilities = dict(
            (key, p)
            for key, p, _ in QuerySession(
                database.tree
            ).independent_tuple_layout()
        )
        for key, estimate in marginals.items():
            assert abs(estimate - probabilities[key]) < 0.15
