"""Columnar TI/BID storage: parity with the tree path, patching, laziness.

Tuple-independent and BID databases store :class:`FlatColumns`; their
sessions must answer every query exactly as a session over the tree the
builders produce, keep seeded sample streams identical (the lazily built
tree has the builders' leaf order), and leave the tree unbuilt on the
exact rank-statistics reads.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_READS
from repro import Query, QuerySession, connect, use_backend
from repro.andxor.builders import bid_tree, tuple_independent_tree
from repro.andxor.columns import FlatColumns
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.sampling import sample_worlds
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import numpy_available
from repro.exceptions import (
    KeyConstraintError,
    ModelError,
    ProbabilityError,
    ReproError,
)
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.query.results import ResultCache
from repro.serving import ServingExecutor

TOLERANCE = 1e-9
BACKEND_NAMES = ["python", "numpy"] if numpy_available() else ["python"]



def same(expected, actual) -> bool:
    """Structural equality with floats compared to ``TOLERANCE``."""
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=0.0, abs_tol=TOLERANCE)
    if isinstance(expected, dict):
        return expected.keys() == actual.keys() and all(
            same(expected[key], actual[key]) for key in expected
        )
    if isinstance(expected, (list, tuple)):
        return len(expected) == len(actual) and all(
            same(left, right) for left, right in zip(expected, actual)
        )
    return expected == actual


def queries(k: int):
    return [
        Query.topk(k, "footrule"),
        Query.topk(k, "symmetric_difference"),
        Query.topk(k, "symmetric_difference").median(),
        Query.membership(k),
        Query.topk(k, "intersection"),
        Query.world("jaccard"),
        Query.world("jaccard").median(),
        Query.ranking("global", k),
        Query.ranking("expected_rank", k),
    ]


@st.composite
def ti_specs(draw):
    """``(key, value, score, probability)`` rows with distinct scores."""
    count = draw(st.integers(min_value=1, max_value=6))
    scores = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    probabilities = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=count,
            max_size=count,
        )
    )
    return [
        (f"t{index}", f"v{index}", float(score), probability)
        for index, (score, probability) in enumerate(zip(scores, probabilities))
    ]


@st.composite
def bid_specs(draw):
    """``(key, [(value, score, probability), ...])`` blocks, distinct
    scores, block probabilities summing to at most one."""
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)
    )
    scores = iter(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=60),
                min_size=sum(sizes),
                max_size=sum(sizes),
                unique=True,
            )
        )
    )
    blocks = []
    for index, size in enumerate(sizes):
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        mass = draw(st.floats(min_value=0.1, max_value=1.0))
        total = sum(weights)
        blocks.append(
            (
                f"b{index}",
                [
                    (f"r{position}", float(next(scores)), mass * weight / total)
                    for position, weight in enumerate(weights)
                ],
            )
        )
    return blocks


def ti_tree(specs) -> AndXorTree:
    return tuple_independent_tree(
        [
            (TupleAlternative(key, value, score), probability)
            for key, value, score, probability in specs
        ]
    )


def bid_oracle_tree(blocks) -> AndXorTree:
    return bid_tree(
        [
            (key, [(value, probability) for value, _, probability in rows])
            for key, rows in blocks
        ],
        scores={
            (key, value): score
            for key, rows in blocks
            for value, score, _ in rows
        },
    )


def outcome(session, query):
    """The answer value, or the error type for infeasible answers."""
    try:
        return session.execute(query).value
    except ReproError as error:
        return type(error)


def assert_parity(database, oracle_tree, k) -> None:
    columnar = QuerySession(database.columns)
    oracle = QuerySession(oracle_tree)
    for query in queries(k):
        expected = outcome(oracle, query)
        actual = outcome(columnar, query)
        assert same(expected, actual), (query, expected, actual)


class TestDifferentialParity:
    """Columnar sessions answer exactly as sessions over builder trees."""

    @settings(max_examples=40, deadline=None)
    @given(specs=ti_specs(), data=st.data())
    def test_tuple_independent(self, specs, data):
        k = data.draw(st.integers(min_value=1, max_value=len(specs)))
        assert_parity(TupleIndependentDatabase(specs), ti_tree(specs), k)

    @settings(max_examples=40, deadline=None)
    @given(blocks=bid_specs(), data=st.data())
    def test_block_independent(self, blocks, data):
        k = data.draw(st.integers(min_value=1, max_value=len(blocks)))
        assert_parity(
            BlockIndependentDatabase(blocks), bid_oracle_tree(blocks), k
        )

    @settings(max_examples=15, deadline=None)
    @given(specs=ti_specs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_sampled_route_same_stream(self, specs, seed):
        database = TupleIndependentDatabase(specs)
        query = Query.topk(min(2, len(specs)), "kendall").sampled(64)
        expected = QuerySession(ti_tree(specs)).execute(query, rng=seed)
        actual = QuerySession(database.columns).execute(query, rng=seed)
        assert expected.plan.route == actual.plan.route == "sample"
        assert same(expected.value, actual.value)

    @settings(max_examples=15, deadline=None)
    @given(blocks=bid_specs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_bid_sampled_worlds_same_stream(self, blocks, seed):
        database = BlockIndependentDatabase(blocks)
        expected = sample_worlds(bid_oracle_tree(blocks), 5, random.Random(seed))
        assert database.sample_worlds(5, random.Random(seed)) == expected


class TestLazyTree:
    def test_tree_matches_builder_leaf_order(self):
        specs = [("a", 4, 0.5), ("b", "x", 2.0, 0.25), ("c", 9, 1.0)]
        database = TupleIndependentDatabase(specs)
        assert database.columns._tree is None
        expected = tuple_independent_tree(
            [(TupleAlternative(*spec[:-1]), spec[-1]) for spec in specs]
        )
        built = database.tree
        assert [
            (leaf.alternative, p) for leaf, p in built.leaf_probabilities()
        ] == [(leaf.alternative, p) for leaf, p in expected.leaf_probabilities()]
        assert database.tree is built

    def test_reads_leave_ti_tree_unbuilt(self):
        database = TupleIndependentDatabase(
            [(f"t{i}", f"v{i}", float(i), 0.1 + 0.8 * i / 20) for i in range(20)]
        )
        connection = connect(database, result_cache=False)
        for query in BENCHMARK_READS:
            connection.execute(query)
        assert database.columns._tree is None

    def test_median_topk_leaves_ti_tree_unbuilt(self):
        database = TupleIndependentDatabase(
            [
                (f"t{i}", f"v{i}", float(i), 0.05 + 0.9 * i / 2000)
                for i in range(2000)
            ]
        )
        connection = connect(database, result_cache=False)
        connection.execute(Query.topk(10).median())
        assert connection.session._columns._tree is None

    def test_reads_leave_bid_tree_unbuilt(self):
        database = BlockIndependentDatabase(
            [
                (
                    f"b{block}",
                    [
                        (f"v{block}.{i}", 10.0 * block + i, 0.9 / (1 + size))
                        for i in range(size)
                    ],
                )
                for block, size in enumerate([1, 2, 3, 2, 1, 3, 2, 4])
            ]
        )
        connection = connect(database, result_cache=False)
        for query in BENCHMARK_READS + (
            Query.named("expected_rank_table"),
            Query.named("expected_rank_topk", 3),
            Query.named("approximate_topk_kendall", 3),
        ):
            connection.execute(query)
        statistics = connection.session.statistics
        for key in statistics.keys():
            statistics.rank_at_most(key, 3)
        assert database.columns._tree is None

    def test_reads_leave_shard_trees_unbuilt_after_updates(self):
        rows = [
            (f"t{i}", f"v{i}", float(i), 0.1 + 0.8 * i / 40) for i in range(40)
        ]
        sharded = ShardedDatabase(TupleIndependentDatabase(rows), 4)
        connection = connect(sharded, result_cache=False)
        for index, query in enumerate(BENCHMARK_READS):
            sharded.update_tuple(rows[index * 7][0], probability=0.5)
            connection.execute(query)
        assert sharded.executor == "threads"
        assert sharded.state()[1]._tree is None

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_merged_reads_read_the_one_store(
        self, model, executor, backend_name
    ):
        """World, aggregate, expected-rank, Kendall and sampled reads on a
        sharded database read its one store: live, and through a reader
        pinned at a superseded vector, which reads that vector's store
        from the history.  Every exact answer is the unsharded one."""
        if model == "ti":
            data = [
                (f"t{i}", f"v{i}", float(i), 0.1 + 0.8 * i / 24)
                for i in range(24)
            ]

            def build(data):
                return TupleIndependentDatabase(data)

            def updated(sharded, data, index):
                key, value, score, probability = data[index]
                sharded.update_tuple(key, probability=1.0 - probability)
                return (
                    data[:index]
                    + [(key, value, score, 1.0 - probability)]
                    + data[index + 1 :]
                )

        else:
            # Exhaustive blocks whose values name the groups, in one group
            # order, so the group-by-count aggregate applies.
            data = [
                (
                    f"b{block}",
                    [
                        (f"g{j}", 10.0 * block + j, weight / 6.0)
                        for j, weight in enumerate(
                            [1 + block % 3, 3 - block % 3, 2]
                        )
                    ],
                )
                for block in range(8)
            ]

            def build(data):
                return BlockIndependentDatabase(data)

            def updated(sharded, data, index):
                key, rows = data[index]
                rows = [
                    (value, score, p)
                    for (value, score, _), (_, _, p) in zip(rows, rows[::-1])
                ]
                sharded.update_block(key, rows)
                return data[:index] + [(key, rows)] + data[index + 1 :]

        exact = [
            Query.world("symmetric_difference"),
            Query.world("symmetric_difference").median(),
            Query.world("jaccard"),
            Query.world("jaccard").median(),
            Query.named("expected_rank_table"),
            Query.named("approximate_topk_kendall", 3),
        ] + ([Query.aggregate()] if model == "bid" else [])
        sampled = Query.topk(3, "footrule").sampled(64)
        with use_backend(backend_name):
            with ShardedDatabase(build(data), 4, executor=executor) as sharded:
                coordinator = sharded.coordinator()
                pinned, pinned_data = sharded.versions(), data
                pinned_store = sharded.state()[1]
                connect(coordinator.at(pinned), result_cache=False).execute(
                    exact[0]
                )
                for index in (0, 3, 6):
                    data = updated(sharded, data, index)
                reader = coordinator.at(pinned)
                assert reader.pinned_versions != sharded.versions()
                # Re-resolve the superseded store from the history.
                reader.invalidate()
                for session, state in (
                    (sharded, data),
                    (reader, pinned_data),
                ):
                    connection = connect(session, result_cache=False)
                    oracle = connect(build(state), result_cache=False)
                    for query in exact:
                        assert same(
                            oracle.execute(query).value,
                            connection.execute(query).value,
                        ), query
                    connection.execute(sampled)
                assert reader._columns is pinned_store
                assert coordinator._columns is sharded.state()[1]


class TestSessionLifetime:
    def test_dropped_relation_frees_its_session_without_gc(self):
        """No reference cycle keeps a dropped database's artifacts alive
        until a full collection (plans, footrule tables, statistics)."""
        import gc
        import weakref

        database = TupleIndependentDatabase(
            [(f"t{i}", f"v{i}", float(i), 0.5) for i in range(20)]
        )
        connection = connect(database, result_cache=False)
        for query in BENCHMARK_READS:
            connection.execute(query)
        session = weakref.ref(connection.session)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del connection, database
            assert session() is None
        finally:
            if enabled:
                gc.enable()


class TestValidation:
    def test_duplicate_keys(self):
        with pytest.raises(ProbabilityError):
            TupleIndependentDatabase([("a", 1, 0.5), ("a", 2, 0.5)])
        with pytest.raises(ProbabilityError):
            BlockIndependentDatabase([("a", [(1, 0.5)]), ("a", [(2, 0.5)])])

    @pytest.mark.parametrize("probability", [-0.1, 1.5, float("nan")])
    def test_tuple_probability_range(self, probability):
        with pytest.raises(ProbabilityError):
            TupleIndependentDatabase([("a", 1, probability)])

    def test_block_sum(self):
        with pytest.raises(ProbabilityError):
            BlockIndependentDatabase({"a": [(1, 0.6), (2, 0.5)]})
        BlockIndependentDatabase({"a": [(1, 0.6), (2, 0.4 + 1e-10)]})

    def test_distinct_scores_checked_on_columns(self):
        database = TupleIndependentDatabase([("a", 5, 0.5), ("b", 5, 0.5)])
        with pytest.raises(ModelError):
            QuerySession(database.columns).rank_matrix(1)
        QuerySession(database.columns, validate_scores=False).rank_matrix(1)

    def test_unscored_columns_raise_type_error(self):
        database = TupleIndependentDatabase([("a", "x", 0.5)])
        session = QuerySession(database.columns)
        assert session.number_of_tuples() == 1
        with pytest.raises(TypeError):
            session.rank_matrix(1)

    def test_flat_tree_columns(self):
        assert FlatColumns.from_tree(bid_tree({"a": [(1, 0.5)]})) is not None
        from repro.andxor.builders import figure1_correlated_example

        assert FlatColumns.from_tree(figure1_correlated_example()) is None


class TestPatchedUpdates:
    def rows(self):
        return [(f"t{i}", float(i), float(i), 0.05 + i / 40) for i in range(30)]

    @pytest.mark.parametrize("score", [None, 100.0])
    def test_patch_equals_rebuild(self, score):
        sharded = ShardedDatabase(TupleIndependentDatabase(self.rows()), 3)
        sharded.coordinator().rank_matrix(5)
        sharded.update_tuple("t7", probability=0.9, score=score)
        # t7's value doubles as its score, so a score update moves both.
        moved = 7.0 if score is None else score
        rows = [
            ("t7", moved, moved, 0.9) if row[0] == "t7" else row
            for row in self.rows()
        ]
        # The published store is the whole patched store, blocks in
        # best-score order.
        rebuilt = TupleIndependentDatabase(
            sorted(rows, key=lambda row: row[2], reverse=True)
        ).columns
        patched = sharded.state()[1]
        assert patched.keys == rebuilt.keys
        assert patched.values == rebuilt.values
        assert patched.explicit_scores == rebuilt.explicit_scores
        # The numeric columns are native vectors (lists or ndarrays).
        assert list(patched.probabilities) == list(rebuilt.probabilities)
        assert list(patched.scores) == list(rebuilt.scores)
        assert list(patched.order) == list(rebuilt.order)
        expected = connect(TupleIndependentDatabase(rows), result_cache=False)
        served = connect(sharded, result_cache=False)
        for query in BENCHMARK_READS:
            assert same(
                expected.execute(query).value, served.execute(query).value
            )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_one_store(self, executor, monkeypatch):
        """The database holds its rows once: a probability update builds
        one patched store and the read that follows builds no columns at
        all, reading that store itself."""
        with ShardedDatabase(
            TupleIndependentDatabase(self.rows()), 4, executor=executor
        ) as sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(10)
            built = []
            original = FlatColumns.__init__

            def counted(columns, *args, **kwargs):
                built.append(1)
                original(columns, *args, **kwargs)

            monkeypatch.setattr(FlatColumns, "__init__", counted)
            sharded.update_tuple("t7", probability=0.9)
            coordinator.rank_matrix(10)
            monkeypatch.undo()
            assert len(built) == 1
            assert coordinator._columns is sharded.state()[1]

    def test_patch_keeps_score_order_when_scores_unchanged(self):
        database = TupleIndependentDatabase(self.rows())
        order = database.columns.order
        patched = database.columns.replace_block(
            "t3", [(3.0, 3.0, 0.5)], independent=True
        )
        assert patched.order is order
        assert database.columns.probabilities[3] != 0.5  # original intact

    def test_probability_update_keeps_the_tie_check(self, monkeypatch):
        """A patch that moves no score keeps the checked-distinct state,
        so the statistics rebuilt on it skip the tie check."""
        database = TupleIndependentDatabase(self.rows())
        RankStatistics(database.columns)
        assert database.columns.tie_free
        patched = database.columns.replace_block(
            "t3", [(3.0, 3.0, 0.5)], independent=True
        )
        assert patched.tie_free
        checks = []
        monkeypatch.setattr(
            RankStatistics, "_validate_scores", lambda self, groups: checks.append(1)
        )
        RankStatistics(patched)
        assert not checks

    def test_sharded_probability_update_skips_the_tie_check(self, monkeypatch):
        sharded = ShardedDatabase(TupleIndependentDatabase(self.rows()), 3)
        sharded.coordinator().rank_matrix(5)
        checks = []
        original = RankStatistics._validate_scores

        def counted(self, groups):
            checks.append(1)
            return original(self, groups)

        monkeypatch.setattr(RankStatistics, "_validate_scores", counted)
        sharded.update_tuple("t7", probability=0.9)
        sharded.coordinator().rank_matrix(5)
        assert not checks

    def test_update_creating_a_tie_still_raises(self):
        database = TupleIndependentDatabase(self.rows())
        RankStatistics(database.columns)
        # t4's score is 4.0: moving t3 onto it ties two keys.
        patched = database.columns.replace_block(
            "t3", [(3.0, 4.0, 0.5)], independent=True
        )
        assert not patched.tie_free
        with pytest.raises(ModelError, match="share score 4.0"):
            RankStatistics(patched)
        sharded = ShardedDatabase(TupleIndependentDatabase(self.rows()), 3)
        sharded.coordinator().rank_matrix(5)
        with pytest.raises(ModelError, match="ranking assumes distinct"):
            sharded.update_tuple("t3", score=4.0)

    def test_block_update_patch(self):
        blocks = [
            ("a", [("x", 1.0, 0.3), ("y", 2.0, 0.3)]),
            ("b", [("z", 3.0, 0.5)]),
            ("c", [("w", 4.0, 0.2), ("v", 5.0, 0.2)]),
        ]
        sharded = ShardedDatabase(BlockIndependentDatabase(blocks), 1)
        sharded.coordinator().rank_matrix(2)
        sharded.update_block("a", [("x", 1.5, 0.1), ("u", 6.0, 0.2), ("t", 7.0, 0.3)])
        updated = [
            ("a", [("x", 1.5, 0.1), ("u", 6.0, 0.2), ("t", 7.0, 0.3)])
        ] + blocks[1:]
        # The shard's rows come out of the store in best-score order.
        columns = sharded.shards()[0].columns
        assert columns.keys == ["a", "c", "b"]
        assert list(columns.blocks) == [0, 0, 0, 1, 1, 2]
        # Top-2 intersection ties between {a, b} and {a, c}; a tie goes to
        # the first key, and a sharded database lists its keys in the
        # store's order, whatever its shard count.
        oracle = QuerySession(
            bid_oracle_tree([updated[0], updated[2], updated[1]])
        )
        served = connect(sharded, result_cache=False)
        for query in queries(2):
            assert same(
                oracle.execute(query).value, served.execute(query).value
            ), query

    def test_block_update_validates_only_the_new_block(self):
        sharded = ShardedDatabase(
            BlockIndependentDatabase({"a": [(1, 0.5)], "b": [(2, 0.5)]}), 1
        )
        sharded.coordinator().rank_matrix(1)
        before = sharded.state()
        with pytest.raises(ProbabilityError):
            sharded.update_block("a", [(1, 1.0, 0.7), (3, 3.0, 0.7)])
        assert sharded.state() is before
        independent = ShardedDatabase(
            TupleIndependentDatabase([("a", 1, 0.5), ("b", 2, 0.5)]), 1
        )
        independent.coordinator().rank_matrix(1)
        before = independent.state()
        with pytest.raises(ProbabilityError):
            independent.update_tuple("a", probability=1.5)
        assert independent.state() is before


class TestTreeIndexCaching:
    def test_keys_and_alternatives_are_cached_copies(self):
        tree = bid_tree({"a": [(1, 0.5), (2, 0.5)], "b": [(3, 0.5)]})
        keys = tree.keys()
        keys.append("mutated")
        assert tree.keys() == ["a", "b"]
        alternatives = tree.alternatives()
        alternatives.clear()
        assert len(tree.alternatives()) == 3

    def test_key_constraint_still_checked(self):
        from repro.andxor.nodes import AndNode, Leaf

        with pytest.raises(KeyConstraintError):
            AndXorTree(
                AndNode(
                    [Leaf(TupleAlternative("a", 1)), Leaf(TupleAlternative("a", 2))]
                )
            )


class TestCacheHitElapsed:
    """A cache hit reports its own lookup time, not the original compute's."""

    def database(self):
        return TupleIndependentDatabase(
            [(f"t{i}", f"v{i}", float(i), 0.5) for i in range(200)]
        )

    def test_connection_hit(self):
        connection = connect(self.database())
        query = Query.topk(5, "footrule")
        first = connection.execute(query)
        # Pretend the original compute took five seconds.
        connection.result_cache.put(
            connection._answer_key(query), replace(first, elapsed=5.0)
        )
        hit = connection.execute(query)
        assert hit.cached
        assert 0.0 <= hit.elapsed < 5.0

    def test_executor_hit(self):
        async def run():
            executor = ServingExecutor(
                ShardedDatabase(self.database(), 2),
                result_cache=ResultCache(capacity=8),
            )
            await executor.start()
            try:
                query = Query.topk(5, "footrule")
                first = await executor.execute(query)
                hit = await executor.execute(query)
                return first, hit
            finally:
                await executor.stop()

        first, hit = asyncio.run(run())
        assert not first.cached and hit.cached
        assert hit.elapsed < first.elapsed
