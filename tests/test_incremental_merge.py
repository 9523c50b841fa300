"""Incremental cross-shard re-merge and MVCC snapshot-read suite.

Covers the prefix/suffix partial-product merge engine (1e-9 parity with
one unsharded session before and after an incremental re-merge, across
models, partitioners, shard counts, backends and executors), its O(S)
convolution budget, served and pinned reads patching the one shared
merged layout after a probability-only update, version-pinned snapshot
readers staying 1e-9-identical across concurrent shard swaps (and reads
racing a swap) while their stale merges leave the live engine and the
layout patch base alone, the bounded snapshot history actually evicting,
archived shard states resolving at the pinned version, a sharded BID
database answering from its store with no shard summary and no merge, and
the seeded update-heavy / bursty traffic streams.
"""

from __future__ import annotations

import asyncio
import math
import random
import threading

import pytest

from conftest import small_bid
from repro import Query, connect
from repro.consensus import (
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.andxor.columns import FlatColumns
from repro.engine import get_backend, numpy_available, use_backend
from repro.exceptions import SnapshotTooOldError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.models.sharded import DatabaseShard
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.sharding.summary import ShardRankSummary
from repro.sharding.merge import MergeEngine
from repro.workloads.traffic import (
    bursty_traffic,
    generate_traffic,
    traffic_signature,
    update_heavy_traffic,
)

BACKENDS = ["python", "numpy"]
TOLERANCE = 1e-9
K = 5


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    return backend_name


def _ti_tuples(seed, count):
    rng = random.Random(seed)
    scores = rng.sample(range(10, 9000), count)
    return [
        (f"t{i + 1}", float(scores[i]), float(scores[i]),
         round(rng.uniform(0.05, 0.95), 3))
        for i in range(count)
    ]


def _bid_spec(seed, blocks):
    rng = random.Random(seed)
    scores = iter(rng.sample(range(10, 9000), blocks * 3))
    spec = []
    for index in range(blocks):
        count = rng.randint(1, 3)
        raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
        norm = sum(raw) / 0.8
        alternatives = []
        for j in range(count):
            score = float(next(scores))
            alternatives.append((score, score, raw[j] / norm))
        spec.append((f"t{index + 1}", alternatives))
    return spec


def _matrix_rows(session, max_rank):
    matrix = session.rank_matrix(max_rank)
    return {key: list(matrix.row(key)) for key in matrix.keys()}


def assert_rows_close(left, right, tolerance=TOLERANCE):
    assert set(left) == set(right)
    for key, row in left.items():
        other = right[key]
        assert len(row) == len(other)
        for a, b in zip(row, other):
            assert abs(a - b) < tolerance


def _small_bid_spec(seed, blocks):
    """``small_bid``'s spec (it uses each alternative's value as its score)."""
    return [
        (key, [(value, value, p) for value, p in alternatives])
        for key, alternatives in small_bid(seed, blocks=blocks).blocks().items()
    ]


def _database(data):
    """TI tuples or a BID spec as an unsharded database."""
    if isinstance(data[0][1], list):
        return BlockIndependentDatabase(data)
    return TupleIndependentDatabase(data)


def _unsharded_rows(data):
    return _matrix_rows(QuerySession(_database(data).tree), K)


def _update(sharded, data, key, factor=0.5):
    """Scale ``key``'s probabilities in ``sharded``; returns the new data."""
    if isinstance(data[0][1], list):
        block = [(v, s, p * factor) for v, s, p in dict(data)[key]]
        sharded.update_block(key, block)
        return [(k, block if k == key else alts) for k, alts in data]
    probability = next(p for k, _, _, p in data if k == key) * factor
    sharded.update_tuple(key, probability=probability)
    return _with_probability(data, key, probability)


def _with_probability(data, key, probability):
    """TI tuples with ``key``'s probability replaced."""
    return [(k, v, s, probability if k == key else p) for k, v, s, p in data]


#: Exact reads rotated by the served-patch tests.
READS = (
    Query.topk(K, "footrule"),
    Query.topk(K, "symmetric_difference"),
    Query.membership(K),
    Query.topk(K, "intersection"),
)


def assert_value_close(left, right, tolerance=TOLERANCE):
    """Answer values equal, floats to ``tolerance``."""
    if isinstance(left, (tuple, list)):
        assert type(left) is type(right) and len(left) == len(right)
        for a, b in zip(left, right):
            assert_value_close(a, b, tolerance)
    elif isinstance(left, dict):
        assert set(left) == set(right)
        for key in left:
            assert_value_close(left[key], right[key], tolerance)
    elif isinstance(left, float):
        assert math.isclose(left, right, abs_tol=tolerance)
    else:
        assert left == right


def _oracle(data, query):
    """``query`` answered by a fresh unsharded session over ``data``."""
    session = QuerySession(_database(data).tree)
    return connect(session, result_cache=False).execute(query).value


def _keys_of_distinct_shards(sharded, count):
    owners = {}
    for key in sharded.keys():
        owners.setdefault(sharded.shard_of(key), key)
    return list(owners.values())[:count]


class TestIncrementalVsRebuildParity:
    """An incremental single-shard re-merge answers exactly like a rebuild
    from scratch: a fresh unsharded session over the updated data."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize(
        "model, shard_count, partitioner",
        [
            (model, shard_count, partitioner)
            for model in ("ti", "bid")
            for shard_count in (1, 2, 4, 8)
            for partitioner in ("hash", "range")
        ]
        + [("small_bid", 3, "hash")],
    )
    def test_parity_after_update(
        self, model, shard_count, partitioner, executor, backend_name
    ):
        with use_backend(_backend_or_skip(backend_name)):
            if model == "ti":
                data = _ti_tuples(shard_count + 17, 14)
            elif model == "bid":
                data = _bid_spec(shard_count + 29, 7)
            else:
                data = _small_bid_spec(13, 7)
            sharded = ShardedDatabase(
                _database(data), shard_count,
                partitioner=partitioner, executor=executor,
            )
            with sharded:
                coordinator = sharded.coordinator()
                assert_rows_close(
                    _unsharded_rows(data), _matrix_rows(coordinator, K)
                )
                # A single-shard swap re-merges through cached partial
                # products; answers must still match to 1e-9.
                data = _update(sharded, data, data[2][0], 0.7)
                reference = QuerySession(_database(data).tree)
                assert_rows_close(
                    _matrix_rows(reference, K), _matrix_rows(coordinator, K)
                )
                mean = mean_topk_symmetric_difference(coordinator, K)
                mean_ref = mean_topk_symmetric_difference(reference, K)
                assert mean[0] == mean_ref[0]
                assert abs(mean[1] - mean_ref[1]) < TOLERANCE
                membership = coordinator.top_k_membership(K)
                for key, value in reference.top_k_membership(K).items():
                    assert abs(membership[key] - value) < TOLERANCE


def _grid_alternatives(data):
    """``(score, key, slot in its block)`` of every alternative in the
    merge grid's order (decreasing score)."""
    if isinstance(data[0][1], list):
        rows = [
            (score, key, slot)
            for key, alternatives in data
            for slot, (_, score, _) in enumerate(alternatives)
        ]
    else:
        rows = [(score, key, 0) for key, _, score, _ in data]
    return sorted(rows, reverse=True)


def _rescale_alternative(sharded, data, key, slot, factor):
    """Scale one alternative's probability in ``sharded``; returns the new
    data."""
    if isinstance(data[0][1], list):
        block = [
            (v, s, p * factor if j == slot else p)
            for j, (v, s, p) in enumerate(dict(data)[key])
        ]
        sharded.update_block(key, block)
        return [(k, block if k == key else alts) for k, alts in data]
    probability = next(p for k, _, _, p in data if k == key) * factor
    sharded.update_tuple(key, probability=probability)
    return _with_probability(data, key, probability)


def _full_merge(coordinator, max_rank):
    """The coordinator's current shard summaries merged by a throwaway
    engine: ``({key: row}, rows it convolved)``."""
    backend = get_backend()
    columns = coordinator._columns
    summaries = [
        shard.summary(max_rank)
        for shard in coordinator._database.shards()
        if not shard.is_empty
    ]
    engine = MergeEngine()
    native = engine.merge(summaries, max_rank, columns, backend)
    rows = dict(zip(columns.keys, backend.matrix_to_lists(native)))
    return rows, engine.stats().convolved_rows


class TestRowSuffixRefresh:
    """An incremental merge re-convolves only the grid rows at and below
    the first changed alternative, and equals a full merge."""

    def _merge_delta(self, coordinator):
        before = coordinator.merge_stats()
        merged = _matrix_rows(coordinator, K)
        delta = coordinator.merge_stats() - before
        assert delta.incremental_merges == 1
        assert delta.full_merges == 0
        full, full_rows = _full_merge(coordinator, K)
        assert_rows_close(full, merged, 1e-12)
        return delta, full_rows

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_refresh_matches_a_full_merge(
        self, model, executor, backend_name
    ):
        with use_backend(_backend_or_skip(backend_name)):
            data = _ti_tuples(97, 30) if model == "ti" else _bid_spec(97, 15)
            grid = _grid_alternatives(data)
            with ShardedDatabase(
                _database(data), 3, executor=executor
            ) as sharded:
                coordinator = sharded.coordinator()
                coordinator.rank_matrix(K)
                pair = {}
                for alternative in grid[len(grid) // 3 :]:
                    pair.setdefault(sharded.shard_of(alternative[1]),
                                    alternative)
                # The top, middle and bottom grid rows, then two shards
                # between one pair of merges.
                steps = [
                    [grid[0]],
                    [grid[len(grid) // 2]],
                    [grid[-1]],
                    list(pair.values())[:2],
                ]
                for step in steps:
                    for _, key, slot in step:
                        data = _rescale_alternative(
                            sharded, data, key, slot, 0.6
                        )
                    if model == "bid":
                        # A BID database reads its store's matrix.
                        assert_rows_close(
                            _unsharded_rows(data),
                            _matrix_rows(coordinator, K),
                        )
                        continue
                    delta, full_rows = self._merge_delta(coordinator)
                    assert 0 < delta.convolved_rows < full_rows
                assert_rows_close(
                    _unsharded_rows(data), _matrix_rows(coordinator, K)
                )
                if model == "bid":
                    assert coordinator.merge_stats().merges == 0
                    if executor == "processes":
                        # BID reads only the parent's store.
                        assert sharded.process_pool().worker_count() == 0
                    return
                # New columns with the same content re-convolve nothing.
                _, key, slot = grid[0]
                data = _rescale_alternative(sharded, data, key, slot, 1.0)
                delta, _ = self._merge_delta(coordinator)
                assert delta.convolved_rows == 0
                assert delta.convolutions == 0
                if executor == "processes":
                    # A respawned worker ships a new summary over the same
                    # rows; the version vector, and with it the memoized
                    # matrix, stays, so merge past the memo.
                    pool = sharded.process_pool()
                    worker = pool._workers[sharded.shard_of(key)].process
                    worker.terminate()
                    worker.join(10)
                    assert pool.restart_worker(sharded.shard_of(key))
                    merged = coordinator._engine._states[K].summaries
                    before = coordinator.merge_stats()
                    coordinator._merged_rank_matrix(K)
                    delta = coordinator.merge_stats() - before
                    assert coordinator._engine._states[K].summaries != merged
                    assert delta.incremental_merges == 1
                    assert delta.convolved_rows == 0

    def test_counts_rows_of_every_convolution(self):
        sharded = ShardedDatabase(_ti_tuples(5, 48), 4, partitioner="hash")
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        stats = coordinator.merge_stats()
        sizes = [len(shard.keys()) for shard in sharded.shards()]
        assert all(sizes)
        # A full merge convolves two prefix and two suffix grids, the two
        # inner shards' all-others rows and every shard's final rows.
        assert stats.convolutions == 2 + 2 + 2 + 4
        assert stats.convolved_rows == (
            4 * sum(sizes) + sizes[1] + sizes[2] + sum(sizes)
        )


class TestMergeEngineLock:
    def test_clear_waits_for_a_merge(self, monkeypatch):
        sharded = ShardedDatabase(_ti_tuples(5, 24), 3)
        coordinator = sharded.coordinator()
        engine = coordinator._engine
        merging, resume = threading.Event(), threading.Event()
        convolve = MergeEngine._convolve

        def paused(self, *args):
            merging.set()
            assert resume.wait(10)
            return convolve(self, *args)

        monkeypatch.setattr(MergeEngine, "_convolve", paused)
        reader = threading.Thread(target=coordinator.rank_matrix, args=(K,))
        reader.start()
        assert merging.wait(10)
        clearer = threading.Thread(target=engine.clear)
        clearer.start()
        clearer.join(0.2)
        assert clearer.is_alive()
        resume.set()
        reader.join(10)
        clearer.join(10)
        assert not clearer.is_alive()
        assert not engine._states


class TestConvolutionBudget:
    def test_single_shard_update_is_linear_in_shards(self):
        """One shard swap costs O(S) convolutions, not O(S^2)."""
        sharded = ShardedDatabase(_ti_tuples(5, 48), 4, partitioner="hash")
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        shard_count = sum(
            1 for shard in sharded.shards() if not shard.is_empty
        )
        before = coordinator.merge_stats()
        sharded.update_tuple("t7", probability=0.31)
        coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        assert delta.incremental_merges == 1
        assert delta.full_merges == 0
        # Incremental re-merge: own rank rows + the partial-product rows
        # containing the swapped shard -- at most 3S convolutions, far
        # under the S*(S-1) of pairing every shard with every other.
        assert delta.convolutions <= 3 * shard_count
        assert delta.convolutions < shard_count * (shard_count - 1) or (
            shard_count <= 3
        )
        assert delta.partials_reused >= 1

    def test_update_below_every_support_convolves_nothing(self):
        """Rows past a factor's support are exactly zero and never
        convolved: an update below every shard's support re-merges
        incrementally without a single convolved row."""
        rng = random.Random(17)
        data = [
            (f"t{i + 1}", float(i), float(1000 - i),
             1.0 if i < 40 else round(rng.uniform(0.05, 0.95), 3))
            for i in range(80)
        ]
        sharded = ShardedDatabase(_database(data), 4, partitioner="hash")
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        tables = [
            len(shard.summary(K).prefix_table) for shard in sharded.shards()
        ]
        sizes = [len(shard.keys()) for shard in sharded.shards()]
        assert all(table < size for table, size in zip(tables, sizes))
        before = coordinator.merge_stats()
        key, probability = data[-1][0], 0.5
        sharded.update_tuple(key, probability=probability)
        rows = _matrix_rows(coordinator, K)
        delta = coordinator.merge_stats() - before
        assert delta.incremental_merges == 1
        assert delta.full_merges == 0
        assert delta.convolutions == 0
        assert delta.convolved_rows == 0
        assert_rows_close(
            rows, _unsharded_rows(_with_probability(data, key, probability))
        )

    def test_score_move_rebuilds_the_grid_once(self):
        """A score move re-gathers the store, so the next merge rebuilds
        its grid; probability updates of the other shards after it merge
        incrementally, though their memoised summaries still read the
        store from before the move."""
        data = _ti_tuples(13, 40)
        sharded = ShardedDatabase(_database(data), 4)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        moved = data[0][0]
        sharded.update_tuple(moved, score=9500.0)
        before = coordinator.merge_stats()
        coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        assert delta.full_merges == 1
        before = coordinator.merge_stats()
        for key in _keys_of_distinct_shards(sharded, 4):
            if sharded.shard_of(key) != sharded.shard_of(moved):
                data = _update(sharded, data, key)
                coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        assert (delta.incremental_merges, delta.full_merges) == (3, 0)
        data = [
            (k, v, 9500.0, p) if k == moved else (k, v, s, p)
            for k, v, s, p in data
        ]
        assert_rows_close(_unsharded_rows(data), _matrix_rows(coordinator, K))

    def test_probability_update_patches_the_store(self):
        sharded = ShardedDatabase(_ti_tuples(11, 30), 4)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        store = sharded.state()[1]
        before = coordinator.merge_stats()
        sharded.update_tuple("t5", probability=0.5)
        coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        # A probability-only update keeps every score in place: the store
        # is patched (sharing every other column), and the merge reuses
        # its grid.
        assert coordinator._columns is sharded.state()[1]
        assert coordinator._columns is not store
        assert coordinator._columns.same_rows(store)
        assert (delta.incremental_merges, delta.full_merges) == (1, 0)


def _count_constructions(monkeypatch):
    """A list that grows by one per :class:`FlatColumns` constructed."""
    built = []
    original = FlatColumns.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FlatColumns, "__init__", counted)
    return built


class TestServedStorePatches:
    """A probability-only update costs every read path one store patch.

    Served reads run on a fresh ``coordinator.at()`` reader per request;
    each reads the one patched store -- no other columns are built -- and
    still answers exactly like an unsharded session.
    """

    UPDATES = 6

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_serving_executor_reads_patch(self, executor, monkeypatch):
        data = _ti_tuples(83, 40)
        rng = random.Random(83)
        sharded = ShardedDatabase(_database(data), 4, executor=executor)

        async def scenario(data):
            async with ServingExecutor(sharded, result_cache=False) as serving:
                coordinator = sharded.coordinator()
                await serving.execute(READS[0])
                before = coordinator.merge_stats()
                built = _count_constructions(monkeypatch)
                answers = []
                for step in range(self.UPDATES):
                    key = data[rng.randrange(len(data))][0]
                    probability = round(rng.uniform(0.05, 0.95), 3)
                    await serving.update(key, probability=probability)
                    data = _with_probability(data, key, probability)
                    query = READS[step % len(READS)]
                    answer = await serving.execute(query)
                    answers.append((data, query, answer.value))
                monkeypatch.undo()
                for state, query, value in answers:
                    assert_value_close(value, _oracle(state, query))
                return coordinator.merge_stats() - before, len(built)

        with sharded:
            delta, built = asyncio.run(scenario(data))
        assert built == self.UPDATES
        assert delta.full_merges == 0

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_pinned_readers_patch(self, model, executor, monkeypatch):
        data = _ti_tuples(89, 40) if model == "ti" else _bid_spec(89, 20)
        rng = random.Random(89)
        with ShardedDatabase(_database(data), 4, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            connect(coordinator.at(), result_cache=False).execute(READS[0])
            before = coordinator.merge_stats()
            built = _count_constructions(monkeypatch)
            answers = []
            for step in range(self.UPDATES):
                key = data[rng.randrange(len(data))][0]
                data = _update(sharded, data, key, rng.uniform(0.5, 1.0))
                query = READS[step % len(READS)]
                reader = coordinator.at(sharded.versions())
                answer = connect(reader, result_cache=False).execute(query)
                answers.append((data, query, answer.value))
                assert reader._columns is sharded.state()[1]
            monkeypatch.undo()
            delta = coordinator.merge_stats() - before
            for state, query, value in answers:
                assert_value_close(value, _oracle(state, query))
        assert len(built) == self.UPDATES
        assert delta.full_merges == 0


class TestPinnedSnapshotReads:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_pinned_reader_identical_across_swap(self, executor):
        sharded = ShardedDatabase(
            _ti_tuples(23, 24), 4, executor=executor
        )
        with sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)
            snapshot = sharded.snapshot()
            pinned = snapshot.session()
            before = _matrix_rows(pinned, K)
            membership_before = dict(pinned.top_k_membership(K))
            sharded.update_tuple("t2", probability=0.11)
            assert not snapshot.is_current
            # The reader's token and re-pins are the coordinator's.
            assert pinned.version_token() == coordinator.version_token(
                snapshot.versions
            )
            for versions in (snapshot.versions, None):
                assert (
                    pinned.at(versions).pinned_versions
                    == coordinator.at(versions).pinned_versions
                )
            # The pinned reader keeps answering at its version vector.
            assert_rows_close(before, _matrix_rows(pinned, K))
            membership_after = dict(pinned.top_k_membership(K))
            for key, value in membership_before.items():
                assert abs(membership_after[key] - value) < TOLERANCE
            # The live coordinator sees the new state.
            live = _matrix_rows(coordinator, K)
            assert any(
                abs(a - b) >= TOLERANCE
                for key in before
                for a, b in zip(before[key], live[key])
            )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_stale_read_leaves_live_engine_alone(self, model, executor):
        data = _ti_tuples(67, 24) if model == "ti" else _bid_spec(67, 12)
        expected = _unsharded_rows(data)
        with ShardedDatabase(_database(data), 4, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)
            pinned = sharded.versions()
            first, second = _keys_of_distinct_shards(sharded, 2)
            data = _update(sharded, data, first)
            coordinator.rank_matrix(K)
            before = coordinator.merge_stats()
            reader = coordinator.at(pinned)
            reader.invalidate()
            assert_rows_close(expected, _matrix_rows(reader, K))
            delta = coordinator.merge_stats() - before
            if model == "ti":
                # Counted as a from-scratch merge, run on a throwaway
                # engine.
                assert delta.rebuild_merges == 1
                assert delta.full_merges == delta.incremental_merges == 0
                assert delta.convolutions == 0
            data = _update(sharded, data, second)
            before = coordinator.merge_stats()
            live = _matrix_rows(coordinator, K)
            delta = coordinator.merge_stats() - before
            if model == "ti":
                assert delta.incremental_merges == 1
                assert delta.full_merges == 0
                assert delta.convolutions <= 3 * sum(
                    1 for shard in sharded.shards() if not shard.is_empty
                )
            assert_rows_close(_unsharded_rows(data), live)

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_superseded_reader_resolves_pinned_alternatives(
        self, model, executor
    ):
        data = _ti_tuples(71, 16) if model == "ti" else _bid_spec(71, 10)
        expected = QuerySession(_database(data).tree)
        with ShardedDatabase(_database(data), 4, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)  # warms the merged layout at the pin
            reader = coordinator.at()
            # Re-score one tuple (a multi-alternative block under BID):
            # the pinned alternatives no longer exist in the live shard.
            if model == "ti":
                sharded.update_tuple(data[0][0], score=9500.0)
            else:
                key, block = max(data, key=lambda item: len(item[1]))
                sharded.update_block(
                    key,
                    [
                        (value, 9500.0 + j, p)
                        for j, (value, _, p) in enumerate(block)
                    ],
                )
            for probe in expected.keys():
                alternatives = expected.alternatives_of(probe)
                assert reader.alternatives_of(probe) == alternatives
                for alternative in alternatives:
                    assert reader.score_of(alternative) == expected.score_of(
                        alternative
                    )
            answer, distance = median_topk_symmetric_difference(reader, K)
            reference = median_topk_symmetric_difference(expected, K)
            assert answer == reference[0]
            assert abs(distance - reference[1]) < TOLERANCE

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_superseded_read_leaves_live_state_alone(
        self, model, executor, monkeypatch
    ):
        data = _ti_tuples(97, 24) if model == "ti" else _bid_spec(97, 12)
        with ShardedDatabase(_database(data), 4, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            coordinator.at().rank_matrix(K)
            pinned, pinned_data = sharded.versions(), data
            pinned_store = sharded.state()[1]
            first, second = _keys_of_distinct_shards(sharded, 2)
            data = _update(sharded, data, first)
            assert_rows_close(
                _unsharded_rows(data), _matrix_rows(coordinator.at(), K)
            )
            live = sharded.state()
            # A superseded read resolves the pinned store from the
            # history, builds no columns, and publishes nothing.
            reader = coordinator.at(pinned)
            reader.invalidate()
            expected = _unsharded_rows(pinned_data)
            built = _count_constructions(monkeypatch)
            rows = _matrix_rows(reader, K)
            monkeypatch.undo()
            assert_rows_close(expected, rows)
            assert not built
            assert reader._columns is pinned_store
            assert sharded.state() is live
            data = _update(sharded, data, second)
            before = coordinator.merge_stats()
            assert_rows_close(
                _unsharded_rows(data), _matrix_rows(coordinator.at(), K)
            )
            delta = coordinator.merge_stats() - before
            if model == "ti":
                assert (delta.incremental_merges, delta.full_merges) == (1, 0)

    def test_concurrent_readers_and_writer_share_one_engine(self):
        """Two reader threads pin ``at()`` while a writer updates; every
        read matches the unsharded session of its pinned data.  The live
        readers share one merge engine."""
        data = _ti_tuples(101, 32)
        sharded = ShardedDatabase(_database(data), 4, snapshot_history=64)
        sharded.coordinator().rank_matrix(K)
        expected = {sharded.versions(): _unsharded_rows(data)}
        reads = []
        published = threading.Lock()
        errors = []

        def writer():
            rng = random.Random(101)
            state = data
            try:
                for _ in range(16):
                    key = state[rng.randrange(len(state))][0]
                    with published:
                        state = _update(sharded, state, key, 0.8)
                        versions = sharded.versions()
                    expected[versions] = _unsharded_rows(state)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        def reader():
            try:
                for _ in range(16):
                    with published:
                        versions = sharded.versions()
                    reader = sharded.coordinator().at(versions)
                    reads.append((versions, _matrix_rows(reader, K)))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        # More threads than cores, at the default switch interval (a
        # shorter one made the readers' merges overlap less often).
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for versions, rows in reads:
            assert_rows_close(expected[versions], rows)

    def test_read_racing_a_swap_answers_at_the_pin(self, monkeypatch):
        """A swap that lands while a live-pinned reader reads the shard:
        the reader answers from the store it resolved, not the new one."""
        data = _ti_tuples(103, 24)
        expected = _unsharded_rows(data)
        with ShardedDatabase(_database(data), 4) as sharded:
            coordinator = sharded.coordinator()
            key = data[0][0]
            target = sharded.shard_of(key)
            original = DatabaseShard.summary

            def summary(shard, *args):
                if shard.index == target and not sharded.versions()[target]:
                    sharded.update_tuple(key, probability=0.01)
                return original(shard, *args)

            monkeypatch.setattr(DatabaseShard, "summary", summary)
            reader = coordinator.at()
            assert_rows_close(expected, _matrix_rows(reader, K))
            assert sharded.versions()[target] == 1

    def test_read_racing_two_swaps_keeps_its_store(self, monkeypatch):
        """Two swaps land while a live-pinned reader reads the shard, and
        the second evicts the pinned vector from the history: the reader
        resolved its store before, so it still answers at the pin, while
        a reader resolving the pin afterwards finds it too old."""
        data = _ti_tuples(109, 24)
        expected = _unsharded_rows(data)
        with ShardedDatabase(_database(data), 4, snapshot_history=1) as sharded:
            coordinator = sharded.coordinator()
            pinned = sharded.versions()
            key = data[0][0]
            target = sharded.shard_of(key)
            original = DatabaseShard.summary

            def summary(shard, *args):
                if shard.index == target and not sharded.versions()[target]:
                    sharded.update_tuple(key, probability=0.01)
                    sharded.update_tuple(key, probability=0.02)
                return original(shard, *args)

            monkeypatch.setattr(DatabaseShard, "summary", summary)
            reader = coordinator.at(pinned)
            assert_rows_close(expected, _matrix_rows(reader, K))
            assert sharded.versions()[target] == 2
            late = coordinator.at(pinned)
            late.invalidate()
            with pytest.raises(SnapshotTooOldError):
                late.rank_matrix(K)

    def test_live_read_racing_an_update_is_not_filed_as_pinned(
        self, monkeypatch
    ):
        """A live read whose shard summary is taken while an update commits
        must not file its (post-update) result under the version vector it
        started at: a reader pinned there answers the pre-update state."""
        data = _ti_tuples(113, 24)
        with ShardedDatabase(_database(data), 2) as sharded:
            coordinator = sharded.coordinator()
            key = max(data, key=lambda row: row[2])[0]  # the top-ranked
            target = sharded.shard_of(key)
            pinned = sharded.versions()
            paused, resume = threading.Event(), threading.Event()
            original = DatabaseShard.summary

            def summary(shard, *args):
                if shard.index == target and not paused.is_set():
                    paused.set()
                    resume.wait(10)
                return original(shard, *args)

            monkeypatch.setattr(DatabaseShard, "summary", summary)
            reader = threading.Thread(target=coordinator.rank_matrix, args=(K,))
            reader.start()
            try:
                assert paused.wait(10)
                sharded.update_tuple(key, probability=0.01)
            finally:
                resume.set()
                reader.join()
            assert_rows_close(
                _unsharded_rows(data), _matrix_rows(coordinator.at(pinned), K)
            )
            assert_rows_close(
                _unsharded_rows(_with_probability(data, key, 0.01)),
                _matrix_rows(coordinator, K),
            )

    def test_summary_racing_a_swap_is_filed_under_its_version(
        self, monkeypatch
    ):
        """A shard summary built from the outgoing store while an update
        swaps the shard is filed under the outgoing version, never served
        as the new version's."""
        data = _ti_tuples(107, 24)
        with ShardedDatabase(_database(data), 2) as sharded:
            key = data[0][0]
            shard = sharded.shards()[sharded.shard_of(key)]
            original = ShardRankSummary.from_layout

            def racing(layout, *args):
                if not shard.version:
                    sharded.update_tuple(key, probability=0.01)
                return original(layout, *args)

            monkeypatch.setattr(
                ShardRankSummary, "from_layout", staticmethod(racing)
            )
            outgoing = shard.summary(K)
            monkeypatch.undo()
            assert shard.summary(K) is not outgoing
            data = _with_probability(data, key, 0.01)
            assert_rows_close(
                _unsharded_rows(data), _matrix_rows(sharded.coordinator(), K)
            )

    def test_pinned_reader_during_concurrent_swaps(self):
        sharded = ShardedDatabase(_ti_tuples(31, 24), 4, snapshot_history=8)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        pinned = coordinator.at()
        expected = _matrix_rows(pinned, K)
        errors = []

        def writer():
            try:
                for step in range(6):
                    sharded.update_tuple(
                        f"t{step + 1}", probability=0.15 + 0.1 * step
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(10):
                assert_rows_close(expected, _matrix_rows(pinned, K))
        finally:
            thread.join()
        assert not errors
        assert_rows_close(expected, _matrix_rows(pinned, K))

    def test_snapshot_readers_share_memoized_artifacts(self):
        sharded = ShardedDatabase(_ti_tuples(37, 20), 3)
        coordinator = sharded.coordinator()
        snapshot = sharded.snapshot()
        first = snapshot.session()
        first.rank_matrix(K)
        second = snapshot.session()
        hits_before = second.cache_hits
        second.rank_matrix(K)
        assert second.cache_hits > hits_before


class TestBoundedSnapshotHistory:
    def test_old_pins_evict(self):
        sharded = ShardedDatabase(
            _ti_tuples(41, 20), 2, snapshot_history=2
        )
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        stale = sharded.snapshot()
        pinned = stale.session()
        pinned.rank_matrix(K)
        # Push the pinned shard versions far beyond the bounded history.
        target = "t1"
        for step in range(4):
            sharded.update_tuple(target, probability=0.2 + 0.1 * step)
        fresh_reader = coordinator.at()
        fresh_reader.rank_matrix(K)  # current pins always resolve
        assert not stale.is_current
        # Drop the memoized artifacts so the stale pin must re-resolve its
        # archived shard state -- which the bounded history has evicted.
        reader = stale.session()
        reader.invalidate()
        with pytest.raises(SnapshotTooOldError):
            reader.rank_matrix(K)

    def test_recent_pin_still_resolves(self):
        sharded = ShardedDatabase(
            _ti_tuples(43, 20), 2, snapshot_history=4
        )
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        snapshot = sharded.snapshot()
        reference = _matrix_rows(snapshot.session(), K)
        sharded.update_tuple("t1", probability=0.77)
        # A fresh reader at the superseded vector rebuilds from the
        # archived shard state and matches the pre-update answer.
        reader = coordinator.at(snapshot.versions)
        assert_rows_close(reference, _matrix_rows(reader, K))


class TestHistoryReads:
    """An invalidated reader pinned at a superseded vector resolves that
    vector's store from the database's history and derives every updated
    shard's summary from it."""

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_invalidated_pin_reads_history(
        self, model, executor, warm, monkeypatch
    ):
        data = _ti_tuples(47, 24) if model == "ti" else _bid_spec(53, 12)
        expected = _unsharded_rows(data)
        with ShardedDatabase(_database(data), 4, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            if warm:
                # A shallower depth than the read below, so the pinned
                # summaries have to be derived, not replayed.
                coordinator.rank_matrix(K - 2)
            pinned = sharded.snapshot().versions
            pinned_store = sharded.state()[1]
            # One key from each of two different shards.
            for key in _keys_of_distinct_shards(sharded, 2):
                data = _update(sharded, data, key)
            derived = []
            original = ShardRankSummary.from_layout

            def spy(layout, *args):
                if layout[0] is pinned_store:
                    derived.append(1)
                return original(layout, *args)

            monkeypatch.setattr(
                ShardRankSummary, "from_layout", staticmethod(spy)
            )
            reader = coordinator.at(pinned)
            reader.invalidate()
            assert_rows_close(expected, _matrix_rows(reader, K))
            assert reader._columns is pinned_store
            live = _matrix_rows(coordinator, K)
            assert any(
                abs(a - b) >= TOLERANCE
                for key in expected
                for a, b in zip(expected[key], live[key])
            )
        if model == "ti":
            assert len(derived) >= 2

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_pin_between_two_unread_updates(self, model, executor):
        """Two updates of one shard with no read in between: a reader
        pinned at the middle version answers from the middle state, not
        from warm state cached at the first version."""
        data = _ti_tuples(59, 24) if model == "ti" else _bid_spec(59, 12)
        with ShardedDatabase(_database(data), 2, executor=executor) as sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)
            key = sharded.keys()[0]
            data = _update(sharded, data, key)
            middle = sharded.versions()
            _update(sharded, data, key)
            reader = coordinator.at(middle)
            assert_rows_close(_unsharded_rows(data), _matrix_rows(reader, K))


class TestBlockIndependentStoreReads:
    """A sharded BID database reads its rank matrix off its one store: no
    shard summary is built and nothing is merged, and every read matches
    an unsharded session, live and pinned at a superseded vector."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_reads_match_unsharded_without_merging(
        self, partitioner, executor, backend_name, monkeypatch
    ):
        summaries = []
        original = ShardRankSummary.from_layout

        def spy(*args, **kwargs):
            summaries.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ShardRankSummary, "from_layout", staticmethod(spy))
        queries = READS + (Query.named("expected_rank_table"),)
        with use_backend(_backend_or_skip(backend_name)):
            data = _bid_spec(61, 16)
            with ShardedDatabase(
                _database(data), 4, partitioner=partitioner, executor=executor
            ) as sharded:
                coordinator = sharded.coordinator()
                served = connect(coordinator, result_cache=False)
                for query in queries:
                    served.execute(query)
                pinned, pinned_data = sharded.versions(), data
                for key in _keys_of_distinct_shards(sharded, 2):
                    data = _update(sharded, data, key)
                reader = coordinator.at(pinned)
                reader.invalidate()
                for session, state in (
                    (coordinator, data), (reader, pinned_data)
                ):
                    reference = QuerySession(_database(state).tree)
                    assert_rows_close(
                        _matrix_rows(reference, K), _matrix_rows(session, K)
                    )
                    answers = connect(session, result_cache=False)
                    for query in queries:
                        assert_value_close(
                            answers.execute(query).value,
                            reference.execute(query).value,
                        )
                assert reader._columns is not coordinator._columns
                assert coordinator.merge_stats().merges == 0
        assert not summaries

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_served_reads_match_unsharded_without_merging(
        self, partitioner, executor, backend_name, monkeypatch
    ):
        summaries = []
        original = ShardRankSummary.from_layout

        def spy(*args, **kwargs):
            summaries.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ShardRankSummary, "from_layout", staticmethod(spy))
        queries = READS + (Query.named("expected_rank_table"),)

        async def scenario(sharded, data):
            # The executor updates tuples only, so the blocks are replaced
            # on the database between the two rounds of reads.
            answers = []
            async with ServingExecutor(sharded, result_cache=False) as serving:
                for step in range(2):
                    if step:
                        for key in _keys_of_distinct_shards(sharded, 2):
                            data = _update(sharded, data, key)
                    values = [
                        (await serving.execute(query)).value
                        for query in queries
                    ]
                    answers.append((data, values))
            return answers

        with use_backend(_backend_or_skip(backend_name)):
            data = _bid_spec(61, 16)
            with ShardedDatabase(
                _database(data), 4, partitioner=partitioner, executor=executor
            ) as sharded:
                answers = asyncio.run(scenario(sharded, data))
                merges = sharded.coordinator().merge_stats().merges
            for state, values in answers:
                for query, value in zip(queries, values):
                    assert_value_close(value, _oracle(state, query))
        assert merges == 0
        assert not summaries


class TestTrafficStreams:
    def test_default_stream_unchanged_and_stable(self):
        events = generate_traffic(
            [f"t{i}" for i in range(20)], 60, rng=random.Random(123),
            update_ratio=0.2,
        )
        replay = generate_traffic(
            [f"t{i}" for i in range(20)], 60, rng=random.Random(123),
            update_ratio=0.2,
        )
        assert traffic_signature(events) == traffic_signature(replay)
        # Default streams carry no arrival process: signatures (and the
        # RNG draw sequence) are byte-compatible with the steady era.
        assert all(event.gap is None for event in events)

    def test_update_heavy_mix_is_update_heavy_and_skewed(self):
        keys = [f"t{i}" for i in range(40)]
        events = update_heavy_traffic(keys, 400, rng=random.Random(7))
        updates = [event for event in events if event.is_update]
        assert 0.25 < len(updates) / len(events) < 0.55
        counts = {}
        for event in updates:
            counts[event.key] = counts.get(event.key, 0) + 1
        top = max(counts.values())
        # Zipfian popularity: the hottest key dominates far beyond the
        # uniform expectation of len(updates)/len(keys).
        assert top > 2 * (len(updates) / len(keys))
        assert traffic_signature(events) == traffic_signature(
            update_heavy_traffic(keys, 400, rng=random.Random(7))
        )

    def test_bursty_stream_gaps_and_signature(self):
        keys = [f"t{i}" for i in range(10)]
        events = bursty_traffic(
            keys, 80, rng=random.Random(5), mean_gap=0.02, burst_length=6
        )
        assert all(event.gap is not None for event in events)
        gaps = [event.gap for event in events]
        small = sum(1 for gap in gaps if gap < 0.02 * 0.05)
        large = sum(1 for gap in gaps if gap >= 0.02 * 0.5)
        # Clustered arrivals: most gaps are tiny, separated by pauses
        # roughly every burst_length events.
        assert small > large >= 80 // 6 - 2
        assert traffic_signature(events) == traffic_signature(
            bursty_traffic(
                keys, 80, rng=random.Random(5),
                mean_gap=0.02, burst_length=6,
            )
        )
        # The gap participates in the signature: same queries at a
        # different pacing fingerprint differently.
        repaced = bursty_traffic(
            keys, 80, rng=random.Random(5), mean_gap=0.04, burst_length=6
        )
        assert traffic_signature(events) != traffic_signature(repaced)
