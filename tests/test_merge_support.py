"""Support-bounded shard merge: only live rows, and the bits of a dense merge.

A tuple's global rank polynomial is the product of per-shard count-above
factors, so a product row past either factor's support is exactly ``0.0``.
The merge engine convolves, stores and hands over only the rows before
those supports, and shard workers ship only their tables' live rows.  These
tests drive sharded databases whose shard tables end in exact zero tails
(runs of certain tuples or blocks, among many zero-probability rows)
through updates that grow and shrink a support, and check every merged
matrix against

* a dense reference: the same database and updates with every support read
  reporting every row live (``row_support`` and the prefix sweep's live
  count patched to the full length), whose merged matrices must have the
  same bits; and
* an unsharded session over the same data: live values to 1e-12, and every
  row past the declared support exactly ``0.0``.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_backend, numpy_available, use_backend
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.session import QuerySession
from test_rank_support import (
    patch_supports_dense,
    probabilities_of,
    reference_prefix,
)

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
TOLERANCE = 1e-12
SHAPES = ("certain", "zeros")


# ----------------------------------------------------------------------
# Data whose shard tables end in exact zero tails
# ----------------------------------------------------------------------
def zero_tailed_probabilities(
    shape: str, count: int, k: int, shards: int, rng: random.Random
) -> List[float]:
    """Presence probabilities in score order.

    ``certain`` opens with a run of certain rows long enough to give each
    shard about ``k`` of them; ``zeros`` is mostly ``p = 0`` with as many
    certain rows sprinkled in.  Either way a shard's table turns exactly
    zero past its ``k``-th certain row.
    """
    probabilities = probabilities_of(shape, count, shards * k, rng)
    if shape == "zeros":
        for row in rng.sample(range(count), min(count, (shards + 1) * k)):
            probabilities[row] = 1.0
    return probabilities


def ti_rows(probabilities: List[float]) -> List[Tuple[Any, ...]]:
    count = len(probabilities)
    return [
        (f"t{index}", index, float(count - index), probability)
        for index, probability in enumerate(probabilities)
    ]


def bid_blocks(
    probabilities: List[float], rng: random.Random
) -> List[Tuple[Any, List[Tuple[Any, float, float]]]]:
    """One block per probability, its mass split over one to three
    alternatives (a certain block stays certain: its masses sum to 1.0
    exactly), with the alternatives' scores interleaved across
    neighbouring blocks."""
    sizes = [rng.randint(1, 3) for _ in probabilities]
    scores = list(range(3 * len(probabilities) + 3, 0, -1))[: sum(sizes)]
    for start in range(0, len(scores), 4):
        window = scores[start : start + 4]
        rng.shuffle(window)
        scores[start : start + 4] = window
    scores = iter(scores)
    blocks = []
    for index, (mass, size) in enumerate(zip(probabilities, sizes)):
        shares = [0.5, 0.25, 0.25][:size] if size > 1 else [1.0]
        shares[0] += 1.0 - sum(shares)
        blocks.append(
            (
                f"b{index}",
                [
                    (f"b{index}.{j}", float(next(scores)), mass * share)
                    for j, share in enumerate(shares)
                ],
            )
        )
    return blocks


def database_of(model: str, data: List[Any]) -> Any:
    if model == "bid":
        return BlockIndependentDatabase(data)
    return TupleIndependentDatabase(data)


def updates_of(model: str, data: List[Any], rng: random.Random):
    """The new entries of the update steps: a certain key's mass goes
    1.0 -> 0.3 -> 1.0 (its shard's support grows, then shrinks back), then
    two keys take a random mass."""
    def mass(entry: Any) -> float:
        if model == "bid":
            return sum(p for _, _, p in entry[1])
        return entry[3]

    def scaled(entry: Any, factor: float) -> Any:
        if model == "bid":
            return (entry[0], [(v, s, p * factor) for v, s, p in entry[1]])
        return entry[:3] + (factor,)

    steps = []
    certain = [entry for entry in data if mass(entry) == 1.0]
    if certain:
        entry = rng.choice(certain)
        steps += [scaled(entry, 0.3), scaled(entry, 1.0)]
    for entry in rng.sample(data, min(2, len(data))):
        factor = rng.choice((0.0, 1.0, rng.uniform(0.05, 1.0)))
        if model == "bid" and mass(entry) > 0.0:
            factor /= mass(entry)
        steps.append(scaled(entry, factor))
    return steps


def apply(sharded: ShardedDatabase, model: str, entry: Any) -> None:
    if model == "bid":
        sharded.update_block(entry[0], entry[1])
    else:
        sharded.update_tuple(entry[0], probability=entry[3])


def replaced(data: List[Any], entry: Any) -> List[Any]:
    return [entry if old[0] == entry[0] else old for old in data]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def merged_matrices(
    model: str,
    data: List[Any],
    steps: List[Any],
    shards: int,
    partitioner: str,
    executor: str,
    k: int,
):
    """Per state (before and after every step): the merged matrix as
    lists, its support and the data; and the rows the engine convolved."""
    states = []
    with ShardedDatabase(
        database_of(model, data), shards, partitioner=partitioner,
        executor=executor,
    ) as sharded:
        coordinator = sharded.coordinator()
        for entry in [None, *steps]:
            if entry is not None:
                apply(sharded, model, entry)
                data = replaced(data, entry)
            matrix = coordinator.rank_matrix(k)
            backend = get_backend()
            states.append(
                (
                    matrix.keys(),
                    backend.matrix_to_lists(matrix.native),
                    matrix.support,
                    data,
                )
            )
        rows = coordinator.merge_stats().convolved_rows
    return states, rows


def check_case(model, shape, count, k, shards, partitioner, executor, seed):
    rng = random.Random(seed)
    probabilities = zero_tailed_probabilities(shape, count, k, shards, rng)
    data = (
        bid_blocks(probabilities, rng) if model == "bid" else ti_rows(probabilities)
    )
    steps = updates_of(model, data, rng)
    bounded, bounded_rows = merged_matrices(
        model, data, steps, shards, partitioner, executor, k
    )
    with pytest.MonkeyPatch.context() as patch:
        patch_supports_dense(patch)
        dense, dense_rows = merged_matrices(
            model, data, steps, shards, partitioner, executor, k
        )
    assert bounded_rows <= dense_rows
    for (keys, rows, support, state), (dense_keys, dense_matrix, _, _) in zip(
        bounded, dense
    ):
        # The same bits as the dense merge, zero tail included.
        assert keys == dense_keys
        assert rows == dense_matrix
        assert all(value == 0.0 for row in rows[support:] for value in row)
        unsharded = QuerySession(database_of(model, state).tree).rank_matrix(k)
        for key, row in zip(keys, rows):
            for value, expected in zip(row, unsharded.row(key)):
                assert abs(value - expected) <= TOLERANCE


CASE = dict(
    model=st.sampled_from(("ti", "bid")),
    shape=st.sampled_from(SHAPES),
    count=st.integers(1, 90),
    k=st.integers(1, 5),
    shards=st.integers(1, 8),
    partitioner=st.sampled_from(("hash", "range")),
    seed=st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(**CASE)
def test_threads_merge_matches_dense_and_unsharded(
    backend_name, model, shape, count, k, shards, partitioner, seed
):
    with use_backend(backend_name):
        check_case(model, shape, count, k, shards, partitioner, "threads", seed)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=4, deadline=None)
@given(**CASE)
def test_processes_merge_matches_dense_and_unsharded(
    backend_name, model, shape, count, k, shards, partitioner, seed
):
    with use_backend(backend_name):
        check_case(model, shape, count, k, shards, partitioner, "processes", seed)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_workers_ship_only_live_rows(backend_name):
    """A shard table with a zero tail travels and merges as its live rows:
    the merged matrix declares a support below its row count, and every
    worker's table stops before the shard's row count."""
    rng = random.Random(7)
    k, shards = 3, 4
    data = ti_rows(zero_tailed_probabilities("certain", 80, k, shards, rng))
    with use_backend(backend_name):
        with ShardedDatabase(
            TupleIndependentDatabase(data), shards, executor="processes"
        ) as sharded:
            matrix = sharded.coordinator().rank_matrix(k)
            assert matrix.support < len(matrix)
            pool = sharded.process_pool()
            tables = [
                pool.summary(index, k).prefix_table
                for index in pool.shard_indices()
            ]
            sizes = [len(shard.keys()) for shard in sharded.shards()]
            assert any(len(table) < size for table, size in zip(tables, sizes))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_short_table_readers_return_zero_rows_past_its_end(backend_name):
    """A summary's prefix table stops at its support, and the readers of
    the short table return zero rows past its end: prefix polynomials, and
    grid-aligned rows at thresholds below the table's live rows."""
    rng = random.Random(11)
    k = 3
    probabilities = zero_tailed_probabilities("certain", 40, k, 1, rng)
    with use_backend(backend_name) as backend:
        sharded = ShardedDatabase(
            TupleIndependentDatabase(ti_rows(probabilities)), 1
        )
        summary = sharded.shards()[0].summary(k)
        table = backend.matrix_to_lists(summary.prefix_table)
        prefixes = len(summary.probabilities) + 1
        assert len(table) < prefixes
        expected = reference_prefix(probabilities, k)
        assert table == expected[: len(table)]
        assert all(not any(row) for row in expected[len(table) :])
        for prefix in range(prefixes):
            polynomial = summary.prefix_polynomial(prefix)
            if prefix < len(table):
                assert polynomial == table[prefix]
            else:
                assert polynomial == [0.0] * k
        grid = backend.vector_values(summary.scores) + [-1.0]
        indices = summary.prefix_indices(grid)
        assert indices[-1] >= len(table)
        aligned = backend.matrix_to_lists(summary.aligned_count_table(grid))
        assert aligned == [summary.prefix_polynomial(index) for index in indices]
