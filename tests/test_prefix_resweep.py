"""Seeded prefix re-sweeps equal cold sweeps bit for bit.

After a probability-only update, a shard's prefix table re-sweeps only
the rows below the first changed row
(:meth:`~repro.engine.backends.Backend.prefix_count_polynomials` with
``base``).  The merge engine splices and the process path ships those
tables as if they were swept cold, so every seeded table must *equal* a
cold sweep of the new probabilities -- list equality, no tolerance --
with the same support.  The kernel cases cover changes above, at and past
the support, supports that grow and shrink, ``p = 0`` and ``p = 1`` rows,
tables without a zero row, several ``max_rank`` values and table lengths
around the numpy grid's lines; the sharded cases drive updates through
both executors.

Run under ``REPRO_PROC_START_METHOD=spawn`` in CI: the worker leg ships
seeded tables.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import pytest

from repro.engine import numpy_available, use_backend
from repro.engine.backends import NumpyBackend, _grid_size
from repro.models import ShardedDatabase, TupleIndependentDatabase
from repro.session import QuerySession

BACKENDS = ["python", "numpy"] if numpy_available() else ["python"]
TOLERANCE = 1e-9
K = 10

#: Table lengths one short of a grid line, on one and one past it, for
#: the grid sizes 2 (tiny tables) and 16 (from 256 rows on); 4 rows make
#: exactly two chunks of 2.
GRID_COUNTS = [1, 2, 3, 4, 255, 256, 257, 271, 272, 273]


def cold(backend, probabilities: Sequence[float], k: int):
    table, live = backend.prefix_count_polynomials(probabilities, k)
    return backend.matrix_to_lists(table), live


def assert_resweep_is_cold(backend, table, live, probabilities, changed, k):
    """Re-sweep from ``table``'s live rows and compare with a cold sweep;
    returns the re-swept ``(table, live)``."""
    seeded, support = backend.prefix_count_polynomials(
        probabilities, k, (backend.slice_rows(table, 0, live), changed)
    )
    expected, expected_support = cold(backend, probabilities, k)
    assert support == expected_support
    assert backend.matrix_to_lists(seeded) == expected
    return seeded, support


def draw(shape: str, rng: random.Random) -> float:
    if shape == "uniform":
        return rng.uniform(0.05, 1.0)
    if shape == "tiny":  # no zero row: the mass never underflows
        return rng.uniform(0.0, 0.002)
    # Exact zero rows: p = 1 rows shift the coefficients up, and p = 0
    # rows leave a row as it is.
    return rng.choice([0.0, 1.0, 1.0, rng.uniform(0.05, 1.0)])


def positions(
    live: int, count: int, size: int, rng: random.Random
) -> List[int]:
    """Changed rows above, at and past the support, and next to grid
    lines."""
    line = rng.randrange(0, count, size)
    wanted = [rng.randrange(count), live - 1, live, live + 1, line, line - 1]
    return [row for row in wanted if 0 <= row < count]


def test_grid_sizes():
    assert [_grid_size(count) for count in GRID_COUNTS] == (
        [2] * 4 + [15] + [16] * 5
    )
    assert _grid_size(4095) == 16 and _grid_size(12000) == 27


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("count", GRID_COUNTS + [1500])
@pytest.mark.parametrize("shape", ["uniform", "mixed", "tiny"])
def test_random_updates_match_cold_sweep(backend_name, count, shape):
    rng = random.Random(count * 7 + len(shape))
    size = _grid_size(count)
    ranks = [1, 4] + ([count + 3] if count < 1000 else [])
    with use_backend(backend_name) as backend:
        for k in ranks:
            probabilities = [draw(shape, rng) for _ in range(count)]
            table, live = backend.prefix_count_polynomials(probabilities, k)
            for _ in range(6):
                for row in positions(live, count, size, rng):
                    probabilities = list(probabilities)
                    probabilities[row] = rng.choice(
                        [draw(shape, rng), 0.0, 1.0, rng.uniform(0.0, 0.01)]
                    )
                    table, live = assert_resweep_is_cold(
                        backend, table, live, probabilities, row, k
                    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_support_grows_and_shrinks(backend_name):
    """``k`` certain rows end the support exactly; uncertain ones move
    it."""
    count, k = 600, 4
    rng = random.Random(5)
    probabilities = [rng.uniform(0.05, 0.5) for _ in range(count)]
    for row in (40, 90, 200, 330, 470):
        probabilities[row] = 1.0
    with use_backend(backend_name) as backend:
        table, live = backend.prefix_count_polynomials(probabilities, k)
        assert live == 331  # the fourth certain row zeroes row 331
        steps = [
            (90, 0.5, 471), (250, 1.0, 331), (20, 1.0, 251), (200, 0.0, 331)
        ]
        for row, probability, support in steps:
            probabilities = list(probabilities)
            probabilities[row] = probability
            table, live = assert_resweep_is_cold(
                backend, table, live, probabilities, row, k
            )
            assert live == support


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_table_without_zero_row(backend_name):
    count = 300
    rng = random.Random(11)
    probabilities = [rng.uniform(0.0005, 0.002) for _ in range(count)]
    with use_backend(backend_name) as backend:
        table, live = backend.prefix_count_polynomials(probabilities, K)
        assert live == count + 1
        for row in (0, 17, 160, count - 1):
            probabilities = list(probabilities)
            probabilities[row] = rng.uniform(0.0005, 0.002)
            table, live = assert_resweep_is_cold(
                backend, table, live, probabilities, row, K
            )
            assert live == count + 1


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_change_at_or_past_support_sweeps_nothing(monkeypatch):
    swept = []
    sweep = NumpyBackend._sweep
    monkeypatch.setattr(
        NumpyBackend,
        "_sweep",
        staticmethod(lambda values, rows, size: swept.append(len(values))
                     or sweep(values, rows, size)),
    )
    backend = NumpyBackend()
    count = 500
    probabilities = [0.3] * count
    for row in (10, 20, 30, 40):
        probabilities[row] = 1.0
    table, live = backend.prefix_count_polynomials(probabilities, 4)
    assert live == 41
    for row in (41, 42, 300):
        swept.clear()
        probabilities = list(probabilities)
        probabilities[row] = 0.9
        table, live = assert_resweep_is_cold(
            backend, table, live, probabilities, row, 4
        )
        # Only the cold reference sweeps.
        assert len(swept) == 1 and live == 41
    swept.clear()
    probabilities[25] = 0.5
    backend.prefix_count_polynomials(probabilities, 4, (table[:live], 25))
    # One segment, from the grid line at or before row 25 to the first
    # one a chunk or more past the old support.
    assert _grid_size(count) == 16 and swept == [64 - 16]


# ----------------------------------------------------------------------
# Through the shard executors
# ----------------------------------------------------------------------
def _rows(probabilities: Sequence[float]):
    count = len(probabilities)
    return [
        (f"t{index:05d}", index, float(count - index), probability)
        for index, probability in enumerate(probabilities)
    ]


def _probabilities(count: int, rng: random.Random) -> List[float]:
    return [
        1.0 if rng.random() < 0.03 else rng.uniform(0.05, 0.6)
        for _ in range(count)
    ]


def _updates(probabilities: List[float], rng: random.Random):
    """Single-row updates that make and remove certain rows."""
    for _ in range(8):
        row = rng.randrange(len(probabilities))
        probability = rng.choice([1.0, 0.3, rng.uniform(0.05, 0.6)])
        probabilities[row] = probability
        yield f"t{row:05d}", probability


def assert_tables_are_cold(backend, summaries):
    for summary in summaries:
        expected, live = cold(backend, summary.probabilities, K)
        assert len(summary.prefix_table) == live
        assert backend.matrix_to_lists(summary.prefix_table) == expected[:live]


def assert_parity(coordinator, probabilities):
    reference = QuerySession(
        TupleIndependentDatabase(_rows(probabilities)).tree
    )
    expected, merged = reference.rank_matrix(K), coordinator.rank_matrix(K)
    for key in expected.keys():
        for want, got in zip(expected.row(key), merged.row(key)):
            assert abs(want - got) < TOLERANCE


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_threads_merge_seeds_cold_equal_tables(backend_name, monkeypatch):
    rng = random.Random(21)
    probabilities = _probabilities(1200, rng)
    with use_backend(backend_name) as backend:
        seeded = []
        kernel = type(backend).prefix_count_polynomials

        def recorded(self, values, out_len, base=None):
            seeded.append(base is not None)
            return kernel(self, values, out_len, base)

        monkeypatch.setattr(
            type(backend), "prefix_count_polynomials", recorded
        )
        sharded = ShardedDatabase(
            TupleIndependentDatabase(_rows(probabilities)), 2
        )
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        for key, probability in _updates(probabilities, rng):
            sharded.update_tuple(key, probability=probability)
            seeded.clear()
            assert_parity(coordinator, probabilities)
            assert seeded == [True]
            assert_tables_are_cold(
                backend,
                [shard.summary(K) for shard in sharded.shards()],
            )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_processes_spliced_tables_equal_cold_sweeps(backend_name):
    rng = random.Random(33)
    probabilities = _probabilities(1200, rng)
    with use_backend(backend_name) as backend:
        with ShardedDatabase(
            TupleIndependentDatabase(_rows(probabilities)), 2,
            executor="processes",
        ) as sharded:
            pool = sharded.process_pool()
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)
            before = pool.stats()
            for key, probability in _updates(probabilities, rng):
                sharded.update_tuple(key, probability=probability)
                assert_parity(coordinator, probabilities)
                assert_tables_are_cold(backend, pool.summaries(K))
            # The updated shards' tables came back as row-suffix deltas.
            assert pool.stats().summary_deltas > before.summary_deltas
