"""Zero tails of rank matrices: the support-bounded kernels and consumers.

Row ``t`` of a tuple-independent rank matrix in score order is ``p_t`` times
the truncated count distribution of the tuples above it; once that product
is the zero vector, every later row is exactly ``0.0``.  The kernels stop
their sweep there and :attr:`RankMatrix.support` marks where the tail
starts; the Top-k consumers read only the rows before it.  These tests pin
the kernels to a per-row reference sweep and the consumers to brute-force
world enumeration and to a dense evaluation over every row, on inputs whose
support is short: fewer than ``k²`` or even ``k`` rows carrying mass.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.andxor.enumeration import enumerate_worlds
from repro.consensus.topk.footrule import (
    expected_topk_footrule_distance,
    mean_topk_footrule,
)
from repro.consensus.topk.intersection import (
    approximate_topk_intersection,
    expected_topk_intersection_distance,
    mean_topk_intersection,
)
from repro.consensus.topk.kendall import approximate_topk_kendall
from repro.consensus.topk.ranking_functions import upsilon_h
from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
    mean_topk_symmetric_difference,
)
from repro.core.consensus_bruteforce import (
    brute_force_mean_topk,
    expected_distance,
)
from repro.core.topk_distances import (
    topk_footrule_distance,
    topk_intersection_distance,
    topk_symmetric_difference,
)
from repro.engine import RankMatrix, get_backend, numpy_available, use_backend
from repro.engine.backends import Backend
from repro.models import ShardedDatabase, TupleIndependentDatabase
from repro.session import QuerySession

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
TOLERANCE = 1e-12
ANSWER_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Per-row reference sweeps
# ----------------------------------------------------------------------
def _step(coefficients: List[float], probability: float) -> None:
    """Multiply ``coefficients`` by ``1 - p + p x`` in place, truncated."""
    previous = 0.0
    for index, current in enumerate(coefficients):
        coefficients[index] = current * (1.0 - probability) + previous * probability
        previous = current


def _above(index: int, scores: Optional[Sequence[float]]) -> range:
    """The rows above row ``index``: earlier ones, or with ``scores`` only
    the strictly higher-scored ones (scores decrease down the rows)."""
    if scores is None:
        return range(index)
    start = index
    while start and scores[start - 1] == scores[index]:
        start -= 1
    return range(start)


def reference_prefix(probabilities: Sequence[float], k: int) -> List[List[float]]:
    coefficients = [1.0] + [0.0] * (k - 1)
    rows = [list(coefficients)]
    for probability in probabilities:
        _step(coefficients, probability)
        rows.append(list(coefficients))
    return rows


def reference_ti(
    probabilities: Sequence[float], k: int, scores: Optional[Sequence[float]]
) -> List[List[float]]:
    prefix = reference_prefix(probabilities, k)
    return [
        [probability * c for c in prefix[len(_above(index, scores))]]
        for index, probability in enumerate(probabilities)
    ]


def reference_bid(
    probabilities: Sequence[float],
    blocks: Sequence[int],
    k: int,
    scores: Optional[Sequence[float]],
) -> List[List[float]]:
    rows = []
    for index, probability in enumerate(probabilities):
        masses = defaultdict(float)
        for above in _above(index, scores):
            masses[blocks[above]] += probabilities[above]
        coefficients = [1.0] + [0.0] * (k - 1)
        for block, mass in masses.items():
            if block != blocks[index]:
                _step(coefficients, mass)
        rows.append([probability * c for c in coefficients])
    return rows


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
SHAPES = ("uniform", "tiny", "zeros", "certain", "mixed")


def probabilities_of(shape: str, count: int, k: int, rng: random.Random) -> List[float]:
    """Presence probabilities in score order, by shape.

    ``tiny`` has no zero tail at these sizes; ``certain`` opens with ``k``
    or more certain rows, so its support is exactly ``k``; ``zeros`` is
    mostly ``p = 0``; ``mixed`` draws every row from all of these.
    """
    if shape == "uniform":
        return [rng.uniform(0.05, 1.0) for _ in range(count)]
    if shape == "tiny":
        return [rng.uniform(1e-4, 1e-3) for _ in range(count)]
    if shape == "zeros":
        return [rng.random() if rng.random() < 0.05 else 0.0 for _ in range(count)]
    if shape == "certain":
        run = rng.randint(k, 2 * k)
        return [1.0] * min(run, count) + [
            rng.uniform(0.0, 1.0) for _ in range(count - run)
        ]
    return [
        rng.choice(
            (0.0, 1.0, rng.uniform(1e-4, 1e-3), rng.uniform(0.05, 1.0))
        )
        for _ in range(count)
    ]


def tied_scores(count: int, rng: random.Random) -> List[float]:
    """Decreasing scores with runs of equal values."""
    scores, score = [], float(count)
    for _ in range(count):
        if rng.random() < 0.6:
            score -= 1.0
        scores.append(score)
    return scores


def assert_close_rows(got: List[List[float]], want: List[List[float]]) -> None:
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert len(row) == len(expected)
        for value, target in zip(row, expected):
            assert abs(value - target) <= TOLERANCE


def assert_zero_tail(backend: Backend, native) -> int:
    """The native matrix's support, after checking its rows: every row
    from it on is exactly 0.0 and the row before it is not."""
    rows = backend.matrix_to_lists(native)
    support = backend.row_support(native)
    assert all(value == 0.0 for row in rows[support:] for value in row)
    assert support == 0 or any(rows[support - 1])
    return support


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 3000),
    k=st.integers(1, 12),
    shape=st.sampled_from(SHAPES),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ti_kernel_matches_per_row_sweep(backend_name, count, k, shape, ties, seed):
    rng = random.Random(seed)
    probabilities = probabilities_of(shape, count, k, rng)
    scores = tied_scores(count, rng) if ties else None
    with use_backend(backend_name) as backend:
        native = backend.rank_probability_matrix(probabilities, k, scores=scores)
        assert_close_rows(
            backend.matrix_to_lists(native), reference_ti(probabilities, k, scores)
        )
        support = assert_zero_tail(backend, native)
        if shape == "certain" and not ties and count >= k:
            assert support == k
        if shape == "tiny":
            assert support == count
        if ties:
            with pytest.raises(ValueError):
                backend.rank_probability_matrix(
                    probabilities, k, scores=scores, with_support=True
                )
        else:
            again, declared = backend.rank_probability_matrix(
                probabilities, k, with_support=True
            )
            assert declared == support
            assert backend.matrix_to_lists(again) == backend.matrix_to_lists(
                native
            )

        prefix, live = backend.prefix_count_polynomials(probabilities, k)
        assert_close_rows(
            backend.matrix_to_lists(prefix), reference_prefix(probabilities, k)
        )
        # The sweep stops where its rows turn zero, and leaves no nonzero
        # row past that point.
        assert live == assert_zero_tail(backend, prefix)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(0, 200),
    k=st.integers(1, 12),
    shape=st.sampled_from(SHAPES),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bid_kernel_matches_per_row_sweep(backend_name, count, k, shape, ties, seed):
    rng = random.Random(seed)
    blocks = [rng.randrange(max(count // 2, 1)) for _ in range(count)]
    # A block's alternatives are exclusive: scale every block to mass <= 1.
    raw = probabilities_of(shape, count, k, rng)
    mass = defaultdict(float)
    for block, probability in zip(blocks, raw):
        mass[block] += probability
    probabilities = [
        probability / max(mass[block], 1.0)
        for block, probability in zip(blocks, raw)
    ]
    scores = tied_scores(count, rng) if ties else None
    with use_backend(backend_name) as backend:
        native = backend.rank_probability_matrix(probabilities, k, blocks, scores)
        assert_close_rows(
            backend.matrix_to_lists(native),
            reference_bid(probabilities, blocks, k, scores),
        )
        assert_zero_tail(backend, native)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_rank_matrix_declares_its_support(backend_name):
    """A TI matrix in score order ends at its zero tail, every derived copy
    keeps it, and the live rows are the native matrix's leading rows."""
    rng = random.Random(5)
    rows = [
        (f"t{index}", index, float(index), rng.uniform(0.05, 1.0))
        for index in range(3000)
    ]
    with use_backend(backend_name) as backend:
        matrix = QuerySession(TupleIndependentDatabase(rows).tree).rank_matrix(10)
        support = matrix.support
        assert 10 * 10 < support < len(matrix)
        assert support == assert_zero_tail(backend, matrix.native)
        assert backend.matrix_to_lists(matrix.live) == (
            backend.matrix_to_lists(matrix.native)[:support]
        )
        views = (matrix.cumulative(), matrix.truncated(4), matrix.cumulative().truncated(3))
        for view in views:
            assert view.support == support
            assert backend.row_support(view.native) <= support
            dense = backend.matrix_to_lists(view.native)
            assert dense[:support] == backend.matrix_to_lists(view.live)
            tail_key = view.keys()[-1]
            assert view.row(tail_key) == [0.0] * view.max_rank
        membership = matrix.membership()
        assert list(membership) == matrix.keys()
        assert all(value == 0.0 for value in list(membership.values())[support:])


def test_public_constructor_still_checks_keys():
    backend = get_backend()
    with pytest.raises(ValueError):
        RankMatrix(["a", "a"], backend.matrix_from_rows([[0.5], [0.5]]), backend, 1)
    matrix = RankMatrix(
        ["a", "b", "c"], backend.matrix_from_rows([[0.5], [0.25], [0.0]]), backend, 1
    )
    assert matrix.support == 2


# ----------------------------------------------------------------------
# Consumers
# ----------------------------------------------------------------------
def _rows(probabilities: Sequence[float]):
    """TI rows in score order; key order runs the other way, so ties broken
    by key favour the rows at the bottom."""
    count = len(probabilities)
    return [
        (f"t{count - index:05d}", index, float(count - index), probability)
        for index, probability in enumerate(probabilities)
    ]


def short_support_databases(count: int, k: int):
    """``(name, database)`` whose supports are short: ``k`` certain tuples
    on top (support exactly ``k``), ``k`` certain tuples among the first
    ``3k`` (support below ``k²``) and mostly-zero probabilities (a long
    support, fewer than ``k`` rows carrying mass)."""
    rng = random.Random(count * 31 + k)
    top = [1.0] * k + [rng.uniform(0.05, 1.0) for _ in range(count - k)]
    spread = [rng.uniform(0.05, 1.0) for _ in range(count)]
    for index in rng.sample(range(min(3 * k, count)), k):
        spread[index] = 1.0
    sparse = [0.0] * count
    for index in rng.sample(range(count), max(k // 2, 1)):
        sparse[index] = rng.uniform(0.05, 1.0)
    return [
        (name, TupleIndependentDatabase(_rows(probabilities)))
        for name, probabilities in (
            ("certain_top", top),
            ("certain_spread", spread),
            ("mostly_zero", sparse),
        )
    ]


def answers(session, k: int):
    """Every support-reading consumer's answer on ``session``."""
    footrule = mean_topk_footrule(session, k)
    intersection = mean_topk_intersection(session, k)
    delta = mean_topk_symmetric_difference(session, k)
    approximate = approximate_topk_intersection(session, k)
    return {
        "footrule": footrule,
        "footrule_distance": expected_topk_footrule_distance(session, footrule[0], k),
        "intersection": intersection,
        "intersection_distance": expected_topk_intersection_distance(
            session, intersection[0], k
        ),
        "delta": delta,
        "delta_distance": expected_topk_symmetric_difference(session, delta[0], k),
        "approximate_intersection": approximate,
        "kendall": approximate_topk_kendall(session, k, rng=random.Random(0)),
        "membership": session.top_k_membership(k),
        "upsilon_h": upsilon_h(session, k),
    }


def assert_same_answers(got, want) -> None:
    assert got.keys() == want.keys()
    for name in want:
        _assert_same(got[name], want[name])


def _assert_same(got, want) -> None:
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=ANSWER_TOLERANCE)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, tuple) and want and isinstance(want[-1], float):
        assert got[0] == want[0]
        _assert_same(got[1], want[1])
    else:
        assert got == want


def patch_supports_dense(monkeypatch) -> None:
    """Make every support read report every row live: the ``row_support``
    reduction and the live row count the prefix sweep reports."""
    for name in BACKENDS:
        with use_backend(name) as backend:
            kind = type(backend)
            sweep = kind._prefix_products

            def every_row(self, values, out_len, sweep=sweep):
                rows, _ = sweep(self, values, out_len)
                return rows, len(rows)

            monkeypatch.setattr(kind, "row_support", lambda self, matrix: len(matrix))
            monkeypatch.setattr(kind, "_prefix_products", every_row)


@pytest.fixture
def dense(monkeypatch):
    """Declare every row of every rank matrix live: the consumers then read
    whole tables, as before supports existed."""
    return lambda: patch_supports_dense(monkeypatch)


def sessions(database):
    yield "local", QuerySession(database.tree)
    yield "sharded", ShardedDatabase(database, 4).coordinator()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_consumers_match_dense_evaluation(backend_name, dense):
    k = 10
    rng = random.Random(3)
    uniform = [rng.uniform(0.05, 1.0) for _ in range(2000)]
    with use_backend(backend_name):
        databases = short_support_databases(2000, k) + [
            ("uniform", TupleIndependentDatabase(_rows(uniform)))
        ]
        found = {}
        for name, database in databases:
            for where, session in sessions(database):
                matrix = session.rank_matrix(k)
                assert matrix.support < len(matrix), (name, where)
                if name.startswith("certain"):
                    assert matrix.support < k * k, (name, where)
                found[name, where] = answers(session, k)
        dense()
        for name, database in databases:
            for where, session in sessions(database):
                assert session.rank_matrix(k).support == len(database.tree.keys())
                assert_same_answers(found[name, where], answers(session, k))


def _brute_force_value(distribution, answer, k, distance):
    return expected_distance(
        answer,
        distribution,
        answer_of=lambda world: world.top_k(k),
        distance=lambda a, b: distance(a, b, k=k),
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("k", [2, 3])
def test_consumers_match_world_enumeration(backend_name, k):
    metrics = (
        ("footrule", mean_topk_footrule, topk_footrule_distance),
        ("intersection", mean_topk_intersection, topk_intersection_distance),
        ("symmetric_difference", mean_topk_symmetric_difference, topk_symmetric_difference),
    )
    with use_backend(backend_name):
        for name, database in short_support_databases(8, k):
            distribution = enumerate_worlds(database.tree)
            for where, session in sessions(database):
                matrix = session.rank_matrix(k)
                assert matrix.support < len(matrix), (name, where)
                for metric, solve, distance in metrics:
                    answer, value = solve(session, k)
                    truth = _brute_force_value(distribution, answer, k, distance)
                    assert math.isclose(value, truth, abs_tol=ANSWER_TOLERANCE)
                    _, optimum = brute_force_mean_topk(
                        distribution, k, distance=metric,
                        candidate_items=database.tree.keys(),
                    )
                    assert math.isclose(value, optimum, abs_tol=ANSWER_TOLERANCE), (
                        name, where, metric,
                    )
                membership = session.top_k_membership(k)
                for key, probability in membership.items():
                    truth = distribution.expectation(
                        lambda world: float(key in world.top_k(k))
                    )
                    assert math.isclose(probability, truth, abs_tol=ANSWER_TOLERANCE)
