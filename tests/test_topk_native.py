"""Array-native Top-k consensus: candidate pruning, kernels, validation.

The exact mean Top-k answers under the intersection and footrule metrics
solve their assignment over at most ``k²`` candidate tuples (the pruning
lemma stated in :mod:`repro.consensus.topk.footrule`); the ``d_Δ`` answer,
Kendall's candidate pool and the ``Υ_H`` approximation pick their keys with
:meth:`~repro.engine.backends.Backend.top_indices`.  These tests pin:

* the lemma on random and tie-heavy tables, on both backends;
* numpy-vs-pure parity of the three consensus kernels;
* optimality of the three mean operators against world enumeration on
  tie-heavy TI, BID and general databases;
* equality with a full-width solve over TI, BID and sharded sessions;
* the lazily built tuple-independent layout.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.consensus.topk.common import order_by_score, top_keys
from repro.consensus.topk.footrule import (
    expected_topk_footrule_distance,
    mean_topk_footrule,
)
from repro.consensus.topk.intersection import (
    expected_topk_intersection_distance,
    mean_topk_intersection,
)
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
from repro.core.tuples import TupleAlternative
from repro.engine import RankMatrix, numpy_available, use_backend
from repro.matching import hungarian, maximize_profit_assignment
from repro.matching import minimize_cost_assignment
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.session import QuerySession
from tests.conftest import small_bid, small_tuple_independent

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
TOLERANCE = 1e-9

MEAN_OPERATORS = {
    "symmetric_difference": mean_topk_symmetric_difference,
    "intersection": mean_topk_intersection,
    "footrule": mean_topk_footrule,
}
PAIRWISE = {
    "symmetric_difference": topk_symmetric_difference,
    "intersection": topk_intersection_distance,
    "footrule": topk_footrule_distance,
}


def _sizes(k: int, rng: random.Random) -> list:
    """``n`` from ``k`` to 500: both sides of the ``k²`` cut plus samples."""
    fixed = {k, k * k, k * k + 1, 500}
    fixed.update(rng.randint(k, 500) for _ in range(3))
    return sorted(n for n in fixed if k <= n <= 500)


def _table(n: int, k: int, ties: bool, rng: random.Random) -> list:
    if ties:
        levels = (0.0, 0.25, 0.5, 1.0)
        return [[rng.choice(levels) for _ in range(k)] for _ in range(n)]
    return [[rng.random() for _ in range(k)] for _ in range(n)]


def _optimum(rows: list, columns: list, maximize: bool) -> float:
    """The reference Hungarian optimum over the given tuple rows."""
    sign = -1.0 if maximize else 1.0
    table = [
        [sign * rows[t][position] for t in columns]
        for position in range(len(rows[0]))
    ]
    _, total = hungarian.minimize_cost_assignment(table)
    return sign * total


class TestPruningLemma:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    def test_pruned_optimum_equals_full_width(
        self, backend, k, ties, maximize
    ):
        rng = random.Random(100 * k + 10 * ties + maximize)
        with use_backend(backend) as active:
            for n in _sizes(k, rng):
                rows = _table(n, k, ties, rng)
                native = active.matrix_from_rows(rows)
                candidates = active.assignment_candidates(native, k, maximize)
                if n <= k * k:
                    assert candidates == list(range(n))
                else:
                    assert len(candidates) <= k * k
                    assert candidates == sorted(set(candidates))
                pruned = _optimum(rows, candidates, maximize)
                full = _optimum(rows, list(range(n)), maximize)
                assert math.isclose(pruned, full, abs_tol=TOLERANCE)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    @pytest.mark.parametrize("shape", ["zeros", "ties"])
    def test_candidates_match_a_sort_reference(self, backend, maximize, shape):
        """On a zero-heavy table (an intersection profit table is nearly
        all exact zeros) and a tie-heavy one, each column's ``count`` best
        values among the kept rows are its ``count`` best under a sort."""
        rng = random.Random(11 + 2 * maximize + (shape == "ties"))
        n, width, count = 400, 6, 4
        if shape == "zeros":
            rows = [
                [rng.random() if rng.random() < 0.02 else 0.0 for _ in range(width)]
                for _ in range(n)
            ]
        else:
            rows = [
                [float(rng.randint(0, 3)) for _ in range(width)]
                for _ in range(n)
            ]
        with use_backend(backend) as active:
            kept = active.assignment_candidates(
                active.matrix_from_rows(rows), count, maximize
            )
        assert kept == sorted(set(kept))
        assert set(kept) <= set(range(n))
        for position in range(width):
            column = [row[position] for row in rows]
            reference = sorted(column, reverse=maximize)[:count]
            best_kept = sorted((column[t] for t in kept), reverse=maximize)
            assert best_kept[:count] == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_candidates_hold_every_column_best(self, backend):
        """Each column's ``count`` best rows survive, whatever the ties."""
        rng = random.Random(7)
        with use_backend(backend) as active:
            for ties in (False, True):
                rows = _table(60, 4, ties, rng)
                native = active.matrix_from_rows(rows)
                for maximize in (False, True):
                    kept = set(
                        active.assignment_candidates(native, 3, maximize)
                    )
                    for position in range(4):
                        column = [row[position] for row in rows]
                        ranked = sorted(column, reverse=maximize)
                        cut = ranked[2]
                        inside = [column[t] for t in kept]
                        better = [
                            value
                            for value in column
                            if (value > cut if maximize else value < cut)
                        ]
                        # Every strictly better value is kept, and at least
                        # three kept values reach the cut-off.
                        for value in better:
                            assert value in inside
                        reach = [
                            value
                            for value in inside
                            if (value >= cut if maximize else value <= cut)
                        ]
                        assert len(reach) >= 3


@pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")
class TestKernelParity:
    def _cumulative(self, seed: int, k: int) -> list:
        statistics = RankStatistics(small_bid(seed, blocks=12).tree)
        with use_backend("python"):
            return statistics.rank_matrix(k).cumulative().to_dict()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_intersection_profit_matrix(self, seed):
        k = 5
        table = self._cumulative(seed, k)
        rows = list(table.values())
        with use_backend("python") as pure:
            expected = pure.intersection_profit_matrix(rows, k)
        with use_backend("numpy") as fast:
            got = fast.matrix_to_lists(
                fast.intersection_profit_matrix(fast.matrix_from_rows(rows), k)
            )
        for row, want, have in zip(rows, expected, got):
            for j in range(1, k + 1):
                direct = sum(row[i - 1] / i for i in range(j, k + 1))
                assert math.isclose(want[j - 1], direct, abs_tol=1e-12)
                assert math.isclose(have[j - 1], direct, abs_tol=1e-12)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_assignment_candidates(self, maximize):
        rng = random.Random(3)
        for n, k in ((30, 3), (200, 5), (500, 10)):
            rows = _table(n, k, False, rng)
            with use_backend("python") as pure:
                expected = pure.assignment_candidates(rows, k, maximize)
            with use_backend("numpy") as fast:
                got = fast.assignment_candidates(
                    fast.matrix_from_rows(rows), k, maximize
                )
            assert got == expected

    def test_top_indices(self):
        rng = random.Random(5)
        for ties in (False, True):
            for n in (1, 7, 100):
                values = [row[0] for row in _table(n, 1, ties, rng)]
                for count in (0, 1, 3, n, n + 2):
                    results = []
                    for name in ("python", "numpy"):
                        with use_backend(name) as active:
                            native = active.matrix_from_rows(
                                [[value] for value in values]
                            )
                            totals = active.row_sums(native)
                            results.append(active.top_indices(totals, count))
                    if count <= 0:
                        expected = []
                    elif count >= n:
                        expected = list(range(n))
                    else:
                        cut = sorted(values, reverse=True)[count - 1]
                        expected = [
                            i for i, v in enumerate(values) if v >= cut
                        ]
                    assert results == [expected, expected]


@pytest.mark.parametrize("backend", BACKENDS)
def test_top_keys_matches_full_sort(backend):
    """Survivor re-sorting reproduces the ``(-value, repr(key))`` full sort."""
    rng = random.Random(11)
    keys = [f"t{i}" for i in range(40)] + [(1, i) for i in range(10)]
    values = [rng.choice((0.0, 0.3, 0.3, 0.7, 1.0)) for _ in keys]
    with use_backend(backend) as active:
        matrix = RankMatrix(
            keys, active.matrix_from_rows([[v] for v in values]), active, 1
        )
        membership = matrix.membership_vector()
        by_key = dict(zip(keys, values))
        full = sorted(keys, key=lambda key: (-by_key[key], repr(key)))
        for count in range(1, len(keys) + 1):
            assert top_keys(matrix, membership, count) == full[:count]


# ----------------------------------------------------------------------
# Optimality against world enumeration (tie-heavy databases)
# ----------------------------------------------------------------------
def _tie_heavy_ti(seed: int) -> AndXorTree:
    rng = random.Random(seed)
    scores = rng.sample(range(10, 100), 6)
    return TupleIndependentDatabase(
        [
            (f"t{i + 1}", score, float(score), rng.choice((0.5, 1.0, 0.25)))
            for i, score in enumerate(scores)
        ]
    ).tree


def _tie_heavy_bid(seed: int) -> AndXorTree:
    rng = random.Random(seed)
    scores = iter(rng.sample(range(10, 100), 8))
    blocks = []
    for b in range(4):
        shares = rng.choice(((0.5, 0.5), (0.25, 0.25), (0.5,), (1.0,)))
        alternatives = []
        for share in shares:
            score = float(next(scores))
            alternatives.append((score, score, share))
        blocks.append((f"t{b + 1}", alternatives))
    return BlockIndependentDatabase(blocks).tree


def _tie_heavy_general(seed: int) -> AndXorTree:
    """Correlated tuples: xor choices between and-groups, halves and
    quarters only, plus certain tuples."""
    rng = random.Random(seed)
    scores = rng.sample(range(10, 100), 7)

    def leaf(index: int) -> Leaf:
        score = float(scores[index])
        return Leaf(TupleAlternative(f"t{index + 1}", score, score))

    return AndXorTree(
        AndNode(
            [
                XorNode(
                    [
                        (AndNode([leaf(0), leaf(1)]), 0.5),
                        (AndNode([leaf(2), leaf(3)]), 0.5),
                    ]
                ),
                XorNode([(AndNode([leaf(4), leaf(5)]), 0.25)]),
                leaf(6),
            ]
        )
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", sorted(MEAN_OPERATORS))
@pytest.mark.parametrize(
    "build", [_tie_heavy_ti, _tie_heavy_bid, _tie_heavy_general],
    ids=["ti", "bid", "general"],
)
def test_mean_answer_is_optimal_by_enumeration(backend, metric, build):
    for seed in (1, 2, 3):
        tree = build(seed)
        distribution = enumerate_worlds(tree)
        distance = PAIRWISE[metric]
        for k in (1, 2, 3):
            with use_backend(backend):
                answer, value = MEAN_OPERATORS[metric](QuerySession(tree), k)
            _, best = brute_force_mean_topk(
                distribution, k, distance=metric, candidate_items=tree.keys()
            )
            enumerated = expected_distance(
                answer,
                distribution,
                answer_of=lambda world: world.top_k(k),
                distance=lambda a, b: distance(a, b, k=k),
            )
            assert math.isclose(value, best, abs_tol=TOLERANCE)
            assert math.isclose(enumerated, best, abs_tol=TOLERANCE)


# ----------------------------------------------------------------------
# Equality with a full-width solve
# ----------------------------------------------------------------------
def _full_width_answers(session, k: int) -> dict:
    """The three mean answers from full ``k × n`` tables and a full sort."""
    keys = session.rank_matrix(k).keys()
    footrule = session.footrule_statistics(k)
    columns, _ = minimize_cost_assignment(footrule.cost_rows())
    cumulative = session.cumulative_rank_matrix(k).to_dict()
    profit = [
        [
            sum(cumulative[key][i - 1] / i for i in range(j, k + 1))
            for key in keys
        ]
        for j in range(1, k + 1)
    ]
    chosen, _ = maximize_profit_assignment(profit)
    membership = session.top_k_membership(k)
    top = sorted(membership, key=lambda key: (-membership[key], repr(key)))
    return {
        "footrule": tuple(footrule.keys()[c] for c in columns),
        "intersection": tuple(keys[c] for c in chosen),
        "symmetric_difference": order_by_score(session, top[:k]),
    }


def _distance(metric: str, session, answer, k: int) -> float:
    return {
        "footrule": expected_topk_footrule_distance,
        "intersection": expected_topk_intersection_distance,
        "symmetric_difference": expected_topk_symmetric_difference,
    }[metric](session, answer, k)


def _sessions(seed: int):
    rng = random.Random(seed)
    scores = rng.sample(range(10, 10_000), 60)
    rows = [
        (f"t{i}", score, float(score), rng.uniform(0.05, 0.95))
        for i, score in enumerate(scores)
    ]
    ti = TupleIndependentDatabase(rows)
    yield "ti", QuerySession(ti.tree)
    yield "bid", QuerySession(small_bid(seed, blocks=40).tree)
    yield "sharded", ShardedDatabase(ti, 4).coordinator()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_full_width_solve(backend, seed):
    """Tie-free random data: identical answers, distances within 1e-9
    (n > k² for every size here, so the pruning is exercised)."""
    with use_backend(backend):
        for label, session in _sessions(seed):
            for k in (3, 5):
                reference = _full_width_answers(session, k)
                for metric, operator in MEAN_OPERATORS.items():
                    answer, value = operator(session, k)
                    assert answer == reference[metric], (label, metric, k)
                    assert math.isclose(
                        value,
                        _distance(metric, session, reference[metric], k),
                        abs_tol=TOLERANCE,
                    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_tied_optima_match_full_width_distance(backend):
    """With tied optima the answers may differ; the distances may not."""
    for seed in (1, 2, 3):
        with use_backend(backend):
            for build in (_tie_heavy_ti, _tie_heavy_bid, _tie_heavy_general):
                session = QuerySession(build(seed))
                for k in (1, 2):
                    reference = _full_width_answers(session, k)
                    for metric, operator in MEAN_OPERATORS.items():
                        _, value = operator(session, k)
                        assert math.isclose(
                            value,
                            _distance(metric, session, reference[metric], k),
                            abs_tol=TOLERANCE,
                        )


# ----------------------------------------------------------------------
# Tuple-independent layout
# ----------------------------------------------------------------------
def test_layout_built_lazily():
    trees = (
        small_tuple_independent(2, count=5).tree,
        small_bid(2, blocks=4).tree,
        _tie_heavy_general(2),
    )
    for tree in trees:
        for fast in (True, False):
            statistics = RankStatistics(tree, use_fast_path=fast)
            assert statistics._layout_cache is None
            layout = statistics.independent_tuple_layout()
            assert statistics.is_independent == (layout is not None)
    assert RankStatistics(trees[0]).is_independent
    assert not RankStatistics(trees[0], use_fast_path=False).is_independent
    assert not RankStatistics(trees[1]).is_independent
