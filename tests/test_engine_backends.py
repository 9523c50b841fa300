"""Backend parity: NumPy and pure-Python kernels must agree to 1e-9.

The engine promises that switching backends never changes results, only
speed.  These tests drive both implementations over randomized inputs --
raw kernels, polynomial products on random and/xor trees, and the batched
``RankMatrix`` API against the per-key ``rank_position_probabilities`` path
(both the fast tuple-independent layout and the general bivariate layout).
The rank kernels are also checked differentially to 1e-12: the chunked
prefix sweep against a per-row reference sweep, and the block-aware BID
kernel against the tree path and brute-force world enumeration.
"""

from __future__ import annotations

import math
import random

import pytest

from tests.conftest import small_bid, small_tuple_independent
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.generating import (
    bivariate_generating_function,
    univariate_generating_function,
)
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.statistics import size_distribution
from repro.engine import (
    NumpyBackend,
    PurePythonBackend,
    available_backends,
    get_backend,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.models import BlockIndependentDatabase
from repro.workloads.generators import (
    random_andxor_tree,
    random_bid_database,
    random_tuple_independent_database,
)

pure = PurePythonBackend()

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


def forced_numpy_backend():
    """A NumpyBackend that always takes the vector path (no small-input
    fallback), so parity tests actually exercise the NumPy kernels."""
    return NumpyBackend(small_cutoff=0)


BACKEND_NAMES = ["python", "numpy"] if numpy_available() else ["python"]


def backend_named(name):
    return pure if name == "python" else forced_numpy_backend()


def assert_close_lists(left, right, tolerance=1e-9):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert math.isclose(a, b, abs_tol=tolerance)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_python_always_available(self):
        assert "python" in available_backends()

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        set_backend(None)  # drop any override, re-resolve from env
        try:
            assert get_backend().name == "python"
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            set_backend(None)

    def test_use_backend_scopes_override(self):
        before = get_backend()
        with use_backend("python") as active:
            assert active.name == "python"
            assert get_backend() is active
        assert get_backend() is before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_backend("fortran")

    @needs_numpy
    def test_numpy_selectable_by_name(self):
        with use_backend("numpy") as active:
            assert active.name == "numpy"


# ----------------------------------------------------------------------
# Raw kernel parity
# ----------------------------------------------------------------------
@needs_numpy
class TestKernelParity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_convolve(self, seed):
        rng = random.Random(seed)
        vector = forced_numpy_backend()
        a = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 40))]
        b = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 40))]
        # out_len may exceed the full product length, in which case both
        # backends must zero-pad to exactly out_len.
        out_len = rng.randint(1, len(a) + len(b) + 5)
        left = pure.convolve(a, b, out_len)
        right = vector.convolve(a, b, out_len)
        assert len(left) == len(right) == out_len
        assert_close_lists(left, right)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_convolve2d(self, seed):
        rng = random.Random(100 + seed)
        vector = forced_numpy_backend()
        a = [
            [rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 8))
        ]
        b = [
            [rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 8))
        ]
        a = [row + [0.0] * (max(len(r) for r in a) - len(row)) for row in a]
        b = [row + [0.0] * (max(len(r) for r in b) - len(row)) for row in b]
        out_x = len(a) + len(b) - 1
        out_y = len(a[0]) + len(b[0]) - 1
        left = pure.convolve2d(a, b, out_x, out_y)
        right = vector.convolve2d(a, b, out_x, out_y)
        for row_l, row_r in zip(left, right):
            assert_close_lists(row_l, row_r)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_convolve(self, seed):
        rng = random.Random(200 + seed)
        vector = forced_numpy_backend()

        def random_terms():
            return {
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)):
                    rng.uniform(-1, 1)
                for _ in range(rng.randint(1, 30))
            }

        terms_a, terms_b = random_terms(), random_terms()
        limits = (rng.randint(2, 8), None, rng.randint(2, 8))
        left = pure.sparse_convolve(terms_a, terms_b, limits)
        right = vector.sparse_convolve(terms_a, terms_b, limits)
        assert set(left) == set(right)
        for exponents in left:
            assert math.isclose(
                left[exponents], right[exponents], abs_tol=1e-9
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bernoulli_product_and_polynomial_product(self, seed):
        rng = random.Random(300 + seed)
        vector = forced_numpy_backend()
        probabilities = [rng.random() for _ in range(rng.randint(1, 60))]
        for out_len in (None, 5, len(probabilities) + 1):
            assert_close_lists(
                pure.bernoulli_product(probabilities, out_len),
                vector.bernoulli_product(probabilities, out_len),
            )
        # A Bernoulli product is a polynomial product of binomials; the
        # three routes must agree.
        factors = [[1.0 - p, p] for p in probabilities]
        assert_close_lists(
            pure.bernoulli_product(probabilities),
            vector.polynomial_product(factors),
        )
        assert_close_lists(
            pure.polynomial_product(factors, 7),
            vector.polynomial_product(factors, 7),
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rank_probability_matrix(self, seed):
        rng = random.Random(400 + seed)
        vector = forced_numpy_backend()
        probabilities = [rng.random() for _ in range(rng.randint(2, 50))]
        max_rank = rng.randint(1, len(probabilities))
        left = pure.rank_probability_matrix(probabilities, max_rank)
        right = vector.matrix_to_lists(
            vector.rank_probability_matrix(probabilities, max_rank)
        )
        for row_l, row_r in zip(left, right):
            assert_close_lists(row_l, row_r)

    def test_exact_arithmetic_preserved(self):
        """Fraction coefficients must not be degraded to float64."""
        from fractions import Fraction

        vector = forced_numpy_backend()
        a = [Fraction(1, 3), Fraction(2, 3)]
        b = [Fraction(1, 7), Fraction(3, 7)]
        result = vector.convolve(a, b, 3)
        assert result == pure.convolve(a, b, 3)
        assert all(isinstance(value, Fraction) for value in result)


# ----------------------------------------------------------------------
# Generating-function parity on randomized and/xor trees
# ----------------------------------------------------------------------
@needs_numpy
class TestTreeParity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_univariate_generating_function(self, seed):
        tree = random_andxor_tree(rng=seed, leaf_count=12)
        with use_backend("python"):
            left = univariate_generating_function(tree)
        with use_backend(forced_numpy_backend()):
            right = univariate_generating_function(tree)
        assert left.almost_equal(right, tolerance=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bivariate_generating_function(self, seed):
        tree = random_andxor_tree(rng=50 + seed, leaf_count=10)
        leaves = sorted(
            tree.keys(), key=repr
        )
        marked = set(leaves[::3])
        special = leaves[0]

        def variable_of(leaf):
            if leaf.alternative.key == special:
                return "y"
            if leaf.alternative.key in marked:
                return "x"
            return None

        with use_backend("python"):
            left = bivariate_generating_function(tree, variable_of)
        with use_backend(forced_numpy_backend()):
            right = bivariate_generating_function(tree, variable_of)
        assert left.almost_equal(right, tolerance=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_size_distribution_fast_path(self, seed):
        database = random_tuple_independent_database(30, rng=seed)
        with use_backend("python"):
            left = size_distribution(database.tree)
        with use_backend(forced_numpy_backend()):
            right = size_distribution(database.tree)
        assert_close_lists(left, right)


# ----------------------------------------------------------------------
# RankMatrix vs the per-key rank_distribution path
# ----------------------------------------------------------------------
class TestRankMatrixAgainstPerKeyPath:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("backend_name", ["python", "numpy"])
    def test_fast_layout(self, seed, backend_name):
        if backend_name == "numpy" and not numpy_available():
            pytest.skip("numpy not installed")
        database = small_tuple_independent(seed, count=8)
        with use_backend(backend_name):
            statistics = RankStatistics(database.tree)
            assert statistics.independent_tuple_layout() is not None
            matrix = statistics.rank_matrix(5)
            # The general (bivariate generating function) path is the oracle.
            oracle = RankStatistics(database.tree, use_fast_path=False)
            for key in statistics.keys():
                assert_close_lists(
                    matrix.row(key),
                    oracle.rank_position_probabilities(key, max_rank=5),
                )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("backend_name", ["python", "numpy"])
    def test_general_layout(self, seed, backend_name):
        if backend_name == "numpy" and not numpy_available():
            pytest.skip("numpy not installed")
        database = small_bid(seed, blocks=5)
        with use_backend(backend_name):
            statistics = RankStatistics(database.tree)
            assert statistics.independent_tuple_layout() is None
            matrix = statistics.rank_matrix(4)
            for key in statistics.keys():
                assert_close_lists(
                    matrix.row(key),
                    statistics.rank_position_probabilities(key, max_rank=4),
                )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_cross_backend_rank_matrices_agree(self, seed):
        if not numpy_available():
            pytest.skip("numpy not installed")
        database = random_bid_database(
            12, rng=seed, max_alternatives=2, exhaustive=True
        )
        with use_backend("python"):
            left = RankStatistics(database.tree).rank_matrix(6)
        with use_backend("numpy"):
            right = RankStatistics(database.tree).rank_matrix(6)
        assert left.keys() == right.keys()
        for key in left.keys():
            assert_close_lists(left.row(key), right.row(key))
        assert_close_lists(left.column_totals(), right.column_totals())
        left_members = left.membership()
        right_members = right.membership()
        for key in left_members:
            assert math.isclose(
                left_members[key], right_members[key], abs_tol=1e-9
            )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matrix_views_consistent(self, seed):
        database = small_tuple_independent(seed, count=6)
        statistics = RankStatistics(database.tree)
        matrix = statistics.rank_matrix(4)
        cumulative = matrix.cumulative()
        table = statistics.rank_at_most_table(4)
        for key in statistics.keys():
            assert_close_lists(cumulative.row(key), table[key])
            assert math.isclose(
                matrix.membership()[key],
                statistics.rank_at_most(key, 4),
                abs_tol=1e-12,
            )
        # weighted_sums with unit weights reproduces membership
        unit = matrix.weighted_sums([1.0] * 4)
        for key, value in matrix.membership().items():
            assert math.isclose(unit[key], value, abs_tol=1e-12)
        # column/row agree with to_dict
        as_dict = matrix.to_dict()
        for position in range(1, 5):
            column = matrix.column(position)
            for key, value in zip(matrix.keys(), column):
                assert math.isclose(
                    value, as_dict[key][position - 1], abs_tol=1e-12
                )

    def test_unknown_key_raises(self):
        database = small_tuple_independent(1, count=4)
        matrix = RankStatistics(database.tree).rank_matrix(2)
        with pytest.raises(KeyError):
            matrix.row("no-such-key")


# ----------------------------------------------------------------------
# The chunked TI sweep against a per-row reference sweep
# ----------------------------------------------------------------------
def per_row_sweep(probabilities, out_len):
    """Rows ``m = 0..n`` of ``Π_{i<m} (1 - p_i + p_i x)``, one row at a
    time (the sweep the chunked kernels replace)."""
    coefficients = [1.0] + [0.0] * (out_len - 1)
    rows = [coefficients]
    for p in probabilities:
        coefficients = [
            c * (1.0 - p) + (coefficients[i - 1] * p if i else 0.0)
            for i, c in enumerate(coefficients)
        ]
        rows.append(coefficients)
    return rows


class TestChunkedSweep:
    # The numpy sweep's grid lines lie every _grid_size(n) rows: isqrt(n)
    # (at least 2) below 256 rows, 16 from there.  The sizes put the
    # table's last row one short of a grid line (1, 23, 271), on one (2,
    # 4, 8, 16, 24, 48, 49, 255, 256, 272) and one past one (3, 17, 50,
    # 101, 257, 273); 4 rows make exactly two chunks.
    @pytest.mark.parametrize(
        "count",
        [0, 1, 2, 3, 4, 8, 16, 17, 23, 24, 48, 49, 50, 101, 255, 256, 257,
         271, 272, 273],
    )
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_matches_per_row_sweep(self, count, backend_name):
        backend = backend_named(backend_name)
        rng = random.Random(9000 + count)
        probabilities = [
            rng.choice([0.0, 1.0, rng.random(), rng.random()])
            for _ in range(count)
        ]
        for max_rank in (1, 4, count + 3):
            expected = per_row_sweep(probabilities, max_rank)
            prefix = backend.matrix_to_lists(
                backend.prefix_count_polynomials(probabilities, max_rank)[0]
            )
            ranks = backend.matrix_to_lists(
                backend.rank_probability_matrix(probabilities, max_rank)
            )
            assert len(prefix) == count + 1 and len(ranks) == count
            for row, expected_row in zip(prefix, expected):
                assert_close_lists(row, expected_row, tolerance=1e-12)
            for p, row, expected_row in zip(probabilities, ranks, expected):
                assert_close_lists(
                    row, [p * c for c in expected_row], tolerance=1e-12
                )

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_zero_width(self, backend_name):
        backend = backend_named(backend_name)
        assert backend.matrix_to_lists(
            backend.rank_probability_matrix([0.5, 0.25], 0)
        ) == [[], []]


class TestConvolveRows:
    @staticmethod
    def rows(rng, count, width):
        return [[rng.random() for _ in range(width)] for _ in range(count)]

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_convolve(self, backend_name, seed):
        backend = backend_named(backend_name)
        rng = random.Random(700 + seed)
        count = rng.randint(1, 30)
        a = self.rows(rng, count, rng.randint(1, 12))
        b = self.rows(rng, count, rng.randint(1, 12))
        for out_len in (1, 4, 10, 25):
            got = backend.matrix_to_lists(
                backend.convolve_rows(
                    backend.matrix_from_rows(a),
                    backend.matrix_from_rows(b),
                    out_len,
                )
            )
            assert len(got) == count
            for row, row_a, row_b in zip(got, a, b):
                assert_close_lists(
                    row, pure.convolve(row_a, row_b, out_len), 1e-12
                )

    @needs_numpy
    @pytest.mark.parametrize("width", [1, 4, 10, 12])
    def test_row_bits_independent_of_batch(self, width):
        """The merge engine re-convolves a row suffix and splices it under
        rows convolved in a larger batch, so each row's bits must not
        depend on the batch it sits in."""
        backend = forced_numpy_backend()
        rng = random.Random(width)
        count, out_len = 1500, 10
        a = backend.matrix_from_rows(self.rows(rng, count, width))
        b = backend.matrix_from_rows(self.rows(rng, count, 12))
        whole = backend.matrix_to_lists(backend.convolve_rows(a, b, out_len))
        for start in (0, 1, 733, count - 2):
            for size in (1, 2):
                part = backend.convolve_rows(
                    a[start : start + size], b[start : start + size], out_len
                )
                assert (
                    backend.matrix_to_lists(part)
                    == whole[start : start + size]
                )


# ----------------------------------------------------------------------
# The block-aware BID kernel against the tree path and world enumeration
# ----------------------------------------------------------------------
def random_blocks(rng, sizes, full_mass):
    """BID blocks of the given sizes with distinct integer scores; a block
    with ``full_mass`` sums to exactly 1 (dyadic weights), others to less,
    and some alternatives have probability 0."""
    scores = iter(rng.sample(range(1, 100), sum(sizes)))
    blocks = []
    for index, (size, full) in enumerate(zip(sizes, full_mass)):
        if full:
            cuts = sorted(rng.choice(range(9)) for _ in range(size - 1))
            weights = [
                (high - low) / 8 for low, high in zip([0] + cuts, cuts + [8])
            ]
        else:
            weights = [rng.choice([0.0, rng.uniform(0.0, 0.9 / size)])
                       for _ in range(size)]
        blocks.append(
            (
                f"b{index}",
                [(f"v{index}.{i}", float(next(scores)), weight)
                 for i, weight in enumerate(weights)],
            )
        )
    return BlockIndependentDatabase(blocks)


def enumerated_rank_rows(tree, score, max_rank):
    """``Pr(r(t) = j)`` by summing over every possible world; a tuple's rank
    counts only the present alternatives scored strictly above it."""
    rows = {key: [0.0] * max_rank for key in tree.keys()}
    for world, probability in enumerate_worlds(tree):
        for alternative in world:
            rank = 1 + sum(
                score(other) > score(alternative) for other in world
            )
            if rank <= max_rank:
                rows[alternative.key][rank - 1] += probability
    return rows


def descending(alternative):
    return -alternative.effective_score()


def tied(alternative):
    return float(int(alternative.effective_score()) // 10)


SCORINGS = {"default": None, "descending": descending, "tied": tied}


class TestBlockKernel:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("scoring", sorted(SCORINGS))
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_matches_enumeration(self, seed, scoring, backend_name):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        while sum(sizes) > 8:
            sizes.pop()
        database = random_blocks(
            rng, sizes, [rng.random() < 0.5 for _ in sizes]
        )
        score = SCORINGS[scoring] or (lambda alt: alt.effective_score())
        max_rank = rng.choice([1, 2, len(sizes) + 1])
        with use_backend(backend_named(backend_name)):
            matrix = RankStatistics(
                database.columns,
                validate_scores=scoring != "tied",
                scoring=SCORINGS[scoring],
            ).rank_matrix(max_rank)
        assert database.columns._tree is None
        expected = enumerated_rank_rows(database.tree, score, max_rank)
        assert sorted(matrix.keys()) == sorted(expected)
        for key, row in expected.items():
            assert_close_lists(matrix.row(key), row, tolerance=1e-12)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_tuple_independent_ties_match_enumeration(self, backend_name):
        database = random_blocks(random.Random(5), [1] * 7, [False] * 7)
        with use_backend(backend_named(backend_name)):
            matrix = RankStatistics(
                database.columns, validate_scores=False, scoring=tied
            ).rank_matrix(4)
        expected = enumerated_rank_rows(database.tree, tied, 4)
        for key, row in expected.items():
            assert_close_lists(matrix.row(key), row, tolerance=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scoring", sorted(SCORINGS))
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_matches_tree_path(self, seed, scoring, backend_name):
        rng = random.Random(100 + seed)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(5, 9))]
        database = random_blocks(
            rng, sizes, [rng.random() < 0.5 for _ in sizes]
        )
        options = dict(
            validate_scores=scoring != "tied", scoring=SCORINGS[scoring]
        )
        for max_rank in (1, 3, len(sizes) + 2):
            with use_backend(backend_named(backend_name)):
                statistics = RankStatistics(database.columns, **options)
                matrix = statistics.rank_matrix(max_rank)
                oracle = RankStatistics(
                    database.columns.tree, use_fast_path=False, **options
                )
                for key in matrix.keys():
                    assert_close_lists(
                        matrix.row(key),
                        oracle._general_rank_positions(key, max_rank),
                        tolerance=1e-12,
                    )

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_singleton_blocks_match_ti_sweep(self, backend_name):
        """With every block a single row, the block kernel is the TI
        sweep; equal-score rows then stop counting each other."""
        backend = backend_named(backend_name)
        probabilities = [0.5, 1.0, 0.0, 0.3, 0.7, 0.2]
        blocks = [4, 2, 9, 0, 1, 3]
        by_block = backend.matrix_to_lists(
            backend.rank_probability_matrix(probabilities, 4, blocks)
        )
        by_row = backend.matrix_to_lists(
            backend.rank_probability_matrix(probabilities, 4)
        )
        for left, right in zip(by_block, by_row):
            assert_close_lists(left, right, tolerance=1e-12)
        scores = [9.0, 9.0, 5.0, 5.0, 5.0, 1.0]
        rows = backend.matrix_to_lists(
            backend.rank_probability_matrix(probabilities, 4, scores=scores)
        )
        assert_close_lists(rows[1], [1.0, 0.0, 0.0, 0.0], tolerance=1e-12)
        # Rows 2-4 see only rows 0 and 1 above them.
        assert_close_lists(
            rows[4], [0.0, 0.7 * 0.5, 0.7 * 0.5, 0.0], tolerance=1e-12
        )
