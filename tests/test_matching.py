"""Tests for the Hungarian algorithm and bipartite-matching helpers."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# The scipy oracle comparisons require the optional numeric stack; the rest
# of the suite (and the pure-Python compute backend) must pass without it.
try:
    import numpy
    from scipy.optimize import linear_sum_assignment
except ImportError:  # pragma: no cover - NumPy-free installs
    numpy = None
    linear_sum_assignment = None

requires_scipy_oracle = pytest.mark.skipif(
    linear_sum_assignment is None, reason="numpy/scipy not installed"
)

from repro.exceptions import MatchingError
from repro.matching.bipartite import (
    BipartiteGraph,
    counts_are_feasible,
    maximum_cardinality_matching,
)
from repro.matching.hungarian import (
    maximize_profit_assignment,
    minimize_cost_assignment,
)


class TestHungarian:
    def test_trivial(self):
        assignment, cost = minimize_cost_assignment([[5.0]])
        assert assignment == [0]
        assert cost == 5.0

    def test_empty(self):
        assert minimize_cost_assignment([]) == ([], 0.0)

    def test_simple_square(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        assignment, total = minimize_cost_assignment(cost)
        assert sorted(assignment) == [0, 1, 2]
        assert total == 1 + 2 + 2 or total == 5.0

    def test_rectangular(self):
        cost = [[10, 1, 10, 10], [10, 10, 1, 10]]
        assignment, total = minimize_cost_assignment(cost)
        assert assignment == [1, 2]
        assert total == 2

    def test_rows_exceed_cols_rejected(self):
        with pytest.raises(MatchingError):
            minimize_cost_assignment([[1], [2]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(MatchingError):
            minimize_cost_assignment([[1, 2], [3]])

    def test_maximize(self):
        profit = [[1, 5], [5, 1]]
        assignment, total = maximize_profit_assignment(profit)
        assert total == 10
        assert assignment == [1, 0]

    @requires_scipy_oracle
    @pytest.mark.parametrize("rows,cols,seed", [
        (3, 3, 0), (4, 6, 1), (5, 5, 2), (6, 9, 3), (8, 8, 4), (2, 10, 5),
    ])
    def test_matches_scipy(self, rows, cols, seed):
        rng = random.Random(seed)
        cost = [[rng.uniform(-10, 10) for _ in range(cols)] for _ in range(rows)]
        _, ours = minimize_cost_assignment(cost)
        row_index, col_index = linear_sum_assignment(numpy.array(cost))
        reference = float(numpy.array(cost)[row_index, col_index].sum())
        assert math.isclose(ours, reference, rel_tol=1e-9, abs_tol=1e-9)

    @requires_scipy_oracle
    @given(
        st.integers(1, 5),
        st.integers(0, 4),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_property(self, rows, extra_cols, seed):
        cols = rows + extra_cols
        rng = random.Random(seed)
        cost = [[rng.uniform(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assignment, ours = minimize_cost_assignment(cost)
        assert len(set(assignment)) == rows  # all distinct columns
        row_index, col_index = linear_sum_assignment(numpy.array(cost))
        reference = float(numpy.array(cost)[row_index, col_index].sum())
        assert math.isclose(ours, reference, rel_tol=1e-8, abs_tol=1e-8)


class TestBackendAwareDispatch:
    """The package-level solver (repro.matching.minimize_cost_assignment)
    dispatches to scipy's linear_sum_assignment when the NumPy engine
    backend is active and to the Hungarian reference otherwise; both are
    exact, so totals must agree on every instance."""

    @pytest.mark.parametrize("rows,cols,seed", [
        (1, 1, 0), (3, 3, 1), (4, 7, 2), (6, 6, 3), (5, 12, 4), (8, 8, 5),
        (2, 30, 6), (10, 14, 7),
    ])
    def test_dispatch_parity_on_random_rectangular(self, rows, cols, seed):
        from repro.engine import use_backend
        from repro.matching import (
            minimize_cost_assignment as dispatched_minimize,
        )

        rng = random.Random(seed)
        cost = [
            [rng.uniform(-10, 10) for _ in range(cols)] for _ in range(rows)
        ]
        reference_assignment, reference = minimize_cost_assignment(cost)
        assert sorted(set(reference_assignment)) == sorted(
            reference_assignment
        )
        with use_backend("python"):
            pure_assignment, pure_total = dispatched_minimize(cost)
        assert pure_assignment == reference_assignment
        assert pure_total == reference
        if numpy is not None:
            with use_backend("numpy"):
                fast_assignment, fast_total = dispatched_minimize(cost)
            assert len(set(fast_assignment)) == rows
            assert all(0 <= column < cols for column in fast_assignment)
            assert math.isclose(
                fast_total, reference, rel_tol=1e-9, abs_tol=1e-9
            )

    def test_dispatch_maximize_parity(self):
        from repro.engine import get_backend
        from repro.matching import (
            maximize_profit_assignment as dispatched_maximize,
        )

        rng = random.Random(11)
        profit = [[rng.uniform(0, 9) for _ in range(6)] for _ in range(4)]
        _, reference = maximize_profit_assignment(profit)
        assignment, total = dispatched_maximize(profit)
        assert len(set(assignment)) == 4
        assert math.isclose(total, reference, rel_tol=1e-9, abs_tol=1e-9)
        assert get_backend().name in ("python", "numpy")

    def test_dispatch_preserves_error_contract(self):
        from repro.matching import (
            minimize_cost_assignment as dispatched_minimize,
        )

        assert dispatched_minimize([]) == ([], 0.0)
        with pytest.raises(MatchingError):
            dispatched_minimize([[1], [2]])
        with pytest.raises(MatchingError):
            dispatched_minimize([[1, 2], [3]])

    @requires_scipy_oracle
    def test_scipy_solver_reported_available(self):
        from repro.matching import scipy_solver_available

        assert scipy_solver_available()

    def test_import_leaves_scipy_optimize_unloaded(self):
        """``import repro`` must not pay for ``scipy.optimize``; the
        solver is imported on the first numpy-backend solve."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        paths = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; "
                "assert 'scipy.optimize' not in sys.modules, 'loaded'",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestBipartite:
    def test_graph_construction(self):
        graph = BipartiteGraph(left=["a"], right=["x"])
        graph.add_edge("a", "x")
        graph.add_edge("b", "y")
        assert set(graph.left) == {"a", "b"}
        assert set(graph.right) == {"x", "y"}
        assert graph.neighbors("a") == ["x"]
        with pytest.raises(MatchingError):
            graph.neighbors("missing")

    def test_from_support(self):
        graph = BipartiteGraph.from_support({"a": ["x", "y"], "b": ["y"]})
        assert set(graph.neighbors("a")) == {"x", "y"}

    def test_maximum_matching_perfect(self):
        graph = BipartiteGraph.from_support(
            {"a": ["x", "y"], "b": ["x"], "c": ["z"]}
        )
        matching = maximum_cardinality_matching(graph)
        assert len(matching) == 3
        assert matching["b"] == "x"

    def test_maximum_matching_deficient(self):
        graph = BipartiteGraph.from_support({"a": ["x"], "b": ["x"]})
        matching = maximum_cardinality_matching(graph)
        assert len(matching) == 1

    def test_counts_feasibility(self):
        graph = BipartiteGraph.from_support(
            {"a": ["x", "y"], "b": ["x"], "c": ["y"]}
        )
        assert counts_are_feasible(graph, {"x": 2, "y": 1})
        assert counts_are_feasible(graph, {"x": 1, "y": 2})
        assert not counts_are_feasible(graph, {"x": 3, "y": 0})
        assert not counts_are_feasible(graph, {"x": 1, "y": 1})  # wrong total
