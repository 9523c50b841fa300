"""Query-session cache correctness and batched-kernel parity.

The session layer promises three things, all exercised here:

* **Parity** -- consensus answers read off a warm session bitwise-match
  those on fresh statistics, across both array backends (1e-9 tolerance).
* **Cache behaviour** -- a warm session answers a second consensus query
  (different distance, same tree) without recomputing the rank matrix,
  observable through the session's hit/miss counters.
* **Invalidation** -- changing the scores recomputes the artifacts instead
  of serving stale results.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from tests.conftest import small_bid, small_tuple_independent, small_xtuple
from repro.andxor.rank_probabilities import RankStatistics
from repro.baselines.ranking import expected_rank_topk, global_topk
from repro.consensus.jaccard import (
    expected_jaccard_distance_to_world,
    mean_world_jaccard_tuple_independent,
)
from repro.consensus.topk.footrule import mean_topk_footrule
from repro.consensus.topk.intersection import mean_topk_intersection
from repro.consensus.topk.kendall import approximate_topk_kendall
from repro.consensus.topk.symmetric_difference import (
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.engine import numpy_available, use_backend
from repro.exceptions import ConsensusError
from repro.models import ShardedDatabase
from repro.query import NAMED_KINDS, Query, connect
from repro.serving import ServingExecutor
from repro.session import QuerySession, as_session
from repro.workloads.generators import random_tuple_independent_database

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

K = 3


def assert_answers_close(left, right, tolerance=1e-9):
    answer_left, value_left = left
    answer_right, value_right = right
    assert answer_left == answer_right
    assert math.isclose(value_left, value_right, abs_tol=tolerance)


# ----------------------------------------------------------------------
# Warm-cache parity with direct calls
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_warm_session_matches_direct_calls(backend, seed):
    database = small_tuple_independent(seed, count=6)
    with use_backend(backend):
        session = QuerySession(database.tree)
        # Run everything twice: cold fills the cache, warm must serve the
        # exact same objects/values.
        for _ in range(2):
            assert_answers_close(
                mean_topk_symmetric_difference(session, K),
                mean_topk_symmetric_difference(database.tree, K),
            )
            assert_answers_close(
                median_topk_symmetric_difference(session, K),
                median_topk_symmetric_difference(database.tree, K),
            )
            assert_answers_close(
                mean_topk_intersection(session, K),
                mean_topk_intersection(database.tree, K),
            )
            assert_answers_close(
                mean_topk_footrule(session, K),
                mean_topk_footrule(database.tree, K),
            )
            assert approximate_topk_kendall(
                session, K
            ) == approximate_topk_kendall(database.tree, K)
            assert global_topk(session, K) == global_topk(database.tree, K)
            assert expected_rank_topk(session, K) == expected_rank_topk(
                database.tree, K
            )
            assert_answers_close(
                mean_world_jaccard_tuple_independent(session.tree),
                mean_world_jaccard_tuple_independent(database.tree),
            )
        assert session.cache_hits > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_warm_session_matches_direct_calls_bid(backend, seed):
    database = small_bid(seed, blocks=4, max_alternatives=2)
    with use_backend(backend):
        session = QuerySession(database.tree)
        for _ in range(2):
            assert_answers_close(
                mean_topk_symmetric_difference(session, 2),
                mean_topk_symmetric_difference(database.tree, 2),
            )
            assert_answers_close(
                mean_topk_footrule(session, 2),
                mean_topk_footrule(database.tree, 2),
            )
            assert approximate_topk_kendall(
                session, 2
            ) == approximate_topk_kendall(database.tree, 2)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_backend_parity_of_session_artifacts(seed):
    """The same session artifacts agree across backends to 1e-9."""
    database = small_tuple_independent(seed, count=6)
    results = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            session = QuerySession(database.tree)
            results[backend] = (
                session.top_k_membership(K),
                session.preference_matrix().to_dict(),
                session.expected_rank_table(),
            )
    for left, right in zip(results["python"], results["numpy"]):
        assert left.keys() == right.keys()
        for key in left:
            assert math.isclose(left[key], right[key], abs_tol=1e-9)


# ----------------------------------------------------------------------
# Pairwise preference matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_preference_matrix_matches_scalar_pairwise(backend):
    for database in (
        small_tuple_independent(4, count=6),
        small_bid(4, blocks=4, max_alternatives=3),
        small_xtuple(4, groups=3, max_members=2),
    ):
        with use_backend(backend):
            statistics = RankStatistics(database.tree)
            matrix = statistics.preference_matrix()
            for first in statistics.keys():
                for second in statistics.keys():
                    expected = statistics.pairwise_preference(first, second)
                    assert math.isclose(
                        matrix.value(first, second), expected, abs_tol=1e-9
                    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_preference_matrix_subset_is_restriction(backend):
    database = small_tuple_independent(5, count=6)
    with use_backend(backend):
        statistics = RankStatistics(database.tree)
        full = statistics.preference_matrix()
        pool = statistics.keys()[1:4]
        sub = statistics.preference_matrix(pool)
        for first in pool:
            for second in pool:
                assert math.isclose(
                    sub.value(first, second),
                    full.value(first, second),
                    abs_tol=1e-12,
                )


def test_legacy_pairwise_dictionary_shape():
    database = small_tuple_independent(6, count=5)
    statistics = RankStatistics(database.tree)
    table = statistics.pairwise_preference_matrix()
    keys = statistics.keys()
    assert len(table) == len(keys) * (len(keys) - 1)
    assert all(first != second for first, second in table)


# ----------------------------------------------------------------------
# Jaccard prefix kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_jaccard_kernel_matches_generating_function(backend, seed):
    """The batched prefix kernel equals the per-prefix Lemma-1 evaluation."""
    database = small_tuple_independent(seed, count=6)
    tree = database.tree
    with use_backend(backend):
        from repro.andxor.statistics import alternative_probability_table
        from repro.engine import get_backend

        table = alternative_probability_table(tree)
        ordered = [
            alternative
            for alternative, _ in sorted(
                table, key=lambda pair: (-pair[1], repr(pair[0]))
            )
        ]
        probabilities = [dict(table)[a] for a in ordered]
        values = get_backend().jaccard_prefix_values(probabilities)
        for size, value in enumerate(values):
            oracle = expected_jaccard_distance_to_world(
                tree, frozenset(ordered[:size])
            )
            assert math.isclose(value, oracle, abs_tol=1e-9)


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
def test_second_distance_reuses_rank_matrix():
    database = random_tuple_independent_database(50, rng=11)
    session = QuerySession(database.tree)
    mean_topk_symmetric_difference(session, 5)
    info = session.cache_info()
    assert info["artifacts"]["rank_matrix"]["misses"] == 1
    mean_topk_footrule(session, 5)  # different distance, same tree
    mean_topk_intersection(session, 5)
    info = session.cache_info()
    assert info["artifacts"]["rank_matrix"]["misses"] == 1
    assert info["artifacts"]["rank_matrix"]["hits"] >= 1
    assert session.cache_hits > 0


def test_as_session_reuses_statistics_session():
    database = small_tuple_independent(8, count=5)
    statistics = RankStatistics(database.tree)
    session = as_session(statistics)
    assert as_session(statistics) is session
    assert as_session(session) is session
    # Module-level calls against the statistics share the session cache.
    mean_topk_symmetric_difference(statistics, K)
    mean_topk_footrule(statistics, K)
    assert session.cache_info()["artifacts"]["rank_matrix"]["misses"] == 1


def test_validation_errors():
    database = small_tuple_independent(9, count=4)
    session = QuerySession(database.tree)
    with pytest.raises(ConsensusError):
        session.top_k_membership(0)
    with pytest.raises(ConsensusError):
        session.top_k_membership(5)
    with pytest.raises(TypeError):
        QuerySession(session)
    with pytest.raises(TypeError):
        as_session("not a tree")


# ----------------------------------------------------------------------
# One answer cache: the session memoizes statistics, ResultCache answers
# ----------------------------------------------------------------------
ANSWER_METHODS = (
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "mean_topk_intersection",
    "approximate_topk_intersection",
    "mean_topk_footrule",
    "approximate_topk_kendall",
    "mean_world_symmetric_difference",
    "median_world_symmetric_difference",
    "mean_world_jaccard",
    "median_world_jaccard",
    "global_topk",
    "expected_rank_topk",
)


def _answer_artifacts(info):
    return [name for name in info.artifacts if name.startswith("query:")]


def test_session_has_no_answer_methods():
    for name in ANSWER_METHODS:
        assert not hasattr(QuerySession, name), name


def test_named_kinds_memoize_only_statistics():
    database = small_tuple_independent(7, count=6)
    connection = connect(database, result_cache=False)
    for kind in NAMED_KINDS:
        answer = connection.execute(Query.named(kind, K))
        assert not answer.cached
    info = connection.cache_info()
    assert "rank_matrix" in info.artifacts
    assert _answer_artifacts(info) == []


def test_served_named_kinds_memoize_only_statistics():
    database = small_tuple_independent(7, count=6)

    async def main():
        async with ServingExecutor(ShardedDatabase(database, 2)) as executor:
            for kind in NAMED_KINDS:
                await executor.execute(Query.named(kind, K))
            return executor.database

    sharded = asyncio.run(main())
    assert _answer_artifacts(sharded.cache_info()) == []
    # Served reads run on pinned snapshot readers, which count their own
    # hits and misses but memoize into the coordinator's per-version store.
    memoized = {
        name
        for cache in sharded.coordinator()._store.values()
        for name, _ in cache
    }
    assert "rank_matrix" in memoized
    assert [name for name in memoized if name.startswith("query:")] == []


def test_repeated_query_is_served_by_the_result_cache():
    database = small_tuple_independent(7, count=6)
    connection = connect(database)
    query = Query.named("mean_topk_footrule", K)
    first = connection.execute(query)
    misses = connection.cache_info().misses
    second = connection.execute(query)
    assert not first.cached and second.cached
    assert second.value == first.value
    # The replay never reached the session.
    assert connection.cache_info().misses == misses
    assert _answer_artifacts(connection.cache_info()) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_ordering_answer_keys_builds_no_key_index(backend):
    with use_backend(backend):
        database = random_tuple_independent_database(2000, rng=5)
        connection = connect(database, result_cache=False)
        answer = connection.execute(Query.topk(10))
        assert connection.session._columns._block_index is None
        assert answer.answer == mean_topk_symmetric_difference(
            database.tree, 10
        )[0]
        # Read down the score order, best scores equal the tree's.
        for database in (database, small_bid(5, blocks=6)):
            flat = QuerySession(database.columns)
            tree = QuerySession(database.tree)
            keys = flat.keys()
            for picked in (keys[:3], keys[-2:][::-1], keys, keys[5:6] * 2):
                assert flat.best_scores(picked) == tree.best_scores(picked)
            for session in (flat, tree):
                with pytest.raises(ValueError):
                    session.best_scores([keys[0], "no-such-key"])


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_invalidation_recomputes_instead_of_serving_stale():
    database = small_tuple_independent(10, count=6)
    session = QuerySession(database.tree)
    original_answer, _ = mean_topk_symmetric_difference(session, K)
    entries = session.cache_info()["entries"]
    assert entries > 0

    # Reverse the ranking by negating every score: the warm cache must not
    # survive the re-scoring.
    session.set_scoring(lambda alternative: -alternative.effective_score())
    assert session.cache_info()["entries"] == 0
    assert session.generation == 1
    reversed_answer, _ = mean_topk_symmetric_difference(session, K)

    # An independent session built with the same scoring agrees, so the
    # recomputation used the new scores rather than stale artifacts.
    oracle = QuerySession(
        database.tree,
        scoring=lambda alternative: -alternative.effective_score(),
    )
    assert reversed_answer == mean_topk_symmetric_difference(oracle, K)[0]

    # Restoring the original scoring restores the original answer.
    session.set_scoring(None)
    assert mean_topk_symmetric_difference(session, K)[0] == original_answer
    assert session.generation == 2


def test_adopted_session_rejects_rescoring():
    """Re-scoring a session that adopted a RankStatistics would desync the
    two score views (module calls against the statistics route through the
    session); it must be rejected."""
    database = small_tuple_independent(13, count=4)
    statistics = RankStatistics(database.tree)
    session = as_session(statistics)
    with pytest.raises(ValueError):
        session.set_scoring(lambda alternative: -alternative.effective_score())


@pytest.mark.parametrize("backend", BACKENDS)
def test_pairwise_kernel_tie_handling_matches_scalar(backend):
    """With score ties (validate_scores=False) every backend must agree
    with the scalar pairwise_preference semantics: a tie means neither
    tuple outranks the other through scores."""
    database = small_tuple_independent(14, count=4)
    tied = lambda alternative: 1.0  # noqa: E731 - every score identical
    with use_backend(backend):
        statistics = RankStatistics(
            database.tree, validate_scores=False, scoring=tied
        )
        matrix = statistics.preference_matrix()
        for first in statistics.keys():
            for second in statistics.keys():
                assert math.isclose(
                    matrix.value(first, second),
                    statistics.pairwise_preference(first, second),
                    abs_tol=1e-12,
                )


def test_invalidation_preserves_adopted_statistics_settings():
    """A session adopting a configured RankStatistics must rebuild an
    equivalent object after invalidate(), not one with default settings."""
    database = small_tuple_independent(12, count=5)
    statistics = RankStatistics(
        database.tree,
        scoring=lambda alternative: -alternative.effective_score(),
    )
    session = QuerySession(statistics)
    before = mean_topk_symmetric_difference(session, 2)
    session.invalidate()
    after = mean_topk_symmetric_difference(session, 2)
    assert after == before  # same (flipped) scoring survives the rebuild


def test_scoring_override_changes_ranking():
    database = small_tuple_independent(11, count=5)
    plain = QuerySession(database.tree)
    flipped = QuerySession(
        database.tree,
        scoring=lambda alternative: -alternative.effective_score(),
    )
    membership_plain = plain.top_k_membership(1)
    membership_flipped = flipped.top_k_membership(1)
    top_plain = max(membership_plain, key=membership_plain.get)
    layout = plain.independent_tuple_layout()
    # With certain probabilities equal this could tie; just assert the
    # flipped session ranks the *lowest*-scored tuple first in its layout.
    flipped_layout = flipped.independent_tuple_layout()
    assert flipped_layout[0][0] == layout[-1][0]
    assert set(membership_flipped) == set(membership_plain)
    assert top_plain in membership_flipped
