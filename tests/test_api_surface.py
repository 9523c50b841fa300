"""Public-API surface snapshot.

``repro.__all__`` is the compatibility surface downstream code imports
from; this suite pins it exactly (additions require updating the snapshot
here, removals are API breaks).
"""

from __future__ import annotations

import repro
from tests.conftest import small_bid, small_tuple_independent

#: The exact public surface.  Keep sorted-by-section in repro/__init__ but
#: compared as a set here so reordering is not an API event.
EXPECTED_ALL = {
    "__version__",
    # core model
    "TupleAlternative",
    "PossibleWorld",
    "WorldDistribution",
    "AndXorTree",
    "Leaf",
    "XorNode",
    "AndNode",
    "tuple_independent_tree",
    "bid_tree",
    "x_tuple_tree",
    "from_explicit_worlds",
    "coexistence_group_tree",
    "enumerate_worlds",
    # statistics / engine
    "RankStatistics",
    "RankMatrix",
    "PairwisePreferenceMatrix",
    "MonteCarloSampler",
    "WorldBatch",
    "Estimate",
    "QuerySession",
    "CacheInfo",
    "as_session",
    "get_backend",
    "set_backend",
    "use_backend",
    # declarative query API
    "Query",
    "ConsensusQuery",
    "QueryAnswer",
    "Connection",
    "connect",
    "Planner",
    "ExecutionPlan",
    # models / deployments
    "ProbabilisticRelation",
    "TupleIndependentDatabase",
    "BlockIndependentDatabase",
    "XTupleDatabase",
    "ShardedDatabase",
    "ShardedQuerySession",
    "ServingExecutor",
    # consensus helpers
    "expected_symmetric_difference_to_world",
    "expected_jaccard_distance_to_world",
    "GroupByCountConsensus",
    "consensus_clustering",
}


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_annotations_resolve(self):
        """String annotations name only imported types."""
        import typing

        from repro.andxor.tree import AndXorTree
        from repro.serving.executor import ServingExecutor

        hints = typing.get_type_hints(ServingExecutor.__init__)
        assert "result_cache" in hints
        assert "keep" in typing.get_type_hints(AndXorTree.restrict)


class TestShimMigration:
    """The replacements for the removed top-level consensus functions.

    Each removed ``repro.<algorithm>(tree, ...)`` function migrates to a
    :class:`repro.Query` executed through :func:`repro.connect`; the
    answers must be those of the algorithm in :mod:`repro.consensus`.
    """

    def test_topk_shims_match_direct_calls(self):
        from repro import consensus

        database = small_tuple_independent(4, count=6)
        conn = repro.connect(database.tree)
        for kind in (
            "mean_topk_symmetric_difference",
            "median_topk_symmetric_difference",
            "mean_topk_footrule",
            "mean_topk_intersection",
            "approximate_topk_intersection",
            "approximate_topk_kendall",
        ):
            migrated = conn.execute(repro.Query.named(kind, 3)).value
            assert migrated == getattr(consensus, kind)(database.tree, 3), kind

    def test_world_shims_match_direct_calls(self):
        from repro import consensus

        database = small_tuple_independent(5, count=6)
        bid = small_bid(5, blocks=3)
        Query = repro.Query
        for query, tree, algorithm in (
            (Query.set_consensus("mean"), database.tree,
             consensus.mean_world_symmetric_difference),
            (Query.set_consensus("median"), database.tree,
             consensus.median_world_symmetric_difference),
            (Query.jaccard("mean"), database.tree,
             consensus.mean_world_jaccard_tuple_independent),
            (Query.jaccard("median"), bid.tree,
             consensus.median_world_jaccard_bid),
        ):
            migrated = repro.connect(tree).execute(query).value
            assert migrated == algorithm(tree), query

    def test_kendall_shim_forwards_pool_and_rng(self):
        import random

        from repro.consensus import approximate_topk_kendall

        database = small_tuple_independent(6, count=6)
        query = repro.Query.named(
            "approximate_topk_kendall", 2, candidate_pool_size=4
        )
        migrated = repro.connect(database.tree).execute(
            query, rng=random.Random(9)
        ).value
        direct = approximate_topk_kendall(
            database.tree, 2, candidate_pool_size=4, rng=random.Random(9)
        )
        assert migrated == direct
