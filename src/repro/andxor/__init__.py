"""The probabilistic and/xor tree model (Section 3 of the paper).

An and/xor tree captures two kinds of correlations between tuple
alternatives: *mutual exclusion* (xor nodes, written ∨© in the paper) and
*coexistence* (and nodes, ∧©), nested arbitrarily.  The model generalises
tuple-independent databases, x-tuples / block-independent disjoint (BID)
relations and p-or-sets, while admitting efficient probability computations
through generating functions (Section 3.3, Theorem 1).

Sub-modules
-----------
``nodes``
    The node classes (:class:`Leaf`, :class:`XorNode`, :class:`AndNode`).
``tree``
    :class:`AndXorTree` -- validation, leaf bookkeeping and closed-form
    membership / joint-membership probabilities.
``builders``
    Constructors for the standard special cases (tuple-independent, BID,
    x-tuples, explicit world lists, coexistence groups).
``enumeration`` / ``sampling``
    Exact possible-world enumeration (small trees) and Monte-Carlo sampling.
``generating``
    The generating-function framework of Theorem 1.
``statistics``
    Size distributions, membership and co-occurrence probabilities.
``rank_probabilities``
    Rank-position probabilities ``Pr(r(t) = i)``, ``Pr(r(t) <= k)`` and
    pairwise preferences ``Pr(r(t_i) < r(t_j))`` used by Top-k consensus.
"""

from repro.andxor.nodes import AndNode, Leaf, Node, XorNode
from repro.andxor.tree import AndXorTree
from repro.andxor.builders import (
    bid_tree,
    coexistence_group_tree,
    from_explicit_worlds,
    tuple_independent_tree,
    x_tuple_tree,
)
from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.sampling import sample_world, sample_worlds
from repro.andxor.generating import (
    generating_function,
    bivariate_generating_function,
    univariate_generating_function,
)
from repro.andxor.statistics import (
    membership_probability,
    size_distribution,
    subset_size_distribution,
    tuple_probability,
    value_agreement_probability,
    co_membership_probability,
)
from repro.andxor.rank_probabilities import (
    RankStatistics,
    expected_rank,
    pairwise_preference_probability,
    rank_at_most_probabilities,
    rank_position_probabilities,
)

__all__ = [
    "Node",
    "Leaf",
    "XorNode",
    "AndNode",
    "AndXorTree",
    "tuple_independent_tree",
    "bid_tree",
    "x_tuple_tree",
    "from_explicit_worlds",
    "coexistence_group_tree",
    "enumerate_worlds",
    "sample_world",
    "sample_worlds",
    "generating_function",
    "univariate_generating_function",
    "bivariate_generating_function",
    "size_distribution",
    "subset_size_distribution",
    "membership_probability",
    "tuple_probability",
    "value_agreement_probability",
    "co_membership_probability",
    "RankStatistics",
    "rank_position_probabilities",
    "rank_at_most_probabilities",
    "pairwise_preference_probability",
    "expected_rank",
]
