"""Probability statistics over and/xor trees.

This module packages the standard coefficient extractions from the
generating-function framework (Examples 1-3 of the paper) plus the
closed-form membership and co-occurrence probabilities used by the consensus
algorithms of Sections 4-6.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.andxor.generating import univariate_generating_function
from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import get_backend
# Trailing-zero trimming shared with the polynomial representation, so the
# Bernoulli fast path returns the same shape as the generating-function path
# (e.g. a probability-0 leaf must not lengthen the distribution).
from repro.polynomials.univariate import _trim as _trimmed


def independent_leaf_probability_pairs(
    tree: AndXorTree,
) -> Optional[List[Tuple[Leaf, float]]]:
    """``(leaf, probability)`` pairs when the tree is tuple-independent.

    The shared structural detector for the AND-of-single-leaf-XOR-blocks
    layout (pure tuple-level uncertainty): every fast path keying off this
    layout -- Bernoulli size products here, the Jaccard prefix kernel in
    :mod:`repro.consensus.jaccard` -- goes through this one walk so the
    detectors cannot drift apart.  Returns None when the layout does not
    apply.
    """
    root = tree.root
    if not isinstance(root, AndNode):
        return None
    pairs: List[Tuple[Leaf, float]] = []
    for child in root.children():
        if not isinstance(child, XorNode):
            return None
        edges = child.edges()
        if len(edges) != 1 or not edges[0][0].is_leaf():
            return None
        pairs.append(edges[0])
    return pairs


def _independent_leaf_probabilities(
    tree: AndXorTree, marked: Callable[[Leaf], bool] | None = None
) -> Optional[List[float]]:
    """Leaf probabilities when the tree is an AND of single-leaf XOR blocks.

    In that (tuple-independent) layout the size generating function is the
    plain Bernoulli product ``Π (1 - p_i + p_i x)`` over the marked leaves
    -- an unmarked leaf contributes ``(1 - p) + p * 1 = 1`` -- which the
    backend evaluates in one batched sweep.  Returns None when the layout
    does not apply.
    """
    pairs = independent_leaf_probability_pairs(tree)
    if pairs is None:
        return None
    return [
        probability
        for leaf, probability in pairs
        if marked is None or marked(leaf)
    ]


def size_distribution(tree: AndXorTree) -> List[float]:
    """Distribution of the possible-world size (Example 1).

    Returns a list ``d`` with ``d[i] = Pr(|pw| = i)``.
    """
    probabilities = _independent_leaf_probabilities(tree)
    if probabilities is not None:
        return _trimmed(get_backend().bernoulli_product(probabilities))
    polynomial = univariate_generating_function(tree)
    return list(polynomial.coefficients)


def subset_size_distribution(
    tree: AndXorTree, marked: Callable[[Leaf], bool]
) -> List[float]:
    """Distribution of ``|pw ∩ S|`` for the leaf subset selected by ``marked``.

    This is Example 2 of the paper.
    """
    probabilities = _independent_leaf_probabilities(tree, marked)
    if probabilities is not None:
        return _trimmed(get_backend().bernoulli_product(probabilities))
    polynomial = univariate_generating_function(tree, marked=marked)
    return list(polynomial.coefficients)


def membership_probability(
    tree: AndXorTree, alternative: TupleAlternative
) -> float:
    """Probability that the given alternative appears in the random world."""
    return tree.alternative_probability(alternative)


def tuple_probability(tree: AndXorTree, key: Hashable) -> float:
    """Probability that the tuple with the given key appears (any alternative)."""
    return tree.key_probability(key)


def co_membership_probability(
    tree: AndXorTree, first_key: Hashable, second_key: Hashable
) -> float:
    """Probability that both tuples (any alternatives) appear simultaneously."""
    if first_key == second_key:
        return tree.key_probability(first_key)
    total = 0.0
    for first in tree.alternatives_of(first_key):
        for second in tree.alternatives_of(second_key):
            total += tree.joint_alternative_probability(first, second)
    return total


def value_agreement_probability(
    tree: AndXorTree, first_key: Hashable, second_key: Hashable
) -> float:
    """``w_{ti,tj} = Σ_a Pr(i.A = a ∧ j.A = a)`` (Section 6.2).

    The probability that both tuples exist and take the same value, i.e. that
    they are clustered together by the value attribute.
    """
    if first_key == second_key:
        return tree.key_probability(first_key)
    total = 0.0
    first_by_value: Dict[Hashable, TupleAlternative] = {
        alternative.value: alternative
        for alternative in tree.alternatives_of(first_key)
    }
    for second in tree.alternatives_of(second_key):
        first = first_by_value.get(second.value)
        if first is not None:
            total += tree.joint_alternative_probability(first, second)
    return total


def both_absent_probability(
    tree: AndXorTree, first_key: Hashable, second_key: Hashable
) -> float:
    """Probability that neither of the two tuples appears in the world."""
    p_first = tree.key_probability(first_key)
    p_second = tree.key_probability(second_key)
    p_both = co_membership_probability(tree, first_key, second_key)
    value = 1.0 - p_first - p_second + p_both
    return min(max(value, 0.0), 1.0)


def presence_vector(tree: AndXorTree) -> Dict[Hashable, float]:
    """Presence probability of every tuple key in the tree."""
    return {key: tree.key_probability(key) for key in tree.keys()}


def alternative_probability_table(
    tree: AndXorTree,
) -> List[Tuple[TupleAlternative, float]]:
    """Membership probability of every distinct alternative in the tree."""
    totals: Dict[TupleAlternative, float] = {}
    order: List[TupleAlternative] = []
    for leaf, probability in tree.leaf_probabilities():
        if leaf.alternative not in totals:
            order.append(leaf.alternative)
            totals[leaf.alternative] = 0.0
        totals[leaf.alternative] += probability
    return [(alternative, totals[alternative]) for alternative in order]
