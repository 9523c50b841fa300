"""Constructors for common and/xor tree shapes.

The paper presents the and/xor tree model as a generalisation of several
prior probabilistic database models.  Each builder here produces an
:class:`~repro.andxor.tree.AndXorTree` with the layout the paper describes:

* tuple-independent databases: an and root with one xor child per tuple,
  each with a single leaf (Figure 1(i) with one alternative per tuple);
* block-independent disjoint (BID) / x-tuple relations: an and root with one
  xor child per block, the block's alternatives as leaves (Figure 1(i));
* explicit world lists: a xor root with one and child per possible world
  (Figure 1(iii)), able to encode arbitrary correlations;
* coexistence groups: an and root of xor nodes whose children are and nodes
  grouping leaves that always appear together.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.andxor.columns import check_block, check_tuple_probability
from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.core.worlds import PossibleWorld, WorldDistribution
from repro.exceptions import ModelError, ProbabilityError

# A tuple specification accepted by the builders: either an explicit
# TupleAlternative or a (key, value[, score]) tuple.
AlternativeSpec = Union[TupleAlternative, Tuple]


def _as_alternative(spec: AlternativeSpec) -> TupleAlternative:
    if isinstance(spec, TupleAlternative):
        return spec
    if isinstance(spec, tuple):
        if len(spec) == 2:
            return TupleAlternative(spec[0], spec[1])
        if len(spec) == 3:
            return TupleAlternative(spec[0], spec[1], spec[2])
    raise ModelError(
        "expected a TupleAlternative or a (key, value[, score]) tuple, "
        f"got {spec!r}"
    )


def tuple_independent_tree(
    tuples: Iterable[Tuple[AlternativeSpec, float]]
) -> AndXorTree:
    """Build the tree of a tuple-independent database.

    Parameters
    ----------
    tuples:
        Iterable of ``(alternative, probability)`` pairs; each tuple has a
        single alternative present independently with the given probability.
    """
    xor_nodes = []
    for spec, probability in tuples:
        alternative = _as_alternative(spec)
        check_tuple_probability(probability)
        xor_nodes.append(XorNode([(Leaf(alternative), float(probability))]))
    return AndXorTree(AndNode(xor_nodes))


def bid_tree(
    blocks: Union[
        Mapping[Hashable, Iterable[Tuple[Hashable, float]]],
        Iterable[Tuple[Hashable, Iterable[Tuple[Hashable, float]]]],
    ],
    scores: Mapping[Tuple[Hashable, Hashable], float] | None = None,
) -> AndXorTree:
    """Build the tree of a block-independent disjoint (BID) relation.

    Parameters
    ----------
    blocks:
        Mapping (or iterable of pairs) from possible-worlds key to an
        iterable of ``(value, probability)`` alternatives.  The alternatives
        of one key are mutually exclusive; different keys are independent.
    scores:
        Optional mapping from ``(key, value)`` to an explicit score.
    """
    if isinstance(blocks, Mapping):
        items: Iterable = blocks.items()
    else:
        items = blocks
    xor_nodes = []
    for key, alternatives in items:
        rows = [
            (value, None if scores is None else scores.get((key, value)), p)
            for value, p in alternatives
        ]
        check_block(key, rows)
        xor_nodes.append(
            XorNode(
                (Leaf(TupleAlternative(key, value, score)), float(p))
                for value, score, p in rows
            )
        )
    return AndXorTree(AndNode(xor_nodes))


def x_tuple_tree(
    groups: Iterable[Iterable[Tuple[AlternativeSpec, float]]]
) -> AndXorTree:
    """Build the tree of an x-tuple relation.

    Each group is a set of mutually exclusive alternatives (which, unlike
    BID blocks, may carry *different* keys); different groups are
    independent.
    """
    xor_nodes = []
    for group in groups:
        edges = []
        total = 0.0
        for spec, probability in group:
            edges.append((Leaf(_as_alternative(spec)), float(probability)))
            total += probability
        if total > 1.0 + 1e-9:
            raise ProbabilityError(
                f"x-tuple group probabilities sum to {total} > 1"
            )
        xor_nodes.append(XorNode(edges))
    return AndXorTree(AndNode(xor_nodes))


def from_explicit_worlds(
    worlds: Union[
        WorldDistribution,
        Iterable[Tuple[Iterable[AlternativeSpec], float]],
    ]
) -> AndXorTree:
    """Build a tree whose possible worlds are exactly the given ones.

    This is the construction of Figure 1(iii): a xor root with one and child
    per possible world.  It shows that and/xor trees can represent arbitrary
    correlations (at the cost of a tree as large as the world list).
    """
    if isinstance(worlds, WorldDistribution):
        pairs: List[Tuple[List[TupleAlternative], float]] = [
            (list(world.alternatives), probability)
            for world, probability in worlds
        ]
    else:
        pairs = [
            ([_as_alternative(spec) for spec in world], float(probability))
            for world, probability in worlds
        ]
    total = sum(probability for _, probability in pairs)
    if total > 1.0 + 1e-9:
        raise ProbabilityError(
            f"world probabilities sum to {total} > 1"
        )
    edges = []
    for alternatives, probability in pairs:
        leaves = [Leaf(alternative) for alternative in alternatives]
        edges.append((AndNode(leaves), probability))
    return AndXorTree(XorNode(edges))


def coexistence_group_tree(
    groups: Iterable[Tuple[Iterable[AlternativeSpec], float]]
) -> AndXorTree:
    """Build a tree of independent all-or-nothing coexistence groups.

    Each group is a set of alternatives that either all appear (with the
    group probability) or all are absent; different groups are independent.
    This exercises the coexistence (and) correlation that BID cannot model.
    """
    xor_nodes = []
    for alternatives, probability in groups:
        leaves = [Leaf(_as_alternative(spec)) for spec in alternatives]
        if not 0.0 <= probability <= 1.0 + 1e-12:
            raise ProbabilityError(
                f"group probability {probability} outside [0, 1]"
            )
        xor_nodes.append(XorNode([(AndNode(leaves), float(probability))]))
    return AndXorTree(AndNode(xor_nodes))


def certain_tree(alternatives: Iterable[AlternativeSpec]) -> AndXorTree:
    """Build a tree for a deterministic relation (every tuple certain)."""
    leaves = [Leaf(_as_alternative(spec)) for spec in alternatives]
    return AndXorTree(AndNode(leaves))


def figure1_bid_example() -> AndXorTree:
    """The block-independent disjoint example of Figure 1(i) of the paper.

    Four independent tuples ``t1..t4``: ``t1`` with alternatives of values
    8 and 2 (probabilities 0.1 and 0.5), ``t2`` with 3 and 4 (0.4, 0.4),
    ``t3`` with 1 and 9 (0.2, 0.8) and ``t4`` with 6 and 5 (0.5, 0.5).  The
    generating function of the world size for this tree is
    ``0.08 x^2 + 0.44 x^3 + 0.48 x^4``.
    """
    return bid_tree(
        [
            ("t1", [(8, 0.1), (2, 0.5)]),
            ("t2", [(3, 0.4), (4, 0.4)]),
            ("t3", [(1, 0.2), (9, 0.8)]),
            ("t4", [(6, 0.5), (5, 0.5)]),
        ]
    )


def figure1_correlated_example() -> AndXorTree:
    """The highly correlated example of Figure 1(ii)-(iii) of the paper.

    Three possible worlds::

        pw1 = {(t3, 6), (t2, 5), (t1, 1)}   probability 0.3
        pw2 = {(t3, 9), (t1, 7), (t4, 0)}   probability 0.3
        pw3 = {(t2, 8), (t4, 4), (t5, 3)}   probability 0.4

    represented by a xor root over three and nodes.
    """
    return from_explicit_worlds(
        [
            ([("t3", 6), ("t2", 5), ("t1", 1)], 0.3),
            ([("t3", 9), ("t1", 7), ("t4", 0)], 0.3),
            ([("t2", 8), ("t4", 4), ("t5", 3)], 0.4),
        ]
    )
