"""The :class:`AndXorTree` container: validation and closed-form probabilities.

Beyond holding the root node, the tree pre-computes, for every leaf, the xor
choices along its root path.  Two facts follow directly from the generative
process of Definition 1 and make many probability computations closed-form:

* A leaf is present in the random world if and only if every xor ancestor on
  its root path picks the child leading towards it, and those picks are
  mutually independent.  Hence the membership probability of a leaf is the
  product of the xor edge probabilities on its path.
* A set of leaves can co-exist if and only if their xor choices are
  pairwise consistent (equivalently, the LCA of any two of them is an and
  node); in that case the joint probability is the product of the edge
  probabilities of the *union* of their choices.

The generating-function framework (:mod:`repro.andxor.generating`) is still
needed for counting-style queries such as rank distributions; the closed
forms here cover membership and co-occurrence queries and serve as an
independent cross-check in tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode, Leaf, Node, XorNode
from repro.core.tuples import TupleAlternative
from repro.exceptions import KeyConstraintError, ModelError, ProbabilityError

# Maps an xor node id to the (child index, edge probability) chosen on the
# path towards a leaf.
XorChoices = Dict[int, Tuple[int, float]]


class AndXorTree:
    """A probabilistic and/xor tree (Definition 1 of the paper).

    Parameters
    ----------
    root:
        The root node of the tree.
    validate:
        When True (default) the probability constraint and the key constraint
        are checked eagerly and a :class:`~repro.exceptions.ModelError`
        subclass is raised on violation.
    """

    def __init__(self, root: Node, validate: bool = True) -> None:
        if not isinstance(root, Node):
            raise TypeError(f"root must be a Node, got {type(root).__name__}")
        self._root = root
        self._leaves: List[Leaf] = []
        self._leaf_choices: List[XorChoices] = []
        self._collect_leaves(root, {})
        self._choices_by_leaf_id: Dict[int, XorChoices] = {
            id(leaf): choices
            for leaf, choices in zip(self._leaves, self._leaf_choices)
        }
        # Lazily-built lookup tables (the tree is immutable after
        # construction, so caching them is safe and keeps the pairwise
        # probability computations used by clustering / ranking from
        # rescanning every leaf on each call).
        self._alternatives_by_key: Optional[Dict[Hashable, List[TupleAlternative]]] = None
        self._leaves_by_alternative: Optional[Dict[TupleAlternative, List[Leaf]]] = None
        self._alternative_probabilities: Optional[Dict[TupleAlternative, float]] = None
        self._alternatives: Optional[List[TupleAlternative]] = None
        self._keys: Optional[List[Hashable]] = None
        if validate:
            self.validate()

    def _ensure_indexes(self) -> None:
        if self._alternatives_by_key is not None:
            return
        alternatives_by_key: Dict[Hashable, List[TupleAlternative]] = {}
        leaves_by_alternative: Dict[TupleAlternative, List[Leaf]] = {}
        probabilities: Dict[TupleAlternative, float] = {}
        for leaf, probability in self.leaf_probabilities():
            alternative = leaf.alternative
            if alternative not in leaves_by_alternative:
                leaves_by_alternative[alternative] = []
                probabilities[alternative] = 0.0
                alternatives_by_key.setdefault(alternative.key, []).append(
                    alternative
                )
            leaves_by_alternative[alternative].append(leaf)
            probabilities[alternative] += probability
        self._alternatives_by_key = alternatives_by_key
        self._leaves_by_alternative = leaves_by_alternative
        self._alternative_probabilities = probabilities

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _collect_leaves(self, node: Node, choices: XorChoices) -> None:
        if isinstance(node, Leaf):
            self._leaves.append(node)
            self._leaf_choices.append(dict(choices))
            return
        if isinstance(node, XorNode):
            for index, (child, probability) in enumerate(node.edges()):
                child_choices = dict(choices)
                child_choices[id(node)] = (index, probability)
                self._collect_leaves(child, child_choices)
            return
        if isinstance(node, AndNode):
            for child in node.children():
                self._collect_leaves(child, choices)
            return
        raise TypeError(f"unsupported node type {type(node).__name__}")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        """The root node."""
        return self._root

    @property
    def leaves(self) -> Sequence[Leaf]:
        """All leaves in depth-first order."""
        return tuple(self._leaves)

    def alternatives(self) -> List[TupleAlternative]:
        """The distinct tuple alternatives carried by the leaves."""
        if self._alternatives is None:
            self._alternatives = list(
                dict.fromkeys(leaf.alternative for leaf in self._leaves)
            )
        return list(self._alternatives)

    def keys(self) -> List[Hashable]:
        """The distinct possible-worlds keys, in first-appearance order."""
        if self._keys is None:
            self._keys = list(
                dict.fromkeys(leaf.alternative.key for leaf in self._leaves)
            )
        return list(self._keys)

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        """The distinct alternatives of the tuple with the given key."""
        self._ensure_indexes()
        assert self._alternatives_by_key is not None
        return list(self._alternatives_by_key.get(key, []))

    def leaves_of_alternative(
        self, alternative: TupleAlternative
    ) -> List[Leaf]:
        """All leaves carrying the given alternative (mutually exclusive)."""
        self._ensure_indexes()
        assert self._leaves_by_alternative is not None
        return list(self._leaves_by_alternative.get(alternative, []))

    def size(self) -> int:
        """Total number of nodes in the tree."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children())
        return count

    def leaf_choices(self, leaf: Leaf) -> XorChoices:
        """The xor choices on the root path of ``leaf``."""
        choices = self._choices_by_leaf_id.get(id(leaf))
        if choices is None:
            raise ValueError("leaf does not belong to this tree")
        return dict(choices)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the probability constraint and the key constraint.

        Raises
        ------
        ProbabilityError
            If any xor node's edge probabilities sum to more than one.
        KeyConstraintError
            If two leaves with the same key have an and node as their LCA
            (i.e. could co-exist in a possible world).
        """
        self._validate_probabilities(self._root)
        self._validate_keys(self._root)

    def _validate_probabilities(self, node: Node) -> None:
        if isinstance(node, XorNode):
            total = sum(node.probabilities)
            if total > 1.0 + 1e-9:
                raise ProbabilityError(
                    f"xor node edge probabilities sum to {total} > 1"
                )
        for child in node.children():
            self._validate_probabilities(child)

    def _validate_keys(self, node: Node) -> frozenset:
        """Return the set of keys reachable below ``node``, checking ands."""
        if isinstance(node, Leaf):
            return frozenset((node.alternative.key,))
        child_key_sets = [
            self._validate_keys(child) for child in node.children()
        ]
        if isinstance(node, AndNode):
            seen: set = set()
            for key_set in child_key_sets:
                overlap = seen & key_set
                if overlap:
                    raise KeyConstraintError(
                        "two alternatives of the same tuple could co-exist "
                        f"(keys {sorted(map(repr, overlap))}); the LCA of "
                        "same-key leaves must be a xor node"
                    )
                seen |= key_set
            return frozenset(seen)
        out: set = set()
        for key_set in child_key_sets:
            out |= key_set
        return frozenset(out)

    # ------------------------------------------------------------------
    # Closed-form probabilities
    # ------------------------------------------------------------------
    def leaf_probability(self, leaf: Leaf) -> float:
        """Membership probability of a specific leaf object."""
        choices = self.leaf_choices(leaf)
        probability = 1.0
        for _, (_, edge_probability) in choices.items():
            probability *= edge_probability
        return probability

    def leaf_probabilities(self) -> List[Tuple[Leaf, float]]:
        """Membership probability of every leaf, in depth-first order."""
        out = []
        for leaf, choices in zip(self._leaves, self._leaf_choices):
            probability = 1.0
            for _, edge_probability in choices.values():
                probability *= edge_probability
            out.append((leaf, probability))
        return out

    def joint_leaf_probability(self, leaves: Iterable[Leaf]) -> float:
        """Probability that all the given leaves are present simultaneously.

        Returns 0 when the leaves are mutually exclusive (their xor choices
        conflict).
        """
        merged: XorChoices = {}
        for leaf in leaves:
            choices = self.leaf_choices(leaf)
            for xor_id, (index, probability) in choices.items():
                existing = merged.get(xor_id)
                if existing is not None and existing[0] != index:
                    return 0.0
                merged[xor_id] = (index, probability)
        probability = 1.0
        for _, edge_probability in merged.values():
            probability *= edge_probability
        return probability

    def alternative_probability(self, alternative: TupleAlternative) -> float:
        """Membership probability of a tuple alternative.

        When several leaves carry the same alternative (as in trees built
        from explicit world lists) their probabilities add up because same-key
        leaves are mutually exclusive.
        """
        self._ensure_indexes()
        assert self._alternative_probabilities is not None
        return self._alternative_probabilities.get(alternative, 0.0)

    def key_probability(self, key: Hashable) -> float:
        """Probability that the tuple with the given key is present."""
        self._ensure_indexes()
        assert self._alternatives_by_key is not None
        assert self._alternative_probabilities is not None
        return sum(
            self._alternative_probabilities[alternative]
            for alternative in self._alternatives_by_key.get(key, [])
        )

    def joint_alternative_probability(
        self,
        first: TupleAlternative,
        second: TupleAlternative,
    ) -> float:
        """Probability that two alternatives are present simultaneously."""
        if first == second:
            return self.alternative_probability(first)
        self._ensure_indexes()
        assert self._leaves_by_alternative is not None
        first_leaves = self._leaves_by_alternative.get(first, [])
        second_leaves = self._leaves_by_alternative.get(second, [])
        total = 0.0
        for leaf_a in first_leaves:
            for leaf_b in second_leaves:
                total += self.joint_leaf_probability((leaf_a, leaf_b))
        return total

    def expected_world_size(self) -> float:
        """Expected number of tuples in the random possible world."""
        return sum(probability for _, probability in self.leaf_probabilities())

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def restrict(self, keep: "LeafPredicate") -> "AndXorTree":
        """Return a new tree keeping only the leaves satisfying ``keep``.

        The structure of the tree (and all xor edge probabilities of the
        remaining children) is preserved; dropped leaves simply disappear
        from every possible world.  This is the operation written ``T^a`` in
        Section 5.2 of the paper (restriction to leaves with score at least
        ``a``) used by the median Top-k dynamic program.
        """
        restricted_root = _restrict_node(self._root, keep)
        if restricted_root is None:
            restricted_root = AndNode(())
        return AndXorTree(restricted_root, validate=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AndXorTree({len(self._leaves)} leaves, "
            f"{len(self.keys())} keys, {self.size()} nodes)"
        )


LeafPredicate = "Callable[[Leaf], bool]"


def _restrict_node(node: Node, keep) -> Optional[Node]:
    """Rebuild ``node`` keeping only leaves accepted by ``keep``.

    Returns None when nothing remains below the node.  For xor nodes the
    probability mass of removed children turns into "produce nothing" mass,
    matching the semantics of restricting possible worlds to a leaf subset.
    """
    if isinstance(node, Leaf):
        return Leaf(node.alternative) if keep(node) else None
    if isinstance(node, AndNode):
        children = []
        for child in node.children():
            rebuilt = _restrict_node(child, keep)
            if rebuilt is not None:
                children.append(rebuilt)
        if not children:
            return None
        return AndNode(children)
    if isinstance(node, XorNode):
        edges = []
        for child, probability in node.edges():
            rebuilt = _restrict_node(child, keep)
            if rebuilt is not None:
                edges.append((rebuilt, probability))
        if not edges:
            return None
        return XorNode(edges)
    raise ModelError(f"unsupported node type {type(node).__name__}")
