"""Top-k consensus under the symmetric difference metric (Section 5.2).

* **Theorem 3 (mean answer)** -- the expected distance decomposes as
  ``E[d_Δ(τ, τ_pw)] = (k + Σ_t Pr(r(t)<=k) - 2 Σ_{t in τ} Pr(r(t)<=k)) / 2k``,
  so the mean answer is simply the ``k`` tuples with the largest
  ``Pr(r(t) <= k)``.  This coincides with the Global-Top-k answer and with a
  probabilistic-threshold (PT-k) answer whose threshold is tuned to return
  exactly ``k`` tuples.
* **Theorem 4 (median answer)** -- the median answer is the Top-k answer of a
  possible world maximising ``Σ_{t in τ} Pr(r(t) <= k)``.  For every score
  threshold ``a`` the candidate answers are exactly the size-``k`` possible
  worlds of the restricted tree ``T^a`` (all leaves with score at least
  ``a``); a knapsack-style dynamic program over the tree finds the best one,
  and the best over all thresholds is the median answer.

For tuple-independent databases (tuple-level uncertainty only) the median
answer additionally admits an ``O(n log k)`` sweep: fixing the lowest-scored
member of the answer, the remaining ``k-1`` members must be chosen among the
higher-scored tuples, certain tuples (probability one) are forced in, and the
rest greedily maximise ``Pr(r(t) <= k)``.  Both routes are implemented and
cross-checked; the generic DP handles every and/xor tree.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode, Leaf, Node, XorNode
from repro.andxor.tree import AndXorTree
from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    order_by_score,
    rank_matrix_view,
    top_keys,
    validate_answer,
)
from repro.core.tuples import TupleAlternative
from repro.exceptions import InfeasibleAnswerError, ModelError

_NEG_INF = float("-inf")


# ----------------------------------------------------------------------
# Expected distance and the mean answer (Theorem 3)
# ----------------------------------------------------------------------
def expected_topk_symmetric_difference(
    source: TreeOrStatistics,
    answer: Sequence[Hashable],
    k: int,
    normalized: bool = True,
) -> float:
    """Expected symmetric difference between ``answer`` and the random Top-k.

    Uses the closed form of Theorem 3's proof; the normalised version divides
    by ``2k``.
    """
    session = as_session(source)
    answer = validate_answer(session, answer, k)
    matrix = session.rank_matrix(k)
    backend = matrix.backend
    membership = matrix.membership_vector()
    inside = backend.vector_values(membership, matrix.rows_of(answer))
    total = k + backend.vector_sum(membership) - 2.0 * sum(inside)
    if normalized:
        return total / (2.0 * k)
    return total


def mean_topk_symmetric_difference(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The mean Top-k answer under ``d_Δ`` (Theorem 3).

    Returns the ``k`` tuples with the largest ``Pr(r(t) <= k)`` (presented in
    decreasing score order; the metric ignores order) and the expected
    normalised distance.
    """
    session = as_session(source)
    matrix = rank_matrix_view(session, k)
    membership = matrix.membership_vector()
    answer = order_by_score(session, top_keys(matrix, membership, k))
    return answer, expected_topk_symmetric_difference(session, answer, k)


# ----------------------------------------------------------------------
# Median answer (Theorem 4): dynamic program over restricted trees
# ----------------------------------------------------------------------
def _merge_size_tables(
    left: List[Tuple[float, Tuple[TupleAlternative, ...]]],
    right: List[Tuple[float, Tuple[TupleAlternative, ...]]],
    k: int,
) -> List[Tuple[float, Tuple[TupleAlternative, ...]]]:
    """Knapsack combination of two children's size-indexed best tables."""
    merged: List[Tuple[float, Tuple[TupleAlternative, ...]]] = [
        (_NEG_INF, ()) for _ in range(k + 1)
    ]
    for size_left, (value_left, world_left) in enumerate(left):
        if value_left == _NEG_INF:
            continue
        for size_right, (value_right, world_right) in enumerate(right):
            if value_right == _NEG_INF:
                continue
            size = size_left + size_right
            if size > k:
                break
            value = value_left + value_right
            if value > merged[size][0]:
                merged[size] = (value, world_left + world_right)
    return merged


def _best_worlds_by_size(
    node: Node, weight: Dict[Hashable, float], k: int
) -> List[Tuple[float, Tuple[TupleAlternative, ...]]]:
    """For each size ``0..k``: the best-weight possible world of that size.

    Entries are ``(total weight, witness world)`` with ``-inf`` marking
    infeasible sizes.  Weights are per tuple key (``Pr(r(t) <= k)``).
    """
    empty_only: List[Tuple[float, Tuple[TupleAlternative, ...]]] = [
        (_NEG_INF, ()) for _ in range(k + 1)
    ]
    if isinstance(node, Leaf):
        table = list(empty_only)
        if k >= 1:
            table[1] = (weight[node.alternative.key], (node.alternative,))
        return table
    if isinstance(node, AndNode):
        table = list(empty_only)
        table[0] = (0.0, ())
        for child in node.children():
            table = _merge_size_tables(
                table, _best_worlds_by_size(child, weight, k), k
            )
        return table
    if isinstance(node, XorNode):
        table = list(empty_only)
        if node.none_probability > 0.0:
            table[0] = (0.0, ())
        for child, probability in node.edges():
            if probability <= 0.0:
                continue
            child_table = _best_worlds_by_size(child, weight, k)
            for size in range(k + 1):
                if child_table[size][0] > table[size][0]:
                    table[size] = child_table[size]
        return table
    raise ModelError(f"unsupported node type {type(node).__name__}")


def _median_topk_tuple_independent(
    layout: Sequence[Tuple[Hashable, float, float]],
    membership: Dict[Hashable, float],
    k: int,
) -> Optional[List[Hashable]]:
    """O(n log k) median Top-k answer for tuple-independent databases.

    ``layout`` lists ``(key, presence probability, score)`` sorted by
    decreasing score.  Fixing the answer's lowest-scored member ``t_j``, the
    other ``k - 1`` members come from the higher-scored tuples: tuples with
    probability one are forced in (they cannot be absent from any world), the
    rest are chosen greedily by ``Pr(r(t) <= k)``.  Returns None when no
    possible world has ``k`` tuples.
    """
    import heapq

    best_value = _NEG_INF
    best_members: Optional[List[Hashable]] = None
    forced: List[Hashable] = []
    forced_value = 0.0
    # Min-heap over (membership value, key) of the currently selected
    # optional members; it always holds exactly min(slots, available) items.
    heap: List[Tuple[float, int, Hashable]] = []
    heap_value = 0.0
    counter = 0
    for j, (key, probability, _) in enumerate(layout):
        slots = k - 1 - len(forced)
        if slots < 0:
            break  # more certain higher-scored tuples than free slots
        # Shrink the optional selection if forced members ate its slots.
        while len(heap) > slots:
            value, _, _ = heapq.heappop(heap)
            heap_value -= value
        if probability > 0.0 and j >= k - 1 and len(heap) == slots:
            candidate_value = membership[key] + forced_value + heap_value
            if candidate_value > best_value + 1e-15:
                best_value = candidate_value
                best_members = (
                    [key]
                    + list(forced)
                    + [item_key for _, _, item_key in heap]
                )
        # Add the current tuple to the pool available to later thresholds.
        if probability >= 1.0 - 1e-12:
            forced.append(key)
            forced_value += membership[key]
        elif probability > 0.0:
            slots = k - 1 - len(forced)
            counter += 1
            if len(heap) < slots:
                heapq.heappush(heap, (membership[key], counter, key))
                heap_value += membership[key]
            elif heap and membership[key] > heap[0][0]:
                removed, _, _ = heapq.heapreplace(
                    heap, (membership[key], counter, key)
                )
                heap_value += membership[key] - removed
    return best_members


def median_topk_symmetric_difference(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The median Top-k answer under ``d_Δ`` (Theorem 4).

    Iterates over every candidate score threshold ``a``; for each, restricts
    the tree to leaves scoring at least ``a`` and finds the possible world of
    size exactly ``k`` maximising ``Σ Pr(r(t) <= k)`` by dynamic programming.
    The best candidate over all thresholds is the Top-k answer of some
    possible world, and no possible world has a better Top-k answer.

    Tuple-independent databases are detected automatically and solved with
    the ``O(n log k)`` sweep described in the module docstring.
    """
    session = as_session(source)
    membership = session.top_k_membership(k)
    layout = session.independent_tuple_layout()
    if layout is not None:
        members = _median_topk_tuple_independent(layout, membership, k)
        if members is None:
            raise InfeasibleAnswerError(
                f"no possible world contains {k} tuples; the median Top-{k} "
                "answer does not exist"
            )
        score_of = {key: score for key, _, score in layout}
        ordered = tuple(
            sorted(members, key=lambda key: -score_of[key])
        )
        return ordered, expected_topk_symmetric_difference(
            session, ordered, k
        )
    tree = session.tree
    thresholds = sorted(
        {
            session.score_of(alternative)
            for alternative in tree.alternatives()
        },
        reverse=True,
    )
    best_value = _NEG_INF
    best_world: Optional[Tuple[TupleAlternative, ...]] = None
    for threshold in thresholds:
        restricted = tree.restrict(
            lambda leaf: session.score_of(leaf.alternative) >= threshold
        )
        if len(restricted.leaves) < k:
            continue
        table = _best_worlds_by_size(restricted.root, membership, k)
        value, world = table[k]
        if value > best_value:
            best_value = value
            best_world = world
    if best_world is None:
        raise InfeasibleAnswerError(
            f"no possible world contains {k} tuples; the median Top-{k} "
            "answer does not exist"
        )
    ordered = tuple(
        alternative.key
        for alternative in sorted(
            best_world,
            key=lambda alternative: -session.score_of(alternative),
        )
    )
    return ordered, expected_topk_symmetric_difference(session, ordered, k)
