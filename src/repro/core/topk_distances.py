"""Distances between Top-k answers (Section 5.1 of the paper).

A Top-k answer is an ordered list of ``k`` distinct items (tuple keys).  The
paper works with four distances from Fagin, Kumar and Sivakumar's
"Comparing top k lists":

* the normalised symmetric difference metric ``d_Δ``,
* the intersection metric ``d_I`` (an average of prefix symmetric
  differences),
* the Spearman footrule distance with location parameter ``ℓ`` (``F^(ℓ)``,
  with the natural choice ``ℓ = k + 1`` written ``d_F``), and
* the Kendall tau distance ``d_K`` between Top-k lists (the number of pairs
  whose relative order necessarily disagrees in every pair of full rankings
  extending the two lists).

All functions accept sequences of hashable items.  The two lists may have
different lengths (a world with fewer than ``k`` tuples yields a shorter
answer); ``k`` defaults to the longer of the two.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from repro.exceptions import DistanceError

TopKAnswer = Sequence[Hashable]


def _validate(answer: TopKAnswer) -> None:
    if len(set(answer)) != len(answer):
        raise DistanceError(f"Top-k answer contains duplicates: {answer!r}")


def _positions(answer: TopKAnswer) -> Dict[Hashable, int]:
    """1-based positions of the items in a Top-k list."""
    return {item: index + 1 for index, item in enumerate(answer)}


def topk_symmetric_difference(
    first: TopKAnswer,
    second: TopKAnswer,
    k: int | None = None,
    normalized: bool = True,
) -> float:
    """Symmetric difference distance between two Top-k lists.

    The normalised version divides by ``2k`` so the value lies in [0, 1]
    (Section 5.1).  Ordering of the lists is ignored.
    """
    _validate(first)
    _validate(second)
    if k is None:
        k = max(len(first), len(second))
    a = frozenset(first)
    b = frozenset(second)
    raw = float(len(a.symmetric_difference(b)))
    if not normalized:
        return raw
    if k == 0:
        return 0.0
    return raw / (2.0 * k)


def topk_intersection_distance(
    first: TopKAnswer, second: TopKAnswer, k: int | None = None
) -> float:
    """The intersection metric ``d_I`` between two Top-k lists.

    ``d_I(τ1, τ2) = (1/k) * Σ_{i=1..k} d_Δ(τ1^i, τ2^i)`` where ``τ^i`` is the
    restriction of a list to its first ``i`` items.  Unlike the symmetric
    difference metric it is sensitive to the order of the items.
    """
    _validate(first)
    _validate(second)
    if k is None:
        k = max(len(first), len(second))
    if k == 0:
        return 0.0
    total = 0.0
    for i in range(1, k + 1):
        prefix_a = frozenset(first[:i])
        prefix_b = frozenset(second[:i])
        total += len(prefix_a.symmetric_difference(prefix_b)) / (2.0 * i)
    return total / k


def topk_footrule_distance(
    first: TopKAnswer,
    second: TopKAnswer,
    k: int | None = None,
    location: int | None = None,
) -> float:
    """Spearman footrule distance with location parameter ``ℓ``.

    Missing elements of each list are placed at position ``ℓ`` and the usual
    footrule (L1 distance between position vectors) is computed.  The natural
    choice ``ℓ = k + 1`` gives the metric written ``d_F`` in the paper.

    The closed form used here is the one quoted in Section 5.1:

    ``d_F(τ1, τ2) = (k+1) |τ1 Δ τ2| + Σ_{t ∈ τ1 ∩ τ2} |τ1(t) − τ2(t)|
    − Σ_{t ∈ τ1 \\ τ2} τ1(t) − Σ_{t ∈ τ2 \\ τ1} τ2(t)``

    generalised to an arbitrary location parameter.
    """
    _validate(first)
    _validate(second)
    if k is None:
        k = max(len(first), len(second))
    if location is None:
        location = k + 1
    if location <= k and (len(first) == k or len(second) == k):
        if location < max(len(first), len(second)):
            raise DistanceError(
                "location parameter must be at least the list length"
            )
    positions_a = _positions(first)
    positions_b = _positions(second)
    total = 0.0
    for item in set(positions_a) | set(positions_b):
        position_a = positions_a.get(item, location)
        position_b = positions_b.get(item, location)
        total += abs(position_a - position_b)
    return total


def topk_kendall_distance(
    first: TopKAnswer, second: TopKAnswer, k: int | None = None
) -> float:
    """Kendall tau distance between two Top-k lists.

    Counts unordered pairs ``(i, j)`` of items whose relative order disagrees
    in *every* pair of full rankings extending the two lists (Fagin et al.'s
    ``K^(0)`` / "K-min" distance).  The cases are:

    1. Both items appear in both lists and the lists order them oppositely.
    2. Both items appear in one list (say ``i`` above ``j``), and only ``j``
       appears in the other list -- then the other list necessarily places
       ``j`` above ``i``.
    3. ``i`` appears only in the first list and ``j`` appears only in the
       second list -- each list necessarily places its own member above the
       other's.
    4. Pairs missing from one list entirely contribute 0.

    ``k`` is accepted so that every Top-k distance is called the same way;
    ``K^(0)`` depends only on the two lists.
    """
    _validate(first)
    _validate(second)
    positions_a = _positions(first)
    positions_b = _positions(second)
    items = sorted(set(positions_a) | set(positions_b), key=repr)
    distance = 0.0
    for index, item_i in enumerate(items):
        for item_j in items[index + 1:]:
            i_in_a, j_in_a = item_i in positions_a, item_j in positions_a
            i_in_b, j_in_b = item_i in positions_b, item_j in positions_b
            if i_in_a and j_in_a and i_in_b and j_in_b:
                # Case 1: both items in both lists -- penalise opposite order.
                order_a = positions_a[item_i] < positions_a[item_j]
                order_b = positions_b[item_i] < positions_b[item_j]
                if order_a != order_b:
                    distance += 1.0
            elif i_in_a and j_in_a and (i_in_b != j_in_b):
                # Case 2: both in the first list, exactly one in the second.
                # The second list necessarily ranks its member above the
                # missing one; penalise if the first list says otherwise.
                present = item_i if i_in_b else item_j
                absent = item_j if i_in_b else item_i
                if positions_a[absent] < positions_a[present]:
                    distance += 1.0
            elif i_in_b and j_in_b and (i_in_a != j_in_a):
                # Case 2 with the roles of the lists swapped.
                present = item_i if i_in_a else item_j
                absent = item_j if i_in_a else item_i
                if positions_b[absent] < positions_b[present]:
                    distance += 1.0
            elif (i_in_a and not i_in_b and j_in_b and not j_in_a) or (
                i_in_b and not i_in_a and j_in_a and not j_in_b
            ):
                # Case 3: each item appears in exactly one list, and they
                # appear in different lists -- every extension disagrees.
                distance += 1.0
            # Case 4: a pair with an item in neither list contributes 0.
    return distance


def footrule_upper_bounds_kendall(
    first: TopKAnswer, second: TopKAnswer
) -> bool:
    """Check the classical inequality ``d_K <= d_F`` for two Top-k lists.

    Used by property tests: the footrule distance with location parameter
    ``k+1`` upper-bounds the Kendall distance, which is the basis of the
    paper's 2-approximation for ``d_K`` (Section 5.5).
    """
    return topk_kendall_distance(first, second) <= topk_footrule_distance(
        first, second
    ) + 1e-12
