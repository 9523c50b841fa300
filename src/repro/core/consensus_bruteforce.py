"""Brute-force consensus answers over explicit world distributions.

These solvers enumerate candidate answers and evaluate the expected distance
exactly against an explicit :class:`~repro.core.worlds.WorldDistribution`.
They are exponential and only intended as ground-truth oracles for the
polynomial-time algorithms in :mod:`repro.consensus` (every theorem of the
paper is tested against these oracles on small instances).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.clustering_distance import clustering_disagreement_distance
from repro.core.distances import (
    jaccard_distance,
    squared_euclidean_distance,
    symmetric_difference_distance,
)
from repro.core.tuples import TupleAlternative
from repro.core.worlds import PossibleWorld, WorldDistribution
from repro.exceptions import ConsensusError, EnumerationLimitError

Answer = TypeVar("Answer")


def expected_distance(
    candidate: Answer,
    distribution: WorldDistribution,
    answer_of: Callable[[PossibleWorld], Answer],
    distance: Callable[[Answer, Answer], float],
) -> float:
    """Expected distance between ``candidate`` and the random world's answer."""
    return distribution.expectation(
        lambda world: distance(candidate, answer_of(world))
    )


def best_candidate(
    candidates: Iterable[Answer],
    distribution: WorldDistribution,
    answer_of: Callable[[PossibleWorld], Answer],
    distance: Callable[[Answer, Answer], float],
) -> Tuple[Answer, float]:
    """Return the candidate minimising the expected distance, with its value.

    Ties are broken by the order of iteration over ``candidates``.
    """
    best: Tuple[Answer, float] | None = None
    for candidate in candidates:
        value = expected_distance(candidate, distribution, answer_of, distance)
        if best is None or value < best[1] - 1e-15:
            best = (candidate, value)
    if best is None:
        raise ConsensusError("no candidate answers supplied")
    return best


# ----------------------------------------------------------------------
# Set-distance consensus worlds (Section 4)
# ----------------------------------------------------------------------
def _all_subsets(
    alternatives: Sequence[TupleAlternative], limit: int
) -> Iterable[frozenset]:
    n = len(alternatives)
    if 2 ** n > limit:
        raise EnumerationLimitError(
            f"enumerating 2^{n} candidate worlds exceeds the limit {limit}"
        )
    for size in range(n + 1):
        for combo in combinations(alternatives, size):
            yield frozenset(combo)


def _valid_world_subsets(
    alternatives: Sequence[TupleAlternative], limit: int
) -> Iterable[frozenset]:
    """All subsets that do not contain two alternatives of the same key."""
    for subset in _all_subsets(alternatives, limit):
        keys = [a.key for a in subset]
        if len(keys) == len(set(keys)):
            yield subset


def brute_force_mean_world(
    distribution: WorldDistribution,
    distance: Callable[[frozenset, frozenset], float] = symmetric_difference_distance,
    limit: int = 1 << 20,
    restrict_to_valid_worlds: bool = True,
) -> Tuple[frozenset, float]:
    """Mean consensus world by enumerating all candidate tuple sets.

    The candidate space is every subset of the support alternatives (subject
    to the one-alternative-per-key constraint unless
    ``restrict_to_valid_worlds`` is False).
    """
    support = sorted(distribution.support(), key=repr)
    if restrict_to_valid_worlds:
        candidates: Iterable[frozenset] = _valid_world_subsets(support, limit)
    else:
        candidates = _all_subsets(support, limit)
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.alternatives,
        distance=distance,
    )


def brute_force_median_world(
    distribution: WorldDistribution,
    distance: Callable[[frozenset, frozenset], float] = symmetric_difference_distance,
) -> Tuple[frozenset, float]:
    """Median consensus world: the best answer among the possible worlds."""
    candidates = [world.alternatives for world in distribution.worlds]
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.alternatives,
        distance=distance,
    )


def brute_force_mean_world_jaccard(
    distribution: WorldDistribution, limit: int = 1 << 20
) -> Tuple[frozenset, float]:
    """Mean consensus world under the Jaccard distance."""
    return brute_force_mean_world(
        distribution, distance=jaccard_distance, limit=limit
    )


# ----------------------------------------------------------------------
# Top-k consensus answers (Section 5)
# ----------------------------------------------------------------------
def _topk_metric(name: str) -> Any:
    """The :mod:`repro.metrics` record of a Top-k distance name."""
    from repro.metrics import TOPK  # lazy: core sits below consensus

    if name not in TOPK:
        raise ConsensusError(
            f"unknown Top-k distance {name!r}; "
            f"expected one of {sorted(TOPK)}"
        )
    return TOPK[name]


def enumerate_topk_candidates(
    items: Sequence[Hashable],
    k: int,
    ordered: bool,
    limit: int = 1 << 22,
) -> List[Tuple[Hashable, ...]]:
    """Enumerate every candidate Top-k answer over ``items``.

    When ``ordered`` is False only one ordering per item set is produced
    (sufficient for order-insensitive distances such as ``d_Δ``).
    """
    items = list(items)
    count = 1
    for i in range(k):
        count *= max(len(items) - i, 1)
    if count > limit:
        raise EnumerationLimitError(
            f"enumerating {count} candidate Top-k lists exceeds limit {limit}"
        )
    if ordered:
        return [tuple(p) for p in permutations(items, k)]
    return [tuple(sorted(c, key=repr)) for c in combinations(items, k)]


def brute_force_mean_topk(
    distribution: WorldDistribution,
    k: int,
    distance: str = "symmetric_difference",
    candidate_items: Sequence[Hashable] | None = None,
    limit: int = 1 << 22,
) -> Tuple[Tuple[Hashable, ...], float]:
    """Mean Top-k answer by enumerating every candidate list of length ``k``."""
    if candidate_items is None:
        candidate_items = distribution.tuple_keys()
    metric = _topk_metric(distance)
    candidates = enumerate_topk_candidates(
        candidate_items, k, metric.ordered, limit
    )
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.top_k(k),
        distance=lambda a, b: metric.reference(a, b, k=k),
    )


def brute_force_median_topk(
    distribution: WorldDistribution,
    k: int,
    distance: str = "symmetric_difference",
) -> Tuple[Tuple[Hashable, ...], float]:
    """Median Top-k answer: best among the Top-k answers of possible worlds."""
    metric = _topk_metric(distance)
    candidates = sorted(
        {world.top_k(k) for world in distribution.worlds}, key=repr
    )
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.top_k(k),
        distance=lambda a, b: metric.reference(a, b, k=k),
    )


# ----------------------------------------------------------------------
# Group-by count aggregates (Section 6.1)
# ----------------------------------------------------------------------
def brute_force_median_count_vector(
    distribution: WorldDistribution, groups: Sequence[Hashable]
) -> Tuple[Tuple[int, ...], float]:
    """Median group-by count answer among possible answers."""
    candidates = sorted(
        {world.group_by_count(groups) for world in distribution.worlds}
    )
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.group_by_count(groups),
        distance=squared_euclidean_distance,
    )


def brute_force_mean_count_vector(
    distribution: WorldDistribution, groups: Sequence[Hashable]
) -> Tuple[Tuple[float, ...], float]:
    """Mean group-by count answer (the expectation vector) and its value."""
    n = len(groups)
    totals = [0.0] * n
    for world, probability in distribution:
        counts = world.group_by_count(groups)
        for i in range(n):
            totals[i] += probability * counts[i]
    mean = tuple(totals)
    value = expected_distance(
        mean,
        distribution,
        answer_of=lambda world: world.group_by_count(groups),
        distance=squared_euclidean_distance,
    )
    return mean, value


# ----------------------------------------------------------------------
# Consensus clustering (Section 6.2)
# ----------------------------------------------------------------------
def _set_partitions(items: Sequence[Hashable]) -> Iterable[List[List[Hashable]]]:
    """Generate all set partitions of ``items`` (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            yield (
                partition[:index]
                + [[first] + partition[index]]
                + partition[index + 1:]
            )
        yield [[first]] + partition


def brute_force_mean_clustering(
    distribution: WorldDistribution,
    universe: Sequence[Hashable] | None = None,
    limit: int = 200_000,
) -> Tuple[frozenset, float]:
    """Mean consensus clustering by enumerating all partitions of the universe."""
    if universe is None:
        universe = distribution.tuple_keys()
    universe = list(universe)
    if len(universe) > 10:
        raise EnumerationLimitError(
            "brute-force clustering supports at most 10 elements"
        )
    candidates = []
    for count, partition in enumerate(_set_partitions(universe)):
        if count > limit:
            raise EnumerationLimitError(
                f"more than {limit} partitions to enumerate"
            )
        candidates.append(
            frozenset(frozenset(cluster) for cluster in partition)
        )
    return best_candidate(
        candidates,
        distribution,
        answer_of=lambda world: world.clustering(universe),
        distance=lambda a, b: clustering_disagreement_distance(a, b),
    )
