"""Top-k consensus under the Kendall tau distance (Section 5.5).

Computing the exact mean answer under ``d_K`` is NP-hard (and/xor trees can
encode arbitrary world distributions, and aggregating even four rankings
under Kendall tau is NP-hard), so the paper gives two approximation routes,
both implemented here:

* **Footrule route (2-approximation).**  ``d_F`` and ``d_K`` lie in the same
  constant-factor equivalence class (``d_K <= d_F <= 2 d_K``), so the exact
  footrule-optimal answer of Section 5.4 is a 2-approximation for ``d_K``.
* **Pairwise-preference route.**  Ailon's partial rank-aggregation algorithm
  only needs, for every pair, the proportion of inputs ranking ``t_i`` above
  ``t_j``; in the probabilistic setting this is ``Pr(r(t_i) < r(t_j))``,
  computable from the and/xor tree.  We substitute the LP-rounding step with
  the classical pivot (KwikSort) aggregation driven by the same pairwise
  probabilities (see DESIGN.md, "Substitutions"): candidates are pre-selected
  by ``Pr(r(t) <= k)`` and ordered by pivoting.

For evaluation the expected Kendall distance of a candidate answer is
computed exactly by world enumeration on small databases and by Monte-Carlo
sampling on larger ones; a brute-force optimal mean answer (for measuring
empirical approximation ratios) is provided for tiny instances.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.andxor.enumeration import enumerate_worlds
from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    rank_matrix_view,
    top_keys,
    validate_k,
)
from repro.consensus.topk.footrule import mean_topk_footrule
from repro.core.topk_distances import topk_kendall_distance
from repro.exceptions import EnumerationLimitError
from repro.rankagg.pivot import pivot_aggregation


def expected_topk_kendall_distance(
    source: TreeOrStatistics,
    answer: Sequence[Hashable],
    k: int,
    method: str = "enumerate",
    samples: int = 2000,
    rng: random.Random | None = None,
    enumeration_limit: int = 1 << 16,
) -> float:
    """Expected Kendall tau distance between ``answer`` and the random Top-k.

    ``method`` selects exact evaluation by possible-world enumeration
    (``"enumerate"``, exponential, for small databases) or Monte-Carlo
    estimation (``"sample"``), as in
    :func:`~repro.consensus.evaluation.evaluate_topk_answer`.
    """
    # Lazy: the evaluation module imports this package.
    from repro.consensus.evaluation import evaluate_topk_answer

    return evaluate_topk_answer(
        source,
        answer,
        k,
        metrics=("kendall",),
        method=method,
        samples=samples,
        rng=rng,
        enumeration_limit=enumeration_limit,
    ).distance("kendall")


def footrule_topk_for_kendall(
    source: TreeOrStatistics, k: int
) -> TopKAnswer:
    """The footrule-optimal answer, a 2-approximation for the Kendall mean."""
    answer, _ = mean_topk_footrule(source, k)
    return answer


def approximate_topk_kendall(
    source: TreeOrStatistics,
    k: int,
    candidate_pool_size: Optional[int] = None,
    rng: random.Random | None = None,
) -> TopKAnswer:
    """Pivot-based approximate mean answer under the Kendall tau distance.

    The candidate pool (default: the ``2k`` tuples with the largest
    ``Pr(r(t) <= k)``, the whole database if smaller) is ordered by KwikSort
    pivoting on the pairwise probabilities ``Pr(r(t_i) < r(t_j))``, served
    from the session's batched
    :class:`~repro.engine.PairwisePreferenceMatrix` over the pool instead of
    per-pair joint-probability lookups; the first ``k`` items form the
    answer.
    """
    session = as_session(source)
    matrix = rank_matrix_view(session, k)
    if candidate_pool_size is None:
        candidate_pool_size = min(2 * k, len(matrix))
    candidate_pool_size = max(candidate_pool_size, k)
    pool = top_keys(matrix, matrix.membership_vector(), candidate_pool_size)
    preferences = session.preference_matrix(pool)

    def prefers(first: Hashable, second: Hashable) -> float:
        return preferences.value(first, second)

    ordered = pivot_aggregation(pool, prefers, rng=rng)
    return tuple(ordered[:k])


def brute_force_mean_topk_kendall(
    source: TreeOrStatistics,
    k: int,
    enumeration_limit: int = 1 << 16,
    candidate_limit: int = 200_000,
) -> Tuple[TopKAnswer, float]:
    """Exact mean answer under Kendall tau by exhaustive search (tiny inputs).

    Enumerates every ordered ``k``-subset of the tuple keys and every
    possible world; used by tests and benchmarks to measure the empirical
    approximation ratio of the polynomial-time routes.
    """
    session = as_session(source)
    validate_k(session, k)
    keys = session.keys()
    count = 1
    for i in range(k):
        count *= len(keys) - i
    if count > candidate_limit:
        raise EnumerationLimitError(
            f"enumerating {count} candidate answers exceeds the limit"
        )
    distribution = enumerate_worlds(session.tree, limit=enumeration_limit)
    world_topk = [
        (world.top_k(k), probability) for world, probability in distribution
    ]
    best: Tuple[TopKAnswer, float] | None = None
    for candidate in permutations(keys, k):
        value = sum(
            probability * topk_kendall_distance(candidate, topk)
            for topk, probability in world_topk
        )
        if best is None or value < best[1] - 1e-15:
            best = (tuple(candidate), value)
    assert best is not None
    return best
