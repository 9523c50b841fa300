"""Unified evaluation of candidate Top-k answers.

The benchmark harness and the examples repeatedly need the same thing: given
*any* Top-k answer (produced by a consensus algorithm, a prior ranking
semantics, or a user), report its expected distance to the random world's
Top-k under each of the paper's metrics.  This module provides that in one
place with three evaluation strategies:

* ``"closed_form"`` -- the polynomial-time formulas of Section 5 (exact;
  available for the symmetric difference, intersection and footrule metrics),
* ``"enumerate"`` -- exact expectation over the explicit possible worlds
  (exponential; small databases only),
* ``"sample"`` -- Monte-Carlo estimation (any database size, any metric).

The closed-form and enumeration strategies agreeing is itself a reproduction
check of the paper's derivations, exercised by the test-suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro.andxor.enumeration import enumerate_worlds
from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    validate_k,
)
from repro.exceptions import ConsensusError

#: Worlds drawn per batch by the ``"sample"`` method.
_SAMPLE_BATCH = 4096


def __getattr__(name: str) -> Any:
    # TOPK_METRICS (metric name -> reference distance, the Top-k metrics of
    # Section 5.1) is read from repro.metrics on first use: the registry
    # imports this package, so this module cannot import it at load.
    if name == "TOPK_METRICS":
        from repro.metrics import TOPK

        return {metric: record.reference for metric, record in TOPK.items()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AnswerEvaluation:
    """The expected distances of one candidate answer under every metric."""

    answer: Tuple[Hashable, ...]
    distances: Dict[str, float]
    method: str

    def distance(self, metric: str) -> float:
        """The expected distance under one metric."""
        if metric not in self.distances:
            raise ConsensusError(
                f"metric {metric!r} was not evaluated; available: "
                f"{sorted(self.distances)}"
            )
        return self.distances[metric]


def evaluate_topk_answer(
    source: TreeOrStatistics,
    answer: Sequence[Hashable],
    k: int,
    metrics: Sequence[str] = ("symmetric_difference", "intersection", "footrule"),
    method: str = "closed_form",
    samples: int = 2000,
    rng: Optional[random.Random] = None,
    enumeration_limit: int = 1 << 16,
) -> AnswerEvaluation:
    """Expected distance of ``answer`` to the random Top-k, per metric.

    Parameters
    ----------
    source:
        The probabilistic database (an and/xor tree or cached rank
        statistics).
    answer:
        The candidate Top-k answer (ordered tuple keys).
    k:
        The answer size.
    metrics:
        Which metrics to evaluate (names of :data:`repro.metrics.TOPK`).
    method:
        ``"closed_form"`` (exact, not available for ``"kendall"``),
        ``"enumerate"`` (exact, exponential) or ``"sample"`` (Monte-Carlo).
    """
    from repro.metrics import TOPK  # lazy: the registry imports this package

    session = as_session(source)
    validate_k(session, k)
    answer = tuple(answer)
    unknown = [m for m in metrics if m not in TOPK]
    if unknown:
        raise ConsensusError(
            f"unknown metrics {unknown}; available: {sorted(TOPK)}"
        )
    distances: Dict[str, float] = {}
    if method == "closed_form":
        for metric in metrics:
            closed_form = TOPK[metric].closed_form
            if closed_form is None:
                raise ConsensusError(
                    f"no closed form is available for metric {metric!r}; "
                    "use method='enumerate' or method='sample'"
                )
            distances[metric] = closed_form(session, answer, k)
    elif method == "enumerate":
        distribution = enumerate_worlds(session.tree, limit=enumeration_limit)
        for metric in metrics:
            distances[metric] = distribution.expectation(
                lambda world, d=TOPK[metric].reference: d(
                    answer, world.top_k(k), k=k
                )
            )
    elif method == "sample":
        # One batch stream, every metric scored against the same worlds.
        rng = rng or random.Random(0)
        sampler = session.sampler()
        totals = dict.fromkeys(metrics, 0.0)
        for start in range(0, samples, _SAMPLE_BATCH):
            batch = sampler.sample_batch(
                min(_SAMPLE_BATCH, samples - start), rng=rng
            )
            for metric in metrics:
                totals[metric] += sum(batch.topk_distances(answer, k, metric))
        distances = {metric: totals[metric] / samples for metric in metrics}
    else:
        raise ConsensusError(
            f"unknown evaluation method {method!r}; expected 'closed_form', "
            "'enumerate' or 'sample'"
        )
    return AnswerEvaluation(answer=answer, distances=distances, method=method)


def compare_topk_answers(
    source: TreeOrStatistics,
    answers: Dict[str, Sequence[Hashable]],
    k: int,
    metrics: Sequence[str] = ("symmetric_difference", "intersection", "footrule"),
    method: str = "closed_form",
    **kwargs,
) -> Dict[str, AnswerEvaluation]:
    """Evaluate several named answers (e.g. competing ranking semantics).

    Returns a mapping from the answer's name to its
    :class:`AnswerEvaluation`; one query session is shared across all
    evaluations, so the rank statistics are computed once.
    """
    session = as_session(source)
    return {
        name: evaluate_topk_answer(
            session, answer, k, metrics=metrics, method=method, **kwargs
        )
        for name, answer in answers.items()
    }
