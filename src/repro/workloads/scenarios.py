"""Named realistic scenarios used by the examples and benchmarks.

Each scenario returns a fully-built probabilistic database together with a
short description, mirroring the application domains the paper's introduction
cites (sensor networks, information retrieval / recommendation scores, and
information extraction).

Every builder takes a ``scale`` multiplier on top of its base count, so the
serving benchmarks can grow the *same* named workload to ``n ≈ 10⁴`` tuples
(``movie_rating_scenario(scale=1000)``); score rounding adapts to the tuple
count so scores stay pairwise distinct at any size.  :func:`scenario`
resolves a workload by name from :data:`SCENARIO_NAMES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple, Union

from repro.exceptions import WorkloadError
from repro.models.bid import BlockIndependentDatabase
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.workloads.generators import RandomSource, _as_rng


@dataclass(frozen=True)
class Scenario:
    """A named workload: a database plus a human-readable description."""

    name: str
    description: str
    database: Union[TupleIndependentDatabase, BlockIndependentDatabase]


def _scaled(base_count: int, scale: float) -> int:
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    return max(1, round(base_count * scale))


def _score_precision(count: int) -> int:
    """Rounding digits keeping the score grid much denser than ``count``.

    The historical 3-digit rounding is kept for small scenarios (identical
    outputs for the default sizes); large scaled scenarios get enough
    digits that the de-duplication nudge loop stays O(1) per tuple.
    """
    if count <= 1000:
        return 3
    return int(math.ceil(math.log10(count))) + 2


def _distinct(value: float, used: Set[float], step: float) -> float:
    while value in used:
        value += step
    used.add(value)
    return value


def sensor_network_scenario(
    sensor_count: int = 12,
    rng: RandomSource = 7,
    scale: float = 1.0,
) -> Scenario:
    """Noisy temperature sensors reporting uncertain readings.

    Every sensor surely exists but its reported reading (the score) is
    uncertain: each sensor has two or three candidate readings whose
    probabilities reflect the confidence in each.  This is the
    attribute-level uncertainty setting of Section 5.
    """
    rng = _as_rng(rng)
    sensor_count = _scaled(sensor_count, scale)
    precision = _score_precision(3 * sensor_count)
    step = 10.0 ** -precision
    blocks: List[Tuple[str, List[Tuple[float, float, float]]]] = []
    used_readings: Set[float] = set()
    for index in range(sensor_count):
        base = 15.0 + 20.0 * rng.random()
        alternative_count = rng.randint(2, 3)
        raw = [rng.random() + 0.2 for _ in range(alternative_count)]
        total = sum(raw)
        alternatives = []
        for j in range(alternative_count):
            reading = _distinct(
                round(base + rng.gauss(0.0, 2.0), precision),
                used_readings,
                step,
            )
            alternatives.append((reading, reading, raw[j] / total))
        blocks.append((f"sensor{index + 1}", alternatives))
    database = BlockIndependentDatabase(blocks, name="sensor_network")
    return Scenario(
        name="sensor_network",
        description=(
            f"{sensor_count} temperature sensors with 2-3 candidate "
            "readings each (attribute-level uncertainty)"
        ),
        database=database,
    )


def movie_rating_scenario(
    movie_count: int = 10,
    rng: RandomSource = 11,
    scale: float = 1.0,
) -> Scenario:
    """Movies with uncertain relevance scores from a noisy recommender.

    Each movie appears with some probability (it may be filtered out by the
    recommender) and carries a relevance score; tuples are independent.
    """
    rng = _as_rng(rng)
    movie_count = _scaled(movie_count, scale)
    precision = _score_precision(movie_count)
    step = 10.0 ** -precision
    tuples = []
    used_scores: Set[float] = set()
    for index in range(movie_count):
        score = _distinct(
            round(rng.uniform(1.0, 10.0), precision), used_scores, step
        )
        probability = round(rng.uniform(0.3, 1.0), 3)
        tuples.append((f"movie{index + 1}", score, score, probability))
    database = TupleIndependentDatabase(tuples, name="movie_ratings")
    return Scenario(
        name="movie_ratings",
        description=(
            f"{movie_count} movies with uncertain presence and relevance "
            "scores (tuple-level uncertainty)"
        ),
        database=database,
    )


def extraction_groupby_scenario(
    mention_count: int = 20,
    company_count: int = 4,
    rng: RandomSource = 13,
    scale: float = 1.0,
) -> Scenario:
    """Information-extraction mentions with uncertain company attribution.

    Every extracted mention surely refers to exactly one company, but which
    company is uncertain (attribute-level uncertainty); the analytical query
    of interest is the per-company mention count (Section 6.1).
    """
    rng = _as_rng(rng)
    mention_count = _scaled(mention_count, scale)
    companies = [f"company{index + 1}" for index in range(company_count)]
    blocks: List[Tuple[str, List[Tuple[str, float]]]] = []
    for index in range(mention_count):
        supported = rng.sample(companies, rng.randint(1, min(3, company_count)))
        raw = [rng.random() + 0.1 for _ in supported]
        total = sum(raw)
        alternatives = [
            (company, weight / total)
            for company, weight in zip(supported, raw)
        ]
        blocks.append((f"mention{index + 1}", alternatives))
    database = BlockIndependentDatabase(blocks, name="extraction_mentions")
    return Scenario(
        name="extraction_mentions",
        description=(
            f"{mention_count} extracted mentions attributed to one of "
            f"{company_count} companies with attribute-level uncertainty"
        ),
        database=database,
    )


#: Registry of the named scenario builders (first positional argument is
#: the base count, every builder accepts ``rng`` and ``scale``).
SCENARIO_NAMES: Dict[str, Callable[..., Scenario]] = {
    "sensor_network": sensor_network_scenario,
    "movie_ratings": movie_rating_scenario,
    "extraction_mentions": extraction_groupby_scenario,
}


def scenario(
    name: str, scale: float = 1.0, rng: RandomSource = None, **kwargs
) -> Scenario:
    """Build a named scenario at the requested scale.

    ``rng=None`` keeps each builder's fixed default seed (scenarios stay
    reproducible by default); pass a generator or seed to override.
    """
    try:
        builder = SCENARIO_NAMES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; expected one of "
            f"{sorted(SCENARIO_NAMES)}"
        ) from None
    if rng is not None:
        kwargs["rng"] = rng
    return builder(scale=scale, **kwargs)
