"""Concurrent query-mix traffic for the serving layer.

:func:`generate_traffic` produces a reproducible stream of
:class:`~repro.workloads.traffic.TrafficEvent` records -- declarative
:class:`~repro.query.ConsensusQuery` objects drawn from a weighted kind
mix (with Top-k sizes and distance choices) plus probability/score updates
at a configurable read/update ratio -- over the tuple keys of an existing
database or scenario.  Mixes are weighted over the named kinds
(:data:`repro.query.NAMED_KINDS`).  Seeds route through
:func:`repro.workloads.generators._as_rng`, i.e. through the process-wide
``REPRO_SEED`` generator when no explicit seed is given, so serving
benchmarks and traffic replays are reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import WorkloadError
from repro.query.builder import NAMED_KINDS, ConsensusQuery
from repro.workloads.generators import RandomSource, _as_rng

#: Default weighted query mix: the cheap membership-style reads dominate,
#: with a steady trickle of the assignment-based and pivot-based answers.
DEFAULT_QUERY_MIX: Dict[str, float] = {
    "mean_topk_symmetric_difference": 4.0,
    "top_k_membership": 3.0,
    "mean_topk_footrule": 2.0,
    "approximate_topk_intersection": 1.0,
    "approximate_topk_kendall": 1.0,
}


@dataclass(frozen=True)
class TrafficEvent:
    """One serving-layer event: a consensus query or a tuple update."""

    kind: str  # "query" | "update"
    query: Optional[ConsensusQuery] = None
    key: Optional[Hashable] = None
    probability: Optional[float] = None
    score: Optional[float] = None
    #: Inter-arrival gap (seconds) before this event; ``None`` for steady
    #: streams, set by the bursty arrival process.
    gap: Optional[float] = None

    @property
    def is_update(self) -> bool:
        return self.kind == "update"


def _zipf_cumulative(n: int, s: float) -> List[float]:
    """Cumulative zipfian rank distribution over ``n`` items."""
    weights = [1.0 / float(rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    running = 0.0
    cumulative = []
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    return cumulative


def _draw_index(cumulative: List[float], draw: float) -> int:
    from bisect import bisect_left

    return min(bisect_left(cumulative, draw), len(cumulative) - 1)


def generate_traffic(
    keys: Sequence[Hashable],
    count: int,
    rng: RandomSource = None,
    query_mix: Optional[Dict[str, float]] = None,
    k_choices: Sequence[int] = (5, 10),
    update_ratio: float = 0.0,
    probability_range: Tuple[float, float] = (0.05, 1.0),
    popular_pool: Optional[int] = 8,
    popularity: str = "uniform",
    zipf_s: float = 1.2,
    arrival: str = "steady",
    mean_gap: float = 0.01,
    burst_length: int = 8,
) -> List[TrafficEvent]:
    """Generate a reproducible mixed query/update event stream.

    Parameters
    ----------
    keys:
        Tuple keys of the target database (updates pick keys uniformly).
    count:
        Number of events.
    rng:
        Generator / seed; ``None`` uses the ``REPRO_SEED``-seeded
        process-wide generator.
    query_mix:
        Weighted query kinds (default :data:`DEFAULT_QUERY_MIX`); every
        kind must be one of :data:`repro.query.NAMED_KINDS`.
    k_choices:
        Candidate Top-k sizes (clamped to the database size).
    update_ratio:
        Fraction of events that are probability updates (in ``[0, 1)``).
    probability_range:
        Range updates draw new presence probabilities from.
    popular_pool:
        When set, queries are drawn from this many pre-materialized
        "popular" queries instead of fresh independent draws -- the
        realistic repeated-query regime that request coalescing and result
        memoization exploit.  ``None`` draws every query independently.
    popularity:
        ``"uniform"`` (default) picks pool queries and update keys
        uniformly; ``"zipf"`` skews both towards low ranks with exponent
        ``zipf_s`` (popular queries coalesce harder, popular keys make
        update races realistic).
    arrival:
        ``"steady"`` (default) leaves every event's ``gap`` unset;
        ``"bursty"`` stamps clustered inter-arrival gaps: runs of
        ``burst_length`` events separated by ~``mean_gap`` pauses, with
        near-zero gaps inside a burst.
    mean_gap / burst_length:
        The bursty arrival process's scale (seconds) and cluster size.

    Default-parameter draws are byte-identical to the previous generator:
    the new regimes consume extra random draws only when activated, so
    existing seeded streams (and their signatures) are unchanged.
    """
    if count < 0:
        raise WorkloadError(f"count must be non-negative, got {count}")
    if not 0.0 <= update_ratio < 1.0:
        raise WorkloadError(
            f"update_ratio must lie in [0, 1), got {update_ratio}"
        )
    if not keys:
        raise WorkloadError("traffic needs at least one tuple key")
    rng = _as_rng(rng)
    mix = dict(DEFAULT_QUERY_MIX if query_mix is None else query_mix)
    unknown = sorted(set(mix) - set(NAMED_KINDS))
    if unknown:
        raise WorkloadError(
            f"unknown query kinds in mix: {unknown}; expected a subset of "
            f"{sorted(NAMED_KINDS)}"
        )
    if not mix:
        raise WorkloadError("the query mix must not be empty")
    kinds = sorted(mix)
    weights = [float(mix[kind]) for kind in kinds]
    total_weight = sum(weights)
    if total_weight <= 0:
        raise WorkloadError("query mix weights must sum to a positive value")
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total_weight
        cumulative.append(running)
    sizes = sorted({min(max(1, k), len(keys)) for k in k_choices})
    key_list = list(keys)
    low, high = probability_range
    if not 0.0 <= low <= high <= 1.0:
        raise WorkloadError(f"invalid probability range {probability_range}")
    if popularity not in ("uniform", "zipf"):
        raise WorkloadError(
            f"popularity must be 'uniform' or 'zipf', got {popularity!r}"
        )
    if arrival not in ("steady", "bursty"):
        raise WorkloadError(
            f"arrival must be 'steady' or 'bursty', got {arrival!r}"
        )
    if arrival == "bursty":
        if mean_gap <= 0.0:
            raise WorkloadError(f"mean_gap must be positive, got {mean_gap}")
        if burst_length < 1:
            raise WorkloadError(
                f"burst_length must be >= 1, got {burst_length}"
            )
    key_cumulative = (
        _zipf_cumulative(len(key_list), zipf_s)
        if popularity == "zipf"
        else None
    )

    def draw_query() -> ConsensusQuery:
        # One rng.random() + one rng.randrange() per draw; seeded streams
        # depend on this draw order.
        draw = rng.random()
        index = 0
        while index < len(cumulative) - 1 and draw > cumulative[index]:
            index += 1
        kind = kinds[index]
        k = sizes[rng.randrange(len(sizes))]
        return ConsensusQuery.named(kind, k)

    pool: Optional[List[ConsensusQuery]] = None
    pool_cumulative: Optional[List[float]] = None
    if popular_pool is not None:
        if popular_pool < 1:
            raise WorkloadError(
                f"popular_pool must be positive, got {popular_pool}"
            )
        pool = [draw_query() for _ in range(popular_pool)]
        if popularity == "zipf":
            pool_cumulative = _zipf_cumulative(len(pool), zipf_s)
    events: List[TrafficEvent] = []
    burst_remaining = 0
    for _ in range(count):
        # The bursty arrival process draws its gap first, so the event
        # draws below consume the exact same stream as a steady run with
        # one extra rng.random() skipped in between.
        gap: Optional[float] = None
        if arrival == "bursty":
            draw = rng.random()
            if burst_remaining > 0:
                burst_remaining -= 1
                gap = mean_gap * 0.05 * draw
            else:
                burst_remaining = burst_length - 1
                gap = mean_gap * (0.5 + draw)
        if update_ratio > 0.0 and rng.random() < update_ratio:
            if key_cumulative is not None:
                key = key_list[_draw_index(key_cumulative, rng.random())]
            else:
                key = key_list[rng.randrange(len(key_list))]
            events.append(
                TrafficEvent(
                    kind="update",
                    key=key,
                    probability=rng.uniform(low, high),
                    gap=gap,
                )
            )
        else:
            if pool is not None and pool_cumulative is not None:
                query = pool[_draw_index(pool_cumulative, rng.random())]
            elif pool is not None:
                query = pool[rng.randrange(len(pool))]
            else:
                query = draw_query()
            events.append(TrafficEvent(kind="query", query=query, gap=gap))
    return events


def update_heavy_traffic(
    keys: Sequence[Hashable],
    count: int,
    rng: RandomSource = None,
    update_ratio: float = 0.4,
    **options: Any,
) -> List[TrafficEvent]:
    """An update-heavy mix: ~40% tuple updates on a zipfian key pool.

    The regime the incremental re-merge targets: most events touch one
    shard and force a single-shard delta, reads in between reuse every
    other shard's cached partial products.
    """
    options.setdefault("popularity", "zipf")
    return generate_traffic(
        keys, count, rng=rng, update_ratio=update_ratio, **options
    )


def bursty_traffic(
    keys: Sequence[Hashable],
    count: int,
    rng: RandomSource = None,
    **options: Any,
) -> List[TrafficEvent]:
    """Zipfian-popularity traffic with clustered inter-arrival gaps.

    Bursts of near-simultaneous events (micro-batching and coalescing
    engage) separated by ~``mean_gap`` idle pauses; event ``gap`` fields
    carry the arrival process for replay harnesses that honor pacing.
    """
    options.setdefault("popularity", "zipf")
    options.setdefault("arrival", "bursty")
    return generate_traffic(keys, count, rng=rng, **options)


def traffic_signature(events: Sequence[TrafficEvent]) -> str:
    """A stable structural fingerprint of an event stream.

    Hashes each event's kind, the query's restart-stable
    :meth:`~repro.query.ConsensusQuery.fingerprint`, and the update fields
    into one hex digest.  Two streams with the same signature are
    byte-identical in everything the serving layer reads off them, so a
    seeded generator can be asserted reproducible across processes, start
    methods and executor modes without comparing event objects pairwise.
    """
    import hashlib

    digest = hashlib.sha256()
    for event in events:
        if event.is_update:
            part = (
                "update", repr(event.key),
                repr(event.probability), repr(event.score),
            )
        else:
            part = ("query", event.query.fingerprint())
        if event.gap is not None:
            # Appended only when set: steady streams keep their
            # pre-arrival-process signatures.
            part = part + (repr(event.gap),)
        digest.update("\x1f".join(part).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


async def replay_traffic(
    executor: "Any",
    events: Sequence[TrafficEvent],
    concurrency: int = 16,
) -> List[object]:
    """Replay an event stream against a serving executor.

    Queries within a window of ``concurrency`` consecutive events run
    concurrently (so coalescing and micro-batching engage); updates act as
    barriers, preserving the read/update ordering of the stream.  Returns
    the raw query results in stream order (updates contribute ``None``).
    """
    import asyncio

    results: List[object] = [None] * len(events)
    window: List[Tuple[int, TrafficEvent]] = []

    async def flush() -> None:
        if not window:
            return
        answers = await asyncio.gather(
            *(executor.submit(event.query) for _, event in window)
        )
        for (position, _), answer in zip(window, answers):
            results[position] = answer
        window.clear()

    for position, event in enumerate(events):
        if event.is_update:
            await flush()
            await executor.update(
                event.key,
                probability=event.probability,
                score=event.score,
            )
        else:
            window.append((position, event))
            if len(window) >= concurrency:
                await flush()
    await flush()
    return results


def replay_traffic_http(
    client: "Any",
    events: Sequence[TrafficEvent],
    concurrency: int = 16,
) -> List[object]:
    """Replay an event stream over the HTTP front door.

    The wire twin of :func:`replay_traffic`, same window semantics:
    queries within a window of ``concurrency`` consecutive events are
    POSTed concurrently from a thread pool (the blocking
    :class:`~repro.server.ReproClient` pools its sockets behind a lock,
    so one client serves every worker), and updates act as barriers.
    Returns the raw query values in stream order (updates contribute
    ``None``) -- byte-identical to the in-process replay of the same
    seeded stream, which the wire-format tests assert together with
    :func:`traffic_signature` parity.
    """
    from concurrent.futures import ThreadPoolExecutor

    results: List[object] = [None] * len(events)
    window: List[Tuple[int, TrafficEvent]] = []
    workers = max(1, int(concurrency))

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def flush() -> None:
            if not window:
                return
            answers = pool.map(
                lambda item: client.query(item[1].query), window
            )
            for (position, _), answer in zip(window, answers):
                results[position] = answer.value
            window.clear()

        for position, event in enumerate(events):
            if event.is_update:
                flush()
                client.update(
                    event.key,
                    probability=event.probability,
                    score=event.score,
                )
            else:
                window.append((position, event))
                if len(window) >= concurrency:
                    flush()
        flush()
    return results
