"""Chaos replay: drive a serving executor through faults, account for all.

:func:`replay_traffic` assumes a healthy executor -- any failure
propagates and aborts the replay.  Under fault injection the interesting
property is the opposite: every request must *terminate* (an answer, an
applied update, or a typed :class:`~repro.exceptions.ReproError` --
never a hang, never an untyped crash).  :func:`chaos_replay` replays the
same seeded streams while recording one :class:`ChaosOutcome` per event,
so tests and benchmarks can assert completeness and compare every answer
against a fault-free run: a shard whose worker fails is answered from the
parent's columns, so faults never change an answer.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.workloads.traffic import TrafficEvent


@dataclass
class ChaosOutcome:
    """What happened to one traffic event replayed under faults.

    Exactly one terminal state per event: ``answer`` set (queries),
    ``error`` set (typed failure), or neither for an applied update.
    ``started`` / ``finished`` are ``time.monotonic()`` stamps taken on
    the event loop around the await, so recovery latency can be read off
    the outcome list.
    """

    position: int
    event: TrafficEvent
    answer: Optional[Any] = None
    error: Optional[BaseException] = None
    started: float = 0.0
    finished: float = 0.0

    @property
    def completed(self) -> bool:
        """The request terminated in an accounted-for way (never hung)."""
        if self.error is not None:
            return isinstance(self.error, ReproError)
        return self.event.is_update or self.answer is not None

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


async def chaos_replay(
    executor: Any,
    events: Sequence[TrafficEvent],
    concurrency: int = 8,
    deadline_ms: Optional[float] = None,
) -> List[ChaosOutcome]:
    """Replay an event stream, recording an outcome for every event.

    Same windowing discipline as
    :func:`~repro.workloads.traffic.replay_traffic` -- up to
    ``concurrency`` consecutive queries run concurrently, updates act as
    barriers -- but typed failures are captured per event instead of
    aborting the replay, and queries carry an optional per-call
    ``deadline_ms``.  Untyped exceptions still propagate: a chaos run
    surfacing a non-:class:`~repro.exceptions.ReproError` is a bug.
    """
    outcomes: List[Optional[ChaosOutcome]] = [None] * len(events)
    window: List[Tuple[int, TrafficEvent]] = []

    async def run_query(position: int, event: TrafficEvent) -> None:
        outcome = ChaosOutcome(
            position=position, event=event, started=time.monotonic()
        )
        try:
            outcome.answer = await executor.execute(
                event.query, deadline_ms=deadline_ms
            )
        except ReproError as error:
            outcome.error = error
        outcome.finished = time.monotonic()
        outcomes[position] = outcome

    async def flush() -> None:
        if not window:
            return
        await asyncio.gather(
            *(run_query(position, event) for position, event in window)
        )
        window.clear()

    for position, event in enumerate(events):
        if event.is_update:
            await flush()
            outcome = ChaosOutcome(
                position=position, event=event, started=time.monotonic()
            )
            try:
                await executor.update(
                    event.key,
                    probability=event.probability,
                    score=event.score,
                )
            except ReproError as error:
                outcome.error = error
            outcome.finished = time.monotonic()
            outcomes[position] = outcome
        else:
            window.append((position, event))
            if len(window) >= concurrency:
                await flush()
    await flush()
    return [outcome for outcome in outcomes if outcome is not None]


def chaos_summary(outcomes: Sequence[ChaosOutcome]) -> Dict[str, Any]:
    """Aggregate a chaos run into the counters assertions read.

    ``completed`` counts events that terminated with an answer, a clean
    update, or a typed error; a run is fully accounted for when
    ``completed == events``.
    """
    queries = [o for o in outcomes if not o.event.is_update]
    updates = [o for o in outcomes if o.event.is_update]
    errors: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.error is not None:
            name = type(outcome.error).__name__
            errors[name] = errors.get(name, 0) + 1
    return {
        "events": len(outcomes),
        "completed": sum(1 for o in outcomes if o.completed),
        "queries": len(queries),
        "answered": sum(1 for o in queries if o.answer is not None),
        "query_failures": sum(1 for o in queries if o.error is not None),
        "updates": len(updates),
        "updates_applied": sum(1 for o in updates if o.error is None),
        "update_failures": sum(1 for o in updates if o.error is not None),
        "errors": errors,
    }
