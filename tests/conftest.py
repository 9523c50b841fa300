"""Shared fixtures and random-instance helpers for the test suite.

Most tests validate the polynomial-time algorithms against brute-force
oracles on small random instances; the helpers here generate those instances
deterministically from seeds so failures are reproducible.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

# Allow running the tests without installing the package (e.g. straight from
# a source checkout): put src/ on the path if the package is not importable.
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.models.bid import BlockIndependentDatabase  # noqa: E402
from repro.models.tuple_independent import TupleIndependentDatabase  # noqa: E402
from repro.models.xtuples import XTupleDatabase  # noqa: E402
from repro.query import Query  # noqa: E402

#: The four exact reads of the benchmark's churn and cold_query workloads.
BENCHMARK_READS = (
    Query.topk(3, "footrule"),
    Query.topk(3, "symmetric_difference"),
    Query.membership(3),
    Query.topk(3, "intersection"),
)


def small_tuple_independent(seed: int, count: int = 5) -> TupleIndependentDatabase:
    """A small random tuple-independent database with distinct scores."""
    rng = random.Random(seed)
    scores = rng.sample(range(10, 1000), count)
    tuples = [
        (f"t{i + 1}", scores[i], float(scores[i]), round(rng.uniform(0.05, 0.95), 3))
        for i in range(count)
    ]
    return TupleIndependentDatabase(tuples)


def small_bid(
    seed: int,
    blocks: int = 4,
    max_alternatives: int = 3,
    exhaustive: bool = False,
) -> BlockIndependentDatabase:
    """A small random BID database with distinct scores."""
    rng = random.Random(seed)
    total = blocks * max_alternatives
    scores = iter(rng.sample(range(10, 5000), total))
    spec = []
    for b in range(blocks):
        count = rng.randint(1, max_alternatives)
        raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
        if exhaustive:
            norm = sum(raw)
        else:
            norm = sum(raw) / rng.uniform(0.4, 0.9)
        alternatives = []
        for j in range(count):
            score = float(next(scores))
            alternatives.append((score, score, raw[j] / norm))
        spec.append((f"t{b + 1}", alternatives))
    return BlockIndependentDatabase(spec)


def small_xtuple(
    seed: int, groups: int = 3, max_members: int = 2, exhaustive: bool = False
) -> XTupleDatabase:
    """A small random x-tuple database with distinct scores."""
    rng = random.Random(seed)
    total = groups * max_members
    scores = iter(rng.sample(range(10, 5000), total))
    spec = []
    key = 0
    for _ in range(groups):
        count = rng.randint(1, max_members)
        raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
        if exhaustive:
            norm = sum(raw)
        else:
            norm = sum(raw) / rng.uniform(0.4, 0.9)
        members = []
        for j in range(count):
            key += 1
            score = float(next(scores))
            members.append((f"t{key}", score, score, raw[j] / norm))
        spec.append(members)
    return XTupleDatabase(spec)


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for tests that need one."""
    return random.Random(12345)


def parent_summary(sharded, index: int, max_rank: int):
    """Shard ``index``'s summary swept in this process from the live
    store, whichever executor the database runs on."""
    from repro.sharding.summary import ShardRankSummary

    _, store, views = sharded.state()
    return ShardRankSummary.from_layout(
        (store, store.scores, views[index]), max_rank
    )
