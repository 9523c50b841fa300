"""Experiment E15: HTTP front door overhead and in-protocol load shedding.

Two cases over the scaled movie-ratings scenario (tuple-independent,
``n ≈ 10⁴`` at full size), fronted by the asyncio HTTP server:

* **E15a -- loopback HTTP vs in-process serving.**  The E13 mixed
  read/update traffic stream is replayed twice against identically-seeded
  4-shard databases: once through the in-process
  :class:`~repro.serving.ServingExecutor` (the E13 path) and once over
  loopback HTTP through :class:`~repro.server.ReproClient` /
  :func:`~repro.workloads.replay_traffic_http`.  Every per-position query
  value is asserted equal to 1e-9 across the wire -- the JSON codec is
  loss-free, so the HTTP answer *is* the in-process answer.  The table
  reports req/s and client-observed p50/p95 per path; the acceptance bar
  (full scale, NumPy backend) is loopback p95 <= 3x in-process p95.
* **E15b -- bounded admission under a concurrent blast.**  A small
  ``max_inflight`` server takes a synchronized burst from many client
  threads.  Nothing is ever dropped silently: every request resolves to
  200/429/503/504, the per-status counts sum to the number sent, and the
  server's own admission ledger agrees.  Load shedding must engage
  (some 429s) without starving the service (some 200s).

Set ``REPRO_BENCH_SMOKE=1`` to shrink both cases to seconds (the CI smoke
leg).  JSON results record the active backend and the traffic seed.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import Counter

from _harness import report
from repro.engine import get_backend
from repro.models import ShardedDatabase
from repro.query import Query
from repro.server import ServerThread
from repro.serving import ServingExecutor
from repro.workloads.scenarios import movie_rating_scenario
from repro.workloads.traffic import (
    generate_traffic,
    replay_traffic,
    replay_traffic_http,
    traffic_signature,
)

SEED = 20260808
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SCALE = 40.0 if SMOKE else 1200.0  # n = 400 smoke / 12_000 full
SHARDS = 4
EVENT_COUNT = 36 if SMOKE else 120
CONCURRENCY = 8
K = 10

# E15b blast geometry: more concurrent senders than admission slots.
BLAST_THREADS = 8
BLAST_PER_THREAD = 6 if SMOKE else 24
BLAST_INFLIGHT = 2


def _database():
    return movie_rating_scenario(scale=SCALE).database


def _traffic(keys):
    return generate_traffic(
        keys,
        EVENT_COUNT,
        rng=SEED,
        update_ratio=0.4,
        k_choices=(K,),
        popular_pool=6,
    )


def _percentiles(samples):
    ordered = sorted(samples)
    pick = lambda fraction: ordered[
        min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    ]
    return pick(0.50), pick(0.95)


def _assert_value_parity(expected, actual, tolerance=1e-9, where=()):
    """Structural 1e-9 equality between an in-process and a wire value."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert abs(float(expected) - float(actual)) <= tolerance, (
            where, expected, actual
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), (where, expected, actual)
        assert set(expected.keys()) == set(actual.keys()), where
        for key in expected:
            _assert_value_parity(
                expected[key], actual[key], tolerance, where + (key,)
            )
    elif isinstance(expected, (list, tuple)):
        assert type(expected) is type(actual), (where, expected, actual)
        assert len(expected) == len(actual), (where, expected, actual)
        for index, (left, right) in enumerate(zip(expected, actual)):
            _assert_value_parity(left, right, tolerance, where + (index,))
    else:
        assert expected == actual, (where, expected, actual)


def _replay_in_process(sharded, events):
    async def run():
        async with ServingExecutor(sharded) as executor:
            # One warm query keeps one-time construction out of the
            # steady-state comparison, mirroring the HTTP leg's warm-up.
            await executor.submit(Query.membership(K))
            start = time.perf_counter()
            values = await replay_traffic(
                executor, events, concurrency=CONCURRENCY
            )
            elapsed = time.perf_counter() - start
            return values, elapsed, executor.metrics()

    return asyncio.run(run())


class _TimingClient:
    """Delegates to a :class:`ReproClient`, timing every query POST."""

    def __init__(self, client):
        self._client = client
        self._lock = threading.Lock()
        self.latencies = []

    def query(self, query, deadline_ms=None):
        start = time.perf_counter()
        answer = self._client.query(query, deadline_ms=deadline_ms)
        with self._lock:
            self.latencies.append(time.perf_counter() - start)
        return answer

    def update(self, key, probability=None, score=None):
        return self._client.update(key, probability=probability, score=score)


def test_e15a_loopback_vs_in_process(benchmark):
    database = _database()
    events = _traffic(database.tree.keys())
    query_count = sum(1 for event in events if not event.is_update)
    update_count = len(events) - query_count
    # The HTTP leg replays against an identically-seeded twin database so
    # the in-process leg's updates cannot leak into its starting state.
    twin = _database()
    assert traffic_signature(_traffic(twin.tree.keys())) == (
        traffic_signature(events)
    ), "seeded traffic generation diverged between the twin databases"

    inproc_values, inproc_elapsed, inproc_metrics = _replay_in_process(
        ShardedDatabase(database, SHARDS, partitioner="hash"), events
    )

    sharded = ShardedDatabase(twin, SHARDS, partitioner="hash")
    with sharded:
        with ServerThread(sharded, max_inflight=64) as thread:
            client = thread.client()
            try:
                client.query(Query.membership(K))
                timed = _TimingClient(client)
                start = time.perf_counter()
                http_values = replay_traffic_http(
                    timed, events, concurrency=CONCURRENCY
                )
                http_elapsed = time.perf_counter() - start
            finally:
                client.close()

    assert len(inproc_values) == len(http_values) == len(events)
    for position, event in enumerate(events):
        if event.is_update:
            assert http_values[position] is None
            continue
        _assert_value_parity(
            inproc_values[position], http_values[position], where=(position,)
        )

    http_p50, http_p95 = _percentiles(timed.latencies)
    rows = [
        (
            "in-process",
            inproc_elapsed,
            len(events) / inproc_elapsed,
            inproc_metrics.latency_p50 * 1000.0,
            inproc_metrics.latency_p95 * 1000.0,
        ),
        (
            "loopback HTTP",
            http_elapsed,
            len(events) / http_elapsed,
            http_p50 * 1000.0,
            http_p95 * 1000.0,
        ),
    ]
    ratio = (http_p95 * 1000.0) / max(
        inproc_metrics.latency_p95 * 1000.0, 1e-9
    )
    report(
        "E15a",
        f"HTTP front door vs in-process serving, {SHARDS} shards, "
        f"n = {len(database.tree.keys())}, k = {K}",
        ("path", "wall (s)", "events/s", "p50 (ms)", "p95 (ms)"),
        rows,
        notes=(
            f"seed={SEED}, backend={get_backend().name}.  {len(events)} "
            f"events ({query_count} queries, {update_count} updates), "
            f"concurrency={CONCURRENCY}, identically-seeded twin "
            "databases; per-position query values asserted equal to 1e-9 "
            "across the wire (loss-free JSON).  HTTP latencies are "
            "client-observed over loopback (framing + codec + socket); "
            f"p95 ratio {ratio:.2f}x against the <= 3x full-scale bar."
        ),
    )
    if not SMOKE and get_backend().name == "numpy":
        assert http_p95 <= 3.0 * inproc_metrics.latency_p95, (
            f"loopback p95 {http_p95 * 1000.0:.2f} ms exceeds 3x the "
            f"in-process p95 {inproc_metrics.latency_p95 * 1000.0:.2f} ms"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e15b_load_shed_accounting(benchmark):
    database = movie_rating_scenario(scale=2.0).database
    sharded = ShardedDatabase(database, 2, partitioner="hash")
    sent = BLAST_THREADS * BLAST_PER_THREAD
    statuses = Counter()
    lock = threading.Lock()
    with sharded:
        with ServerThread(
            sharded, max_inflight=BLAST_INFLIGHT, batch_window=0.02
        ) as thread:
            client = thread.client()
            try:
                barrier = threading.Barrier(BLAST_THREADS)
                request = Query.membership(K)

                def blast():
                    barrier.wait()
                    local = Counter()
                    for _ in range(BLAST_PER_THREAD):
                        status, _body = client.query_raw(request)
                        local[status] += 1
                    with lock:
                        statuses.update(local)

                workers = [
                    threading.Thread(target=blast)
                    for _ in range(BLAST_THREADS)
                ]
                start = time.perf_counter()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                elapsed = time.perf_counter() - start
                admissions = client.metrics()["admissions"]
            finally:
                client.close()

    # Zero silent drops: every request resolved with an in-protocol
    # status, the counts add up, and the server's ledger agrees.
    assert set(statuses) <= {200, 429, 503, 504}, dict(statuses)
    assert sum(statuses.values()) == sent
    assert sum(admissions.values()) == sent, admissions
    assert statuses[200] > 0, "load shedding starved the service entirely"
    assert statuses[429] > 0, (
        f"blast of {BLAST_THREADS} threads over {BLAST_INFLIGHT} admission "
        "slots never tripped 429"
    )
    rows = [
        (
            status,
            count,
            count / sent,
            admissions.get(str(status), 0),
        )
        for status, count in sorted(statuses.items())
    ]
    report(
        "E15b",
        f"Admission control under a concurrent blast "
        f"({BLAST_THREADS} threads, max_inflight={BLAST_INFLIGHT})",
        ("status", "client count", "fraction", "server ledger"),
        rows,
        notes=(
            f"seed={SEED}, backend={get_backend().name}.  {sent} requests "
            f"in {elapsed:.2f}s ({sent / elapsed:.0f} req/s offered); "
            "429s carry Retry-After, and client counts reconcile exactly "
            "with the server's per-status admission ledger -- nothing "
            "was dropped silently."
        ),
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
