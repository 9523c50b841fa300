"""The HTTP front door: wire-protocol serving over loopback.

Boots the asyncio HTTP server (:class:`repro.server.ReproServer`, here via
the :class:`~repro.server.ServerThread` harness) over a sharded
movie-ratings database and drives it with the blocking
:class:`~repro.server.ReproClient`:

* a single consensus query whose wire answer matches the in-process
  session exactly (the JSON codec is loss-free);
* a micro-batch the executor's batch loop fuses into one dispatch;
* the planner's ``explain()`` fetched from ``/plans/<fingerprint>``;
* a tuple update followed by a fresh (version-bumped) answer;
* two ``/metrics`` scrapes showing per-scrape deltas;
* a deadline that cannot be met, surfaced in-protocol as 504; and
* a graceful drain: in-flight work finishes, new queries get 503.

Everything runs on loopback with the standard library only.

Run with:  PYTHONPATH=src python examples/http_serving.py
"""

from __future__ import annotations

from repro import Query, QuerySession
from repro.consensus import mean_topk_footrule
from repro.exceptions import DeadlineExceededError, ShardUnavailableError
from repro.models import ShardedDatabase
from repro.server import ServerThread
from repro.workloads.scenarios import movie_rating_scenario

K = 5
SHARDS = 2


def main() -> None:
    scenario = movie_rating_scenario(scale=2.0)  # 20 movies
    database = scenario.database
    print(f"Scenario: {scenario.description}")

    sharded = ShardedDatabase(database, SHARDS, partitioner="hash")
    with sharded, ServerThread(sharded, max_inflight=16) as thread:
        print(f"Serving on http://{thread.host}:{thread.port}\n")
        client = thread.client()

        # -- one query, loss-free across the wire ----------------------
        answer = client.query(Query.topk(K, "footrule"))
        reference, _ = mean_topk_footrule(QuerySession(database.tree), K)
        tag = "== in-process" if answer.value[0] == reference else "!="
        print(f"GET  mean_topk_footrule(k={K}) over HTTP:")
        print(f"  answer:   {', '.join(answer.value[0])}   [{tag}]")
        print(
            f"  plan:     route={answer.plan.route} "
            f"algorithm={answer.plan.algorithm}"
        )
        print(
            f"  flags:    cached={answer.cached}\n"
        )

        # -- a micro-batch fused by the executor's batch loop ----------
        batch = client.query_many(
            [
                Query.membership(K),
                Query.ranking("global", K),
                Query.expected_ranks(),
            ]
        )
        print(f"POST /query micro-batch ({len(batch)} fused):")
        for item in batch:
            print(f"  {item.kind:25s} server {item.elapsed * 1000.0:6.2f} ms")

        # -- the planner's explain(), from the plan registry -----------
        fingerprint = answer.query.fingerprint()
        explain = client.plan(fingerprint)
        print(f"\nGET /plans/{fingerprint[:12]}...:")
        for line in explain["explain"].splitlines()[:4]:
            print(f"  {line}")

        # -- an update invalidates only the owning shard ---------------
        victim = answer.value[0][0]
        versions = client.shards()
        client.update(victim, probability=0.01)
        moved = client.query(Query.topk(K, "footrule"))
        print(f"\nPOST /update: Pr({victim}) -> 0.01")
        print(f"  new answer: {', '.join(moved.value[0])}")
        print(
            "  shard versions: "
            f"{[shard['version'] for shard in versions]} -> "
            f"{[shard['version'] for shard in client.shards()]}"
        )

        # -- metrics scrapes carry deltas ------------------------------
        first = client.metrics()
        client.query(Query.membership(K))
        second = client.metrics()
        print(
            f"\nGET /metrics: {second['snapshot']['queries']} queries "
            f"total, +{second['delta']['queries']} since previous scrape "
            f"({second['elapsed_s']:.3f}s ago); admissions "
            f"{second['admissions']}"
        )
        assert first["snapshot"]["queries"] < second["snapshot"]["queries"]

        # -- deadlines surface in-protocol as 504 ----------------------
        try:
            # A kind this example has not warmed: the executor's batch
            # window alone already exceeds a microsecond deadline.
            client.query(
                Query.topk(K).median(),
                deadline_ms=0.001,
            )
        except DeadlineExceededError as error:
            print(f"\n0.001 ms deadline -> 504: {error}")

        # -- graceful drain: finish in-flight, then 503 ----------------
        health = client.health()
        print(
            f"\nGET /health: {health['status']} "
            f"({health['shard_count']} shards, "
            f"{health['open_breakers']} open breakers)"
        )
        drained = client.drain(timeout_s=5.0)
        print(f"POST /admin/drain: {drained}")
        try:
            client.query(Query.membership(K))
        except ShardUnavailableError as error:
            print(f"query after drain -> 503: {error}")
        print(f"GET /health: {client.health()['status']}")
        client.close()


if __name__ == "__main__":
    main()
