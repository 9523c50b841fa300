"""Sharded serving: partitioned databases + async batched consensus queries.

Partitions the movie-ratings scenario across four shards, serves a
concurrent mix of consensus Top-k queries and tuple updates through the
asyncio executor, and shows that the cross-shard merged answers are exactly
the unsharded answers -- while updates invalidate only the owning shard.
The final section injects seeded worker kills into a supervised process
pool and shows the serving layer self-healing: workers respawn, every
request terminates, and reads of a shard whose worker is down fail over
to the parent's columns, so every answer stays exact.

Run with:  PYTHONPATH=src python examples/sharded_serving.py
"""

from __future__ import annotations

import asyncio

from repro import Query, QuerySession
from repro.models import ShardedDatabase
from repro.serving import ServingExecutor
from repro.sharding import FaultInjector, FaultSchedule, SupervisorPolicy
from repro.workloads.chaos import chaos_replay, chaos_summary
from repro.workloads.scenarios import movie_rating_scenario
from repro.workloads.traffic import generate_traffic, replay_traffic

K = 5
SHARDS = 4


async def main() -> None:
    scenario = movie_rating_scenario(scale=4.0)  # 40 movies
    database = scenario.database
    print(f"Scenario: {scenario.description}")

    sharded = ShardedDatabase(database, SHARDS, partitioner="hash")
    print(f"Partitioned: {sharded!r}\n")

    unsharded = QuerySession(database.tree)

    async with ServingExecutor(sharded, batch_window=0.001) as executor:
        # -- merged answers are exact ----------------------------------
        print(f"Top-{K} consensus answers (merged across {SHARDS} shards):")
        for kind in (
            "mean_topk_symmetric_difference",
            "median_topk_symmetric_difference",
            "mean_topk_footrule",
            "approximate_topk_intersection",
        ):
            answer, distance = await executor.submit(Query.named(kind, K))
            reference, _ = getattr(unsharded, kind)(K)
            tag = "== unsharded" if answer == reference else "!= unsharded"
            print(f"  {kind:35s} {', '.join(answer)}   [{tag}]")

        # -- a burst of identical queries coalesces --------------------
        await asyncio.gather(
            *(executor.submit(Query.topk(K, "footrule")) for _ in range(8))
        )

        # -- updates invalidate only the owning shard ------------------
        top_key = (await executor.submit(Query.topk(K)))[0][0]
        owner = sharded.shard_of(top_key)
        versions_before = sharded.versions()
        await executor.update(top_key, probability=0.01)
        after, _ = await executor.submit(Query.topk(K))
        print(
            f"\nAfter crushing Pr({top_key}) to 0.01 "
            f"(shard {owner} rebuilt, versions "
            f"{versions_before} -> {sharded.versions()}):"
        )
        print(f"  new mean d_Delta answer: {', '.join(after)}")

        # -- instrumentation -------------------------------------------
        snapshot = executor.metrics()
        print(
            f"\nServing metrics: {snapshot.queries} executed, "
            f"{snapshot.coalesced} coalesced "
            f"({snapshot.coalesce_rate:.0%}), "
            f"{snapshot.batches} batches "
            f"(mean size {snapshot.mean_batch_size:.1f}), "
            f"{snapshot.updates} updates, "
            f"{snapshot.invalidations} shard invalidations"
        )
        print(
            f"Latency: mean {snapshot.latency_mean * 1000:.2f} ms, "
            f"p50 {snapshot.latency_p50 * 1000:.2f} ms, "
            f"p95 {snapshot.latency_p95 * 1000:.2f} ms"
        )

        # -- per-shard cache stats + roll-up ---------------------------
        print("\nPer-shard session caches:")
        for shard in sharded.shards():
            session = shard.session()
            if session is None:
                continue
            info = session.cache_info()
            print(
                f"  shard {shard.index}: {len(shard.keys()):2d} tuples, "
                f"version {shard.version}, "
                f"{info.hits} hits / {info.misses} misses"
            )
        rollup = sharded.cache_info()
        print(
            f"Roll-up (shards + coordinator): {rollup.hits} hits / "
            f"{rollup.misses} misses across {rollup.entries} entries "
            f"(hit rate {rollup.hit_rate:.0%}, backend: {rollup.backend})"
        )

    # -- a small replayed traffic mix, end to end ----------------------
    sharded2 = ShardedDatabase(database, SHARDS, partitioner="range")
    events = generate_traffic(
        sharded2.keys(), 40, rng=17, update_ratio=0.2, k_choices=(3, K)
    )
    async with ServingExecutor(sharded2) as executor:
        await replay_traffic(executor, events, concurrency=8)
        snapshot = executor.metrics()
    print(
        f"\nReplayed {len(events)} mixed events on range-partitioned "
        f"shards: {snapshot.queries} executed, {snapshot.coalesced} "
        f"coalesced, {snapshot.updates} updates, "
        f"p95 {snapshot.latency_p95 * 1000:.2f} ms"
    )

    # -- process-backed shards: the same API, no GIL -------------------
    # executor="processes" moves every shard (database + warm session)
    # into its own worker process; the coordinator only exchanges compact
    # summaries (shared memory for large numpy prefix tables).  Prefer it
    # for large shards (n >= 10^4) on the numpy backend, where per-shard
    # kernels dominate and threads serialize on the GIL; answers are
    # identical either way.  The `with` block releases the workers.
    with ShardedDatabase(database, SHARDS, executor="processes") as pooled:
        pool = pooled.process_pool()  # spawn the workers up front
        events = generate_traffic(
            pooled.keys(), 40, rng=17, update_ratio=0.2, k_choices=(3, K)
        )
        async with ServingExecutor(pooled) as executor:
            await replay_traffic(executor, events, concurrency=8)
            snapshot = executor.metrics()
        print(
            f"\nSame replay on {pool.worker_count()} worker processes "
            f"(start method {pool.start_method!r}): "
            f"{snapshot.queries} executed, {snapshot.updates} updates"
        )
        if snapshot.ipc is not None:
            print(
                f"IPC: {snapshot.ipc.summaries} summaries exchanged, "
                f"{snapshot.ipc.total_bytes} bytes shipped "
                f"({snapshot.ipc.shm_messages} via shared memory, "
                f"{snapshot.ipc.pipe_messages} via pipe)"
            )
        # Serving reads are pinned to the shard-version vector captured
        # at request ingress (MVCC), so a concurrent update can never
        # tear a merged answer across versions.
        print(
            f"Snapshot reads: {snapshot.snapshot_reads} pinned, "
            f"{snapshot.stale_reads} answered on a superseded vector"
        )

        # -- MVCC snapshot reads + incremental re-merge ----------------
        # ``coordinator.at()`` pins a read-only view at the live shard
        # version vector: updates publish a new vector without blocking
        # the pinned reader, whose answers stay bit-identical.  The live
        # coordinator, meanwhile, re-merges through its cached
        # prefix/suffix partial products -- O(S) convolutions -- and the
        # worker pool ships only the changed shard's summary rows as a
        # row-suffix delta.
        coordinator = pooled.coordinator()
        probe_key = sorted(pooled.keys())[0]
        pinned = coordinator.at()
        row_before = pinned.rank_matrix(K).row(probe_key)
        ipc_before = pool.stats()
        merge_before = coordinator.merge_stats()
        pooled.update_tuple(probe_key, probability=0.02)
        live_row = coordinator.rank_matrix(K).row(probe_key)
        pinned_row = pinned.rank_matrix(K).row(probe_key)
        assert pinned_row == row_before, "pinned snapshot must not move"
        assert live_row != row_before, "live view must see the update"
        merge_delta = coordinator.merge_stats() - merge_before
        ipc_delta = pool.stats() - ipc_before
        print(
            f"\nAfter one update: incremental re-merges "
            f"{merge_delta.incremental_merges}, convolutions "
            f"{merge_delta.convolutions}, partials reused "
            f"{merge_delta.partials_reused}; summary deltas shipped "
            f"{ipc_delta.summary_deltas} ({ipc_delta.delta_rows_saved} "
            f"unchanged rows skipped).  The pinned reader still serves "
            f"version vector {tuple(pinned.pinned_versions)}."
        )

    # -- fault tolerance: supervised workers + exact failover -----------
    # Process pools are supervised by default: a crashed or wedged
    # worker is respawned from the parent's columns (exponential backoff
    # + seeded jitter) and guarded by a per-shard circuit breaker, and
    # the executor adds per-query deadlines (``deadline_ms=``).  While a
    # worker cannot answer, its shard's reads fail over to the parent's
    # columns, so every answer stays exact.  A seeded FaultSchedule
    # makes whole failure scenarios replayable from one integer.
    schedule = FaultSchedule.periodic("kill", start=8, every=20, count=2)
    injector = FaultInjector(schedule)
    with ShardedDatabase(
        database,
        SHARDS,
        executor="processes",
        executor_options={
            "supervisor": SupervisorPolicy(
                max_restarts=10, backoff_base=0.0, jitter=0.0, seed=17
            ),
            "fault_injector": injector,
        },
    ) as supervised:
        events = generate_traffic(
            supervised.keys(), 40, rng=17, update_ratio=0.2, k_choices=(3, K)
        )
        async with ServingExecutor(supervised) as executor:
            outcomes = await chaos_replay(executor, events, concurrency=8)
            summary = chaos_summary(outcomes)
            snapshot = executor.metrics()
        kills = injector.fired_of_kind("kill")
        print(
            f"\nChaos replay with {len(kills)} injected worker kills "
            f"(schedule {schedule.signature()}): "
            f"{summary['completed']}/{summary['events']} events completed "
            f"({summary['answered']} answers)"
        )
        print(
            f"Self-healing: {snapshot.worker_restarts} worker restarts, "
            f"{snapshot.breaker_open} breaker trips, "
            f"{snapshot.failover_served} shard reads failed over"
        )


if __name__ == "__main__":
    asyncio.run(main())
