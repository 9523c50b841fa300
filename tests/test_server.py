"""The HTTP front door: wire format, endpoints, and the failure surface."""

import asyncio
import json
import math
import socket
import threading
import time

import pytest

from conftest import BENCHMARK_READS
from repro.consensus import mean_topk_footrule
from repro.engine import numpy_available, use_backend
from repro.exceptions import (
    ConsensusError,
    DeadlineExceededError,
    ServerOverloadedError,
)
from repro.models import BlockIndependentDatabase, ShardedDatabase
from repro.query import NAMED_KINDS, ConsensusQuery, Query
from repro.query.answers import PlanSummary, QueryAnswer
from repro.query.wire import (
    decode_value,
    dumps,
    encode_value,
    loads,
    query_from_dict,
    query_to_dict,
)
from repro.serving import ServingExecutor
from repro.serving.metrics import ServingMetrics, ServingMetricsSnapshot
from repro.server import ReproClient, ReproServer, ServerThread
from repro.server.http import HttpError
from repro.session import QuerySession
from repro.sharding.merge import MergeStatsSnapshot
from repro.sharding.procpool import IpcSnapshot
from repro.workloads import (
    generate_traffic,
    random_tuple_independent_database,
    replay_traffic,
    replay_traffic_http,
    traffic_signature,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

K = 3
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _close(a, b, tolerance=1e-9):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _close(x, y, tolerance) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _close(a[key], b[key], tolerance) for key in a
        )
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, abs_tol=tolerance)
    return a == b


def make_sharded(count=24, shard_count=4, seed=21):
    database = random_tuple_independent_database(count, rng=seed)
    return database, ShardedDatabase(database, shard_count)


# ----------------------------------------------------------------------
# Loss-free value codec
# ----------------------------------------------------------------------
class TestWireCodec:
    SAMPLES = [
        None,
        True,
        7,
        -1.5,
        "t17",
        ("t1", "t2", "t3"),
        (("t1", "t2"), 0.25),
        ["flat", ["nested", 1]],
        {"plain": 1, "keys": [2.0]},
        {1: 0.5, ("t1", 2): 0.25},
        {"__repro__": "looks-like-a-tag"},
        frozenset({("t1",), ("t2",)}),
        {"t1", "t2"},
        float("inf"),
        float("-inf"),
        (),
        {},
    ]

    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_roundtrip_through_strict_json(self, value):
        document = json.dumps(encode_value(value))
        assert decode_value(json.loads(document)) == value

    def test_nan_roundtrips(self):
        back = decode_value(json.loads(json.dumps(encode_value(float("nan")))))
        assert math.isnan(back)

    def test_numpy_scalars_narrow(self):
        numpy = pytest.importorskip("numpy")
        assert encode_value(numpy.float64(0.25)) == 0.25
        assert encode_value(numpy.int64(4)) == 4
        assert encode_value((numpy.float64(0.5),)) == {
            "__repro__": "tuple",
            "items": [0.5],
        }

    def test_set_encoding_is_canonical(self):
        first = json.dumps(encode_value({"b", "a", "c"}))
        second = json.dumps(encode_value({"c", "b", "a"}))
        assert first == second

    def test_unencodable_value_raises(self):
        with pytest.raises(ConsensusError):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(ConsensusError):
            decode_value({"__repro__": "no_such_tag", "items": []})

    def test_malformed_json_text_raises(self):
        with pytest.raises(ConsensusError):
            loads("not json at all {")

    if HAVE_HYPOTHESIS:
        _scalars = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**40), 2**40),
            st.floats(allow_nan=False),
            st.text(max_size=8),
        )
        _values = st.recursive(
            _scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.tuples(children, children),
                st.dictionaries(st.text(max_size=4), children, max_size=4),
                st.dictionaries(
                    st.tuples(st.text(max_size=3), st.integers(0, 9)),
                    children,
                    max_size=3,
                ),
                st.frozensets(
                    st.one_of(st.integers(0, 99), st.text(max_size=4)),
                    max_size=4,
                ),
            ),
            max_leaves=12,
        )

        @given(value=_values)
        @settings(max_examples=60, deadline=None)
        def test_property_roundtrip(self, value):
            assert decode_value(json.loads(json.dumps(encode_value(value)))) == value


# ----------------------------------------------------------------------
# Query / answer JSON round-trips (satellite: 10 kinds x backends)
# ----------------------------------------------------------------------
def _wire_roundtrip(query):
    return query_from_dict(loads(dumps(query_to_dict(query))))


class TestRequestJson:
    @pytest.mark.parametrize("kind", NAMED_KINDS)
    def test_every_kind_roundtrips(self, kind):
        query = Query.named(
            kind, K, candidates=(("t1", "t2"), ("t2", "t1")), weight=0.5
        )
        assert _wire_roundtrip(query) == query

    def test_json_is_canonical(self):
        query = Query.named("global_topk", 2, b=1, a=(2, 3))
        text = dumps(query_to_dict(query))
        assert text == dumps(query_to_dict(_wire_roundtrip(query)))

    def test_malformed_documents_raise(self):
        with pytest.raises(ConsensusError):
            query_from_dict(["not", "an", "object"])
        with pytest.raises(ConsensusError):
            query_from_dict({"family": 7})
        with pytest.raises(ConsensusError):
            query_from_dict({"family": "ranking", "k": "three"})
        with pytest.raises(ConsensusError):
            query_from_dict({"family": "membership", "k": 2, "params": 9})

    def test_query_dict_roundtrips_declarative_fields(self):
        query = Query.topk(k=5).distance("kendall").epsilon(0.05)
        decoded = query_from_dict(query_to_dict(query))
        assert decoded == query
        assert decoded.fingerprint() == query.fingerprint()

    def test_query_dict_fingerprint_mismatch_raises(self):
        document = query_to_dict(Query.topk(k=3))
        document["fingerprint"] = "0" * 16
        with pytest.raises(ConsensusError):
            query_from_dict(document)


class TestAnswerJson:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", NAMED_KINDS)
    def test_every_kind_roundtrips_on_backend(self, kind, backend):
        with use_backend(backend):
            _, sharded = make_sharded()
            with sharded:

                async def scenario():
                    async with ServingExecutor(sharded) as executor:
                        return await executor.execute(Query.named(kind, K))

                answer = asyncio.run(scenario())
            text = answer.to_json()
            decoded = QueryAnswer.from_json(text)
            assert _close(decoded.value, answer.value)
            assert decoded.query == answer.query
            assert isinstance(decoded.plan, PlanSummary)
            assert decoded.plan.route == answer.plan.route
            assert decoded.plan.algorithm == answer.plan.algorithm
            assert decoded.plan.paired == answer.plan.paired
            assert decoded.plan.hardness.paper == answer.plan.hardness.paper
            assert (decoded.stale, decoded.degraded, decoded.cached) == (
                answer.stale,
                answer.degraded,
                answer.cached,
            )
            assert _close(decoded.answer, answer.answer)
            assert _close(decoded.expected_distance, answer.expected_distance)
            if answer.estimate is not None:
                assert decoded.estimate.samples == answer.estimate.samples
                assert _close(decoded.estimate.mean, answer.estimate.mean)
                assert decoded.confidence_interval() is not None
            # Re-encoding the decoded answer is byte-identical.
            assert decoded.to_json() == text


# ----------------------------------------------------------------------
# Metrics snapshot dict round-trip (incl. ipc + robustness counters)
# ----------------------------------------------------------------------
class TestMetricsSnapshotDict:
    def _snapshot(self, ipc=None, merge=None):
        metrics = ServingMetrics()
        metrics.count_query("global_topk")
        metrics.count_query("top_k_membership")
        metrics.count_batch(2)
        metrics.latency.record(0.004)
        metrics.deadline_exceeded = 1
        metrics.breaker_open = 2
        metrics.failover_served = 4
        metrics.result_cache_hits = 6
        metrics.fused_plans = 7
        return metrics.snapshot(ipc=ipc, merge=merge)

    def test_roundtrip_through_json(self):
        snapshot = self._snapshot(
            ipc=IpcSnapshot(
                commands=9, pipe_bytes=4096, restarts=2, workers=4
            ),
            merge=MergeStatsSnapshot(merges=3, incremental_merges=2),
        )
        document = json.loads(json.dumps(snapshot.to_dict()))
        decoded = ServingMetricsSnapshot.from_dict(document)
        assert decoded == snapshot
        assert isinstance(decoded.ipc, IpcSnapshot)
        assert isinstance(decoded.merge, MergeStatsSnapshot)
        assert decoded.worker_restarts == 2

    def test_decoding_takes_exactly_the_emitted_keys(self):
        document = self._snapshot(ipc=IpcSnapshot(commands=2)).to_dict()
        with pytest.raises(TypeError):
            ServingMetricsSnapshot.from_dict({**document, "extra": 1})
        del document["fused_plans"]
        with pytest.raises(TypeError):
            ServingMetricsSnapshot.from_dict(document)

    def test_roundtrip_without_nested_snapshots(self):
        snapshot = self._snapshot()
        decoded = ServingMetricsSnapshot.from_dict(snapshot.to_dict())
        assert decoded == snapshot
        assert decoded.ipc is None and decoded.merge is None

    def test_deltas_survive_decoding(self):
        before = self._snapshot(ipc=IpcSnapshot(commands=2))
        after = self._snapshot(ipc=IpcSnapshot(commands=9))
        delta = ServingMetricsSnapshot.from_dict(
            after.to_dict()
        ) - ServingMetricsSnapshot.from_dict(before.to_dict())
        assert delta.queries == 0
        assert delta.ipc.commands == 7
        assert dict(delta.queries_by_kind) == {
            "global_topk": 0,
            "top_k_membership": 0,
        }


# ----------------------------------------------------------------------
# Live server: endpoints
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    database, sharded = make_sharded()
    with sharded:
        with ServerThread(sharded, max_inflight=16) as thread:
            client = thread.client()
            try:
                yield database, sharded, thread, client
            finally:
                client.close()


class TestEndpoints:
    def test_health_and_shards(self, server):
        database, sharded, _thread, client = server
        health = client.health()
        assert health["status"] == "ok"
        assert health["shard_count"] == sharded.shard_count
        assert health["open_breakers"] == []
        shards = client.shards()
        assert [s["index"] for s in shards] == list(range(sharded.shard_count))
        assert sum(s["tuples"] for s in shards) == len(database.tree.keys())
        assert all(not s["breaker_open"] for s in shards)

    def test_query_matches_in_process_answer(self, server):
        database, _sharded, _thread, client = server
        oracle = QuerySession(database.tree)
        answer = client.query(Query.named("mean_topk_footrule", K))
        assert _close(answer.value, mean_topk_footrule(oracle, K))
        assert answer.deployment == "served"
        assert isinstance(answer.plan, PlanSummary)

    def test_declarative_query_document(self, server):
        _database, _sharded, _thread, client = server
        query = Query.topk(k=K).distance("footrule")
        answer = client.query(query)
        assert answer.query == query

    def test_result_cache_flag_survives_wire(self, server):
        _database, _sharded, _thread, client = server
        request = Query.named("top_k_membership", K)
        first = client.query(request)
        second = client.query(request)
        assert not first.cached
        assert second.cached
        assert _close(first.value, second.value)

    def test_micro_batch_with_partial_failure(self, server):
        _database, _sharded, _thread, client = server
        results = client.query_many(
            [
                Query.named("mean_topk_footrule", 2),
                Query.named("global_topk", K),
                {"kind": "no_such_kind"},
            ]
        )
        assert isinstance(results[0], QueryAnswer)
        assert isinstance(results[1], QueryAnswer)
        assert isinstance(results[2], ConsensusError)

    def test_metrics_scrape_and_delta(self, server):
        _database, _sharded, _thread, client = server
        client.query(Query.named("global_topk", K))
        first = client.metrics()
        decoded = ServingMetricsSnapshot.from_dict(first["snapshot"])
        assert decoded.queries >= 1
        client.query(Query.named("mean_topk_intersection", K))
        second = client.metrics()
        assert second["delta"] is not None
        assert second["elapsed_s"] > 0
        delta = ServingMetricsSnapshot.from_dict(second["delta"])
        assert delta.queries == 1
        admissions = second["admissions"]
        assert admissions.get("200", 0) >= 2

    def test_plans_endpoint(self, server):
        _database, _sharded, _thread, client = server
        answer = client.query(Query.named("approximate_topk_kendall", K))
        fingerprint = answer.query.fingerprint()
        plan = client.plan(fingerprint)
        assert plan["fingerprint"] == fingerprint
        assert plan["route"] == answer.plan.route
        assert "ConsensusQuery" in plan["explain"]
        with pytest.raises(ConsensusError):
            client.plan("f" * 16)

    def test_plans_cold_registry_rebuild(self, server):
        _database, _sharded, _thread, client = server
        query = Query.named("expected_rank_table")
        plan = client.plan(query.fingerprint(), kind="expected_rank_table")
        assert plan["kind"] == "expected_rank_table"

    def test_plans_cold_registry_bad_hint_is_400(self, server):
        _database, _sharded, _thread, client = server
        fingerprint = Query.named("mean_topk_footrule", K).fingerprint()
        for hint, message in (
            ("kind=no_such_kind&k=3", "unknown query kind"),
            ("kind=mean_topk_footrule", "requires an answer size"),
            ("kind=mean_topk_footrule&k=abc", "non-negative integer"),
        ):
            status, _headers, body = client.request(
                "GET", f"/plans/{fingerprint}?{hint}"
            )
            assert status == 400, hint
            assert body["type"] == "ConsensusError", hint
            assert message in body["error"], hint

    def test_update_over_the_wire(self, server):
        database, sharded, _thread, client = server
        key = sorted(database.tree.keys())[0]
        before = list(sharded.versions())
        result = client.update(key, probability=0.42)
        assert result["updated"] is True
        after = list(sharded.versions())
        assert after[sharded.shard_of(key)] == before[sharded.shard_of(key)] + 1

    def test_block_update_served_and_over_the_wire(self):
        """A 4-shard BID database takes one block replacement through
        the serving executor and one over HTTP; every benchmark read then
        matches an unsharded session over the replaced blocks."""
        blocks = [
            (
                f"s{i}",
                [(f"a{i}", 10.0 * i + 1, 0.4), (f"b{i}", 10.0 * i + 2, 0.5)],
            )
            for i in range(12)
        ]
        served = ("s3", [("c3", 500.0, 0.6), ("d3", 0.5, 0.3)])
        wired = ("s8", [((1, "x"), 7.5, 0.9)])
        sharded = ShardedDatabase(BlockIndependentDatabase(blocks), 4)

        async def serve():
            async with ServingExecutor(sharded) as executor:
                await executor.update_block(*served)
                return executor.metrics().updates

        assert asyncio.run(serve()) == 1
        with ServerThread(sharded) as thread:
            client = thread.client()
            try:
                assert client.update_block(*wired) == {"updated": True}
                snapshot = ServingMetricsSnapshot.from_dict(
                    client.metrics()["snapshot"]
                )
                assert snapshot.updates == 1
                values = [
                    client.query(query).value for query in BENCHMARK_READS
                ]
            finally:
                client.close()
        replaced = dict([served, wired])
        oracle = QuerySession(
            BlockIndependentDatabase(
                [(key, replaced.get(key, rows)) for key, rows in blocks]
            ).columns
        )
        for query, value in zip(BENCHMARK_READS, values):
            assert _close(value, query.execute(oracle).value)

    def test_unknown_resource_404_and_bad_method_405(self, server):
        _database, _sharded, _thread, client = server
        status, _headers, _body = client.request("GET", "/no/such/thing")
        assert status == 404
        status, _headers, _body = client.request("GET", "/query")
        assert status == 405


# ----------------------------------------------------------------------
# Failure surface
# ----------------------------------------------------------------------
class TestFailureSurface:
    def test_malformed_json_is_400(self, server):
        _database, _sharded, thread, _client = server
        with socket.create_connection((thread.host, thread.port)) as raw:
            raw.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 8\r\nConnection: close\r\n\r\nnot json"
            )
            response = raw.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_malformed_framing_is_400(self, server):
        _database, _sharded, thread, _client = server
        with socket.create_connection((thread.host, thread.port)) as raw:
            raw.sendall(b"BROKEN\r\n\r\n")
            response = raw.recv(65536)
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_bad_query_kind_is_400_typed(self, server):
        _database, _sharded, _thread, client = server
        with pytest.raises(ConsensusError):
            client.query({"kind": "no_such_kind"})
        # A kind-string body names the one accepted document form.
        status, body = client.query_raw({"kind": "global_topk", "k": K})
        assert status == 400
        assert body["type"] == "ConsensusError"
        assert '{"query": {...}}' in body["error"]

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_epsilon", "x"),
            ("confidence_level", "x"),
            ("sample_cap", "x"),
            ("sample_cap", 2.5),
            ("k", True),
        ],
    )
    def test_malformed_query_field_is_400(self, server, field, value, batched):
        _database, _sharded, _thread, client = server
        document = query_to_dict(Query.topk(k=3).distance("footrule"))
        del document["fingerprint"]
        document[field] = value
        if batched:
            status, _headers, body = client.request(
                "POST", "/query", {"queries": [{"query": document}]}
            )
            body = body["answers"][0]
        else:
            status, body = client.query_raw({"query": document})
        assert status == 400
        assert body["type"] == "ConsensusError"

    def test_deadline_propagates_as_504(self, server):
        _database, _sharded, _thread, client = server
        with pytest.raises(DeadlineExceededError):
            client.query(
                Query.named("approximate_topk_kendall", K),
                deadline_ms=1e-6,
            )
        metrics = client.metrics()
        assert metrics["admissions"].get("504", 0) >= 1

    def test_saturated_queue_sheds_with_429(self):
        _database, sharded = make_sharded(seed=23)
        with sharded:
            with ServerThread(sharded, max_inflight=0) as thread:
                client = thread.client()
                try:
                    with pytest.raises(ServerOverloadedError) as info:
                        client.query(Query.named("global_topk", K))
                    assert info.value.retry_after > 0
                    status, headers, _body = client.request(
                        "POST",
                        "/query",
                        {"query": query_to_dict(Query.ranking("global", K))},
                    )
                    assert status == 429
                    assert "retry-after" in headers
                finally:
                    client.close()

    def test_concurrent_saturation_accounts_every_admission(self):
        _database, sharded = make_sharded(seed=24)
        with sharded:
            with ServerThread(
                sharded, max_inflight=1, batch_window=0.05
            ) as thread:
                client = thread.client()
                attempts = 12
                statuses = []
                lock = threading.Lock()
                barrier = threading.Barrier(attempts)

                def blast():
                    barrier.wait()
                    status, _body = client.query_raw(
                        Query.named("top_k_membership", K)
                    )
                    with lock:
                        statuses.append(status)

                threads = [
                    threading.Thread(target=blast) for _ in range(attempts)
                ]
                for worker in threads:
                    worker.start()
                for worker in threads:
                    worker.join()
                client.close()
                admissions = thread.server.admissions
        assert len(statuses) == attempts
        assert set(statuses) <= {200, 429, 503, 504}
        assert statuses.count(429) > 0
        assert statuses.count(200) > 0
        # Every admission decision is accounted; nothing dropped silently.
        assert sum(admissions.values()) == attempts

    def test_breaker_open_on_every_shard_still_answers_exactly(self):
        database = random_tuple_independent_database(24, rng=25)
        query = Query.named("top_k_membership", K)
        reference = QuerySession(database.columns).top_k_membership(K)
        options = {"breaker_threshold": 1, "breaker_cooldown_s": 60.0}
        with ShardedDatabase(
            database, 4, executor="processes", executor_options=options
        ) as sharded:
            # Spawn the workers before the server thread exists.
            pool = sharded.process_pool()
            executor = ServingExecutor(sharded)
            with ServerThread(executor) as thread:
                client = thread.client()
                try:
                    for shard in pool.shard_indices():
                        pool._record_read(shard, failed=True)
                    answer = client.query(query)
                    assert set(answer.value) == set(reference)
                    for key, probability in reference.items():
                        assert _close(answer.value[key], probability)
                    health = client.health()
                    assert health["open_breakers"] == pool.shard_indices()
                    metrics = client.metrics()
                    assert metrics["snapshot"]["failover_served"] == len(
                        pool.shard_indices()
                    )
                    assert metrics["admissions"] == {"200": 1}
                finally:
                    client.close()
            executor.close()

    def test_graceful_drain_completes_inflight(self):
        _database, sharded = make_sharded(seed=27)
        with sharded:
            with ServerThread(
                sharded, max_inflight=8, batch_window=0.2
            ) as thread:
                client = thread.client()
                slow_result = {}

                def slow_query():
                    slow_result["status"], slow_result["body"] = (
                        client.query_raw(
                            Query.named("mean_topk_footrule", K)
                        )
                    )

                worker = threading.Thread(target=slow_query)
                worker.start()
                deadline = time.monotonic() + 5.0
                while (
                    thread.server.inflight == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                drain_client = thread.client()
                report = drain_client.drain(timeout_s=10.0)
                worker.join(timeout=10.0)
                assert report["drained"] is True
                assert report["inflight"] == 0
                # The in-flight query finished with a real answer.
                assert slow_result["status"] == 200
                # New work is refused while draining.
                status, body = drain_client.query_raw(
                    Query.named("mean_topk_footrule", K)
                )
                assert status == 503
                assert body["type"] == "ShardUnavailableError"
                assert drain_client.health()["status"] == "draining"
                drain_client.close()
                client.close()


# ----------------------------------------------------------------------
# HTTP traffic replay parity (satellite: workloads adapter)
# ----------------------------------------------------------------------
class TestHttpTrafficReplay:
    def test_replay_parity_with_in_process(self):
        keys = sorted(
            random_tuple_independent_database(24, rng=28).tree.keys()
        )
        events_http = generate_traffic(
            keys, 40, rng=91, update_ratio=0.2, k_choices=(2, 3)
        )
        events_local = generate_traffic(
            keys, 40, rng=91, update_ratio=0.2, k_choices=(2, 3)
        )
        # Seeded streams are structurally identical across processes.
        assert traffic_signature(events_http) == traffic_signature(
            events_local
        )

        _, sharded_local = make_sharded(seed=28)
        with sharded_local:

            async def scenario():
                async with ServingExecutor(sharded_local) as executor:
                    return await replay_traffic(executor, events_local)

            local_values = asyncio.run(scenario())

        _, sharded_http = make_sharded(seed=28)
        with sharded_http:
            with ServerThread(sharded_http, max_inflight=32) as thread:
                client = thread.client()
                try:
                    http_values = replay_traffic_http(
                        client, events_http, concurrency=8
                    )
                finally:
                    client.close()

        assert len(http_values) == len(local_values)
        for position, (local, remote) in enumerate(
            zip(local_values, http_values)
        ):
            assert _close(local, remote), position
