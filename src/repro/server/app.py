"""The asyncio HTTP front door over a :class:`ServingExecutor`.

:class:`ReproServer` binds an ``asyncio.start_server`` listener and maps a
small MAAS-style resource tree onto the serving layer:

==============================  =======================================
``POST /query``                 one query or a micro-batch (fused by the
                                executor's batch loop)
``POST /update``                one tuple update or BID block
                                replacement (``alternatives``)
``GET  /health``                liveness + breaker / drain state
``GET  /metrics``               full snapshot + delta since last scrape
``GET  /plans/<fingerprint>``   the planner's explain() for a seen query
``GET  /shards``                per-shard version / size / breaker state
``POST /admin/drain``           stop admitting, finish in-flight, stop
==============================  =======================================

Robustness is part of the protocol, not an afterthought: admission
control sheds load with 429 + ``Retry-After`` once ``max_inflight``
queries are in flight, per-request deadlines propagate into
``execute(deadline_ms=...)`` and surface as 504, a draining server
answers 503, malformed JSON is 400, and every admission decision is
tallied per status in :attr:`ReproServer.admissions` -- nothing is ever
dropped silently.  A shard worker outage is not an error at all: the
executor answers that shard from the parent's columns, so the answer
arrives as an exact 200.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import (
    ConsensusError,
    DeadlineExceededError,
    PlanningError,
    ReproError,
)
from repro.query.builder import ConsensusQuery
from repro.query.planner import DEFAULT_PLANNER
from repro.query.wire import loads, query_from_dict
from repro.server.http import (
    HttpError,
    HttpRequest,
    read_request,
    response_bytes,
)
from repro.serving.executor import ServingExecutor

#: How many executed queries the ``/plans`` registry remembers.
PLAN_REGISTRY_LIMIT = 1024


class ReproServer:
    """One HTTP listener fronting one serving executor.

    Accepts either a :class:`~repro.models.ShardedDatabase` (an executor
    is built over it with ``executor_options`` and owned by the server)
    or an already-configured :class:`~repro.serving.ServingExecutor`
    (borrowed; the caller keeps lifecycle ownership unless the server
    started it itself).

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real
    one after :meth:`start`.
    """

    def __init__(
        self,
        target: Union[ServingExecutor, Any],
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        retry_after_s: float = 0.05,
        **executor_options: Any,
    ) -> None:
        if isinstance(target, ServingExecutor):
            if executor_options:
                raise ValueError(
                    "executor_options only apply when constructing from a "
                    "database; got an executor and "
                    f"{sorted(executor_options)}"
                )
            self._executor = target
            self._owns_executor = False
        else:
            self._executor = ServingExecutor(target, **executor_options)
            self._owns_executor = True
        self.host = host
        self.port = port
        self._max_inflight = max(0, int(max_inflight))
        self._retry_after = max(0.0, retry_after_s)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_executor = False
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: status code -> admissions resolved with it (every ``/query``
        #: admission decision lands here exactly once).
        self.admissions: Dict[int, int] = {}
        self._seen_queries: "OrderedDict[str, ConsensusQuery]" = OrderedDict()
        self._last_scrape: Optional[Tuple[Any, float]] = None
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> ServingExecutor:
        return self._executor

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def start(self) -> "ReproServer":
        """Bind the listener (and start the executor if it isn't)."""
        if self._server is not None:
            return self
        if not self._executor.started:
            await self._executor.start()
            self._started_executor = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=1 << 20
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (``repro serve`` / examples)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def drain(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        """Stop admitting queries, wait for in-flight work, stop the pools.

        The listener stays up -- ``/health`` and ``/metrics`` keep
        answering (status ``draining``) so orchestration can watch the
        drain complete; new ``/query`` admissions get 503.
        """
        self._draining = True
        drained = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=max(0.0, timeout_s)
            )
        except asyncio.TimeoutError:
            drained = False
        if drained and (self._started_executor or self._owns_executor):
            await self._executor.stop()
        return {
            "drained": drained,
            "inflight": self._inflight,
            "pending": self._executor.pending_count(),
        }

    async def stop(self) -> None:
        """Graceful shutdown: drain, then close the listener."""
        if not self._draining:
            await self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections would otherwise outlive the loop.
        for writer in list(self._writers):
            writer.close()

    def close(self) -> None:
        """Synchronous teardown for ``finally`` blocks outside the loop."""
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._started_executor or self._owns_executor:
            self._executor.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(
                        response_bytes(
                            400,
                            {"error": str(error), "type": "HttpError"},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload, headers = await self._route(request)
                writer.write(
                    response_bytes(
                        status,
                        payload,
                        headers=headers,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(
        self, request: HttpRequest
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        parts = request.path_parts()
        try:
            if parts == ("query",):
                if request.method != "POST":
                    return 405, {"error": "POST only"}, None
                return await self._handle_query(request)
            if parts == ("update",):
                if request.method != "POST":
                    return 405, {"error": "POST only"}, None
                return await self._handle_update(request)
            if parts == ("health",):
                if request.method != "GET":
                    return 405, {"error": "GET only"}, None
                return 200, self._health_payload(), None
            if parts == ("metrics",):
                if request.method != "GET":
                    return 405, {"error": "GET only"}, None
                return 200, self._metrics_payload(), None
            if parts == ("shards",):
                if request.method != "GET":
                    return 405, {"error": "GET only"}, None
                return 200, self._shards_payload(), None
            if len(parts) == 2 and parts[0] == "plans":
                if request.method != "GET":
                    return 405, {"error": "GET only"}, None
                return self._handle_plan(parts[1], request)
            if parts == ("admin", "drain"):
                if request.method != "POST":
                    return 405, {"error": "POST only"}, None
                body = self._parse_body(request)
                timeout_s = float(body.get("timeout_s", 10.0))
                return 200, await self.drain(timeout_s), None
            return 404, {"error": f"no such resource: {request.path}"}, None
        except (ConsensusError, PlanningError) as error:
            return 400, self._error_payload(error), None
        except ReproError as error:  # pragma: no cover - defensive
            return 500, self._error_payload(error), None
        except Exception as error:  # pragma: no cover - defensive
            return 500, self._error_payload(error), None

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _parse_body(self, request: HttpRequest) -> Dict[str, Any]:
        if not request.body:
            return {}
        data = loads(request.body)
        if not isinstance(data, dict):
            raise ConsensusError(
                f"request body must be a JSON object, got "
                f"{type(data).__name__!r}"
            )
        return data

    def _parse_query(self, doc: Any) -> ConsensusQuery:
        """One query document ``{"query": {...}}`` -> ConsensusQuery."""
        if not isinstance(doc, dict) or "query" not in doc:
            raise ConsensusError(
                'a query document must be a JSON object {"query": {...}} '
                "holding query_to_dict() of a ConsensusQuery"
            )
        return query_from_dict(doc["query"])

    async def _handle_query(
        self, request: HttpRequest
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        # Admission control happens before any parsing work.
        if self._draining:
            status: int = 503
            payload: Any = {
                "error": "server is draining",
                "type": "ShardUnavailableError",
            }
            self._count_admission(status)
            return status, payload, None
        if self._inflight >= self._max_inflight:
            status = 429
            self._count_admission(status)
            return (
                status,
                {
                    "error": (
                        f"admission queue full "
                        f"({self._inflight}/{self._max_inflight} in flight)"
                    ),
                    "type": "ServerOverloadedError",
                    "retry_after": self._retry_after,
                },
                {"Retry-After": f"{self._retry_after:.3f}"},
            )
        self._inflight += 1
        self._idle.clear()
        status = 500
        try:
            body = self._parse_body(request)
            try:
                deadline_ms = body.get("deadline_ms")
                if deadline_ms is not None:
                    deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise ConsensusError(
                    f"'deadline_ms' must be a number, got "
                    f"{body.get('deadline_ms')!r}"
                ) from None
            if "queries" in body:
                docs = body["queries"]
                if not isinstance(docs, list) or not docs:
                    raise ConsensusError(
                        "'queries' must be a non-empty JSON array"
                    )
                results = await asyncio.gather(
                    *(self._execute_doc(doc, deadline_ms) for doc in docs)
                )
                statuses = [status for status, _ in results]
                status = 200 if all(s == 200 for s in statuses) else max(
                    statuses
                )
                return (
                    status,
                    {"answers": [payload for _, payload in results]},
                    None,
                )
            query = self._parse_query(body)
            status, payload = await self._execute_one(query, deadline_ms)
            return status, payload, None
        except (ConsensusError, PlanningError) as error:
            status = 400
            return status, self._error_payload(error), None
        except DeadlineExceededError as error:
            status = 504
            return status, self._error_payload(error), None
        except ReproError as error:
            status = 500
            return status, self._error_payload(error), None
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            self._count_admission(status)

    async def _execute_doc(
        self, doc: Any, deadline_ms: Optional[float]
    ) -> Tuple[int, Any]:
        """One micro-batch slot: parse + execute, failures stay in-slot."""
        try:
            query = self._parse_query(doc)
        except (ConsensusError, PlanningError) as error:
            return 400, self._error_payload(error)
        return await self._execute_one(query, deadline_ms)

    async def _execute_one(
        self, query: ConsensusQuery, deadline_ms: Optional[float]
    ) -> Tuple[int, Any]:
        """Execute one parsed query; returns (status, wire payload).

        Used by both the single and micro-batch paths; batch items report
        per-item failures in their answer slot instead of failing the
        whole batch (the executor's batch loop fuses whatever succeeds).
        """
        try:
            answer = await self._executor.execute(
                query, deadline_ms=deadline_ms
            )
        except DeadlineExceededError as error:
            return 504, self._error_payload(error)
        except (ConsensusError, PlanningError) as error:
            return 400, self._error_payload(error)
        except ReproError as error:
            return 500, self._error_payload(error)
        self._remember_query(query)
        return 200, answer.to_wire()

    async def _handle_update(
        self, request: HttpRequest
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        from repro.query.wire import decode_value

        body = self._parse_body(request)
        if "key" not in body:
            raise ConsensusError("an update needs a 'key'")
        key = decode_value(body["key"])
        alternatives = body.get("alternatives")
        if alternatives is not None:
            await self._executor.update_block(
                key,
                [
                    (decode_value(value), score, probability)
                    for value, score, probability in alternatives
                ],
            )
            return 200, {"updated": True}, None
        probability = body.get("probability")
        score = body.get("score")
        await self._executor.update(
            key,
            probability=None if probability is None else float(probability),
            score=None if score is None else float(score),
        )
        return 200, {"updated": True}, None

    def _handle_plan(
        self, fingerprint: str, request: HttpRequest
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        query = self._seen_queries.get(fingerprint)
        if query is None and "kind" in request.query:
            # Cold registry: the client may describe the query it means.
            k_text = request.query.get("k")
            if k_text and not k_text.isdigit():
                raise ConsensusError(
                    f"plan hint k must be a non-negative integer, "
                    f"got {k_text!r}"
                )
            rebuilt = ConsensusQuery.named(
                request.query["kind"], int(k_text) if k_text else None
            )
            if rebuilt.fingerprint() == fingerprint:
                query = rebuilt
        if query is None:
            return (
                404,
                {
                    "error": (
                        f"no executed query with fingerprint "
                        f"{fingerprint!r} (registry keeps the last "
                        f"{PLAN_REGISTRY_LIMIT})"
                    )
                },
                None,
            )
        session = self._executor.database.coordinator()
        plan = DEFAULT_PLANNER.plan_for(query, session, deployment="served")
        return (
            200,
            {
                "fingerprint": fingerprint,
                "kind": query.kind,
                "route": plan.route,
                "algorithm": plan.algorithm,
                "explain": plan.explain(),
            },
            None,
        )

    # ------------------------------------------------------------------
    # Read-only payloads
    # ------------------------------------------------------------------
    def _health_payload(self) -> Dict[str, Any]:
        database = self._executor.database
        return {
            "status": "draining" if self._draining else "ok",
            "shard_count": database.shard_count,
            "versions": list(database.versions()),
            "open_breakers": list(self._executor.open_breakers()),
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "pending": self._executor.pending_count(),
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        snapshot = self._executor.metrics()
        now = time.monotonic()
        delta = None
        elapsed_s = None
        if self._last_scrape is not None:
            previous, at = self._last_scrape
            delta = (snapshot - previous).to_dict()
            elapsed_s = now - at
        self._last_scrape = (snapshot, now)
        return {
            "snapshot": snapshot.to_dict(),
            "delta": delta,
            "elapsed_s": elapsed_s,
            "admissions": {
                str(status): count
                for status, count in sorted(self.admissions.items())
            },
        }

    def _shards_payload(self) -> Dict[str, Any]:
        open_breakers = set(self._executor.open_breakers())
        shards = []
        for shard in self._executor.database.shards():
            shards.append(
                {
                    "index": shard.index,
                    "version": shard.version,
                    "tuples": len(shard.keys()),
                    "breaker_open": shard.index in open_breakers,
                }
            )
        return {"shards": shards}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count_admission(self, status: int) -> None:
        self.admissions[status] = self.admissions.get(status, 0) + 1

    def _remember_query(self, query: ConsensusQuery) -> None:
        fingerprint = query.fingerprint()
        self._seen_queries[fingerprint] = query
        self._seen_queries.move_to_end(fingerprint)
        while len(self._seen_queries) > PLAN_REGISTRY_LIMIT:
            self._seen_queries.popitem(last=False)

    @staticmethod
    def _error_payload(error: Exception) -> Dict[str, Any]:
        return {"error": str(error), "type": type(error).__name__}


class ServerThread:
    """A :class:`ReproServer` on a background thread with its own loop.

    The test-and-tools harness: ``with ServerThread(database) as server``
    boots the front door on an ephemeral loopback port, yields the
    running server (``server.host`` / ``server.port``), and tears it
    down -- drain included -- on exit.  The calling thread stays free to
    drive a blocking :class:`~repro.server.client.ReproClient`.
    """

    def __init__(self, target: Any, **server_options: Any) -> None:
        self._target = target
        self._options = server_options
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def client(self, **options: Any) -> Any:
        from repro.server.client import ReproClient

        return ReproClient(self.host, self.port, **options)

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError(
                f"server thread failed to start: {self._failure!r}"
            ) from self._failure
        if self.server is None:
            raise RuntimeError("server thread did not come up in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = ReproServer(self._target, **self._options)

        async def boot() -> None:
            try:
                await server.start()
                self.server = server
            except BaseException as error:
                self._failure = error
            finally:
                self._ready.set()

        try:
            loop.run_until_complete(boot())
            if self._failure is None:
                loop.run_forever()
        except BaseException as error:  # pragma: no cover - defensive
            self._failure = error
            self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    def run_coroutine(self, coroutine: Any, timeout: float = 30.0) -> Any:
        """Run one coroutine on the server's loop from the calling thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout)

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        if self.server is not None:
            try:
                self.run_coroutine(self.server.stop())
            except Exception:
                self.server.close()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = ["PLAN_REGISTRY_LIMIT", "ReproServer", "ServerThread"]
