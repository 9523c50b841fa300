"""A blocking HTTP client for the front door (stdlib sockets only).

:class:`ReproClient` speaks the same minimal HTTP/1.1 dialect as the
server: one JSON document per request/response, ``Content-Length``
framing, keep-alive.  Connections are pooled behind a lock, so a single
client instance is safe to share across threads -- that is exactly what
:func:`~repro.workloads.replay_traffic_http` does when it blasts a
seeded traffic stream at a server from a thread pool.

Typed error mapping mirrors the server's status mapping back into the
library's exception hierarchy: 429 raises
:class:`~repro.exceptions.ServerOverloadedError` (with the server's
``Retry-After`` hint attached), 504 raises
:class:`~repro.exceptions.DeadlineExceededError`, 503 raises
:class:`~repro.exceptions.ShardUnavailableError`, and 400 raises
:class:`~repro.exceptions.ConsensusError` -- so remote callers handle
failures with the same ``except`` clauses as in-process callers.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import (
    ConsensusError,
    DeadlineExceededError,
    ReproError,
    ServerOverloadedError,
    ShardUnavailableError,
)
from repro.query.answers import QueryAnswer
from repro.query.builder import ConsensusQuery
from repro.query.wire import dumps, encode_value, loads, query_to_dict


class _Connection:
    """One pooled keep-alive socket with a tiny buffered reader."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        head, _, rest = self._buffer.partition(marker)
        self._buffer = rest
        return head

    def _read_exactly(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def round_trip(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + payload)
        status_blob = self._read_until(b"\r\n\r\n").decode("latin-1")
        lines = status_blob.split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        return status, headers, self._read_exactly(length)


class ReproClient:
    """Blocking JSON client for one :class:`~repro.server.ReproServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._pool: List[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _checkout(self) -> _Connection:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return _Connection(self.host, self.port, self.timeout)

    def _checkin(self, connection: _Connection, reusable: bool) -> None:
        if not reusable or self._closed:
            connection.close()
            return
        with self._lock:
            if self._closed or len(self._pool) >= 32:
                connection.close()
            else:
                self._pool.append(connection)

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Dict[str, str], Any]:
        """One HTTP round trip; returns (status, headers, decoded body).

        A connection that died while idle in the pool is retried once on
        a fresh socket; no application-level retries happen here.
        """
        body = None if payload is None else dumps(payload).encode("utf-8")
        last_error: Optional[Exception] = None
        for _attempt in range(2):
            connection = self._checkout()
            try:
                status, headers, raw = connection.round_trip(
                    method, path, body
                )
            except (ConnectionError, OSError, socket.timeout) as error:
                connection.close()
                last_error = error
                continue
            keep = headers.get("connection", "keep-alive") != "close"
            self._checkin(connection, keep)
            return status, headers, loads(raw) if raw else None
        raise ConnectionError(
            f"request to {self.host}:{self.port} failed: {last_error}"
        )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Typed error mapping
    # ------------------------------------------------------------------
    @staticmethod
    def _raise_for(status: int, body: Any) -> None:
        message = "server error"
        if isinstance(body, dict):
            message = str(body.get("error", message))
        if status == 429:
            retry_after = 0.1
            if isinstance(body, dict):
                try:
                    retry_after = float(body.get("retry_after", retry_after))
                except (TypeError, ValueError):
                    pass
            raise ServerOverloadedError(message, retry_after=retry_after)
        if status == 504:
            raise DeadlineExceededError(message)
        if status == 503:
            raise ShardUnavailableError(message)
        if status == 400:
            raise ConsensusError(message)
        raise ReproError(f"HTTP {status}: {message}")

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    @staticmethod
    def _query_document(
        query: Union[ConsensusQuery, Dict[str, Any]]
    ) -> Dict[str, Any]:
        if isinstance(query, ConsensusQuery):
            return {"query": query_to_dict(query)}
        if isinstance(query, dict):
            return query
        raise TypeError(
            f"cannot send a {type(query).__name__!r} as a query"
        )

    def query_raw(
        self,
        query: Union[ConsensusQuery, Dict[str, Any]],
        deadline_ms: Optional[float] = None,
    ) -> Tuple[int, Any]:
        """POST one query; returns (status, body) without raising."""
        document = dict(self._query_document(query))
        if deadline_ms is not None:
            document["deadline_ms"] = deadline_ms
        status, _headers, body = self.request("POST", "/query", document)
        return status, body

    def query(
        self,
        query: Union[ConsensusQuery, Dict[str, Any]],
        deadline_ms: Optional[float] = None,
    ) -> QueryAnswer:
        """POST one query and decode the full :class:`QueryAnswer`."""
        status, body = self.query_raw(query, deadline_ms=deadline_ms)
        if status != 200:
            self._raise_for(status, body)
        return QueryAnswer.from_wire(body)

    def query_many(
        self,
        queries: List[Union[ConsensusQuery, Dict[str, Any]]],
        deadline_ms: Optional[float] = None,
    ) -> List[Union[QueryAnswer, ReproError]]:
        """POST a micro-batch; the executor's batch loop fuses it.

        Per-item failures come back as exception *instances* in their
        slot (the batch itself still round-trips), so callers can zip
        answers against the submitted list.
        """
        document: Dict[str, Any] = {
            "queries": [self._query_document(query) for query in queries]
        }
        if deadline_ms is not None:
            document["deadline_ms"] = deadline_ms
        status, _headers, body = self.request("POST", "/query", document)
        if not isinstance(body, dict) or "answers" not in body:
            self._raise_for(status, body)
        typed = {
            "DeadlineExceededError": DeadlineExceededError,
            "ShardUnavailableError": ShardUnavailableError,
            "ServerOverloadedError": ServerOverloadedError,
            "ConsensusError": ConsensusError,
            "PlanningError": ConsensusError,
        }
        results: List[Union[QueryAnswer, ReproError]] = []
        for item in body["answers"]:
            if isinstance(item, dict) and "value" in item:
                results.append(QueryAnswer.from_wire(item))
            else:
                message = "batch item failed"
                kind = ""
                if isinstance(item, dict):
                    message = str(item.get("error", message))
                    kind = str(item.get("type", ""))
                results.append(typed.get(kind, ReproError)(message))
        return results

    def update(
        self,
        key: Any,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> Dict[str, Any]:
        """POST one tuple update (loss-free key encoding)."""
        return self._post_update(
            {
                "key": encode_value(key),
                "probability": probability,
                "score": score,
            }
        )

    def update_block(
        self,
        key: Any,
        alternatives: Sequence[Tuple[Any, Optional[float], float]],
    ) -> Dict[str, Any]:
        """POST one BID block replacement: its ``(value, score,
        probability)`` alternatives (loss-free key and value encoding)."""
        return self._post_update(
            {
                "key": encode_value(key),
                "alternatives": [
                    [encode_value(value), score, probability]
                    for value, score, probability in alternatives
                ],
            }
        )

    def _post_update(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        status, _headers, body = self.request("POST", "/update", payload)
        if status != 200:
            self._raise_for(status, body)
        return body

    def health(self) -> Dict[str, Any]:
        status, _headers, body = self.request("GET", "/health")
        if status != 200:
            self._raise_for(status, body)
        return body

    def metrics(self) -> Dict[str, Any]:
        status, _headers, body = self.request("GET", "/metrics")
        if status != 200:
            self._raise_for(status, body)
        return body

    def shards(self) -> List[Dict[str, Any]]:
        status, _headers, body = self.request("GET", "/shards")
        if status != 200:
            self._raise_for(status, body)
        return body["shards"]

    def plan(self, fingerprint: str, **params: str) -> Dict[str, Any]:
        path = f"/plans/{fingerprint}"
        if params:
            path += "?" + "&".join(f"{k}={v}" for k, v in params.items())
        status, _headers, body = self.request("GET", path)
        if status == 404:
            raise ConsensusError(
                str(body.get("error", "unknown plan fingerprint"))
            )
        if status != 200:
            self._raise_for(status, body)
        return body

    def drain(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        status, _headers, body = self.request(
            "POST", "/admin/drain", {"timeout_s": timeout_s}
        )
        if status != 200:
            self._raise_for(status, body)
        return body


__all__ = ["ReproClient"]
