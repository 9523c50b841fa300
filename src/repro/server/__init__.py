"""The HTTP front door: an asyncio wire protocol over the serving layer.

Everything below this package is in-process; :mod:`repro.server` puts a
socket in front of it, standard library only.  :class:`ReproServer`
binds ``asyncio.start_server`` over a
:class:`~repro.serving.ServingExecutor` (or builds one from a
:class:`~repro.models.ShardedDatabase`), speaking a hand-rolled
HTTP/1.1 JSON dialect with loss-free value encoding
(:mod:`repro.query.wire`).  :class:`ReproClient` is the matching
blocking client with typed error mapping, and :class:`ServerThread`
boots a server on a background thread for tests, benchmarks and the
examples.

Admission control (429 + ``Retry-After``), per-request deadlines (504)
and graceful drain (503) are part of the protocol -- see
:mod:`repro.server.app`.
"""

from repro.server.app import PLAN_REGISTRY_LIMIT, ReproServer, ServerThread
from repro.server.client import ReproClient
from repro.server.http import HttpError, HttpRequest, read_request, response_bytes

__all__ = [
    "HttpError",
    "HttpRequest",
    "PLAN_REGISTRY_LIMIT",
    "ReproClient",
    "ReproServer",
    "ServerThread",
    "read_request",
    "response_bytes",
]
