"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """Raised when a probabilistic model specification is invalid.

    Examples include an and/xor tree whose xor-edge probabilities sum to more
    than one, or a BID block whose alternatives share the same value.
    """


class KeyConstraintError(ModelError):
    """Raised when two alternatives of the same tuple could co-exist.

    The and/xor tree model requires the least common ancestor of any two
    leaves holding the same key to be a xor node (Definition 1 of the paper).
    """


class ProbabilityError(ModelError):
    """Raised when a probability value or distribution is invalid."""


class SnapshotTooOldError(ModelError):
    """Raised when a version-pinned snapshot read can no longer be served.

    The sharded coordinator keeps a small bounded history of per-shard
    states (version vectors, layouts, summaries); a reader pinned at a
    vector that has been evicted from that history cannot reconstruct the
    merged artifacts it needs.  Re-pin at the current version vector
    (``coordinator.at()``) to proceed.
    """


class DistanceError(ReproError):
    """Raised when a distance computation receives incompatible answers."""


class ConsensusError(ReproError):
    """Raised when a consensus answer cannot be computed for the input."""


class InfeasibleAnswerError(ConsensusError):
    """Raised when no feasible (non-zero probability) answer exists.

    For instance, asking for a median Top-k answer when every possible world
    has fewer than ``k`` tuples.
    """


class PlanningError(ConsensusError):
    """Raised when the query planner cannot build an execution plan.

    Covers malformed :class:`~repro.query.ConsensusQuery` objects,
    unsupported query/model combinations, and targets :func:`repro.connect`
    does not recognise.
    """


class EnumerationLimitError(ReproError):
    """Raised when an exact enumeration would exceed the configured limit."""


class MatchingError(ReproError):
    """Raised when an assignment / matching instance is malformed."""


class FlowError(ReproError):
    """Raised when a flow network is malformed or infeasible."""


class LineageError(ReproError):
    """Raised when a lineage formula is malformed or cannot be evaluated."""


class WorkloadError(ReproError):
    """Raised when a synthetic workload specification is invalid."""


class ProcessPoolError(ReproError):
    """Raised when process-backed shard execution fails.

    Covers protocol errors (unknown commands, commands against a closed
    pool), lost messages and request timeouts; the worker-death case is
    the more specific :class:`WorkerCrashError`.
    """


class WorkerCrashError(ProcessPoolError):
    """Raised when a shard worker process died mid-request.

    Surfaced by the pool instead of hanging on the dead worker's pipe.
    On a supervised pool the worker is respawned automatically (with
    exponential backoff) and idempotent requests retry on it.  Reads
    through a :class:`~repro.models.ShardedDatabase` never see this
    error: a shard whose worker failed is answered from the parent's
    columns instead.
    """


class ShardUnavailableError(ReproError):
    """Raised when the serving front door refuses new work.

    A draining :class:`~repro.server.ReproServer` answers new queries
    with HTTP 503, which :class:`~repro.server.ReproClient` raises as this
    error.  A shard whose worker process is down is *not* unavailable:
    its reads fail over to the parent's copy of its columns and answer
    exactly.  **Terminal for this request**: retry against a server that
    is not draining.
    """


class DeadlineExceededError(ReproError):
    """Raised when a serving query missed its per-query deadline.

    **Retryable**: the query itself is well-formed and the system is
    healthy enough to be making progress -- the answer simply did not
    arrive within ``deadline_ms``.  Retrying with a longer deadline, or
    at lower load, is expected to succeed.  The abandoned work is
    cancelled when no other coalesced waiter still wants it.
    """


class ServerOverloadedError(ReproError):
    """Raised client-side when the HTTP front door sheds load (429).

    The server's bounded admission queue was full, so the request was
    rejected *before* touching the executor.  **Retryable after
    backing off**: :attr:`retry_after` carries the server's
    ``Retry-After`` hint in seconds.
    """

    def __init__(self, message: str, retry_after: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after = retry_after
