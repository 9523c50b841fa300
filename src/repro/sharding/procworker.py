"""Shard worker process entrypoint.

One worker process owns one shard of a tuple-independent database: it
opens a warm :class:`~repro.session.QuerySession` over the shard's
(pickled) :class:`~repro.andxor.columns.FlatColumns`, gathered from the
parent's store, answers summary / cache-info requests over its pipe, and
commits updates through one ``replace`` command, sent under the parent's
version check.  It carries one tuple, which the worker patches into its
committed columns with the same
:meth:`~repro.andxor.columns.FlatColumns.replace_block` the parent applies
to its store; the parent's :class:`~repro.models.sharded.ShardedDatabase`
keeps sole authority over shard versions, rows and the distinct-score
registry.

Everything in this module is importable at top level so the ``spawn`` start
method can pickle the :func:`worker_main` target; the parent side lives in
:mod:`repro.sharding.procpool`.

Wire protocol: the parent sends ``(op, payload)`` tuples and receives
``("ok", value)`` or ``("error", (exception_type_name, message))``, each
reply one pickled message (``send_bytes``), so the parent counts the
bytes it actually received.  A summary reply is ``(state id, start,
rows)``: the worker's committed state id and the live rows of its
tuple-independent prefix table from ``start`` on (all of them, or a
row-suffix delta against the table of its previous committed columns the
parent already holds; ``None`` when no row changed).  Only rows before
the table's support travel: every row past the last one shipped is
``0.0``, and the parent treats it so without materialising it.  Nothing
else of the shard travels back: the parent reads its own store.

The worker also sweeps only what changed: after a probability-only
update, the new summary is seeded from the one last shipped
(:meth:`~repro.sharding.summary.ShardRankSummary.seed_prefix_table`), so
its table reuses the rows up to the sweep's last grid line at or before
the first changed row and re-sweeps the rest.  The sweep is
prefix-deterministic, so the seeded table -- and a delta cut from it --
has the bits of a cold sweep of the new columns, the table the parent
sweeps itself when a reply cannot be paired.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.andxor.columns import FlatColumns, Row
from repro.engine import get_backend, set_backend
from repro.exceptions import ProcessPoolError
from repro.session import QuerySession


class ShardWorkerState:
    """The worker-side shard: committed columns and their session."""

    def __init__(
        self, shard_index: int, columns: FlatColumns, state_id: int
    ) -> None:
        self.shard_index = shard_index
        self.columns = columns
        self._session: Optional[QuerySession] = None
        #: Id of the worker's committed state, assigned by the parent at
        #: spawn and with every commit (never reused within a pool), so
        #: it identifies the columns a shipped table was computed from.
        self.state_id = state_id
        #: max_rank -> (state id, summary) of the last table shipped, the
        #: baseline of row-suffix delta exports.
        self._shipped: Dict[int, Tuple[int, Any]] = {}

    def session(self) -> QuerySession:
        if self._session is None:
            self._session = QuerySession(self.columns)
        return self._session

    # -- command handlers ----------------------------------------------
    def handle_summary(
        self, payload: Tuple[int, Optional[int]]
    ) -> Tuple[int, int, Any]:
        max_rank, base = payload
        summary = self.session().partial_rank_summary(max_rank)
        shipped = self._shipped.get(max_rank)
        same_rows = shipped is not None and shipped[1].columns.same_rows(
            summary.columns
        )
        if same_rows:
            # A probability-only update: the sweep re-runs only the rows
            # below the first changed row of the table shipped last.
            changed = summary.seed_prefix_table(shipped[1])
        table = summary.prefix_table
        self._shipped[max_rank] = (self.state_id, summary)
        if not same_rows or shipped[0] != base:
            return self.state_id, 0, table
        # Row m of the prefix table depends only on the first m
        # probabilities, so a probability change reaches the parent as the
        # row suffix below the first changed row, spliced onto the table
        # it already holds for ``base``.  The suffix holds live rows only:
        # it is empty when the change lies past the table's support.
        start = changed + 1
        if start > len(summary.probabilities):
            return self.state_id, start, None  # nothing changed
        return self.state_id, start, get_backend().slice_rows(table, start)

    def handle_replace(self, payload: Tuple[Any, List[Row], int]) -> int:
        key, rows, state_id = payload
        self.columns = self.columns.replace_block(key, rows, True)
        self._session = None
        self.state_id = state_id
        return state_id

    def handle_cache_info(self, _payload: Any) -> Any:
        if self._session is None:
            from repro.session import CacheInfo

            return CacheInfo(backend=get_backend().name)
        return self._session.cache_info()

    def handle_stats(self, _payload: Any) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "shard_index": self.shard_index,
            "tuples": len(self.columns.keys),
            "session_built": self._session is not None,
            "backend": get_backend().name,
            "state_id": self.state_id,
        }


def _send(connection: Any, reply: Tuple[str, Any]) -> None:
    connection.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))


def worker_main(
    connection: Any,
    shard_index: int,
    backend_name: str,
    columns: FlatColumns,
    state_id: int,
) -> None:
    """Run one shard worker until shutdown or parent disconnect."""
    set_backend(backend_name)
    state = ShardWorkerState(shard_index, columns, state_id)
    handlers = {
        "summary": state.handle_summary,
        "replace": state.handle_replace,
        "cache_info": state.handle_cache_info,
        "stats": state.handle_stats,
        "ping": lambda _payload: "pong",
        # Fault-injection hook: a slow shard.  The worker sleeps before
        # replying, so the stall delays exactly one parent request; the
        # cap keeps a corrupt schedule from wedging the worker forever.
        "stall": lambda seconds: time.sleep(min(float(seconds), 60.0)),
    }
    while True:
        try:
            op, payload = connection.recv()
        except (EOFError, OSError):  # parent went away: nothing to serve
            break
        if op == "shutdown":
            try:
                _send(connection, ("ok", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        if op == "exit-now":
            # Test hook: simulate a crash (no reply, hard exit) so the
            # parent's no-hang detection can be exercised deterministically.
            os._exit(13)
        handler = handlers.get(op)
        try:
            if handler is None:
                raise ProcessPoolError(f"unknown worker command {op!r}")
            reply = ("ok", handler(payload))
        except BaseException as error:  # ship the failure, keep serving
            reply = ("error", (type(error).__name__, str(error)))
        try:
            _send(connection, reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    try:
        connection.close()
    except OSError:  # pragma: no cover
        pass
