"""The ``repro`` command-line client for the HTTP front door.

Subcommands mirror the server's resource tree: ``serve`` boots a
front door over a named workload scenario, ``query`` POSTs one query
and prints the decoded answer with its provenance, ``explain`` fetches
the planner's explain() for a query, ``top`` renders a per-kind
latency/throughput table from two ``/metrics`` scrapes, and ``health``
reports liveness and breaker state.

Dependency policy: standard library only.  ``argparse`` parses the
commands and tables render as aligned plain text, so the client runs
wherever the package does.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ReproError

EXIT_OK = 0
EXIT_ERROR = 1


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    out: Any = None,
) -> None:
    """One table as aligned plain text."""
    out = out if out is not None else sys.stdout
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells))
        if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    print(title, file=out)
    print(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)), file=out
    )
    print("  ".join("-" * w for w in widths), file=out)
    for row in cells:
        print(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)), file=out
        )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _client(args: argparse.Namespace) -> Any:
    from repro.server.client import ReproClient

    return ReproClient(args.host, args.port, timeout=args.timeout)


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """``name=value`` pairs; values parse as JSON, falling back to text."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep:
            raise ReproError(
                f"--param wants name=value, got {pair!r}"
            )
        try:
            params[name] = json.loads(text)
        except json.JSONDecodeError:
            params[name] = text
    return params


# ----------------------------------------------------------------------
# Subcommand cores
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    from repro.models import ShardedDatabase
    from repro.server.app import ReproServer
    from repro.workloads import scenario as build_scenario

    built = build_scenario(args.scenario, rng=args.seed, scale=args.scale)
    sharded = ShardedDatabase(
        built.database, args.shards, executor=args.executor
    )
    options: Dict[str, Any] = {}
    if args.deadline_ms is not None:
        options["deadline_ms"] = args.deadline_ms

    async def run() -> None:
        server = ReproServer(
            sharded,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            **options,
        )
        await server.start()
        address = f"{server.host}:{server.port}"
        if args.address_file:
            with open(args.address_file, "w") as handle:
                handle.write(address)
        print(
            f"repro server on http://{address} "
            f"({built.name}, {len(built.database.tree.keys())} tuples, "
            f"{args.shards} shards, executor={args.executor})",
            flush=True,
        )
        if args.runtime_s is not None:
            try:
                await asyncio.sleep(args.runtime_s)
            finally:
                await server.stop()
        else:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        sharded.close()
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    from repro.query.builder import ConsensusQuery

    query = ConsensusQuery.named(
        args.kind, args.k, **_parse_params(args.param)
    )
    client = _client(args)
    try:
        answer = client.query(query, deadline_ms=args.deadline_ms)
    finally:
        client.close()
    if args.json:
        print(answer.to_json())
        return EXIT_OK
    provenance = answer.provenance()
    rows = [["answer", repr(answer.answer)]]
    if answer.expected_distance is not None:
        rows.append(["expected_distance", f"{answer.expected_distance:.6g}"])
    interval = answer.confidence_interval()
    if interval is not None:
        rows.append(
            ["95% CI", f"[{interval[0]:.6g}, {interval[1]:.6g}]"]
        )
    for name in (
        "route",
        "algorithm",
        "backend",
        "deployment",
        "elapsed",
        "cached",
    ):
        rows.append([name, provenance[name]])
    render_table(f"query {args.kind} (k={args.k})", ["field", "value"], rows)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        if args.fingerprint:
            plan = client.plan(args.fingerprint)
        else:
            if not args.kind:
                raise ReproError("explain needs a kind or --fingerprint")
            from repro.query.builder import ConsensusQuery

            query = ConsensusQuery.named(args.kind, args.k)
            hints = {"kind": args.kind}
            if args.k is not None:
                hints["k"] = str(args.k)
            plan = client.plan(query.fingerprint(), **hints)
    finally:
        client.close()
    print(f"fingerprint: {plan['fingerprint']}")
    print(plan["explain"])
    return EXIT_OK


def cmd_top(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        client.metrics()  # establish the scrape baseline server-side
        time.sleep(max(0.0, args.interval))
        scrape = client.metrics()
    finally:
        client.close()
    snapshot = scrape["snapshot"]
    delta = scrape["delta"] or snapshot
    elapsed = scrape["elapsed_s"] or max(args.interval, 1e-9)
    rows: List[List[Any]] = []
    by_kind: Dict[str, int] = delta["queries_by_kind"]
    for kind, count in sorted(
        by_kind.items(), key=lambda item: (-item[1], item[0])
    ):
        if count:
            rows.append([kind, count, f"{count / elapsed:.1f}"])
    rows.append(["(all kinds)", delta["queries"], f"{delta['queries'] / elapsed:.1f}"])
    render_table(
        f"per-kind traffic over the last {elapsed:.2f}s",
        ["kind", "queries", "qps"],
        rows,
    )
    latency_rows = [
        ["p50", f"{snapshot['latency_p50'] * 1e3:.3f} ms"],
        ["p95", f"{snapshot['latency_p95'] * 1e3:.3f} ms"],
        ["mean", f"{snapshot['latency_mean'] * 1e3:.3f} ms"],
        ["coalesced", delta["coalesced"]],
        ["batches", delta["batches"]],
        ["updates", delta["updates"]],
        ["deadline_exceeded", delta["deadline_exceeded"]],
        ["failover_served", delta["failover_served"]],
        ["result_cache_hits", delta["result_cache_hits"]],
        ["fused_plans", delta["fused_plans"]],
    ]
    render_table("latency and robustness", ["metric", "value"], latency_rows)
    admissions = scrape.get("admissions", {})
    if admissions:
        render_table(
            "admissions by status",
            ["status", "count"],
            sorted(admissions.items()),
        )
    return EXIT_OK


def cmd_health(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        health = client.health()
    finally:
        client.close()
    rows = [[name, health[name]] for name in sorted(health)]
    render_table(
        f"health @ {args.host}:{args.port}", ["field", "value"], rows
    )
    return EXIT_OK if health.get("status") in ("ok", "draining") else EXIT_ERROR


# ----------------------------------------------------------------------
# argparse front end (always available)
# ----------------------------------------------------------------------
def _add_endpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--timeout", type=float, default=30.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Client and server for the repro consensus front door.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="boot an HTTP front door over a workload scenario"
    )
    serve.add_argument("--scenario", default="movie_ratings")
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--executor", choices=("threads", "processes"), default="threads"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--max-inflight", type=int, default=64)
    serve.add_argument("--deadline-ms", type=float, default=None)
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument(
        "--runtime-s",
        type=float,
        default=None,
        help="exit after this many seconds (tests/CI; default: run forever)",
    )
    serve.add_argument(
        "--address-file",
        default=None,
        help="write host:port here once bound (for ephemeral --port 0)",
    )
    serve.set_defaults(handler=cmd_serve)

    query = commands.add_parser("query", help="POST one query")
    query.add_argument("kind")
    query.add_argument("-k", type=int, default=None)
    query.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="extra query parameter (JSON value or bare string); repeatable",
    )
    query.add_argument("--deadline-ms", type=float, default=None)
    query.add_argument(
        "--json", action="store_true", help="print the raw wire answer"
    )
    _add_endpoint_options(query)
    query.set_defaults(handler=cmd_query)

    explain = commands.add_parser(
        "explain", help="show the planner's explain() for a query"
    )
    explain.add_argument("kind", nargs="?", default=None)
    explain.add_argument("-k", type=int, default=None)
    explain.add_argument("--fingerprint", default=None)
    _add_endpoint_options(explain)
    explain.set_defaults(handler=cmd_explain)

    top = commands.add_parser(
        "top", help="per-kind latency/throughput from /metrics deltas"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between the two /metrics scrapes",
    )
    _add_endpoint_options(top)
    top.set_defaults(handler=cmd_top)

    health = commands.add_parser("health", help="liveness + breaker state")
    _add_endpoint_options(health)
    health.set_defaults(handler=cmd_health)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``repro`` console-script entry point."""
    args = build_parser().parse_args(
        list(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except ConnectionError as error:
        print(f"connection error: {error}", file=sys.stderr)
        return EXIT_ERROR


__all__ = [
    "EXIT_ERROR",
    "EXIT_OK",
    "build_parser",
    "cmd_explain",
    "cmd_health",
    "cmd_query",
    "cmd_serve",
    "cmd_top",
    "main",
    "render_table",
]
