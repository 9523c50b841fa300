"""The ``repro`` CLI: argparse parsing and plain-text rendering."""

import io
import sys
import threading
import time
import types

import pytest

from repro.cli import main
from repro.cli.main import EXIT_ERROR, EXIT_OK, build_parser, render_table
from repro.models import ShardedDatabase
from repro.query.answers import QueryAnswer
from repro.server import ServerThread
from repro.workloads import random_tuple_independent_database

K = 3


@pytest.fixture()
def server():
    database = random_tuple_independent_database(24, rng=21)
    sharded = ShardedDatabase(database, 4)
    with sharded:
        with ServerThread(sharded, max_inflight=16) as thread:
            yield thread


def endpoint(thread):
    return ["--host", thread.host, "--port", str(thread.port)]


# ----------------------------------------------------------------------
# argparse commands
# ----------------------------------------------------------------------
class TestArgparseCli:
    def test_parser_builds_and_rejects_garbage(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["no_such_command"])

    def test_health(self, server, capsys):
        assert main(["health"] + endpoint(server)) == EXIT_OK
        output = capsys.readouterr().out
        assert "status" in output and "ok" in output
        assert "shard_count" in output

    def test_query_renders_provenance(self, server, capsys):
        code = main(
            ["query", "mean_topk_footrule", "-k", str(K)] + endpoint(server)
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "answer" in output
        assert "route" in output and "exact" in output
        assert "expected_distance" in output

    def test_query_json_output_decodes(self, server, capsys):
        code = main(
            ["query", "top_k_membership", "-k", str(K), "--json"]
            + endpoint(server)
        )
        assert code == EXIT_OK
        answer = QueryAnswer.from_json(capsys.readouterr().out.strip())
        assert answer.kind == "top_k_membership"
        assert answer.deployment == "served"

    def test_query_param_values_parse_as_json(self, server, capsys):
        code = main(
            [
                "query",
                "mean_topk_footrule",
                "-k",
                str(K),
                "--param",
                "weight=0.5",
            ]
            + endpoint(server)
        )
        # Unknown params are ignored by the legacy dispatch, so this
        # exercises the encode path end to end.
        assert code == EXIT_OK
        assert "answer" in capsys.readouterr().out

    def test_param_without_equals_is_clean_error(self, server, capsys):
        code = main(
            ["query", "mean_topk_footrule", "-k", str(K), "--param", "weight"]
            + endpoint(server)
        )
        assert code == EXIT_ERROR
        assert "--param wants name=value" in capsys.readouterr().err

    def test_query_bad_kind_is_clean_error(self, server, capsys):
        code = main(["query", "no_such_kind"] + endpoint(server))
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_explain(self, server, capsys):
        code = main(
            ["explain", "mean_topk_footrule", "-k", str(K)] + endpoint(server)
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "fingerprint:" in output
        assert "route:" in output
        assert "hardness:" in output

    def test_explain_needs_kind_or_fingerprint(self, server, capsys):
        code = main(["explain"] + endpoint(server))
        assert code == EXIT_ERROR

    def test_top_renders_tables(self, server, capsys):
        client = server.client()
        try:
            from repro.query import Query

            client.metrics()
            for _ in range(3):
                client.query(Query.ranking("global", K))
        finally:
            client.close()
        code = main(["top", "--interval", "0.05"] + endpoint(server))
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "qps" in output
        assert "p95" in output
        assert "admissions" in output

    def test_connection_error_is_clean(self, capsys):
        code = main(
            ["health", "--host", "127.0.0.1", "--port", "1", "--timeout", "2"]
        )
        assert code == EXIT_ERROR
        assert "connection error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# plain-text tables
# ----------------------------------------------------------------------
class TestPlainRendering:
    def test_render_table_aligns_columns(self):
        out = io.StringIO()
        render_table("demo", ["name", "n"], [["a", 1], ["bbbbbb", 22]], out=out)
        assert out.getvalue().splitlines() == [
            "demo",
            "name    n ",
            "------  --",
            "a       1 ",
            "bbbbbb  22",
        ]

    def test_render_table_without_rows_prints_headers(self):
        out = io.StringIO()
        render_table("empty", ["kind", "qps"], [], out=out)
        assert out.getvalue().splitlines() == ["empty", "kind  qps", "----  ---"]

    def test_health_prints_field_value_header(self, server, capsys):
        assert main(["health"] + endpoint(server)) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"health @ {server.host}:{server.port}"
        assert lines[1].split() == ["field", "value"]
        assert set(lines[2].replace(" ", "")) == {"-"}

    def test_installed_rich_and_typer_are_ignored(
        self, server, capsys, monkeypatch
    ):
        used = []

        def record(name):
            def constructor(*args, **kwargs):
                used.append(name)
                raise RuntimeError(f"the CLI must not use {name}")

            return constructor

        rich = types.ModuleType("rich")
        rich_console = types.ModuleType("rich.console")
        rich_console.Console = record("rich.console.Console")
        rich_table = types.ModuleType("rich.table")
        rich_table.Table = record("rich.table.Table")
        rich.console, rich.table = rich_console, rich_table
        typer = types.ModuleType("typer")
        typer.Typer = record("typer.Typer")
        for name, module in (
            ("rich", rich),
            ("rich.console", rich_console),
            ("rich.table", rich_table),
            ("typer", typer),
        ):
            monkeypatch.setitem(sys.modules, name, module)
        assert main(["health"] + endpoint(server)) == EXIT_OK
        assert main(
            ["query", "global_topk", "-k", str(K)] + endpoint(server)
        ) == EXIT_OK
        output = capsys.readouterr().out
        assert "status" in output and "answer" in output
        assert used == []


# ----------------------------------------------------------------------
# serve subcommand smoke (bounded runtime + ephemeral port)
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_serve_boots_and_answers(self, tmp_path, capsys):
        address_file = tmp_path / "address"
        worker = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--scenario",
                    "movie_ratings",
                    "--scale",
                    "2",
                    "--shards",
                    "2",
                    "--port",
                    "0",
                    "--runtime-s",
                    "8",
                    "--address-file",
                    str(address_file),
                ],
            ),
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if address_file.exists() and address_file.read_text():
                break
            time.sleep(0.05)
        host, port = address_file.read_text().split(":")
        assert main(["health", "--host", host, "--port", port]) == EXIT_OK
        code = main(
            [
                "query",
                "top_k_membership",
                "-k",
                "2",
                "--host",
                host,
                "--port",
                port,
            ]
        )
        assert code == EXIT_OK
        worker.join(timeout=30.0)
        assert not worker.is_alive()
