"""The ``repro`` CLI: argparse fallback, rich rendering, typer wiring."""

import os
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
# argparse fallback (the live path in the base image: no typer, no rich)
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


# ----------------------------------------------------------------------
# rich-present path: tables render through rich when it imports
# ----------------------------------------------------------------------
class _FakeRichTable:
    instances = []

    def __init__(self, title=None):
        self.title = title
        self.columns = []
        self.rows = []
        _FakeRichTable.instances.append(self)

    def add_column(self, header):
        self.columns.append(header)

    def add_row(self, *cells):
        self.rows.append(cells)


class _FakeRichConsole:
    def __init__(self, file=None):
        self.file = file

    def print(self, table):
        print(
            f"[rich] {table.title}: {len(table.rows)} rows x "
            f"{len(table.columns)} cols",
            file=self.file,
        )


@pytest.fixture()
def fake_rich(monkeypatch):
    rich = types.ModuleType("rich")
    console_module = types.ModuleType("rich.console")
    console_module.Console = _FakeRichConsole
    table_module = types.ModuleType("rich.table")
    table_module.Table = _FakeRichTable
    rich.console = console_module
    rich.table = table_module
    monkeypatch.setitem(sys.modules, "rich", rich)
    monkeypatch.setitem(sys.modules, "rich.console", console_module)
    monkeypatch.setitem(sys.modules, "rich.table", table_module)
    monkeypatch.delenv("REPRO_CLI_PLAIN", raising=False)
    _FakeRichTable.instances.clear()
    yield rich


class TestRichRendering:
    def test_render_table_uses_rich_when_importable(self, fake_rich, capsys):
        render_table("demo", ["a", "b"], [[1, 2], [3, 4]])
        assert "[rich] demo: 2 rows x 2 cols" in capsys.readouterr().out

    def test_health_renders_rich_table(self, fake_rich, server, capsys):
        assert main(["health"] + endpoint(server)) == EXIT_OK
        assert "[rich]" in capsys.readouterr().out
        assert any(
            table.columns == ["field", "value"]
            for table in _FakeRichTable.instances
        )

    def test_plain_env_forces_fallback(self, fake_rich, server, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLI_PLAIN", "1")
        assert main(["health"] + endpoint(server)) == EXIT_OK
        assert "[rich]" not in capsys.readouterr().out

    def test_broken_rich_falls_back_to_plain(self, server, capsys, monkeypatch):
        broken = types.ModuleType("rich.table")

        class _Exploding:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("rich broke")

        broken.Table = _Exploding
        rich = types.ModuleType("rich")
        console_module = types.ModuleType("rich.console")
        console_module.Console = _FakeRichConsole
        monkeypatch.setitem(sys.modules, "rich", rich)
        monkeypatch.setitem(sys.modules, "rich.console", console_module)
        monkeypatch.setitem(sys.modules, "rich.table", broken)
        assert main(["health"] + endpoint(server)) == EXIT_OK
        output = capsys.readouterr().out
        assert "status" in output  # plain table still rendered


# ----------------------------------------------------------------------
# typer-present path: commands wire through a typer-like application
# ----------------------------------------------------------------------
class _FakeTyperApp:
    """A minimal stand-in honouring the slice of typer the CLI uses:
    ``Typer(...)``, ``@app.command()`` and ``app(args=..., prog_name=...)``
    with ``--option value`` parsing against the command's defaults."""

    def __init__(self, **kwargs):
        self.commands = {}

    def command(self, *args, **kwargs):
        def register(function):
            self.commands[function.__name__] = function
            return function

        return register

    def __call__(self, args=None, prog_name=None, **kwargs):
        args = list(args or [])
        if not args or args[0] not in self.commands:
            raise SystemExit(2)
        function = self.commands[args[0]]
        positional = []
        options = {}
        rest = args[1:]
        index = 0
        while index < len(rest):
            token = rest[index]
            if token.startswith("--"):
                name = token[2:].replace("-", "_")
                options[name] = rest[index + 1]
                index += 2
            else:
                positional.append(token)
                index += 1
        import inspect

        signature = inspect.signature(function)
        bound = {}
        parameters = list(signature.parameters.values())
        for value, parameter in zip(positional, parameters):
            bound[parameter.name] = value
        for name, value in options.items():
            parameter = signature.parameters[name]
            default = parameter.default
            if isinstance(default, bool):
                bound[name] = value in ("1", "true", "True")
            elif isinstance(default, int):
                bound[name] = int(value)
            elif isinstance(default, float):
                bound[name] = float(value)
            elif default is None:
                # Optional[...] parameters: mimic typer's annotation-based
                # coercion with a numeric-first heuristic.
                for caster in (int, float):
                    try:
                        bound[name] = caster(value)
                        break
                    except ValueError:
                        continue
                else:
                    bound[name] = value
            else:
                bound[name] = value
        function(**bound)


@pytest.fixture()
def fake_typer(monkeypatch):
    typer = types.ModuleType("typer")
    typer.Typer = _FakeTyperApp
    monkeypatch.setitem(sys.modules, "typer", typer)
    monkeypatch.delenv("REPRO_CLI_PLAIN", raising=False)
    yield typer


class TestTyperWiring:
    def test_health_routes_through_typer_app(self, fake_typer, server, capsys):
        code = main(
            ["health", "--host", server.host, "--port", str(server.port)]
        )
        assert code == EXIT_OK
        assert "status" in capsys.readouterr().out

    def test_query_routes_through_typer_app(self, fake_typer, server, capsys):
        code = main(
            [
                "query",
                "global_topk",
                "--k",
                str(K),
                "--host",
                server.host,
                "--port",
                str(server.port),
            ]
        )
        assert code == EXIT_OK
        assert "answer" in capsys.readouterr().out

    def test_plain_env_skips_typer(self, fake_typer, server, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLI_PLAIN", "1")
        # The fake typer app would explode on argparse-style "-k"; forcing
        # the plain path must route around it entirely.
        code = main(
            ["query", "global_topk", "-k", str(K)] + endpoint(server)
        )
        assert code == EXIT_OK
