"""Tests for the interactive shell plumbing."""

import socket

import pytest

from repro.cli import build_store, execute_line, main
from repro.server import SQLGraphServer


@pytest.fixture(scope="module")
def store():
    return build_store("tinker")


class TestBuildStore:
    def test_tinker(self, store):
        assert store.vertex_count() == 4

    def test_classic(self):
        assert build_store("classic").vertex_count() == 6

    def test_dbpedia_scaled(self):
        small = build_store("dbpedia", scale=0.05)
        assert small.vertex_count() > 50

    def test_linkbench_scaled(self):
        small = build_store("linkbench", scale=0.02)
        assert small.vertex_count() == 100

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_store("nope")


class TestExecuteLine:
    def test_gremlin_query(self, store):
        assert execute_line(store, "g.V.count()") == "4"

    def test_empty_line(self, store):
        assert execute_line(store, "   ") == ""

    def test_no_results(self, store):
        assert "(no results)" in execute_line(store, "g.V.has('name','zz')")

    def test_truncation(self):
        big = build_store("linkbench", scale=0.05)
        output = execute_line(big, "g.V")
        assert "results total" in output

    def test_translate_command(self, store):
        output = execute_line(store, ":translate g.v(1).out")
        assert output.startswith("WITH ")

    def test_explain_command(self, store):
        output = execute_line(store, ":explain g.v(1).out")
        assert "Scan" in output

    def test_sql_command(self, store):
        output = execute_line(store, ":sql SELECT COUNT(*) FROM va")
        assert "4" in output

    def test_sql_dml(self, store):
        output = execute_line(
            store, ":sql CREATE TABLE scratch (x INTEGER)"
        )
        assert "ok" in output or output  # DDL returns an empty resultset
        output = execute_line(
            store, ":sql INSERT INTO scratch VALUES (1)"
        )
        assert "1 rows affected" in output

    def test_stats_command(self, store):
        output = execute_line(store, ":stats")
        assert "vertices" in output
        assert "ea" in output

    def test_help_command(self, store):
        assert ":translate" in execute_line(store, ":help")

    def test_unknown_command(self, store):
        assert "unknown command" in execute_line(store, ":wat")

    def test_quit_raises_system_exit(self, store):
        with pytest.raises(SystemExit):
            execute_line(store, ":quit")


class TestMain:
    def test_one_shot_query(self, capsys):
        assert main(["--dataset", "tinker", "--query", "g.V.count()"]) == 0
        assert capsys.readouterr().out.strip() == "4"


@pytest.fixture()
def served():
    """``HOST:PORT`` of an in-process server over the tinker graph."""
    server = SQLGraphServer(build_store("tinker"), port=0)
    server.start()
    yield f"127.0.0.1:{server.port}"
    server.shutdown()


class TestRemoteMain:
    def test_one_shot_query(self, served, capsys):
        assert main(["--connect", served, "--query", "g.V.count()"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_repl_session(self, served, capsys, monkeypatch):
        lines = iter(["g.V.count()", "", ":stats", ":quit", "g.V.count()"])
        prompts = []

        def fake_input(prompt):
            prompts.append(prompt)
            return next(lines)

        monkeypatch.setattr("builtins.input", fake_input)
        assert main(["--connect", served]) == 0
        out = capsys.readouterr().out
        assert f"connected to {served}" in out
        assert "\n4\n" in out
        assert "translation cache" in out  # the :stats report
        assert prompts == ["sqlgraph> "] * 4  # :quit ends the session

    def test_repl_exits_on_end_of_input(self, served, monkeypatch):
        def end_of_input(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", end_of_input)
        assert main(["--connect", served]) == 0

    def test_address_without_port_exits_2(self, capsys):
        assert main(["--connect", "nohost"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_closed_port_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # nothing listens on the port once the probe is closed
        assert main(["--connect", f"127.0.0.1:{port}",
                     "--query", "g.V.count()"]) == 1
        assert "cannot connect" in capsys.readouterr().err


def test_console_script_registered():
    import pathlib
    import tomllib

    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert config["project"]["scripts"]["sqlgraph-shell"] == "repro.cli:main"
