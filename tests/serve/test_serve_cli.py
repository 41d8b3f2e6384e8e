"""CLI surface of the service: serve/loadgen subcommands and the
port-in-use regression (satellite 4): a taken port must produce a
one-line actionable error and a non-zero exit, never a raw OSError
traceback or the generic ``error: [Errno 98] ...`` dump.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_metrics(metrics_registry):
    """``serve`` opens the process-wide metrics gate; close it again
    after each test, so later tests see the default (disabled) gate."""
    yield


@pytest.fixture
def taken_port():
    """A listening socket the CLI under test will collide with."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    yield sock.getsockname()[1]
    sock.close()


class TestPortInUse:
    def test_serve_on_taken_port_is_actionable(self, taken_port, capsys):
        rc = main(["serve", "--host", "127.0.0.1", "--port", str(taken_port)])
        captured = capsys.readouterr()
        assert rc == 2
        message = captured.err.strip()
        assert message.count("\n") == 0  # one line, no traceback
        assert f"127.0.0.1:{taken_port}" in message
        assert "already in use" in message
        assert "--port" in message  # tells the operator what to do

    def test_serve_metrics_on_taken_port_is_actionable(
        self, taken_port, capsys
    ):
        rc = main(
            ["serve-metrics", "--host", "127.0.0.1", "--port", str(taken_port)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        message = captured.err.strip()
        assert message.count("\n") == 0
        assert f"127.0.0.1:{taken_port}" in message
        assert "already in use" in message
        assert "--port" in message

    def test_raw_errno_dump_is_gone(self, taken_port, capsys):
        main(["serve", "--host", "127.0.0.1", "--port", str(taken_port)])
        captured = capsys.readouterr()
        assert "Errno" not in captured.err


class TestLoadgenCli:
    def test_generate_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.serve import load_trace

        out = tmp_path / "trace.jsonl"
        rc = main(
            [
                "loadgen",
                "generate",
                "-o",
                str(out),
                "--requests",
                "12",
                "--seed",
                "3",
                "--tasks",
                "4",
                "--machines",
                "5",
            ]
        )
        assert rc == 0
        assert "wrote 12 request(s)" in capsys.readouterr().out
        trace = load_trace(out)
        assert len(trace) == 12

    def test_generate_rejects_bad_fractions(self, tmp_path, capsys):
        rc = main(
            [
                "loadgen",
                "generate",
                "-o",
                str(tmp_path / "t.jsonl"),
                "--duplicate-fraction",
                "0.9",
                "--perturb-fraction",
                "0.9",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_against_live_server(self, tmp_path, capsys, live_server):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "loadgen",
                    "generate",
                    "-o",
                    str(out),
                    "--requests",
                    "8",
                    "--seed",
                    "4",
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            [
                "loadgen",
                "replay",
                str(out),
                "--host",
                live_server.host,
                "--port",
                str(live_server.port),
                "--time-scale",
                "0",
                "--json",
            ]
        )
        assert rc == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["requests"] == 8
        assert digest["ok"] == 8
        assert digest["p99_ms"] >= digest["p50_ms"]

    def test_replay_connection_refused_is_actionable(
        self, tmp_path, capsys
    ):
        out = tmp_path / "trace.jsonl"
        main(["loadgen", "generate", "-o", str(out), "--requests", "2"])
        capsys.readouterr()
        # An ephemeral port nobody is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        rc = main(
            [
                "loadgen",
                "replay",
                str(out),
                "--port",
                str(free_port),
                "--time-scale",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "nothing is listening" in captured.err
        assert "repro-hc serve" in captured.err

    def test_replay_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        rc = main(["loadgen", "replay", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestServeHelp:
    def test_serve_appears_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "serve" in text
        assert "loadgen" in text
