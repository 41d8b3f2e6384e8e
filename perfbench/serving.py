"""A ``repro-hc serve`` subprocess and closed-loop clients for it.

The server is started with ``--port 0``; its port is read from the
startup line.  It is stopped with SIGTERM, and only an exit code of 0
after a "drain complete" line counts as a clean stop.

Clients speak plain HTTP/1.1 over blocking sockets, one connection per
request (the server answers ``Connection: close``), each in its own
thread.  A client sends its next request only when the previous answer
has arrived (a closed loop).
"""

from __future__ import annotations

import gc
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

_STARTUP = re.compile(r"http://([^:/\s]+):(\d+)/")
_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)")

DEBUG_SUFFIX = b',"debug_timings":true}'


class ServerError(RuntimeError):
    """The server did not start, or did not stop cleanly."""


def exchange(host: str, port: int, method: str, path: str, body: bytes = b""):
    """One request; returns (status, headers, body, seconds)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    t0 = time.perf_counter()
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    seconds = time.perf_counter() - t0
    raw = b"".join(chunks)
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload, seconds


class Server:
    """A ``repro-hc serve --port 0`` child process."""

    def __init__(self, src_dir: str, cwd: str) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=cwd,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self.output = b""
        self._drain: threading.Thread | None = None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Parse the port from the startup line, then poll readiness."""
        deadline = time.monotonic() + timeout_s
        line = self._read_line(deadline)
        match = _STARTUP.search(line)
        if match is None:
            raise ServerError(f"unexpected startup line {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        while time.monotonic() < deadline:
            try:
                status, _, _, _ = exchange(
                    self.host, self.port, "GET", "/healthz/ready"
                )
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise ServerError("server never became ready")

    def _read_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            buf = b""
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise ServerError("no startup line from server")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError(f"server exited: {buf!r}")
                buf += chunk
        line, _, rest = buf.partition(b"\n")
        self.output = rest
        # Keep reading, so that a server that logs a lot never blocks
        # on a full pipe.
        self._drain = threading.Thread(target=self._collect, daemon=True)
        self._drain.start()
        return line.decode("utf-8", "replace")

    def _collect(self) -> None:
        for chunk in iter(lambda: os.read(self.proc.stdout.fileno(), 4096), b""):
            self.output += chunk

    def stop(self, timeout_s: float = 30.0) -> bool:
        """SIGTERM and wait; True only for exit 0 after "drain complete"."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._close_pipe()
        return self.proc.returncode == 0 and b"drain complete" in self.output

    def kill(self) -> None:
        """Last-resort cleanup for error paths."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self._drain is not None:
            self._drain.join(timeout=10.0)
        self.proc.stdout.close()

    def get(self, path: str):
        return exchange(self.host, self.port, "GET", path)

    def cpu_s(self) -> float:
        """CPU seconds (user plus system) the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def scrape(server: Server) -> dict:
    """``/metrics`` samples as {(name, labels): value}."""
    status, _, body, _ = server.get("/metrics")
    if status != 200:
        raise ServerError(f"/metrics answered {status}")
    samples = {}
    for line in body.decode().splitlines():
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(
                match.group(3)
            )
    return samples


def counter_delta(before: dict, after: dict, name: str, label: str = "") -> float:
    """Increase of every series of ``name`` whose labels contain ``label``."""
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[0] == name and label in key[1]
    )


@dataclass
class Answer:
    """One request as the client saw it."""

    index: int
    status: int
    seconds: float
    body: bytes
    trace_id: str | None


def closed_loop(
    server: Server,
    requests: list,
    start: int,
    clients: int,
    duration_s: float,
    debug: bool = False,
) -> tuple[list, float]:
    """Send ``requests[start:]`` in order from ``clients`` threads.

    Each client takes the next unsent request when its previous answer
    has arrived, until ``duration_s`` has passed or the requests run
    out.  Returns the answers in send order and the wall time.
    """
    lock = threading.Lock()
    cursor = [start]
    answers: list = []
    stop_at = time.perf_counter() + duration_s

    def client() -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            request = requests[index]
            body = request.body[:-1] + DEBUG_SUFFIX if debug else request.body
            try:
                status, headers, payload, seconds = exchange(
                    server.host, server.port, "POST",
                    f"/v1/{request.endpoint}", body,
                )
            except (OSError, ValueError, IndexError):
                # No answer, or not HTTP: a failed request.
                status, headers, payload, seconds = 0, {}, b"", 0.0
            answer = Answer(
                index, status, seconds, payload,
                headers.get("x-repro-trace-id"),
            )
            with lock:
                answers.append(answer)

    # A collection in a client thread would stall a request in flight.
    gc.disable()
    try:
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - t0
    finally:
        gc.enable()
    answers.sort(key=lambda a: a.index)
    return answers, wall_s
