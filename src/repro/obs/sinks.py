"""Pluggable destinations for :mod:`repro.obs` records.

A sink is anything with ``emit(record: dict)`` and ``close()`` (the
:class:`Sink` protocol).  Records are plain JSON-safe dicts (see
:meth:`repro.obs.events.SpanEvent.to_record`).  Stdlib-only sinks:

* :class:`MemorySink` — an in-process list; also a recorder's memory;
* :class:`JsonlSink` — one JSON object per line, opened lazily and
  flushed per record, so a killed process loses at most the line being
  written;
* :class:`RotatingJsonlSink` — a JsonlSink rotated by size (the serving
  slow-request log), so an unattended server cannot fill a disk;
* :class:`LoggingSink` — a bridge into :mod:`logging` (``repro.obs``
  logger: spans and gauges at DEBUG, counters at INFO).
"""

from __future__ import annotations

import json
import logging
import os
from typing import Protocol, runtime_checkable

__all__ = ["Sink", "MemorySink", "JsonlSink", "RotatingJsonlSink", "LoggingSink"]


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive event records."""

    def emit(self, record: dict) -> None: ...

    def close(self) -> None: ...


class MemorySink:
    """Collect records in an in-process list (``sink.records``).

    Attached to a :class:`~repro.obs.Recorder`, it is the recorder's
    memory: ``recorder.events`` and ``recorder.gauges`` are read from it.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink:
    """Write one JSON object per line to ``path`` (append mode).

    The file handle is opened on the first :meth:`emit` and closed by
    :meth:`close` (which :func:`repro.obs.recording` calls on exit).
    Each record is written and flushed as one line, so a SIGTERM'd
    process never loses spans that already completed — at worst the
    final line is truncated, which ``trace query`` tolerates.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle = None

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def emit(self, record: dict) -> None:
        handle = self._open()
        handle.write(json.dumps(record) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class RotatingJsonlSink(JsonlSink):
    """A :class:`JsonlSink` with size-based rotation.

    When appending a record would push the current file past
    ``max_bytes``, the file is rotated: ``path.{backups}`` is dropped,
    ``path.N`` → ``path.N+1``, ``path`` → ``path.1`` and a fresh file is
    started.  With ``backups=0`` the file is simply truncated.
    """

    def __init__(self, path, *, max_bytes: int = 1_000_000, backups: int = 3) -> None:
        super().__init__(str(path))
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)

    def _rotate(self) -> None:
        self.close()
        if self.backups <= 0:
            if os.path.exists(self.path):
                os.remove(self.path)
            return
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        if os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")

    def emit(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        handle = self._open()
        if self.max_bytes > 0 and handle.tell() + len(line) > self.max_bytes:
            self._rotate()
            handle = self._open()
        handle.write(line)
        handle.flush()


class LoggingSink:
    """Forward records to a :mod:`logging` logger.

    Spans log at DEBUG as ``span sinkhorn.scalar wall=1.23ms cpu=1.10ms``;
    counters and gauges log their name and value.  Pass a ``logger`` to
    override the default ``repro.obs`` logger (e.g. to attach handlers
    in a service).
    """

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self.logger = logger or logging.getLogger("repro.obs")

    def emit(self, record: dict) -> None:
        kind = record.get("type", "event")
        if kind == "span":
            self.logger.debug(
                "span %s wall=%.3fms cpu=%.3fms depth=%d meta=%s",
                record["name"],
                record["wall_s"] * 1e3,
                record.get("cpu_s", 0.0) * 1e3,
                record.get("depth", 0),
                record.get("meta", {}),
            )
        elif kind == "counter":
            self.logger.info(
                "counter %s += %s", record["name"], record["value"]
            )
        else:
            self.logger.debug(
                "%s %s = %s", kind, record.get("name"), record.get("value")
            )

    def close(self) -> None:
        pass
