"""Structured records of the :mod:`repro.obs` recorder.

:class:`SpanEvent` is one closed timed region; :class:`GaugeEvent` one
point-in-time value.  :meth:`SpanEvent.to_record` produces the
JSON-safe dict every sink consumes (counter records are plain dicts),
so sinks never need to know about the dataclasses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["SpanEvent", "GaugeEvent", "jsonable"]


def jsonable(value: Any) -> Any:
    """Best-effort coercion of metadata values to JSON-safe types.

    Numpy scalars and 0-d arrays (which carry ``item()``), bools, ints,
    floats and strings pass through; mappings and sequences are
    converted element-wise; anything else falls back to ``str`` so a
    sink can never raise on emit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if getattr(value, "ndim", None) == 0 or (
        hasattr(value, "item") and not hasattr(value, "__len__")
    ):
        try:
            return jsonable(value.item())
        except (ValueError, TypeError):
            return str(value)
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) or (
        hasattr(value, "__iter__") and hasattr(value, "__len__")
    ):
        try:
            return [jsonable(v) for v in value]
        except TypeError:
            return str(value)
    return str(value)


@dataclass(frozen=True)
class SpanEvent:
    """One closed timed region.

    ``name`` is dotted (``"sinkhorn.scalar"``, ``"svd.batched"``);
    ``index`` the close order within the recorder; ``depth`` the nesting
    depth at entry (0 = top level); ``start`` the wall-clock entry time
    (``time.time()`` seconds, so spans of separate processes share one
    timeline); ``wall_s`` / ``cpu_s`` the wall and process-CPU duration
    (``cpu_s`` is 0.0 for spans timed by the caller across awaits).
    ``meta`` holds ``span.note(...)`` annotations, ``samples`` the
    ``span.sample(...)`` series, ``error`` the exception type name of a
    region that raised.  ``trace_id`` / ``span_id`` / ``parent_id`` are
    the W3C identity, stamped when a trace context was ambient (records
    of untraced spans omit them); ``links`` point a fan-in span (a
    batched kernel) at every request span it served.
    """

    name: str
    index: int
    depth: int
    start: float
    wall_s: float
    cpu_s: float
    meta: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    error: str | None = None
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    links: tuple = ()

    def to_record(self) -> dict:
        record = {
            "type": "span",
            "name": self.name,
            "index": self.index,
            "depth": self.depth,
            "start": self.start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "meta": {k: jsonable(v) for k, v in self.meta.items()},
        }
        if self.samples:
            record["samples"] = {
                k: [float(v) for v in vs] for k, vs in self.samples.items()
            }
        if self.error is not None:
            record["error"] = self.error
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["span_id"] = self.span_id
            record["parent_id"] = self.parent_id
            if self.links:
                record["links"] = [dict(link) for link in self.links]
        return record

    @classmethod
    def from_record(cls, record: dict) -> "SpanEvent":
        """The event a :meth:`to_record` dict describes."""
        return cls(
            name=record["name"],
            index=record["index"],
            depth=record["depth"],
            start=record["start"],
            wall_s=record["wall_s"],
            cpu_s=record["cpu_s"],
            meta=record["meta"],
            samples={
                k: tuple(v) for k, v in record.get("samples", {}).items()
            },
            error=record.get("error"),
            trace_id=record.get("trace_id"),
            span_id=record.get("span_id"),
            parent_id=record.get("parent_id"),
            links=tuple(record.get("links", ())),
        )


@dataclass(frozen=True)
class GaugeEvent:
    """One point-in-time measurement."""

    name: str
    value: float
    start: float

    def to_record(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "start": self.start,
        }
