"""The one span model: a recorder, its spans and their front doors.

Library code opens spans with :func:`span` / :func:`traced` against the
*ambient* recorder — a :mod:`contextvars` variable, falling back to the
process-wide recorder :func:`tracing` installs — so instrumentation
composes across call stacks, threads and asyncio tasks without a
recorder argument.  With none active, :func:`span` returns a shared
no-op singleton (one contextvar read; ``benchmarks/bench_obs_overhead.py``
pins the cost below 2% of the batched pipeline).

An open span binds its own depth and, under an ambient
:class:`~repro.obs.TraceContext`, its own child context, so spans opened
inside it — in this task, or in a context copied from it — nest under
it.  Regions timed across awaits or in another process are recorded
with :meth:`Recorder.emit_span`.  A recorder keeps records in memory
only through a :class:`~repro.obs.MemorySink`: :func:`recording`
attaches one, :func:`tracing` writes a JSONL file and keeps nothing.
See ``docs/OBSERVABILITY.md`` for the record schema.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable

from .events import GaugeEvent, SpanEvent
from .sinks import JsonlSink, LoggingSink, MemorySink
from .trace_context import TraceContext, _trace_var

__all__ = [
    "Recorder",
    "current_recorder",
    "recording",
    "span",
    "traced",
    "tracing",
]

# No default: ``get(_process_recorder)`` falls back to the process-wide
# recorder wherever no recording is bound.
_recorder_var: contextvars.ContextVar["Recorder"] = contextvars.ContextVar(
    "repro_obs_recorder"
)
_depth_var: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_obs_depth", default=0
)
_process_recorder: "Recorder | None" = None


def current_recorder() -> "Recorder | None":
    """The recorder active in this context, or None when disabled.

    Hot loops use this to guard per-iteration sampling::

        rec = current_recorder()
        while iterating:
            ...
            if rec is not None:
                sp.sample("active_slices", int(active.sum()))
    """
    return _recorder_var.get(_process_recorder)


class Recorder:
    """Turns spans, counters and gauges into records for its sinks.

    The first :class:`~repro.obs.MemorySink` among ``sinks`` is the
    recorder's memory (:attr:`events`, :attr:`gauges`).  ``process``
    names the writer on every record beside its ``pid`` (``"repro"``
    by default; ``"repro-serve"``, ``"shard-worker-<pid>"``).
    ``counters`` holds running totals, flushed to the sinks as
    ``counter_total`` records on :meth:`close`.  Safe to share between
    threads: a server's event loop and its kernel threads feed one.
    """

    def __init__(self, sinks: Iterable = (), *, process: str | None = None) -> None:
        self.sinks = list(sinks)
        self.process = process or "repro"
        self.counters: dict[str, float] = {}
        self._memory = next(
            (s for s in self.sinks if isinstance(s, MemorySink)), None
        )
        self._epoch = time.perf_counter()
        self._wall_epoch = time.time()
        self._index = itertools.count()
        self._lock = threading.Lock()
        self._closed = False

    # -- event intake --------------------------------------------------

    def _now(self, t: float | None = None) -> float:
        """Wall-clock time of ``perf_counter`` reading ``t`` (default now)."""
        if t is None:
            t = time.perf_counter()
        return self._wall_epoch + (t - self._epoch)

    def _emit(self, record: dict) -> None:
        record["pid"] = os.getpid()
        record["process"] = self.process
        with self._lock:
            for sink in self.sinks:
                sink.emit(record)

    def _record_span(self, context: TraceContext | None, **fields) -> None:
        """Emit one closed span; ``fields`` are :class:`SpanEvent` fields."""
        if not self.sinks:
            return
        if context is not None:
            fields.update(
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=context.parent_id,
            )
        self._emit(SpanEvent(index=next(self._index), **fields).to_record())

    def emit_span(
        self,
        name: str,
        context: TraceContext,
        *,
        wall_s: float,
        start: float | None = None,
        meta: dict | None = None,
        links=(),
        error: str | None = None,
    ) -> None:
        """Record one span the caller timed itself under ``context``.

        For regions a ``with span(...)`` block cannot cover: one timed
        across awaits (``serve.request``), a fan-in batch with
        ``links`` to every request it served (``serve.kernel``), or
        work done in another process (``shard.dispatch``).  ``start``
        is the wall-clock entry time (default: ``wall_s`` before now).
        """
        self._record_span(
            context,
            name=name,
            depth=_depth_var.get(),
            start=time.time() - wall_s if start is None else start,
            wall_s=wall_s,
            cpu_s=0.0,
            meta=dict(meta) if meta else {},
            error=error,
            links=tuple(links),
        )

    def _point(self, kind: str, name: str, value: float) -> None:
        self._emit(
            {"type": kind, "name": name, "value": value, "start": self._now()}
        )

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value
        if self.sinks:
            self._point("counter", name, value)

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value."""
        if self.sinks:
            self._point("gauge", name, float(value))

    @contextmanager
    def activate(self):
        """Make this the ambient recorder for the enclosed block.

        The recorder stays open afterwards: a server activates its one
        trace recorder around every request it serves.
        """
        token = _recorder_var.set(self)
        try:
            yield self
        finally:
            _recorder_var.reset(token)

    # -- reading back --------------------------------------------------

    def _kept(self, kind: str) -> list[dict]:
        if self._memory is None:
            return []
        return [r for r in self._memory.records if r.get("type") == kind]

    @property
    def events(self) -> list[SpanEvent]:
        """Closed spans in close order (empty without a MemorySink)."""
        return [SpanEvent.from_record(r) for r in self._kept("span")]

    @property
    def gauges(self) -> list[GaugeEvent]:
        """Recorded gauge values in order (empty without a MemorySink)."""
        return [
            GaugeEvent(r["name"], r["value"], r["start"])
            for r in self._kept("gauge")
        ]

    def spans(self, prefix: str | None = None) -> list[SpanEvent]:
        """Closed spans, optionally filtered by dotted-name prefix."""
        return [
            e for e in self.events
            if prefix is None or e.name == prefix or e.name.startswith(prefix + ".")
        ]

    def summary(self):
        """Aggregate span statistics (see :func:`repro.obs.summary`)."""
        from .summary import summarize

        return summarize(self)

    def close(self) -> None:
        """Flush counter totals and close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.sinks:
            for name, total in sorted(self.counters.items()):
                self._point("counter_total", name, total)
        for sink in self.sinks:
            sink.close()


class _NoopSpan:
    """Shared do-nothing span returned while recording is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **meta) -> None:
        pass

    def sample(self, name, value) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open timed region bound to an active recorder."""

    __slots__ = (
        "_rec", "_name", "_meta", "_samples", "_t0", "_c0", "_depth",
        "_context", "_tokens",
    )

    enabled = True

    def __init__(self, rec: Recorder, name: str, meta: dict) -> None:
        self._rec = rec
        self._name = name
        self._meta = meta
        self._samples: dict[str, list[float]] = {}

    def __enter__(self) -> "_LiveSpan":
        parent = _trace_var.get()
        self._context = None if parent is None else parent.child()
        self._depth = _depth_var.get()
        self._tokens = (
            _depth_var.set(self._depth + 1),
            None if parent is None else _trace_var.set(self._context),
        )
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        depth_token, trace_token = self._tokens
        if trace_token is not None:
            _trace_var.reset(trace_token)
        _depth_var.reset(depth_token)
        rec = self._rec
        rec._record_span(
            self._context,
            name=self._name,
            depth=self._depth,
            start=rec._now(self._t0),
            wall_s=wall,
            cpu_s=cpu,
            meta=self._meta,
            samples={k: tuple(v) for k, v in self._samples.items()},
            error=None if exc_type is None else exc_type.__name__,
        )
        return False

    def note(self, **meta) -> None:
        """Attach metadata to the span (last write per key wins)."""
        self._meta.update(meta)

    def sample(self, name: str, value) -> None:
        """Append one value — or a whole series (a list, tuple or array,
        e.g. an already-collected residual history) — to ``name``."""
        bucket = self._samples.setdefault(name, [])
        if isinstance(value, (list, tuple)) or (
            hasattr(value, "__iter__") and hasattr(value, "__len__")
        ):
            bucket.extend(float(v) for v in value)
        else:
            bucket.append(float(value))


def span(name: str, **meta):
    """Open a timed region under the ambient recorder.

    Returns a context manager; with no active recorder this is a shared
    no-op singleton, so instrumented code pays only a contextvar read.

    Examples
    --------
    >>> from repro.obs import recording, span
    >>> with recording() as rec:
    ...     with span("example.work", size=3) as sp:
    ...         sp.note(result="ok")
    >>> rec.events[0].name, rec.events[0].meta["result"]
    ('example.work', 'ok')
    """
    rec = _recorder_var.get(_process_recorder)
    if rec is None:
        return _NOOP_SPAN
    return _LiveSpan(rec, name, dict(meta) if meta else {})


def traced(_fn: Callable | None = None, *, name: str | None = None, **meta):
    """Decorator form of :func:`span`.

    The span name defaults to the function's module path (minus the
    ``repro.`` prefix) plus its name, e.g.
    ``analysis.sensitivity.sensitivity_study``.  With no recorder
    active the wrapper calls straight through.

    Examples
    --------
    >>> from repro.obs import recording, traced
    >>> @traced(name="example.add")
    ... def add(a, b):
    ...     return a + b
    >>> with recording() as rec:
    ...     add(1, 2)
    3
    >>> rec.events[0].name
    'example.add'
    """

    def decorate(fn: Callable) -> Callable:
        module = fn.__module__ or ""
        if module.startswith("repro."):
            module = module[len("repro."):]
        span_name = name or f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = _recorder_var.get(_process_recorder)
            if rec is None:
                return fn(*args, **kwargs)
            with _LiveSpan(rec, span_name, dict(meta) if meta else {}):
                return fn(*args, **kwargs)

        wrapper.__traced_span__ = span_name
        return wrapper

    return decorate(_fn) if _fn is not None else decorate


@contextmanager
def recording(
    *,
    sinks: Iterable = (),
    trace_path=None,
    logger=None,
):
    """Activate a fresh in-memory :class:`Recorder` for the enclosed block.

    ``sinks`` receive every record too; ``trace_path`` adds a
    :class:`~repro.obs.JsonlSink`, ``logger`` (a logger, or True for the
    ``repro.obs`` one) a :class:`~repro.obs.LoggingSink`.  Yields the
    recorder; on exit the previous one is restored and this one closed
    (counter totals flushed, files closed).  An inner ``recording``
    shadows an outer one, and the process-wide recorder.

    Examples
    --------
    >>> from repro.obs import recording
    >>> from repro import characterize
    >>> with recording() as rec:
    ...     _ = characterize([[1.0, 2.0], [2.0, 1.0]])
    >>> any(e.name.startswith("sinkhorn") for e in rec.events)
    True
    """
    all_sinks = [MemorySink(), *sinks]
    if trace_path is not None:
        all_sinks.append(JsonlSink(trace_path))
    if logger is not None:
        all_sinks.append(
            LoggingSink(None if logger is True else logger)
        )
    rec = Recorder(sinks=all_sinks)
    try:
        with rec.activate():
            yield rec
    finally:
        rec.close()
        # While metrics collection is enabled, completed sessions fold
        # into the registry, so scrapes see every recording.
        from . import metrics as _metrics

        if _metrics.metrics_enabled():
            _metrics.fold_recorder(rec)


@contextmanager
def tracing(path, *, process: str | None = None):
    """Install a process-wide recorder writing to a JSONL file.

    Every record goes straight to ``path`` and nothing is kept in
    memory, so a long-running process can trace indefinitely.  Threads
    that never bound a :func:`recording` see this recorder too, and
    pooled :func:`repro.shard.characterize_store` workers append their
    spans to the same file.

    >>> import os, tempfile
    >>> from repro.obs import TraceContext, span, trace_scope
    >>> path = os.path.join(tempfile.mkdtemp(), "spans.jsonl")
    >>> with tracing(path), trace_scope(TraceContext.new()):
    ...     with span("work"):
    ...         pass
    """
    global _process_recorder
    rec = Recorder([JsonlSink(path)], process=process)
    previous, _process_recorder = _process_recorder, rec
    try:
        yield rec
    finally:
        _process_recorder = previous
        rec.close()
