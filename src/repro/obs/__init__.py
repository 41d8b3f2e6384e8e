"""repro.obs — zero-dependency tracing and metrics for the compute layers.

Answers "where do time and iterations go" for the library's hot paths
— Sinkhorn normalization, the SVD behind TMA, the scheduling
heuristics, the analysis fan-outs — and the serving and shard layers
around them.  Pure stdlib; almost free when disabled.

>>> from repro import characterize
>>> from repro.obs import recording, summary
>>> with recording() as rec:
...     _ = characterize([[1.0, 2.0], [2.0, 1.0]])
>>> stats = summary(rec)
>>> stats.covers("sinkhorn") and stats.covers("svd")
True

* **One span model.**  :func:`span` / :func:`traced` instrument a
  region / a function (no-ops without a recorder); an open span binds
  its own context, so its children nest under it — across a coalesced
  kernel thread, or in a shard worker handed a :class:`TraceContext`.
  A :class:`Recorder` turns spans, counters and gauges into records of
  one schema for its sinks (:class:`MemorySink`, :class:`JsonlSink`,
  :class:`RotatingJsonlSink`, :class:`LoggingSink`);
  :meth:`Recorder.emit_span` records a region timed across awaits.
  :func:`recording` keeps a session in memory, :func:`tracing` writes a
  process-wide JSONL trace and keeps nothing; :func:`summary`,
  :func:`load_spans` and :func:`query_traces` read them back.
* **Metrics.**  A process-wide :class:`MetricsRegistry` fed through
  the gated verbs ``metrics.inc`` / ``observe`` / ``observe_many`` /
  ``set`` from one family table (:data:`repro.obs.metrics.FAMILIES`);
  :func:`render_prometheus` / :func:`start_metrics_server` expose it,
  :func:`chrome_trace` converts span records for Perfetto, and
  :func:`run_bench` / :func:`compare_bench` drive ``repro-hc bench``.

See ``docs/OBSERVABILITY.md`` for the span model, sinks, the metrics
layer and measured overhead.
"""

from .bench import (
    BENCH_CASES,
    BENCH_SCHEMA,
    BenchComparison,
    compare_bench,
    load_bench,
    run_bench,
    validate_bench,
    write_bench,
)
from .events import GaugeEvent, SpanEvent
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    chrome_trace,
    chrome_trace_events,
    convert_trace_jsonl,
    render_prometheus,
    start_metrics_server,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    enable_metrics,
    fold_recorder,
    get_registry,
    metrics_enabled,
    set_registry,
)
from .recorder import (
    Recorder,
    current_recorder,
    recording,
    span,
    traced,
    tracing,
)
from .sinks import JsonlSink, LoggingSink, MemorySink, RotatingJsonlSink, Sink
from .summary import SpanStats, SpanSummary, summarize, summary
from .trace_context import (
    TIMING_STAGES,
    RequestTrace,
    TraceContext,
    current_trace,
    trace_scope,
)
from .trace_query import (
    TraceView,
    format_trace,
    group_traces,
    load_spans,
    query_traces,
)

__all__ = [
    "Recorder",
    "recording",
    "span",
    "traced",
    "current_recorder",
    "summary",
    "summarize",
    "SpanSummary",
    "SpanStats",
    "SpanEvent",
    "GaugeEvent",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "RotatingJsonlSink",
    "LoggingSink",
    "TraceContext",
    "RequestTrace",
    "TIMING_STAGES",
    "current_trace",
    "trace_scope",
    "tracing",
    "TraceView",
    "load_spans",
    "group_traces",
    "query_traces",
    "format_trace",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "collecting_metrics",
    "fold_recorder",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "start_metrics_server",
    "chrome_trace",
    "chrome_trace_events",
    "convert_trace_jsonl",
    "BENCH_SCHEMA",
    "BENCH_CASES",
    "BenchComparison",
    "run_bench",
    "write_bench",
    "load_bench",
    "validate_bench",
    "compare_bench",
]
