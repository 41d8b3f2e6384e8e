"""Process-wide metrics: labelled counters, gauges and histograms.

The :class:`~repro.obs.Recorder` answers "where did time go" for one
session; this module is the durable sibling — a :class:`MetricsRegistry`
aggregating across every kernel call in the process, in the Prometheus
data model: :class:`Counter` totals, :class:`Gauge` values and
fixed-bucket :class:`Histogram` distributions, each carrying many
label series (``repro_sinkhorn_runs_total{kernel="scalar",...}``).

Every family the library publishes is one row of :data:`FAMILIES`.  Hot
paths feed a family by name through the verbs :func:`inc`,
:func:`observe` (or :func:`observe_many` for a batch of values) and
:func:`set`, which find the instrument in the default registry,
creating it from its row on first use.

Collection is **off by default**: each verb returns at once on a
module-level gate, a few calls per kernel *run* (never per iteration) —
``benchmarks/bench_obs_overhead.py`` pins this below 1% of a scalar
Sinkhorn call.  Enable it explicitly::

    from repro.obs import collecting_metrics, render_prometheus

    with collecting_metrics() as registry:
        characterize(env)                  # hot paths feed the registry
    print(render_prometheus(registry))

Completed :func:`repro.obs.recording` sessions are folded into the
registry automatically while collection is enabled (span wall-time
histograms plus the recorder's counter totals); :func:`fold_recorder`
does the same explicitly.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "FAMILIES",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "collecting_metrics",
    "inc",
    "observe",
    "observe_many",
    "set",
    "preregister",
    "fold_recorder",
    "ITERATION_BUCKETS",
    "RESIDUAL_BUCKETS",
    "SECONDS_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sinkhorn iterations-to-tolerance.  The paper's SPEC matrices converge
#: in 6-7 iterations; adversarial dynamic ranges push into the hundreds
#: and non-normalizable patterns run to the ``max_iterations`` ceiling,
#: so the grid is log-ish from 1 to the 100k default ceiling.
ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1e3, 1e4, 1e5)

#: Residual at kernel exit.  Converged runs sit at or below the 1e-8
#: default tolerance; the coarse upper decades characterize how far
#: non-converged (Section VI) runs stalled.
RESIDUAL_BUCKETS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)

#: Wall-clock durations (SVD calls, folded span times).  Sub-100 µs
#: scalar kernels up through minute-scale analysis fan-outs.
SECONDS_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Coalesced batch sizes (powers of two up to the default max-batch
#: ceilings the server offers).  A healthy coalescer under concurrent
#: load shows mass above the ``le="1"`` bucket.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class MetricFamily:
    """One collected metric: identity plus every label-series sample.

    ``samples`` maps a label-value tuple (ordered as ``labelnames``) to
    the series value — a float for counters/gauges, or a dict with
    ``"buckets"`` (per-bucket non-cumulative counts, ``+Inf`` last),
    ``"sum"`` and ``"count"`` for histograms.  ``buckets`` on the family
    carries the upper bounds for histogram kinds, ``None`` otherwise.
    """

    name: str
    kind: str
    help: str
    labelnames: tuple[str, ...]
    samples: dict
    buckets: tuple[float, ...] | None = None


class _Metric:
    """Shared identity + label-key handling of the three instruments."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        # frozenset, not set: the module-level verb ``set`` shadows it.
        self._labelset = frozenset(self.labelnames)
        self._lock = lock
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if labels.keys() != self._labelset:
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple([str(labels[n]) for n in self.labelnames])

    def series(self) -> dict:
        """Snapshot of every label-series value (label tuple -> value)."""
        with self._lock:
            return {k: self._copy_value(v) for k, v in self._series.items()}

    @staticmethod
    def _copy_value(value):
        return value


class Counter(_Metric):
    """A monotonically increasing total (per label series)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (>= 0) to the series selected by ``labels``."""
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(
                f"counter {self.name!r} can only increase, got {value!r}"
            )
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current total of one label series (0.0 when never incremented)."""
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count", "exemplars")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # last slot = +Inf bucket
        self.sum = 0.0
        self.count = 0
        # bucket index -> {"labels": {...}, "value": v, "timestamp": ts};
        # populated only when observe() is handed an exemplar, so
        # exemplar-free histograms pay nothing.
        self.exemplars: dict[int, dict] | None = None


class Histogram(_Metric):
    """A fixed-bucket distribution; buckets are upper bounds (``le``)."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets) -> None:
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(
            not math.isfinite(b) for b in bounds
        ) or list(bounds) != sorted(frozenset(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be finite and strictly "
                f"increasing, got {bounds}"
            )
        self.buckets = bounds

    def observe(self, value: float, exemplar: dict | None = None, **labels) -> None:
        """Record one observation into the series selected by ``labels``.

        NaN observations are dropped (a NaN would poison ``sum`` and
        land in no meaningful bucket — robust pipelines can legitimately
        produce NaN residuals for quarantined members).

        ``exemplar`` is an optional label dict (e.g. ``{"trace_id":
        "..."}``): the last exemplar per bucket is kept and rendered as
        an OpenMetrics exemplar on that bucket's sample line, so a p99
        bucket points at a concrete trace to pull up.
        """
        value = float(value)
        if math.isnan(value):
            return
        key = self._key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets)
                )
            series.counts[idx] += 1
            series.sum += value
            series.count += 1
            if exemplar:
                if series.exemplars is None:
                    series.exemplars = {}
                series.exemplars[idx] = {
                    "labels": {str(k): str(v) for k, v in exemplar.items()},
                    "value": value,
                    "timestamp": time.time(),
                }

    def observe_many(self, values, **labels) -> None:
        """Record every value of ``values`` into one series, in order.

        The series ends exactly as one :meth:`observe` per value would
        leave it (NaN dropped, ``sum`` added up value by value), under
        one label lookup and one lock.
        """
        key = self._key(labels)
        buckets = self.buckets
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(buckets))
            counts, total, n = series.counts, series.sum, series.count
            for value in values:
                value = float(value)
                if math.isnan(value):
                    continue
                counts[bisect.bisect_left(buckets, value)] += 1
                total += value
                n += 1
            series.sum, series.count = total, n

    def snapshot(self, **labels) -> dict:
        """``{"buckets": {le: cumulative_count}, "sum": s, "count": n}``
        for one label series (all-zero when never observed)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            counts = list(series.counts) if series else [0] * (
                len(self.buckets) + 1
            )
            total = series.sum if series else 0.0
            n = series.count if series else 0
        cumulative, running = {}, 0
        for bound, c in zip(self.buckets, counts):
            running += c
            cumulative[bound] = running
        cumulative[math.inf] = running + counts[-1]
        return {"buckets": cumulative, "sum": total, "count": n}

    @staticmethod
    def _copy_value(value):
        copied = {
            "counts": list(value.counts),
            "sum": value.sum,
            "count": value.count,
        }
        if value.exemplars:
            copied["exemplars"] = {
                idx: dict(ex) for idx, ex in value.exemplars.items()
            }
        return copied


_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with create-or-get registration.

    ``counter()`` / ``gauge()`` / ``histogram()`` return the existing
    instrument when the name is already registered (validating that the
    kind, label names and buckets agree), so call sites never need to
    coordinate registration order.  All mutation is guarded by one lock,
    making the registry safe to scrape from the metrics HTTP endpoint
    while kernels feed it.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> runs = registry.counter(
    ...     "demo_runs_total", "Demo runs.", labelnames=("kind",)
    ... )
    >>> runs.inc(kind="fast"); runs.inc(2, kind="slow")
    >>> runs.value(kind="slow")
    2.0
    >>> sorted(f.name for f in registry.collect())
    ['demo_runs_total']
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration (create-or-get) ----------------------------------

    def _register(self, kind: str, name: str, help: str, labelnames, **extra):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(
                    f"invalid label name {label!r} for metric {name!r}"
                )
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                if kind == "histogram" and existing.buckets != tuple(
                    float(b) for b in extra["buckets"]
                ):
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        f"buckets {existing.buckets}"
                    )
                return existing
            metric = _METRIC_CLASSES[kind](
                name, help, labelnames, self._lock, **extra
            )
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets=SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(
            "histogram", name, help, labelnames, buckets=buckets
        )

    # -- reading back --------------------------------------------------

    def get(self, name: str) -> _Metric:
        """The registered instrument called ``name`` (KeyError if absent)."""
        with self._lock:
            return self._metrics[name]

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def collect(self) -> list[MetricFamily]:
        """Every metric as a :class:`MetricFamily`, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [
            MetricFamily(
                name=m.name,
                kind=m.kind,
                help=m.help,
                labelnames=m.labelnames,
                samples=m.series(),
                buckets=getattr(m, "buckets", None),
            )
            for m in metrics
        ]

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric (the BENCH payload format)."""
        out = {}
        for family in self.collect():
            series = []
            for key, value in sorted(family.samples.items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    # Exemplars are scrape-surface decoration, not part
                    # of the stable BENCH payload shape.
                    value = {k: v for k, v in value.items() if k != "exemplars"}
                    series.append({"labels": labels, **value})
                else:
                    series.append({"labels": labels, "value": value})
            entry = {"kind": family.kind, "help": family.help,
                     "series": series}
            if family.buckets is not None:
                entry["buckets"] = list(family.buckets)
            out[family.name] = entry
        return out

    def reset(self) -> None:
        """Drop every recorded value (registrations survive)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._series.clear()


# -- the process-wide default registry and its enable gate -------------

_default_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (always available, gate aside)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable_metrics() -> None:
    """Open the gate: hot paths start feeding the default registry."""
    global _enabled
    _enabled = True


def disable_metrics() -> None:
    global _enabled
    _enabled = False


def metrics_enabled() -> bool:
    """Whether hot-path instrumentation currently records anything."""
    return _enabled


@contextmanager
def collecting_metrics(registry: MetricsRegistry | None = None):
    """Enable metrics collection for a block, yielding the registry.

    Pass a fresh :class:`MetricsRegistry` to collect in isolation (the
    default registry is swapped in-place and restored on exit — the
    pattern every test uses); with no argument the process-wide default
    registry collects.

    Examples
    --------
    >>> from repro.normalize.sinkhorn import sinkhorn_knopp
    >>> with collecting_metrics(MetricsRegistry()) as registry:
    ...     _ = sinkhorn_knopp([[1.0, 2.0], [3.0, 4.0]])
    >>> registry.get("repro_sinkhorn_runs_total").value(
    ...     kernel="scalar", converged="true")
    1.0
    """
    global _enabled
    previous_registry = None
    if registry is not None:
        previous_registry = set_registry(registry)
    previous_enabled = _enabled
    _enabled = True
    try:
        yield _default_registry
    finally:
        _enabled = previous_enabled
        if previous_registry is not None:
            set_registry(previous_registry)


# -- the metric families the library publishes --------------------------
#
# One row per family: (name, kind, label names, buckets, help).  Hot
# paths feed a family by name through the gated verbs below, so a
# family's identity — what ``/metrics`` shows under TYPE and HELP — is
# spelled out here and nowhere else.  Comments list the label values
# the callers use.

FAMILIES = (
    # kernel: scalar | margins | batched; batched runs count per slice.
    ("repro_sinkhorn_runs_total", "counter", ("kernel", "converged"), None,
     "Sinkhorn kernel runs by kernel and convergence outcome."),
    ("repro_sinkhorn_iterations", "histogram", ("kernel",), ITERATION_BUCKETS,
     "Full (column+row) Sinkhorn iterations to tolerance per run."),
    ("repro_sinkhorn_exit_residual", "histogram", ("kernel",), RESIDUAL_BUCKETS,
     "Largest row/column-sum deviation at kernel exit."),
    # outcome: converged | pending.
    ("repro_backend_warm_start_total", "counter", ("kernel", "outcome"), None,
     "Warm-started Sinkhorn runs by kernel and convergence outcome."),
    ("repro_svd_seconds", "histogram", ("kernel",), SECONDS_BUCKETS,
     "Wall time of the singular-value decompositions behind TMA."),
    # path: batched | fallback.
    ("repro_ensemble_members_total", "counter", ("path",), None,
     "Ensemble members characterized, by kernel dispatch path."),
    # outcome: quarantined | repaired | fault.<taxonomy slug>.
    ("repro_member_outcomes_total", "counter", ("outcome",), None,
     "Robust ensemble member outcomes by quarantine taxonomy slug."),
    ("repro_characterize_runs_total", "counter", ("tma_method",), None,
     "Full heterogeneity characterizations by TMA method."),
    # Folded from completed recordings by fold_recorder().
    ("repro_span_seconds", "histogram", ("span",), SECONDS_BUCKETS,
     "Wall time of recorded obs spans, by span name."),
    ("repro_spans_total", "counter", ("span",), None,
     "Recorded obs spans, by span name."),
    ("repro_span_errors_total", "counter", ("span",), None,
     "Recorded obs spans that exited by raising, by span name."),
    ("repro_obs_counter_total", "counter", ("counter",), None,
     "Recorder counter totals folded at session close, by name."),
    ("repro_obs_gauge", "gauge", ("gauge",), None,
     "Last recorded obs gauge value, by name."),
    # source: cold | batched | inflight | cache-memory | cache-disk |
    # shed | error.  Scrapes never land here (see the scrape families).
    ("repro_serve_requests_total", "counter", ("endpoint", "status"), None,
     "Characterization service requests by endpoint and HTTP status."),
    ("repro_serve_request_seconds", "histogram",
     ("endpoint", "source"), SECONDS_BUCKETS,
     "Service request wall time by endpoint and serving path."),
    # kind: metrics | healthz.
    ("repro_serve_scrapes_total", "counter", ("kind", "status"), None,
     "Observability scrapes (metrics/health endpoints) by kind and status."),
    ("repro_serve_scrape_seconds", "histogram", ("kind",), SECONDS_BUCKETS,
     "Wall time of observability scrapes, by kind."),
    ("repro_serve_coalesce_batch_size", "histogram", ("endpoint",), BATCH_SIZE_BUCKETS,
     "Requests per coalesced kernel batch, by endpoint."),
    ("repro_serve_kernel_invocations_total", "counter", ("endpoint",), None,
     "Batched kernel calls issued by the coalescer, by endpoint."),
    # event: hit-memory | hit-disk | miss | store | spill | spill_error.
    ("repro_serve_cache_events_total", "counter", ("event",), None,
     "Content-addressed result cache events."),
    ("repro_serve_quarantined_total", "counter", ("endpoint", "category"), None,
     "Service requests quarantined, by endpoint and fault category."),
    ("repro_serve_admitted_total", "counter", ("endpoint",), None,
     "Requests admitted to the compute path, by endpoint."),
    # reason: queue-full | draining.
    ("repro_serve_shed_total", "counter", ("endpoint", "reason"), None,
     "Requests shed with a structured 503, by endpoint and reason."),
    # stage: entry | admission | coalesce.
    ("repro_serve_deadline_exceeded_total", "counter", ("endpoint", "stage"), None,
     "Requests shed at their deadline, by endpoint and pipeline stage."),
    # event: started | flushed | completed | timeout.
    ("repro_serve_drain_total", "counter", ("event",), None,
     "Graceful-drain lifecycle events."),
    ("repro_serve_admission_limit", "gauge", ("endpoint",), None,
     "Current adaptive admission limit, by endpoint."),
    # mode: serial | pool.
    ("repro_shard_chunks_total", "counter", ("mode",), None,
     "Shard chunks characterized, by dispatch mode."),
    ("repro_shard_members_total", "counter", ("mode",), None,
     "Ensemble members streamed through the shard engine, by mode."),
    ("repro_shard_chunk_seconds", "histogram", ("mode",), SECONDS_BUCKETS,
     "Wall time of one shard chunk (read + characterize), by mode."),
    # event: primary | speculative | winner_primary | winner_backup |
    # cancelled.
    ("repro_shard_dispatch_total", "counter", ("event",), None,
     "Shard scheduler dispatch events (straggler mitigation)."),
)

_FAMILY_ROWS = {row[0]: row for row in FAMILIES}


def _instrument(name: str, registry: MetricsRegistry) -> _Metric:
    """``registry``'s instrument for family ``name``, made from its row
    on first use (one dict lookup once it exists)."""
    metric = registry._metrics.get(name)
    if metric is None:
        _, kind, labelnames, buckets, help = _FAMILY_ROWS[name]
        extra = {} if buckets is None else {"buckets": buckets}
        metric = registry._register(kind, name, help, labelnames, **extra)
    return metric


# -- the gated verbs ---------------------------------------------------
#
# They feed the *current* default registry, so a swapped one
# (collecting_metrics(fresh)) is always the one fed.  Each returns
# at once while the gate is closed; that check IS the disabled-path
# cost the overhead benchmark budgets.


def inc(name: str, value: float = 1.0, **labels) -> None:
    """Add ``value`` to one series of counter family ``name``."""
    if _enabled:
        _instrument(name, _default_registry).inc(value, **labels)


def observe(name: str, value: float, exemplar: dict | None = None, **labels) -> None:
    """Record ``value`` into one series of histogram family ``name``.

    ``exemplar`` (e.g. ``{"trace_id": ...}``) ties the bucket the value
    fell into to a concrete trace.
    """
    if _enabled:
        _instrument(name, _default_registry).observe(value, exemplar, **labels)


def observe_many(name: str, values, **labels) -> None:
    """Record each of ``values``, in order, into one series of histogram
    family ``name`` (a batch of runs fed in one call)."""
    if _enabled:
        _instrument(name, _default_registry).observe_many(values, **labels)


def set(name: str, value: float, **labels) -> None:  # noqa: A001
    """Set one series of gauge family ``name`` to ``value``."""
    if _enabled:
        _instrument(name, _default_registry).set(value, **labels)


def preregister(*names: str) -> None:
    """Register families ``names`` before their first sample.

    The server preregisters its resilience families at startup, so a
    scrape of a healthy server already shows their HELP/TYPE lines and
    a dashboard wired against it keeps working once overload starts.
    """
    if _enabled:
        for name in names:
            _instrument(name, _default_registry)


def fold_recorder(
    recorder, registry: MetricsRegistry | None = None
) -> None:
    """Fold a completed :class:`repro.obs.Recorder` into a registry.

    Spans land in the ``repro_span_seconds`` histogram (one ``span``
    label series per span name) plus ``repro_spans_total`` /
    ``repro_span_errors_total`` counters; the recorder's counter totals
    accumulate onto ``repro_obs_counter_total`` and its gauges set
    ``repro_obs_gauge`` (last value per name wins).

    :func:`repro.obs.recording` calls this automatically on exit while
    metrics collection is enabled, so CLI profile runs and long-lived
    services feed the scrape endpoint with no extra wiring.
    """
    if registry is None:
        registry = _default_registry
    span_seconds = _instrument("repro_span_seconds", registry)
    spans_total = _instrument("repro_spans_total", registry)
    span_errors = _instrument("repro_span_errors_total", registry)
    for event in recorder.events:
        span_seconds.observe(event.wall_s, span=event.name)
        spans_total.inc(span=event.name)
        if event.error is not None:
            span_errors.inc(span=event.name)
    counter_total = _instrument("repro_obs_counter_total", registry)
    for name, total in recorder.counters.items():
        counter_total.inc(total, counter=name)
    gauges = recorder.gauges
    if gauges:
        gauge = _instrument("repro_obs_gauge", registry)
        for event in gauges:
            gauge.set(event.value, gauge=event.name)
