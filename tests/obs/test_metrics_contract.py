"""The ``/metrics`` contract: family names, TYPE, HELP, labels, buckets.

Dashboards and the repo benchmark diff ``/metrics`` by family name, so
every family the library can publish is pinned here literally.  A fixed
request sequence through :meth:`CharacterizationServer.exchange` must
publish exactly the serving families below, and a fixed library
sequence exactly the kernel, fold and shard families; each family's
kind, help text, label names and buckets must match byte for byte.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.obs import recording, render_prometheus, span
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.serve import CharacterizationServer, ServeConfig

from .test_export import _parse_exposition

_SECONDS = (1e-05, 0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)
_ITERATIONS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0, 10000.0,
    100000.0,
)
_RESIDUAL = (1e-12, 1e-10, 1e-08, 1e-06, 0.0001, 0.01, 1.0)
_BATCH = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

KERNEL_FAMILIES = {
    ("repro_backend_warm_start_total", "counter",
     "Warm-started Sinkhorn runs by kernel and convergence outcome.",
     ("kernel", "outcome"), None),
    ("repro_characterize_runs_total", "counter",
     "Full heterogeneity characterizations by TMA method.",
     ("tma_method",), None),
    ("repro_ensemble_members_total", "counter",
     "Ensemble members characterized, by kernel dispatch path.",
     ("path",), None),
    ("repro_member_outcomes_total", "counter",
     "Robust ensemble member outcomes by quarantine taxonomy slug.",
     ("outcome",), None),
    ("repro_sinkhorn_exit_residual", "histogram",
     "Largest row/column-sum deviation at kernel exit.",
     ("kernel",), _RESIDUAL),
    ("repro_sinkhorn_iterations", "histogram",
     "Full (column+row) Sinkhorn iterations to tolerance per run.",
     ("kernel",), _ITERATIONS),
    ("repro_sinkhorn_runs_total", "counter",
     "Sinkhorn kernel runs by kernel and convergence outcome.",
     ("kernel", "converged"), None),
    ("repro_svd_seconds", "histogram",
     "Wall time of the singular-value decompositions behind TMA.",
     ("kernel",), _SECONDS),
}

FOLD_FAMILIES = {
    ("repro_obs_counter_total", "counter",
     "Recorder counter totals folded at session close, by name.",
     ("counter",), None),
    ("repro_obs_gauge", "gauge",
     "Last recorded obs gauge value, by name.", ("gauge",), None),
    ("repro_span_errors_total", "counter",
     "Recorded obs spans that exited by raising, by span name.",
     ("span",), None),
    ("repro_span_seconds", "histogram",
     "Wall time of recorded obs spans, by span name.", ("span",), _SECONDS),
    ("repro_spans_total", "counter",
     "Recorded obs spans, by span name.", ("span",), None),
}

SHARD_FAMILIES = {
    ("repro_shard_chunk_seconds", "histogram",
     "Wall time of one shard chunk (read + characterize), by mode.",
     ("mode",), _SECONDS),
    ("repro_shard_chunks_total", "counter",
     "Shard chunks characterized, by dispatch mode.", ("mode",), None),
    ("repro_shard_dispatch_total", "counter",
     "Shard scheduler dispatch events (straggler mitigation).",
     ("event",), None),
    ("repro_shard_members_total", "counter",
     "Ensemble members streamed through the shard engine, by mode.",
     ("mode",), None),
}

SERVE_FAMILIES = {
    ("repro_serve_admission_limit", "gauge",
     "Current adaptive admission limit, by endpoint.", ("endpoint",), None),
    ("repro_serve_admitted_total", "counter",
     "Requests admitted to the compute path, by endpoint.",
     ("endpoint",), None),
    ("repro_serve_cache_events_total", "counter",
     "Content-addressed result cache events.", ("event",), None),
    ("repro_serve_coalesce_batch_size", "histogram",
     "Requests per coalesced kernel batch, by endpoint.",
     ("endpoint",), _BATCH),
    ("repro_serve_deadline_exceeded_total", "counter",
     "Requests shed at their deadline, by endpoint and pipeline stage.",
     ("endpoint", "stage"), None),
    ("repro_serve_drain_total", "counter",
     "Graceful-drain lifecycle events.", ("event",), None),
    ("repro_serve_kernel_invocations_total", "counter",
     "Batched kernel calls issued by the coalescer, by endpoint.",
     ("endpoint",), None),
    ("repro_serve_quarantined_total", "counter",
     "Service requests quarantined, by endpoint and fault category.",
     ("endpoint", "category"), None),
    ("repro_serve_request_seconds", "histogram",
     "Service request wall time by endpoint and serving path.",
     ("endpoint", "source"), _SECONDS),
    ("repro_serve_requests_total", "counter",
     "Characterization service requests by endpoint and HTTP status.",
     ("endpoint", "status"), None),
    ("repro_serve_shed_total", "counter",
     "Requests shed with a structured 503, by endpoint and reason.",
     ("endpoint", "reason"), None),
    ("repro_serve_scrape_seconds", "histogram",
     "Wall time of observability scrapes, by kind.", ("kind",), _SECONDS),
    ("repro_serve_scrapes_total", "counter",
     "Observability scrapes (metrics/health endpoints) by kind and status.",
     ("kind", "status"), None),
}


def _contract(registry: MetricsRegistry) -> set:
    return {
        (f.name, f.kind, f.help, f.labelnames, f.buckets)
        for f in registry.collect()
    }


def _body(matrix, **extra) -> bytes:
    return json.dumps({"matrix": matrix, **extra}, allow_nan=True).encode()


def test_serve_exchange_publishes_the_pinned_families():
    rng = np.random.default_rng(5)
    healthy = rng.uniform(0.5, 10.0, (4, 3)).tolist()
    nan = np.ones((4, 4))
    nan[0, 0] = np.nan
    requests = [
        ("POST", "/v1/characterize", _body(healthy)),       # cold
        ("POST", "/v1/characterize", _body(healthy)),       # cache hit
        ("POST", "/v1/standardize", _body(healthy)),
        ("POST", "/v1/recommend-heuristic", _body(healthy)),
        ("POST", "/v1/characterize", _body(nan.tolist())),  # 422
        ("POST", "/v1/characterize", b"{nope"),             # 400
        ("POST", "/v1/characterize", _body(healthy, deadline_ms=1e-6)),
        ("GET", "/healthz", b""),
        ("GET", "/metrics", b""),
    ]

    async def run(server):
        try:
            statuses = [
                (await server.exchange(method, path, body))[0]
                for method, path, body in requests
            ]
            await server.shutdown(drain_timeout_s=1.0)
            return statuses
        finally:
            await server.stop()

    registry = MetricsRegistry()
    with collecting_metrics(registry):
        server = CharacterizationServer(ServeConfig(linger_s=0.001))
        statuses = asyncio.run(run(server))
        text = render_prometheus(registry)
    assert statuses == [200, 200, 200, 200, 422, 400, 503, 200, 200]
    # Served batches run the robust batched pipeline: no scalar-only,
    # warm-start or ensemble dispatch families.
    served_kernel = {
        family for family in KERNEL_FAMILIES
        if family[0] not in (
            "repro_backend_warm_start_total",
            "repro_characterize_runs_total",
            "repro_ensemble_members_total",
        )
    }
    assert _contract(registry) == SERVE_FAMILIES | served_kernel
    exposition = _parse_exposition(text)
    assert {
        (name, family["type"], family["help"])
        for name, family in exposition.items()
    } == {(name, kind, help) for name, kind, help, _, _ in _contract(registry)}


def test_library_runs_publish_the_pinned_families(tmp_path):
    from repro import characterize
    from repro.batch import characterize_ensemble
    from repro.normalize.sinkhorn import sinkhorn_knopp
    from repro.robust import Budget
    from repro.shard import characterize_store, write_store

    rng = np.random.default_rng(9)
    stack = rng.uniform(0.5, 10.0, (6, 4, 3))
    stack[2, 0, 0] = 0.0  # a zero entry: the scalar fallback path
    faulty = stack.copy()
    faulty[4, 1, 1] = np.nan  # quarantined by the robust pipeline
    store = write_store(tmp_path / "store", stack)

    registry = MetricsRegistry()
    with collecting_metrics(registry):
        first = sinkhorn_knopp(stack[0])
        sinkhorn_knopp(
            stack[0], warm_start=(first.row_scale, first.col_scale)
        )
        characterize(stack[0])
        characterize_ensemble(stack)
        characterize_ensemble(faulty, policy="quarantine", budget=Budget())
        with recording() as rec:
            rec.counter("contract.counter", 2)
            rec.gauge("contract.gauge", 0.5)
            try:
                with span("contract.boom"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        characterize_store(store, chunk_size=3, n_jobs=1)
    assert _contract(registry) == (
        KERNEL_FAMILIES | FOLD_FAMILIES | SHARD_FAMILIES
    )
