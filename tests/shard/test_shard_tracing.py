"""Trace-context handoff into shard pool workers.

With an ambient tracer installed (``tracing(path)``), a pooled
``characterize_store`` run serializes a per-shard span context into each
worker's argument tuple; workers append their ``shard.worker`` spans to
the shared JSONL file with one O_APPEND write each.  Under speculation a
shard's primary and backup dispatches are *sibling* spans under one
``shard.dispatch`` parent — the loser's span is synthesized by the
scheduler (terminated stragglers cannot write their own).
"""

from __future__ import annotations

import pytest

from repro.obs import (
    TraceContext,
    group_traces,
    load_spans,
    trace_scope,
    tracing,
)
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.robust import Budget, FaultPlan
from repro.robust.chaos import FaultSpec
from repro.shard import characterize_store, write_store

from .conftest import random_stack

N_MEMBERS = 16
CHUNK = 8  # two shards


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    stack = random_stack(N_MEMBERS, 5, 4, seed=7)
    return write_store(tmp_path_factory.mktemp("traced") / "store", stack)


def _traced_run(store, trace_path, **kwargs):
    with collecting_metrics(MetricsRegistry()):
        with tracing(str(trace_path)):
            characterize_store(store, chunk_size=CHUNK, **kwargs)
    return load_spans(str(trace_path))


class TestPooledRunTracing:
    def test_worker_spans_hang_off_dispatch_parents(self, store, tmp_path):
        spans = _traced_run(store, tmp_path / "spans.jsonl", n_jobs=2)
        [view] = group_traces(spans)  # one run, one trace

        dispatches = [s for s in spans if s["name"] == "shard.dispatch"]
        workers = [s for s in spans if s["name"] == "shard.worker"]
        assert len(dispatches) == 2
        assert len(workers) == 2
        assert all(s["trace_id"] == view.trace_id for s in spans)

        dispatch_ids = {d["span_id"] for d in dispatches}
        assert {w["parent_id"] for w in workers} <= dispatch_ids
        # Worker spans carry their shard slice and real process ids.
        for worker in workers:
            assert worker["meta"]["members"] == CHUNK
            assert worker["process"].startswith("shard-worker-")
        # Each dispatch records its winner without speculation.
        for dispatch in dispatches:
            assert dispatch["meta"]["speculated"] is False
            assert dispatch["meta"]["winner"] == "primary"

    def test_dispatch_spans_adopt_the_ambient_context(
        self, store, tmp_path
    ):
        ambient = TraceContext.new()
        with collecting_metrics(MetricsRegistry()):
            with tracing(str(tmp_path / "spans.jsonl")):
                with trace_scope(ambient):
                    characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        spans = load_spans(str(tmp_path / "spans.jsonl"))
        assert spans and all(
            s["trace_id"] == ambient.trace_id for s in spans
        )
        # The run's own span nests under the ambient context, and the
        # dispatches under the run.
        run = next(
            s for s in spans if s["name"] == "shard.characterize_store"
        )
        assert run["parent_id"] == ambient.span_id
        for dispatch in (s for s in spans if s["name"] == "shard.dispatch"):
            assert dispatch["parent_id"] == run["span_id"]

    def test_speculation_yields_sibling_pair_under_one_parent(
        self, store, tmp_path
    ):
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", member=3, stall_s=3.0),)
        )
        spans = _traced_run(
            store,
            tmp_path / "spans.jsonl",
            n_jobs=2,
            policy="quarantine",
            fault_plan=plan,
            budget=Budget(member_timeout_s=0.25),
        )
        [view] = group_traces(spans)

        # The stalled shard's dispatch fathered two sibling attempts:
        # the backup's real worker span and the synthesized span of the
        # cancelled primary.
        speculated = next(
            s for s in spans
            if s["name"] == "shard.dispatch" and s["meta"]["speculated"]
        )
        siblings = [
            s for s in spans
            if s["parent_id"] == speculated["span_id"]
            and s["name"].startswith("shard.worker")
        ]
        assert len(siblings) == 2
        by_name = {s["name"]: s for s in siblings}
        assert set(by_name) == {"shard.worker", "shard.worker.lost"}
        lost = by_name["shard.worker.lost"]
        assert "cancelled" in lost["error"]
        assert lost["meta"]["attempt"] != by_name["shard.worker"]["meta"][
            "attempt"
        ]
        assert speculated["meta"]["winner"] == "backup"
        assert view.root["name"] == "shard.dispatch" or view.root[
            "parent_id"
        ] is None

    def test_untraced_pooled_run_emits_nothing(self, store, tmp_path):
        with collecting_metrics(MetricsRegistry()):
            characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        assert list(tmp_path.iterdir()) == []

    def test_serial_run_emits_no_dispatch_spans(self, store, tmp_path):
        with collecting_metrics(MetricsRegistry()):
            with tracing(str(tmp_path / "spans.jsonl")):
                characterize_store(store, chunk_size=CHUNK)
        # Serial path never dispatches; the lazily-opened sink may not
        # even have created the file.
        path = tmp_path / "spans.jsonl"
        spans = load_spans(str(path)) if path.exists() else []
        assert [
            s for s in spans if s["name"].startswith("shard.")
        ] == []
