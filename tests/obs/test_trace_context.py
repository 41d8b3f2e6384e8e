"""TraceContext propagation primitives: ids, headers, spans, stages."""

from __future__ import annotations

import contextvars
import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    TIMING_STAGES,
    LoggingSink,
    MemorySink,
    Recorder,
    RequestTrace,
    TraceContext,
    current_recorder,
    current_trace,
    recording,
    span,
    trace_scope,
    tracing,
)
from repro.obs.events import jsonable


class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16), int(ctx.span_id, 16)
        assert ctx.parent_id is None

    def test_ids_are_unique(self):
        contexts = [TraceContext.new() for _ in range(64)]
        assert len({c.trace_id for c in contexts}) == 64
        assert len({c.span_id for c in contexts}) == 64

    def test_ids_stay_unique_across_batches_and_well_formed(self):
        # Root ids come from pre-drawn batches; several batches' worth
        # must still be distinct lowercase hex of the W3C widths.
        contexts = [TraceContext.new() for _ in range(1000)]
        assert len({c.trace_id for c in contexts}) == 1000
        assert len({c.span_id for c in contexts}) == 1000
        hexdigits = set("0123456789abcdef")
        for c in contexts:
            assert len(c.trace_id) == 32 and set(c.trace_id) <= hexdigits
            assert len(c.span_id) == 16 and set(c.span_id) <= hexdigits

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_never_repeats_the_parents_ids(self):
        TraceContext.new()  # the parent now holds a part-used batch
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.close(read_end)
            os.write(write_end, TraceContext.new().trace_id.encode())
            os._exit(0)
        os.close(write_end)
        child_id = os.read(read_end, 64).decode()
        os.close(read_end)
        os.waitpid(pid, 0)
        parent_ids = {TraceContext.new().trace_id for _ in range(300)}
        assert len(child_id) == 32
        assert child_id not in parent_ids

    def test_child_shares_trace_and_links_parent(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_traceparent_roundtrip(self):
        ctx = TraceContext.new()
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-beef-01",
            "00-" + "0" * 32 + "-" + "ab" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span id
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
        ids=[
            "none", "empty", "garbage", "short", "zero-trace",
            "zero-span", "version-ff", "non-hex",
        ],
    )
    def test_malformed_traceparent_yields_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_traceparent_case_insensitive(self):
        header = "00-" + "AB" * 16 + "-" + "CD" * 8 + "-01"
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None and parsed.trace_id == "ab" * 16

    def test_payload_roundtrip_is_pickle_safe(self):
        child = TraceContext.new().child()
        payload = child.to_payload()
        json.dumps(payload)  # plain-dict, JSON/pickle friendly
        back = TraceContext.from_payload(payload)
        assert back == child

    def test_from_payload_tolerates_garbage(self):
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None
        assert TraceContext.from_payload({"trace_id": "x"}) is None


class TestRequestTrace:
    def test_begin_without_header_mints_root(self):
        rtrace = RequestTrace.begin()
        assert rtrace.context.parent_id is None
        assert rtrace.remote_parent is False

    def test_begin_adopts_remote_parent(self):
        remote = TraceContext.new()
        rtrace = RequestTrace.begin(remote.to_traceparent())
        assert rtrace.remote_parent is True
        assert rtrace.context.trace_id == remote.trace_id
        assert rtrace.context.parent_id == remote.span_id

    def test_begin_with_bad_header_starts_fresh(self):
        rtrace = RequestTrace.begin("not-a-traceparent")
        assert rtrace.remote_parent is False

    def test_timings_sum_to_total_by_construction(self):
        rtrace = RequestTrace.begin()
        rtrace.add("kernel_s", 0.2)
        rtrace.add("cache_s", 0.05)
        timings = rtrace.timings(0.5)
        assert set(timings) == set(TIMING_STAGES)
        assert sum(timings.values()) == pytest.approx(0.5)
        assert timings["other_s"] == pytest.approx(0.25)

    def test_other_s_never_negative(self):
        rtrace = RequestTrace.begin()
        rtrace.add("kernel_s", 2.0)
        assert rtrace.timings(1.0)["other_s"] == 0.0

    def test_add_accumulates_and_ignores_nonpositive(self):
        rtrace = RequestTrace.begin()
        rtrace.add("cache_s", 0.1)
        rtrace.add("cache_s", 0.2)
        rtrace.add("cache_s", 0.0)
        rtrace.add("cache_s", -1.0)
        assert rtrace.stages["cache_s"] == pytest.approx(0.3)


class TestTracer:
    """Spans recorded under an explicit context (``emit_span``) and the
    process-wide recorder."""

    def test_emit_span_writes_straight_to_sink(self):
        sink = MemorySink()
        rec = Recorder([sink], process="unit")
        ctx = TraceContext.new()
        rec.emit_span("demo", ctx, wall_s=0.5, meta={"k": 1})
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["type"] == "span"
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        assert record["process"] == "unit"
        assert record["meta"] == {"k": 1}
        json.dumps(record)

    def test_span_context_manager_records_errors(self):
        sink = MemorySink()
        ctx = TraceContext.new()
        with Recorder([sink]).activate(), trace_scope(ctx):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("nope")
        [record] = sink.records
        assert record["error"] == "RuntimeError"
        assert record["trace_id"] == ctx.trace_id

    def test_links_survive_to_the_record(self):
        sink = MemorySink()
        rec = Recorder([sink])
        members = [TraceContext.new() for _ in range(3)]
        rec.emit_span(
            "fan-in",
            TraceContext.new(),
            wall_s=0.1,
            links=[m.link() for m in members],
        )
        links = sink.records[0]["links"]
        assert [l["span_id"] for l in links] == [m.span_id for m in members]

    def test_index_is_monotonic(self):
        sink = MemorySink()
        rec = Recorder([sink])
        for _ in range(5):
            rec.emit_span("s", TraceContext.new(), wall_s=0.0)
        assert [r["index"] for r in sink.records] == list(range(5))


class TestAmbientState:
    def test_trace_scope_binds_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext.new()
        with trace_scope(ctx):
            assert current_trace() is ctx
        assert current_trace() is None

    def test_tracing_installs_process_tracer(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        assert current_recorder() is None
        with tracing(str(path)) as rec:
            assert current_recorder() is rec
            assert rec.sinks[0].path == str(path)
            rec.emit_span("demo", TraceContext.new(), wall_s=0.1)
        assert current_recorder() is None
        assert path.exists()

    def test_recorder_spans_pick_up_ambient_trace(self):
        ctx = TraceContext.new()
        with recording() as rec:
            with trace_scope(ctx):
                with span("traced.step"):
                    pass
            with span("untraced.step"):
                pass
        by_name = {e.name: e for e in rec.events}
        traced = by_name["traced.step"]
        assert traced.trace_id == ctx.trace_id
        assert traced.parent_id == ctx.span_id
        record = traced.to_record()
        assert record["trace_id"] == ctx.trace_id
        untraced = by_name["untraced.step"]
        assert untraced.trace_id is None
        assert "trace_id" not in untraced.to_record()


def _kernel():
    with span("kernel"):
        pass


class TestOneSpanModel:
    def test_nested_spans_nest_under_trace_scope(self):
        ctx = TraceContext.new()
        with recording() as rec, trace_scope(ctx):
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {e.name: e for e in rec.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.parent_id == ctx.span_id
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == ctx.trace_id
        assert (outer.depth, inner.depth) == (0, 1)

    def test_open_span_context_reaches_a_copied_thread_context(self):
        """The coalescer's pattern: a kernel thread running in a copy of
        the flushing context nests its spans under the open span."""
        ctx = TraceContext.new()
        with recording() as rec, trace_scope(ctx):
            with span("batch"):
                copied = contextvars.copy_context()
            worker = threading.Thread(target=copied.run, args=(_kernel,))
            worker.start()
            worker.join()
        by_name = {e.name: e for e in rec.events}
        assert by_name["kernel"].parent_id == by_name["batch"].span_id

    def test_logging_sink_accepts_every_span_record(self, caplog):
        logger = logging.getLogger("repro.obs.one_model")
        rec = Recorder([LoggingSink(logger)])
        with caplog.at_level(logging.DEBUG, logger=logger.name):
            rec.emit_span("emitted", TraceContext.new(), wall_s=0.01)
            with rec.activate():
                with span("untraced"):
                    pass
                with trace_scope(TraceContext.new()), span("traced"):
                    pass
        messages = [r.getMessage() for r in caplog.records]
        for name in ("emitted", "untraced", "traced"):
            assert any(m.startswith(f"span {name} ") for m in messages), name

    def test_zero_d_array_meta_reaches_a_jsonl_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with recording(trace_path=str(path)):
            meta = {"value": np.array(3.0), "nested": {"n": np.array(2)}}
            with span("zero.d", **meta):
                pass
        [record] = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["type"] == "span"
        ]
        assert record["meta"] == {"value": 3.0, "nested": {"n": 2}}

    def test_jsonable_coerces_zero_d_arrays(self):
        assert jsonable(np.array(3.0)) == 3.0
        assert jsonable({"k": np.array(7)}) == {"k": 7}
        assert jsonable([np.array(1.5), np.float64(2.0)]) == [1.5, 2.0]

    def test_tracing_is_process_wide_and_keeps_nothing(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        ctx = TraceContext.new()

        def work():
            with trace_scope(ctx), span("from.thread"):
                pass

        with tracing(str(path)) as rec:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        assert rec.events == [] and rec.gauges == []
        [record] = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert record["name"] == "from.thread"
        assert record["parent_id"] == ctx.span_id
        assert record["pid"] == os.getpid()
        assert record["start"] == pytest.approx(time.time(), abs=60.0)

    def test_recording_shadows_the_process_recorder(self, tmp_path):
        with tracing(str(tmp_path / "spans.jsonl")) as process_rec:
            with recording() as rec:
                assert current_recorder() is rec
                with span("inner"):
                    pass
            assert current_recorder() is process_rec
        assert [e.name for e in rec.events] == ["inner"]
        assert not (tmp_path / "spans.jsonl").exists()
