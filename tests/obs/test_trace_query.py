"""Span-file loading/querying, and sink integrity under shutdown.

The second half is the crash-safety contract of the serving span sinks:
a SIGTERM'd server loses at most the record being written (the loader
tolerates exactly that truncated final line), and concurrent pool
workers appending to one shared span file never interleave lines.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    JsonlSink,
    Recorder,
    RotatingJsonlSink,
    TraceContext,
    format_trace,
    group_traces,
    load_spans,
    query_traces,
)


def _span(trace_id, span_id, *, parent=None, wall_s=0.1, start=0.0, **meta):
    return {
        "type": "span",
        "name": meta.pop("name", "step"),
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent,
        "start": start,
        "wall_s": wall_s,
        "cpu_s": wall_s,
        "meta": meta,
    }


def _write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )


class TestLoadSpans:
    def test_loads_span_records_only(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        _write_jsonl(path, [
            _span("t" * 32, "a" * 16),
            {"type": "counter", "name": "n", "value": 1},
            {"type": "span", "name": "untraced", "wall_s": 0.1},
        ])
        spans = load_spans(str(path))
        assert len(spans) == 1
        assert spans[0]["span_id"] == "a" * 16

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        _write_jsonl(path, [_span("t" * 32, "a" * 16)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "trace_id": "tr')  # cut mid-write
        spans = load_spans(str(path))
        assert len(spans) == 1

    def test_interior_corruption_raises_with_line_number(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        _write_jsonl(path, [_span("t" * 32, "a" * 16)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
            handle.write(json.dumps(_span("t" * 32, "b" * 16)) + "\n")
        with pytest.raises(ValueError, match=r":2: malformed span record"):
            load_spans(str(path))


class TestQueryTraces:
    def _spans(self):
        fast, slow = "f" * 32, "5" * 32
        return [
            _span(fast, "a" * 16, wall_s=0.010, start=1.0, name="serve.request"),
            _span(fast, "b" * 16, parent="a" * 16, wall_s=0.008, start=1.0),
            _span(slow, "c" * 16, wall_s=0.900, start=2.0, name="serve.request"),
        ]

    def test_group_preserves_first_seen_order(self):
        views = group_traces(self._spans())
        assert [v.trace_id for v in views] == ["f" * 32, "5" * 32]
        assert len(views[0].spans) == 2

    def test_root_and_total(self):
        views = group_traces(self._spans())
        assert views[0].root["span_id"] == "a" * 16
        assert views[0].total_s == pytest.approx(0.010)

    def test_trace_id_prefix_filter(self):
        views = query_traces(self._spans(), trace_id="f" * 4)
        assert [v.trace_id for v in views] == ["f" * 32]

    def test_slower_than_filter(self):
        views = query_traces(self._spans(), slower_than_s=0.5)
        assert [v.trace_id for v in views] == ["5" * 32]

    def test_last_takes_most_recent_by_start(self):
        views = query_traces(self._spans(), last=1)
        assert [v.trace_id for v in views] == ["5" * 32]

    def test_filters_compose(self):
        assert query_traces(
            self._spans(), trace_id="f", slower_than_s=0.5
        ) == []

    def test_format_trace_renders_tree_and_timings(self):
        trace_id = "d" * 32
        root = _span(
            trace_id, "a" * 16, wall_s=0.02, name="serve.request",
            endpoint="characterize", status=200,
        )
        root["meta"]["timings"] = {"kernel_s": 0.015, "other_s": 0.005}
        child = _span(
            trace_id, "b" * 16, parent="a" * 16, wall_s=0.015,
            name="serve.kernel",
        )
        text = format_trace(group_traces([root, child])[0])
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {trace_id}")
        assert "- serve.request" in lines[1]
        assert "endpoint=characterize" in lines[1]
        assert any("kernel_s" in line for line in lines)
        # The child is indented one level under the root.
        child_line = next(l for l in lines if "serve.kernel" in l)
        assert child_line.startswith("  - ")


    def test_format_trace_shows_kernel_iteration_counts(self):
        trace_id = "e" * 32
        root = _span(trace_id, "1" * 16, name="serve.kernel", batch_size=2)
        sinkhorn = _span(
            trace_id, "2" * 16, parent="1" * 16, name="sinkhorn.batched",
            iterations=7, converged_slices=2,
        )
        text = format_trace(group_traces([root, sinkhorn])[0])
        line = next(l for l in text.splitlines() if "sinkhorn.batched" in l)
        assert line.startswith("  - ")
        assert "iterations=7" in line and "converged_slices=2" in line


class TestSinkIntegrityUnderShutdown:
    def test_jsonl_sink_flushes_every_record(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"type": "span", "trace_id": "t" * 32, "wall_s": 0.1})
        # Readable *before* close: the line was flushed at emit time.
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        sink.close()

    def test_sigterm_loses_no_completed_spans(self, tmp_path):
        """Kill a tracer-owning process mid-run; every span emitted
        before the kill must be intact on disk."""
        path = tmp_path / "spans.jsonl"
        script = f"""
import sys, time
sys.path.insert(0, {repr(os.path.join(os.getcwd(), "src"))})
from repro.obs import JsonlSink, Recorder, TraceContext

rec = Recorder([JsonlSink({repr(str(path))})], process="victim")
for i in range(5):
    rec.emit_span("pre-kill", TraceContext.new(), wall_s=0.001)
print("ready", flush=True)
time.sleep(30)  # killed long before this returns; sink never closed
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            cwd="/root/repo",
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        finally:
            proc.kill()
        spans = load_spans(str(path))
        assert len(spans) == 5
        assert all(s["name"] == "pre-kill" for s in spans)

    def test_concurrent_pool_writers_never_interleave(self, tmp_path):
        """Many processes appending to one span file via O_APPEND: every
        line parses and nothing is lost (satellite: worker handoff)."""
        path = str(tmp_path / "shared.jsonl")
        jobs = [(path, worker, 25) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_append_batch, jobs))
        spans = load_spans(path)
        assert len(spans) == 100
        writers = {s["meta"]["writer"] for s in spans}
        assert writers == {0, 1, 2, 3}
        # Every record round-trips: no torn/interleaved lines anywhere
        # (load_spans would have raised on an interior malformed line).
        for record in spans:
            assert record["trace_id"] == "c" * 32


class TestRotatingSink:
    def test_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        sink = RotatingJsonlSink(str(path), max_bytes=200, backups=2)
        for index in range(40):
            sink.emit({"type": "slow_request", "index": index})
        sink.close()
        assert path.exists()
        assert (tmp_path / "slow.jsonl.1").exists()
        assert (tmp_path / "slow.jsonl.2").exists()
        assert not (tmp_path / "slow.jsonl.3").exists()
        # Newest records live in the live file, oldest in the deepest
        # backup; every surviving line parses.
        def indices(p):
            return [
                json.loads(line)["index"]
                for line in p.read_text(encoding="utf-8").splitlines()
            ]
        live = indices(path)
        oldest = indices(tmp_path / "slow.jsonl.2")
        assert live[-1] == 39
        assert max(oldest) < min(live)

    def test_backups_zero_truncates(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        sink = RotatingJsonlSink(str(path), max_bytes=120, backups=0)
        for index in range(30):
            sink.emit({"index": index})
        sink.close()
        assert not (tmp_path / "slow.jsonl.1").exists()
        content = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(content[-1])["index"] == 29


def _append_batch(job):
    """Pool target: a recorder of its own appends ``count`` span records
    to the shared file, one O_APPEND write each (module-level for
    pickling)."""
    path, writer, count = job
    rec = Recorder([JsonlSink(path)], process=f"writer-{writer}")
    for index in range(count):
        rec.emit_span(
            "worker.step",
            TraceContext("c" * 32, f"{writer:08x}{index:08x}"),
            wall_s=0.001,
            meta={"writer": writer, "index": index},
        )
        if index % 7 == 0:
            time.sleep(0.001)  # encourage interleaving across writers
    rec.close()
    return writer
