"""Query JSONL span sinks by trace id, latency, or recency.

Backs the ``repro-hc trace query`` CLI.  The loader is deliberately
forgiving about a *partial final line*: a server killed mid-write (e.g.
SIGTERM during a traced request) leaves at most one truncated record at
the end of the file, and that must not make the whole file unreadable.
Malformed lines elsewhere still raise — they indicate real corruption,
not an interrupted write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "TraceView",
    "load_spans",
    "group_traces",
    "query_traces",
    "format_trace",
]


def load_spans(path: str) -> list[dict]:
    """Load span records from a JSONL file.

    Returns only ``type == "span"`` records that carry a ``trace_id``.
    A truncated final line is skipped; malformed interior lines raise
    ``ValueError`` naming the line number.
    """
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # interrupted final write; everything before it is intact
            raise ValueError(f"{path}:{number}: malformed span record") from None
        if isinstance(record, dict) and record.get("type") == "span":
            if record.get("trace_id"):
                spans.append(record)
    return spans


@dataclass
class TraceView:
    """All spans sharing one trace id, ordered for display."""

    trace_id: str
    spans: list[dict] = field(default_factory=list)

    @property
    def root(self) -> dict | None:
        """The root span: no parent, or a parent not present in the file
        (i.e. the parent lives in an upstream service)."""
        span_ids = {span.get("span_id") for span in self.spans}
        candidates = [
            span
            for span in self.spans
            if span.get("parent_id") is None or span.get("parent_id") not in span_ids
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda span: float(span.get("wall_s", 0.0)))

    @property
    def total_s(self) -> float:
        root = self.root
        if root is not None:
            return float(root.get("wall_s", 0.0))
        return max((float(span.get("wall_s", 0.0)) for span in self.spans), default=0.0)

    @property
    def start(self) -> float:
        return min((float(span.get("start", 0.0)) for span in self.spans), default=0.0)


def group_traces(spans: list[dict]) -> list[TraceView]:
    """Group spans by trace id, preserving first-seen order."""
    by_id: dict[str, TraceView] = {}
    for span in spans:
        trace_id = span["trace_id"]
        view = by_id.get(trace_id)
        if view is None:
            view = by_id[trace_id] = TraceView(trace_id=trace_id)
        view.spans.append(span)
    return list(by_id.values())


def query_traces(
    spans: list[dict],
    *,
    trace_id: str | None = None,
    slower_than_s: float | None = None,
    last: int | None = None,
) -> list[TraceView]:
    """Filter grouped traces; filters compose (AND)."""
    views = group_traces(spans)
    if trace_id is not None:
        views = [view for view in views if view.trace_id.startswith(trace_id)]
    if slower_than_s is not None:
        views = [view for view in views if view.total_s >= slower_than_s]
    views.sort(key=lambda view: view.start)
    if last is not None and last >= 0:
        views = views[len(views) - min(last, len(views)) :]
    return views


def _children(view: TraceView) -> dict[str | None, list[dict]]:
    tree: dict[str | None, list[dict]] = {}
    for span in view.spans:
        tree.setdefault(span.get("parent_id"), []).append(span)
    for siblings in tree.values():
        siblings.sort(key=lambda span: (float(span.get("start", 0.0)), span.get("index", 0)))
    return tree


def format_trace(view: TraceView) -> str:
    """Render one trace as an indented span tree with timings."""
    lines = [f"trace {view.trace_id}  total {view.total_s * 1e3:.2f} ms"]
    tree = _children(view)
    span_ids = {span.get("span_id") for span in view.spans}
    roots = [
        span
        for span in view.spans
        if span.get("parent_id") is None or span.get("parent_id") not in span_ids
    ]
    seen: set[str] = set()

    def walk(span: dict, depth: int) -> None:
        span_id = span.get("span_id", "?")
        if span_id in seen:
            return
        seen.add(span_id)
        indent = "  " * depth
        wall_ms = float(span.get("wall_s", 0.0)) * 1e3
        extras = []
        meta = span.get("meta") or {}
        for key in (
            "endpoint", "status", "source", "outcome", "batch_size", "attempt",
            "iterations", "converged_slices",
        ):
            if key in meta:
                extras.append(f"{key}={meta[key]}")
        links = span.get("links") or []
        if links:
            extras.append(f"links={len(links)}")
        suffix = f"  [{' '.join(extras)}]" if extras else ""
        lines.append(f"{indent}- {span.get('name', '?')}  {wall_ms:.2f} ms  span={span_id}{suffix}")
        timings = meta.get("timings")
        if isinstance(timings, dict):
            for stage, seconds in timings.items():
                lines.append(f"{indent}    {stage:<18} {float(seconds) * 1e3:10.3f} ms")
        for child in tree.get(span_id, []):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda span: float(span.get("start", 0.0))):
        walk(root, 0)
    return "\n".join(lines)
