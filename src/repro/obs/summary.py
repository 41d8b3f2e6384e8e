"""Aggregated span statistics: the ``repro-hc profile`` table.

:func:`summarize` folds a recorder's closed spans into one row per
span name — count, total/mean wall time, p50/p95/p99/max, CPU total —
sorted by total wall time so the hottest path tops the table.  The
result renders as an aligned text table (:meth:`SpanSummary.table`)
or a JSON-safe dict (:meth:`SpanSummary.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .events import jsonable
from .recorder import Recorder, current_recorder

__all__ = ["SpanStats", "SpanSummary", "summarize", "summary"]


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (q in [0, 1])."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class SpanStats:
    """Aggregate statistics of every span sharing one name."""

    name: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    cpu_s: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpanSummary:
    """Per-span-name aggregation of one recording session.

    ``rows`` is sorted by total wall time, descending; ``counters``
    carries the recorder's accumulated counter totals.
    """

    rows: tuple[SpanStats, ...]
    counters: dict

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, name: str) -> SpanStats:
        """The stats row for an exact span name (KeyError if absent)."""
        for stats in self.rows:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(stats.name for stats in self.rows)

    def covers(self, prefix: str) -> bool:
        """True when any span name matches ``prefix`` or ``prefix.*``."""
        return any(
            stats.name == prefix or stats.name.startswith(prefix + ".")
            for stats in self.rows
        )

    def to_dict(self) -> dict:
        return {
            "spans": [stats.to_dict() for stats in self.rows],
            "counters": {k: jsonable(v) for k, v in self.counters.items()},
        }

    def table(self) -> str:
        """Aligned text table, hottest span first (times in ms)."""
        if not self.rows:
            return "(no spans recorded)"
        name_w = max(len("span"), max(len(s.name) for s in self.rows))
        header = (
            f"{'span'.ljust(name_w)}  {'count':>5}  {'total':>9}  "
            f"{'mean':>9}  {'p50':>9}  {'p95':>9}  {'p99':>9}  "
            f"{'max':>9}  {'cpu':>9}"
        )
        lines = [header, "-" * len(header)]
        for s in self.rows:
            lines.append(
                f"{s.name.ljust(name_w)}  {s.count:>5d}  "
                f"{s.total_s * 1e3:>7.2f}ms  {s.mean_s * 1e3:>7.2f}ms  "
                f"{s.p50_s * 1e3:>7.2f}ms  {s.p95_s * 1e3:>7.2f}ms  "
                f"{s.p99_s * 1e3:>7.2f}ms  "
                f"{s.max_s * 1e3:>7.2f}ms  {s.cpu_s * 1e3:>7.2f}ms"
            )
        if self.counters:
            lines.append("")
            for name in sorted(self.counters):
                lines.append(f"counter {name} = {self.counters[name]:g}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


def summarize(recorder: Recorder) -> SpanSummary:
    """Aggregate a recorder's spans into a :class:`SpanSummary`."""
    buckets: dict[str, list[float]] = {}
    cpu: dict[str, float] = {}
    for event in recorder.events:
        buckets.setdefault(event.name, []).append(event.wall_s)
        cpu[event.name] = cpu.get(event.name, 0.0) + event.cpu_s
    rows = []
    for name, walls in buckets.items():
        ordered = sorted(walls)
        total = sum(ordered)
        rows.append(
            SpanStats(
                name=name,
                count=len(ordered),
                total_s=total,
                mean_s=total / len(ordered),
                p50_s=_percentile(ordered, 0.50),
                p95_s=_percentile(ordered, 0.95),
                p99_s=_percentile(ordered, 0.99),
                max_s=ordered[-1],
                cpu_s=cpu[name],
            )
        )
    rows.sort(key=lambda s: s.total_s, reverse=True)
    return SpanSummary(rows=tuple(rows), counters=dict(recorder.counters))


def summary(recorder: Recorder | None = None) -> SpanSummary:
    """Aggregate the given recorder — or the ambient one — into a table.

    With no recorder argument and no active recording, returns an empty
    summary (zero rows) rather than raising, so reporting code can run
    unconditionally.

    Examples
    --------
    >>> from repro.obs import recording, span, summary
    >>> with recording() as rec:
    ...     for _ in range(3):
    ...         with span("demo.step"):
    ...             pass
    >>> summary(rec).row("demo.step").count
    3
    """
    if recorder is None:
        recorder = current_recorder()
    if recorder is None:
        return SpanSummary(rows=(), counters={})
    return summarize(recorder)
