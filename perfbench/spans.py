"""In-memory spans of the traced run, and their self times.

A span is a layer boundary the benchmark's own code crossed: a name, a
duration, the span that caused it and the id shared by every span of one
request or member batch.  Spans stay in memory until :meth:`Spans.write`
at the end of the run.  A layer's self time is its duration minus the
durations of its children; children of one span never overlap here,
because each is a consecutive stage of its parent.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict


class Spans:
    def __init__(self) -> None:
        self.records: list = []
        self._ids = itertools.count(1)

    def add(
        self,
        name: str,
        trace_id: str,
        seconds: float,
        parent: int | None = None,
        start: float | None = None,
    ) -> int:
        span_id = next(self._ids)
        self.records.append(
            {
                "trace_id": trace_id,
                "span_id": span_id,
                "parent_id": parent,
                "name": name,
                "start": start,
                "seconds": seconds,
            }
        )
        return span_id

    def self_seconds(self) -> dict:
        """Per span name, the list of self times of its spans."""
        child_sum: dict = defaultdict(float)
        for record in self.records:
            if record["parent_id"] is not None:
                child_sum[record["parent_id"]] += record["seconds"]
        out: dict = defaultdict(list)
        for record in self.records:
            out[record["name"]].append(
                record["seconds"] - child_sum[record["span_id"]]
            )
        return out

    def write(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
        return len(self.records)
