"""Request-scoped trace contexts propagated across serving layers.

A :class:`TraceContext` is minted at server ingress (or adopted from an
incoming W3C ``traceparent`` header) and carried through admission, the
coalescer, the cache and — serialized with
:meth:`TraceContext.to_payload` — into shard pool workers.  The ambient
context (:func:`current_trace`, bound by :func:`trace_scope`) gives the
spans of :mod:`repro.obs.recorder` their trace ids.

Disabled cost is near zero: with no recorder, a request only takes two
random ids from a pre-drawn batch and reads a few clocks.  Trace ids
never feed a numeric path, so traced and untraced runs produce
bit-identical bodies.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "TraceContext",
    "RequestTrace",
    "current_trace",
    "trace_scope",
    "TIMING_STAGES",
]

# Stage names surfaced in ``debug.timings`` and slow-request records, in
# pipeline order.  ``other_s`` absorbs scheduling slop so the stages sum
# to the measured total by construction.
TIMING_STAGES = (
    "queue_wait_s",
    "coalesce_linger_s",
    "cache_s",
    "kernel_s",
    "render_s",
    "other_s",
)

# Ids come straight from the OS: ``os.urandom(n).hex()`` is cheaper
# than a locked Random.getrandbits + hex format, needs no lock, and is
# fork-safe — pool workers never inherit a parent's RNG state and mint
# colliding ids.
_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16
_HEX = set("0123456789abcdef")

# Root ids (a trace id and a span id, 48 hex chars) are handed out from
# a batch drawn in one ``urandom`` call: a syscall per request costs
# more than the rest of a request's trace bookkeeping.  ``list.pop`` is
# atomic, so two threads never get the same ids, and a forked child
# drops the batch it inherited instead of repeating its parent's ids.
_ROOT_ID_BATCH = 256
_root_ids: list[str] = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_root_ids.clear)


def _new_root_ids() -> str:
    try:
        return _root_ids.pop()
    except IndexError:
        raw = os.urandom(24 * _ROOT_ID_BATCH).hex()
        _root_ids.extend(raw[i:i + 48] for i in range(0, len(raw), 48))
        return _root_ids.pop()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def _is_hex(text: str) -> bool:
    return all(ch in _HEX for ch in text)


class TraceContext:
    """Immutable (trace_id, span_id, parent_id) triple.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16, as in the W3C
    Trace Context wire format.  A ``__slots__`` class: every request
    builds one (plus a child per hop), and a frozen dataclass's init
    costs ~3x a plain one on this hot path.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r})"
        )

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context.

        Both ids come from one batched ``urandom`` draw — this sits on
        the serve hot path (every request mints a context for its
        ``X-Repro-Trace-Id`` header, traced or not).
        """
        both = _new_root_ids()
        return cls(both[:32], both[32:])

    def child(self) -> "TraceContext":
        """A new span context under this one (same trace)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_id=self.span_id,
        )

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; malformed input yields None.

        Tolerance here is deliberate: a bad header from a client must
        never fail the request, it just starts a fresh trace.
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id = parts[0], parts[1], parts[2]
        if version == "ff" or len(version) != 2 or not _is_hex(version):
            return None
        if len(trace_id) != 32 or not _is_hex(trace_id) or trace_id == _ZERO_TRACE:
            return None
        if len(span_id) != 16 or not _is_hex(span_id) or span_id == _ZERO_SPAN:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_payload(self) -> dict:
        """Plain-dict form safe to pickle into pool workers."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_payload(cls, payload: dict | None) -> "TraceContext | None":
        if not payload:
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(
            trace_id=str(trace_id),
            span_id=str(span_id),
            parent_id=payload.get("parent_id"),
        )

    def link(self) -> dict:
        """Span-link form used by fan-in spans (batched kernels)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


class RequestTrace:
    """Per-request stage-timing accumulator.

    Created at server ingress, threaded through the request pipeline,
    and asked for a breakdown at response time.  Stage durations are
    accumulated with :meth:`add`; :meth:`timings` fills ``other_s`` with
    the unattributed remainder so the stages always sum to the total.
    """

    __slots__ = ("context", "started_at", "stages", "remote_parent")

    def __init__(self, context: TraceContext, *, remote_parent: bool = False):
        self.context = context
        self.started_at = time.time()
        self.stages: dict[str, float] = {}
        self.remote_parent = remote_parent

    @classmethod
    def begin(cls, traceparent: str | None = None) -> "RequestTrace":
        """Start a request trace, adopting an incoming traceparent if valid.

        Most requests send no ``traceparent``; they skip the parse.
        """
        if traceparent:
            remote = TraceContext.from_traceparent(traceparent)
            if remote is not None:
                return cls(remote.child(), remote_parent=True)
        return cls(TraceContext.new())

    def add(self, stage: str, seconds: float) -> None:
        if seconds > 0.0:
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def timings(self, total_s: float) -> dict[str, float]:
        """Stage breakdown summing to ``total_s`` (``other_s`` absorbs slop)."""
        out = {stage: self.stages.get(stage, 0.0) for stage in TIMING_STAGES}
        attributed = sum(out.values())
        out["other_s"] = max(0.0, total_s - attributed)
        return out


# --- the ambient trace context ----------------------------------------------

_trace_var: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)


def current_trace() -> TraceContext | None:
    """The ambient TraceContext for this task/thread, if any."""
    return _trace_var.get()


@contextmanager
def trace_scope(context: TraceContext):
    """Bind ``context`` as the ambient trace for the enclosed block."""
    token = _trace_var.set(context)
    try:
        yield context
    finally:
        _trace_var.reset(token)
