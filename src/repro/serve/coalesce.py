"""Micro-batching request coalescer for the characterization service.

The 22–25x win of the batched ``(N, T, M)`` kernels (PR 1) only
materializes when N > 1.  A long-running service gets that N from
*concurrency*: requests that arrive within a short linger window and
share a coalescing group — same matrix shape and same kernel options —
are stacked into one batched kernel call instead of N scalar ones.

:class:`Coalescer` implements the standard micro-batching queue:

* the first request of a group arms a **linger timer**
  (``linger_s``); everything that joins the group before it fires
  shares the flush;
* a group that reaches ``max_batch`` flushes immediately (bounded
  latency *and* bounded stack memory);
* the flush runs the (synchronous, numpy-heavy) batch runner in the
  event loop's default executor, so the loop keeps accepting requests
  while kernels crunch.

The runner returns one entry per submitted matrix — a result payload,
or an exception (typically :class:`ServeFault`, carrying a
:data:`repro.robust.FAULT_CATEGORIES` slug) that is re-raised to that
caller only.  A faulty member therefore never poisons the healthy
requests sharing its batch; that is the per-request quarantine
semantics of :mod:`repro.robust` lifted into the serving layer.

**Deadline propagation.**  ``submit`` accepts an optional started
:class:`repro.robust.Deadline`.  At flush time, members whose deadline
has already expired are shed with
:class:`repro.serve.resilience.DeadlineExceeded` *before* the kernel
runs — their callers have given up, so spending kernel time on them
would only slow their batch-mates.  The surviving members' tightest
remaining deadline is threaded into the runner options as
``deadline_s``, which the server-side runners turn into a
:class:`repro.robust.Budget` so the batched kernel itself stops at the
wall instead of burning its full iteration budget.  This is safe for
batch-mates with looser deadlines: a deadline can only freeze a slice
as a structured ``converged=False`` partial outcome, never corrupt it.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import current_recorder, metrics as _metrics
from ..obs.trace_context import trace_scope
from .protocol import ServeRequest
from .resilience import DeadlineExceeded

__all__ = ["Coalescer", "ServeFault", "CoalesceResult"]


class ServeFault(Exception):
    """A per-request failure with a stable fault category.

    ``category`` is a :data:`repro.robust.FAULT_CATEGORIES` slug (or a
    protocol-level category); ``status`` the HTTP code to answer with.
    """

    def __init__(
        self, category: str, message: str, *, status: int = 422
    ) -> None:
        super().__init__(message)
        self.category = category
        self.status = status


@dataclass(frozen=True)
class CoalesceResult:
    """One request's outcome plus how it was computed.

    ``linger_s`` is how long *this member* waited between submission and
    its batch flushing; ``kernel_s`` the batched kernel's wall time
    (shared by every member of the batch).  Together they feed the
    per-request ``debug.timings`` breakdown.
    """

    payload: object
    batch_size: int
    linger_s: float = 0.0
    kernel_s: float = 0.0


@dataclass
class _PendingGroup:
    options: dict
    matrices: list = field(default_factory=list)
    futures: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    submitted: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    timer: asyncio.TimerHandle | None = None
    # The context of the request that opened the group: its recorder
    # traces the batch, whichever path flushes it (timer, size, drain).
    context: contextvars.Context = field(default_factory=contextvars.copy_context)


class Coalescer:
    """Group concurrent same-shape requests into batched kernel calls.

    Parameters
    ----------
    runner : callable
        ``runner(options, matrices) -> list`` — synchronous batch
        executor (one entry per matrix: payload or Exception).  Runs in
        the event loop's default executor.
    endpoint : str
        Metric label for this coalescer's batches.
    linger_s : float
        How long the first request of a group waits for company.
    max_batch : int
        Flush threshold; also the largest stack a single kernel call
        materializes.

    Under an active recorder (a traced server activates its recorder
    around every request) each flushed batch emits one ``serve.kernel``
    span *linked* to the request spans it served (fan-in), so a single
    slow batch explains N slow responses.  The runner runs in a copy of
    the context of the request that opened the group, with that span's
    context bound, so the kernel spans it opens
    (``batch.characterize_ensemble``, ``sinkhorn.batched``,
    ``svd.batched``) nest under ``serve.kernel``.
    """

    def __init__(
        self,
        runner,
        *,
        endpoint: str,
        linger_s: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.runner = runner
        self.endpoint = endpoint
        self.linger_s = float(linger_s)
        self.max_batch = int(max_batch)
        self._groups: dict[tuple, _PendingGroup] = {}
        self.batches_flushed = 0
        self.requests_coalesced = 0
        self.deadline_shed = 0

    # -- submission ----------------------------------------------------

    def group_key(self, request: ServeRequest) -> tuple:
        """The coalescing identity: endpoint + shape + kernel options."""
        return (self.endpoint, request.shape, request.canonical_options)

    async def submit(
        self, request: ServeRequest, deadline=None, trace=None
    ) -> CoalesceResult:
        """Queue one request; resolves when its batch has been run.

        ``deadline`` is an optional started
        :class:`repro.robust.Deadline`; a member whose deadline expires
        before its group flushes is shed with
        :class:`~repro.serve.resilience.DeadlineExceeded` instead of
        running, and the batch kernel runs under the tightest surviving
        deadline.

        ``trace`` is an optional
        :class:`repro.obs.TraceContext` identifying the request span
        this member belongs to; the batch span links back to it.

        Raises whatever exception the runner assigned to this request's
        slot (or the runner's own exception if the whole batch failed).
        """
        loop = asyncio.get_running_loop()
        key = self.group_key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _PendingGroup(
                options=dict(request.options)
            )
            group.timer = loop.call_later(
                self.linger_s, self._flush_now, key
            )
        future: asyncio.Future = loop.create_future()
        group.matrices.append(np.asarray(request.matrix, dtype=np.float64))
        group.futures.append(future)
        group.deadlines.append(deadline)
        group.submitted.append(time.perf_counter())
        group.traces.append(trace)
        if len(group.matrices) >= self.max_batch:
            self._flush_now(key)
        return await future

    # -- flushing ------------------------------------------------------

    def _flush_now(self, key: tuple) -> None:
        """Detach the group and schedule its batch (loop thread only)."""
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the max-batch path
        if group.timer is not None:
            group.timer.cancel()
        asyncio.get_running_loop().create_task(self._run_batch(group))

    def _shed_expired(
        self, group: _PendingGroup
    ) -> tuple[list, list, list, list]:
        """Fail expired members; returns the surviving parallel lists
        (matrices, futures, submit times, trace contexts).

        The tightest surviving deadline (if any) is threaded into
        ``group.options["deadline_s"]`` for the runner.
        """
        matrices: list = []
        futures: list = []
        submitted: list = []
        traces: list = []
        tightest: float | None = None
        for matrix, future, deadline, submit_t, trace in zip(
            group.matrices,
            group.futures,
            group.deadlines,
            group.submitted,
            group.traces,
        ):
            if deadline is not None and deadline.expired():
                self.deadline_shed += 1
                _metrics.inc(
                    "repro_serve_deadline_exceeded_total",
                    endpoint=self.endpoint,
                    stage="coalesce",
                )
                if not future.done():
                    future.set_exception(
                        DeadlineExceeded(
                            "deadline expired while the request "
                            "lingered in a coalescing group; the "
                            "kernel was never run for it"
                        )
                    )
                continue
            if deadline is not None:
                remaining = deadline.remaining()
                if tightest is None or remaining < tightest:
                    tightest = remaining
            matrices.append(matrix)
            futures.append(future)
            submitted.append(submit_t)
            traces.append(trace)
        if tightest is not None:
            group.options["deadline_s"] = tightest
        return matrices, futures, submitted, traces

    async def _run_batch(self, group: _PendingGroup) -> None:
        matrices, futures, submitted, traces = self._shed_expired(group)
        if not matrices:  # every member expired: nothing to compute
            return
        size = len(matrices)
        self.batches_flushed += 1
        self.requests_coalesced += size
        _metrics.observe(
            "repro_serve_coalesce_batch_size", size, endpoint=self.endpoint
        )
        _metrics.inc(
            "repro_serve_kernel_invocations_total", endpoint=self.endpoint
        )
        # The fan-in span of a traced batch is parented under its first
        # traced member (a batch has no single request parent) and links
        # every member's request span.
        rec = group.context.run(current_recorder)
        members = [trace for trace in traces if trace is not None]
        kernel_ctx = members[0].child() if rec is not None and members else None
        loop = asyncio.get_running_loop()
        flush_t = time.perf_counter()
        flush_wall = time.time()
        lingers = [max(0.0, flush_t - submit_t) for submit_t in submitted]
        error = None
        try:
            results = await loop.run_in_executor(
                None,
                group.context.run,
                _run_in,
                kernel_ctx,
                self.runner,
                group.options,
                matrices,
            )
            if len(results) != size:
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{size} requests"
                )
        except Exception as exc:  # runner blew up: fail the whole batch
            error = exc
        kernel_s = time.perf_counter() - flush_t
        if kernel_ctx is not None:
            rec.emit_span(
                "serve.kernel",
                kernel_ctx,
                wall_s=kernel_s,
                start=flush_wall,
                meta={"endpoint": self.endpoint, "batch_size": size},
                links=[member.link() for member in members],
                error=None if error is None else f"{type(error).__name__}: {error}",
            )
        if error is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result, linger_s in zip(futures, results, lingers):
            if future.done():  # caller went away (cancelled request)
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(
                    CoalesceResult(
                        result, size, linger_s=linger_s, kernel_s=kernel_s
                    )
                )

    @property
    def pending(self) -> int:
        """Requests currently lingering in un-flushed groups."""
        return sum(len(g.matrices) for g in self._groups.values())

    async def drain(self) -> None:
        """Flush every pending group immediately (shutdown path)."""
        for key in list(self._groups):
            self._flush_now(key)
        # Yield once so the flush tasks get to run their executors.
        await asyncio.sleep(0)


def _run_in(context, runner, options, matrices):
    """Call ``runner`` with ``context`` (when set) as the ambient trace."""
    if context is None:
        return runner(options, matrices)
    with trace_scope(context):
        return runner(options, matrices)
