"""Frozen 2-D Sinkhorn loop: the oracle of the differential tests.

``sinkhorn_core`` is the library's former scalar inner loop, kept
verbatim.  The library now runs every scaling call through one batched
core, so comparing its scalar and batched entry points with each other
would compare that core with itself; these tests compare both against
this independent loop instead, with ``np.array_equal`` and exact
residual-history equality.

``reference_scaling`` wraps the loop in the set-up the scalar entry
points always did (validated copy, warm-start application, entry
residual as history item 0).
"""

from __future__ import annotations

import time

import numpy as np


def sinkhorn_core(
    work,
    row_targets,
    col_targets,
    *,
    tol,
    max_iterations,
    row_scale,
    col_scale,
    history,
    t_end,
):
    iterations = 0
    converged = history[-1] <= tol
    timed_out = False
    while not converged and iterations < max_iterations:
        if t_end is not None and time.monotonic() >= t_end:
            timed_out = True
            break
        # Column pass (eq. 9, odd k): scale columns to their
        # targets.  The accumulated diagonal scales can overflow
        # for non-normalizable zero patterns (they genuinely
        # diverge while the matrix iterates stay bounded); that is
        # reported through ConvergenceError, not a warning.
        factors = col_targets / work.sum(axis=0)
        work *= factors[None, :]
        with np.errstate(over="ignore"):
            col_scale *= factors
        # Row pass (eq. 9, even k): scale rows to their targets.
        factors = row_targets / work.sum(axis=1)
        work *= factors[:, None]
        with np.errstate(over="ignore"):
            row_scale *= factors
        iterations += 1
        residual = float(
            max(
                np.abs(work.sum(axis=1) - row_targets).max(),
                np.abs(work.sum(axis=0) - col_targets).max(),
            )
        )
        history.append(residual)
        converged = residual <= tol
    return iterations, converged, timed_out


def reference_scaling(
    matrix,
    row_targets,
    col_targets,
    *,
    tol,
    max_iterations=100_000,
    warm_start=None,
):
    """Run the frozen loop on a copy of ``matrix``.

    ``row_targets``/``col_targets`` are scalars (broadcast to every
    line) or per-line vectors; ``warm_start`` is an optional
    ``(row_scale, col_scale)`` pair applied before iterating.  Returns
    a dict with ``matrix``, ``row_scale``, ``col_scale``, ``history``
    (a tuple), ``iterations`` and ``converged``.
    """
    work = np.array(matrix, dtype=np.float64)
    n_rows, n_cols = work.shape
    row_targets = np.broadcast_to(
        np.asarray(row_targets, dtype=np.float64), (n_rows,)
    ).copy()
    col_targets = np.broadcast_to(
        np.asarray(col_targets, dtype=np.float64), (n_cols,)
    ).copy()
    row_scale = np.ones(n_rows)
    col_scale = np.ones(n_cols)
    if warm_start is not None:
        rows, cols = (np.asarray(v, dtype=np.float64) for v in warm_start)
        work = rows[:, None] * work * cols[None, :]
        row_scale, col_scale = rows.copy(), cols.copy()
    history = [
        float(
            max(
                np.abs(work.sum(axis=1) - row_targets).max(),
                np.abs(work.sum(axis=0) - col_targets).max(),
            )
        )
    ]
    iterations, converged, _ = sinkhorn_core(
        work,
        row_targets,
        col_targets,
        tol=tol,
        max_iterations=max_iterations,
        row_scale=row_scale,
        col_scale=col_scale,
        history=history,
        t_end=None,
    )
    return {
        "matrix": work,
        "row_scale": row_scale,
        "col_scale": col_scale,
        "history": tuple(history),
        "iterations": iterations,
        "converged": converged,
    }


def assert_matches_reference(result, ref):
    """Bit-identity of a scaling result (or batched slice) with
    :func:`reference_scaling` output."""
    assert np.array_equal(result.matrix, ref["matrix"])
    assert np.array_equal(result.row_scale, ref["row_scale"])
    assert np.array_equal(result.col_scale, ref["col_scale"])
    assert tuple(result.residual_history) == ref["history"]
    assert int(result.iterations) == ref["iterations"]
    assert bool(result.converged) == ref["converged"]


class FakeClock:
    """A ``time`` stand-in whose ``monotonic()`` advances one second per
    call, so a ``deadline_s`` expires after a known iteration count:
    the deadline is read once on entry and checked once before every
    iteration, so ``deadline_s = k + 0.5`` stops after ``k``."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now
