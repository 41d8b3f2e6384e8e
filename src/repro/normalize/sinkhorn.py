"""Alternating row/column scaling (paper eq. 9, Theorem 1).

The iteration alternates between scaling every column to a target sum
and scaling every row to a target sum.  For a positive T × M matrix and
consistent targets (``T * row_target == M * col_target``), Sinkhorn's
theorem — extended to rectangular matrices in the paper's Appendix A —
guarantees convergence to a unique scaling ``D1 @ A @ D2`` (the diagonal
factors are unique up to a reciprocal scalar pair).

For matrices with zero entries the iteration may fail to converge
(paper Section VI); :mod:`repro.structure` predicts this from the zero
pattern alone.

Every scaling call runs one in-place core, :func:`_scale_stack`, over
an ``(N, T, M)`` stack with per-line target vectors: the scalar entry
points here run it on a one-slice view, and
:func:`repro.batch.sinkhorn_knopp_batched` on the whole stack.  One
iteration is two sums and two broadcast multiplies, O(N·T·M) with no
Python-level loops over entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .._validation import (
    as_float_matrix,
    check_positive_scalar,
)
from ..exceptions import ConvergenceError, MatrixValueError
from ..obs import metrics as _metrics
from ..obs import span as _obs_span

__all__ = [
    "NormalizationResult",
    "sinkhorn_knopp",
    "scale_to_margins",
    "scale_by_diagonals",
]

#: The continuation hint every ConvergenceError carries, scalar and
#: batched alike (asserted by tests/normalize/test_convergence_messages).
CONVERGENCE_HINT = (
    "the matrix may be decomposable — see repro.structure.is_normalizable"
)


def convergence_message(
    what: str,
    *,
    tol: float,
    iterations: int,
    residual: float | None = None,
    failing=None,
    deadline_s: float | None = None,
) -> str:
    """The unified non-convergence message shared by every variant.

    ``what`` names the failing subject ("row/column normalization",
    "margin scaling", "3 of 8 slices"); the optional details name the
    final residual, the first failing slice indices (batched variants)
    and an expired wall-clock deadline.  Every message ends with the
    same :data:`CONVERGENCE_HINT` continuation so operators always get
    the Section-VI pointer.
    """
    message = f"{what} did not reach tol={tol:g} within {iterations} iterations"
    details = []
    if residual is not None:
        details.append(f"residual={residual:.3e}")
    if failing is not None:
        details.append(f"first failing slices: {failing}")
    if deadline_s is not None:
        details.append(f"deadline_s={deadline_s:g} expired")
    if details:
        message += f" ({', '.join(details)})"
    return f"{message}; {CONVERGENCE_HINT}"


def _check_deadline(deadline_s: float | None) -> float | None:
    """Validate ``deadline_s`` and convert it to a monotonic end time."""
    if deadline_s is None:
        return None
    if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
        raise MatrixValueError(
            f"deadline_s must be a non-negative number or None, got "
            f"{deadline_s!r}"
        )
    if deadline_s < 0 or np.isnan(deadline_s):
        raise MatrixValueError(
            f"deadline_s must be a non-negative number or None, got "
            f"{deadline_s!r}"
        )
    return time.monotonic() + float(deadline_s)


def coerce_warm_start(
    warm_start, n_slices: int, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated, fresh ``((N, T), (N, M))`` float64 warm-start scales.

    ``warm_start`` is a previous scaling result (anything exposing
    ``row_scale``/``col_scale``, e.g. a ``NormalizationResult``,
    ``StandardFormResult`` or ``BatchNormalizationResult``) or an
    explicit ``(row_scale, col_scale)`` pair.  A single ``(T,)``/``(M,)``
    pair broadcasts to every slice; per-slice ``(N, T)``/``(N, M)``
    arrays are used as-is.
    """
    if hasattr(warm_start, "row_scale") and hasattr(warm_start, "col_scale"):
        row, col = warm_start.row_scale, warm_start.col_scale
    else:
        try:
            row, col = warm_start
        except (TypeError, ValueError):
            raise MatrixValueError(
                "warm_start must be a previous scaling result (with "
                ".row_scale/.col_scale) or a (row_scale, col_scale) pair, "
                f"got {warm_start!r}"
            ) from None
    row = np.asarray(row, dtype=np.float64)
    col = np.asarray(col, dtype=np.float64)
    if row.ndim == 1 and col.ndim == 1:
        row = np.broadcast_to(row, (n_slices, row.shape[0]))
        col = np.broadcast_to(col, (n_slices, col.shape[0]))
    if row.shape != (n_slices, n_rows) or col.shape != (n_slices, n_cols):
        raise MatrixValueError(
            f"warm_start scaling vectors must have shape ({n_rows},) and "
            f"({n_cols},) — or ({n_slices}, {n_rows}) and "
            f"({n_slices}, {n_cols}) per slice — got {row.shape} and "
            f"{col.shape}"
        )
    for vec, what in ((row, "row_scale"), (col, "col_scale")):
        if not np.isfinite(vec).all() or (vec <= 0).any():
            raise MatrixValueError(
                f"warm_start {what} must be strictly positive and finite"
            )
    return row.copy(), col.copy()


def _warm_started(work: np.ndarray, warm_start):
    """``(work, row_scale, col_scale)`` for an ``(N, T, M)`` stack, with
    the warm-start scales applied (unit scales when there are none)."""
    n_slices, n_rows, n_cols = work.shape
    if warm_start is None:
        return work, np.ones((n_slices, n_rows)), np.ones((n_slices, n_cols))
    rows, cols = coerce_warm_start(warm_start, n_slices, n_rows, n_cols)
    # Same expression as scale_by_diagonals, so a warm start from a
    # converged run reproduces that result bit-for-bit.
    return rows[:, :, None] * work * cols[:, None, :], rows, cols


class ResidualLog:
    """The residuals one run of :func:`_scale_stack` logged, with the
    per-slice histories built from them on demand.

    ``entry`` holds every slice's residual before the first iteration;
    ``steps`` holds one ``(idx, res)`` array pair per iteration: the
    residuals of the sub-stack whose rows are slices ``idx``.  A slice
    that froze may stay in the sub-stack, and in the log, until the next
    compaction, so slice ``i``'s history is its entry residual followed
    by the first ``iterations[i]`` values logged for it.
    """

    __slots__ = ("entry", "steps", "iterations")

    def __init__(self, entry: np.ndarray, iterations: np.ndarray) -> None:
        self.entry = entry
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []
        self.iterations = iterations

    def histories(self) -> tuple[tuple[float, ...], ...]:
        """Per-slice residual tuples; entry 0 is the residual at entry."""
        entry = self.entry.tolist()
        if not self.steps:
            return tuple((value,) for value in entry)
        idx = np.concatenate([i for i, _ in self.steps])
        res = np.concatenate([r for _, r in self.steps])
        # A stable sort keeps each slice's values in iteration order.
        values = res[np.argsort(idx, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(idx, minlength=len(entry))).tolist()
        starts = [0] + ends[:-1]
        return tuple(
            (first,) + tuple(values[start:start + count])
            for first, start, count in zip(
                entry, starts, self.iterations.tolist()
            )
        )


def _scale_stack(
    work: np.ndarray,
    row_targets: np.ndarray,
    col_targets: np.ndarray,
    *,
    tol: float,
    max_iterations: int,
    row_scale: np.ndarray,
    col_scale: np.ndarray,
    t_end: float | None,
    on_progress=None,
):
    """Run eq. (9) in place over an ``(N, T, M)`` stack.

    ``work`` and the ``(N, T)``/``(N, M)`` scale accumulators are
    updated in place; the targets are ``(T,)``/``(M,)`` vectors.  A
    slice freezes the moment its residual reaches ``tol``, so its
    iterate sequence is the same whichever slices share the stack.
    The still-active slices are gathered into one contiguous sub-stack;
    a slice is written back when it freezes, and the stragglers when
    the loop stops (``max_iterations`` or the monotonic end time
    ``t_end``, checked once per iteration).  Frozen slices ride along
    in the sub-stack, their further iterates ignored, until at least
    half of it has frozen; then it is compacted.  ``on_progress``
    receives the active-slice count before every iteration.

    Returns ``(log, iterations, residual, converged, iterations_run,
    timed_out)``: the :class:`ResidualLog` of the run, per-slice
    iteration counts, final residuals, the convergence mask, the
    iterations the loop ran, and whether ``t_end`` stopped it.
    """
    # The ufuncs are called directly: the same loops as .sum()/.max(),
    # without the method dispatch.  Column sums add each column top to
    # bottom, as the 2-D loop's sum(axis=0) does.  einsum makes the same
    # adds several times faster on a stack of slices; it is not used on
    # a single column, whose sum it vectorizes in another order, nor on
    # a stack of one to three slices, where its call costs more than it
    # saves.
    add, largest = np.add.reduce, np.maximum.reduce
    by_einsum = work.shape[0] >= 4 and work.shape[2] > 1

    # A slice's column sums are computed once per iterate: for the
    # residual check, then reused by the next column pass.
    col_sums = np.einsum("nij->nj", work) if by_einsum else add(work, axis=1)
    entry = np.maximum(
        largest(np.abs(add(work, axis=2) - row_targets), axis=1),
        largest(np.abs(col_sums - col_targets), axis=1),
    )
    residual = entry.copy()
    converged = residual <= tol
    iterations = np.zeros(work.shape[0], dtype=np.int64)
    log = ResidualLog(entry, iterations)
    steps = log.steps
    idx = np.flatnonzero(~converged)
    sub, rs, cs = work[idx], row_scale[idx], col_scale[idx]
    col_sums = col_sums[idx]
    # Rows of ``sub`` still iterating; None while all of them are.
    live = None
    n_live = idx.size
    iterations_run = 0
    timed_out = False
    while n_live and iterations_run < max_iterations:
        if t_end is not None and time.monotonic() >= t_end:
            timed_out = True
            break
        if on_progress is not None:
            on_progress(n_live)
        # Column pass (eq. 9, odd k), then row pass (even k): scale
        # every column, then every row, to its target.
        col_factors = col_targets / col_sums
        sub *= col_factors[:, None, :]
        row_factors = row_targets / add(sub, axis=2)
        sub *= row_factors[:, :, None]
        # The accumulated diagonal scales can overflow for
        # non-normalizable zero patterns (they genuinely diverge while
        # the matrix iterates stay bounded); that is reported through
        # ConvergenceError, not a warning.
        with np.errstate(over="ignore"):
            cs *= col_factors
            rs *= row_factors
        iterations_run += 1
        col_sums = np.einsum("nij->nj", sub) if by_einsum else add(sub, axis=1)
        res = np.maximum(
            largest(np.abs(add(sub, axis=2) - row_targets), axis=1),
            largest(np.abs(col_sums - col_targets), axis=1),
        )
        steps.append((idx, res))
        done = res <= tol
        if live is not None:
            done &= live
        n_done = np.count_nonzero(done)
        if not n_done:
            continue
        frozen = idx[done]
        work[frozen] = sub[done]
        row_scale[frozen] = rs[done]
        col_scale[frozen] = cs[done]
        residual[frozen] = res[done]
        iterations[frozen] = iterations_run
        converged[frozen] = True
        n_live -= n_done
        if not n_live:
            break
        live = ~done if live is None else live & ~done
        if 2 * n_live <= idx.size:
            idx, sub, rs, cs, col_sums, res = (
                idx[live], sub[live], rs[live], cs[live], col_sums[live],
                res[live],
            )
            live = None
    if iterations_run and n_live:
        if live is not None:
            idx, sub, rs, cs, res = (
                idx[live], sub[live], rs[live], cs[live], res[live]
            )
        work[idx] = sub
        row_scale[idx] = rs
        col_scale[idx] = cs
        residual[idx] = res
        iterations[idx] = iterations_run
    return log, iterations, residual, converged, iterations_run, timed_out


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of the alternating-scaling iteration.

    Attributes
    ----------
    matrix : numpy.ndarray
        The scaled matrix ``D1 @ A @ D2`` (a fresh array).
    row_scale, col_scale : numpy.ndarray
        The diagonals of ``D1`` (length T) and ``D2`` (length M).
    converged : bool
        True when the residual dropped below ``tol`` within
        ``max_iterations``.
    iterations : int
        Number of full iterations performed (one column pass plus one
        row pass each, matching the paper's Section V counting).
    residual : float
        Final residual: the largest absolute deviation of any row or
        column sum from its target.
    residual_history : tuple of float
        Residual after each full iteration (index 0 is the residual of
        the *input* matrix, before any scaling).
    row_target, col_target : float
        The target sums the iteration aimed for.
    """

    matrix: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = field(repr=False)
    row_target: float = 1.0
    col_target: float = 1.0

    def max_sum_error(self) -> float:
        """Recompute the residual from ``matrix`` (diagnostic helper)."""
        return _residual(self.matrix, self.row_target, self.col_target)


def _observe_runs(kernel: str, iterations, residuals, converged) -> None:
    """Feed the Sinkhorn metric families, one observation per run.

    A batched run passes per-slice sequences and counts every slice as
    one run; a scalar run passes one-element sequences.
    """
    if not _metrics.metrics_enabled():
        return
    for its, residual, ok in zip(iterations, residuals, converged):
        _metrics.inc(
            "repro_sinkhorn_runs_total",
            kernel=kernel,
            converged="true" if ok else "false",
        )
        _metrics.observe("repro_sinkhorn_iterations", int(its), kernel=kernel)
        _metrics.observe(
            "repro_sinkhorn_exit_residual", float(residual), kernel=kernel
        )


def _residual(matrix: np.ndarray, row_target: float, col_target: float) -> float:
    row_err = np.abs(matrix.sum(axis=1) - row_target).max()
    col_err = np.abs(matrix.sum(axis=0) - col_target).max()
    return float(max(row_err, col_err))


def _nonnegative_copy(matrix) -> np.ndarray:
    """The validated float64 working copy every scalar entry point
    iterates on."""
    work = as_float_matrix(matrix, name="matrix").copy()
    if np.isinf(work).any():
        raise MatrixValueError("matrix must be finite (got inf entries)")
    if (work < 0).any():
        raise MatrixValueError("matrix must be non-negative")
    return work


def _scale_matrix(
    work: np.ndarray,
    row_targets: np.ndarray,
    col_targets: np.ndarray,
    *,
    kernel: str,
    what: str,
    tol: float,
    max_iterations: int,
    require_convergence: bool,
    deadline_s: float | None,
    warm_start,
    row_target: float,
    col_target: float,
) -> NormalizationResult:
    """Drive the core on one validated matrix (the body shared by
    :func:`sinkhorn_knopp` and :func:`scale_to_margins`).

    ``kernel`` labels the span (``sinkhorn.<kernel>``) and metrics;
    ``what`` names the subject of a :class:`ConvergenceError`.
    """
    if (work.sum(axis=1) == 0).any() or (work.sum(axis=0) == 0).any():
        raise MatrixValueError(
            "matrix has an all-zero row or column; no scaling can fix that"
        )
    n_rows, n_cols = work.shape
    stack, row_scale, col_scale = _warm_started(work[None], warm_start)
    t_end = _check_deadline(deadline_s)
    with _obs_span(f"sinkhorn.{kernel}", rows=n_rows, cols=n_cols) as sp:
        log, iterations, _, converged, _, timed_out = _scale_stack(
            stack,
            row_targets,
            col_targets,
            tol=tol,
            max_iterations=max_iterations,
            row_scale=row_scale,
            col_scale=col_scale,
            t_end=t_end,
        )
        history = log.histories()[0]
        iterations = int(iterations[0])
        converged = bool(converged[0])
        sp.note(
            iterations=iterations,
            converged=converged,
            residual=history[-1],
            timed_out=timed_out,
        )
        sp.sample("residual", history)
    _observe_runs(kernel, (iterations,), (history[-1],), (converged,))
    if warm_start is not None:
        _metrics.inc(
            "repro_backend_warm_start_total",
            kernel=f"sinkhorn_{kernel}",
            outcome="converged" if converged else "pending",
        )
    if not converged and require_convergence:
        raise ConvergenceError(
            convergence_message(
                what,
                tol=tol,
                iterations=iterations,
                residual=history[-1],
                deadline_s=deadline_s if timed_out else None,
            ),
            iterations=iterations,
            residual=history[-1],
        )
    return NormalizationResult(
        matrix=stack[0],
        row_scale=row_scale[0],
        col_scale=col_scale[0],
        converged=converged,
        iterations=iterations,
        residual=history[-1],
        residual_history=history,
        row_target=row_target,
        col_target=col_target,
    )


def sinkhorn_knopp(
    matrix,
    *,
    row_target: float = 1.0,
    col_target: float | None = None,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> NormalizationResult:
    """Scale ``matrix`` so rows sum to ``row_target`` and columns to
    ``col_target`` by alternating column and row normalizations.

    Parameters
    ----------
    matrix : array-like, shape (T, M)
        Non-negative matrix with no all-zero row or column.
    row_target : float
        Desired sum of every row.
    col_target : float, optional
        Desired sum of every column.  Defaults to the unique consistent
        value ``T * row_target / M`` (the grand total of the matrix is
        both ``T * row_target`` and ``M * col_target``).  An explicit
        inconsistent pair is rejected.
    tol : float
        Convergence threshold on the largest absolute row/column-sum
        error (the paper stops at 1e-8).
    max_iterations : int
        Upper bound on full (column pass + row pass) iterations.
    require_convergence : bool
        When True (default) a :class:`~repro.exceptions.ConvergenceError`
        is raised if the tolerance is not reached; when False the best
        iterate is returned with ``converged=False`` so callers can
        inspect the residual history (useful for the decomposable
        matrices of Section VI).
    deadline_s : float, optional
        Wall-clock budget for the iteration.  When it expires the loop
        stops exactly as if ``max_iterations`` had been exhausted: the
        best iterate is returned flagged ``converged=False`` (or a
        :class:`~repro.exceptions.ConvergenceError` naming the expired
        deadline is raised under ``require_convergence=True``), so a
        non-normalizable input can never hang a caller past its budget.
    warm_start : ScalingOutcome or (row_scale, col_scale), optional
        Scaling vectors from a previous run (e.g. on an unperturbed
        copy of this matrix) applied before iterating, so
        near-identical resubmissions re-converge in a few iterations.
        The reported ``row_scale``/``col_scale`` include the
        warm-start factors, and ``iterations`` counts only the new
        iterations.

    Returns
    -------
    NormalizationResult

    Notes
    -----
    Following paper eq. (9) the column pass runs first; iteration ``k``
    in the result counts one column pass followed by one row pass, and
    the stopping rule checks the *joint* residual after the row pass —
    identical to the procedure the paper reports converging in 6 and 7
    iterations on the SPEC CINT/CFP matrices.
    """
    work = _nonnegative_copy(matrix)
    n_rows, n_cols = work.shape
    row_target = check_positive_scalar(row_target, name="row_target")
    implied = n_rows * row_target / n_cols
    if col_target is None:
        col_target = implied
    else:
        col_target = check_positive_scalar(col_target, name="col_target")
        if not np.isclose(col_target, implied, rtol=1e-12, atol=0.0):
            raise MatrixValueError(
                "inconsistent targets: need T*row_target == M*col_target "
                f"({n_rows}*{row_target} != {n_cols}*{col_target})"
            )
    return _scale_matrix(
        work,
        np.full(n_rows, row_target),
        np.full(n_cols, col_target),
        kernel="scalar",
        what="row/column normalization",
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
        row_target=row_target,
        col_target=col_target,
    )


def scale_to_margins(
    matrix,
    row_sums,
    col_sums,
    *,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> NormalizationResult:
    """Scale ``matrix`` to *prescribed, possibly unequal* margins.

    The generalized Sinkhorn problem: find diagonal ``D1, D2`` so that
    ``D1 @ A @ D2`` has row sums ``row_sums[i]`` and column sums
    ``col_sums[j]``.  The grand totals must agree
    (``sum(row_sums) == sum(col_sums)``); for positive matrices the
    alternating iteration converges to the unique solution.

    This is the workhorse of :mod:`repro.generate.target_driven`:
    because TMA is invariant under any diagonal row/column scaling (the
    standard form absorbs it, Theorem 1), imposing margins whose
    adjacent-ratio averages equal the target MPH and TDH produces a
    matrix with *exactly* those three measure values.

    Returns a :class:`NormalizationResult`; ``row_target``/``col_target``
    are reported as NaN since the per-line targets are vectors here, and
    the residual is the largest absolute deviation from the prescribed
    margins.  ``deadline_s``/``warm_start`` behave exactly as in
    :func:`sinkhorn_knopp`.
    """
    work = _nonnegative_copy(matrix)
    n_rows, n_cols = work.shape
    r = np.ascontiguousarray(row_sums, dtype=np.float64).reshape(-1)
    c = np.ascontiguousarray(col_sums, dtype=np.float64).reshape(-1)
    if r.shape[0] != n_rows or c.shape[0] != n_cols:
        raise MatrixValueError(
            f"margin lengths must match the matrix shape {work.shape}, got "
            f"{r.shape[0]} row sums and {c.shape[0]} column sums"
        )
    if (r <= 0).any() or (c <= 0).any():
        raise MatrixValueError("prescribed margins must be strictly positive")
    if not np.isclose(r.sum(), c.sum(), rtol=1e-9):
        raise MatrixValueError(
            "inconsistent margins: sum(row_sums) must equal sum(col_sums) "
            f"({r.sum():g} != {c.sum():g})"
        )
    return _scale_matrix(
        work,
        r,
        c,
        kernel="margins",
        what="margin scaling",
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
        row_target=float("nan"),
        col_target=float("nan"),
    )


def scale_by_diagonals(
    matrix, row_scale, col_scale
) -> np.ndarray:
    """Compute ``D1 @ A @ D2`` for diagonal scalings given as vectors.

    This is the closed form of Theorem 1's conclusion; use it to re-apply
    a scaling recovered by :func:`sinkhorn_knopp` to another matrix with
    the same labels (e.g. a perturbed copy).
    """
    arr = as_float_matrix(matrix, name="matrix")
    row_scale = np.asarray(row_scale, dtype=np.float64).reshape(-1)
    col_scale = np.asarray(col_scale, dtype=np.float64).reshape(-1)
    if row_scale.shape[0] != arr.shape[0] or col_scale.shape[0] != arr.shape[1]:
        raise MatrixValueError(
            "row_scale/col_scale lengths must match the matrix shape "
            f"{arr.shape}, got {row_scale.shape[0]} and {col_scale.shape[0]}"
        )
    return row_scale[:, None] * arr * col_scale[None, :]
