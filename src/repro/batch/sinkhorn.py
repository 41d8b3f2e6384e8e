"""Batched alternating row/column scaling over ``(N, T, M)`` stacks.

:func:`sinkhorn_knopp_batched` runs the paper's eq. (9) iteration on a
whole ensemble of same-shape matrices at once, through the same core as
the scalar :func:`repro.normalize.sinkhorn_knopp`: one iteration is two
broadcast sums and two broadcast multiplies over the active slices, so
the per-matrix Python overhead disappears.  Slices converge
independently — a slice freezes the moment its residual drops below
``tol``, which keeps every slice's iterate sequence bit-identical to
the scalar run on that matrix alone (the differential harness in
``tests/batch/`` pins this against a frozen reference loop).

:func:`standardize_batched` applies the Theorem-2 targets
(rows ``sqrt(M/T)``, columns ``sqrt(T/M)``) to a stack.  Unlike the
scalar :func:`repro.normalize.standardize` it performs **no** Menon
normalizability pre-test: zero-patterned slices that admit no standard
form simply fail to converge and are reported through the ``converged``
mask (or a :class:`~repro.exceptions.ConvergenceError` naming the
slices when ``require_convergence=True``).  Callers that need the
Section-VI limit semantics should run the Menon test
(:func:`repro.structure.normalizability_report`) and route only the
slices with blocking edges or infeasible margins through the scalar
path — :func:`repro.batch.characterize_ensemble` does exactly that.

Each property of the input (finite, non-negative, no all-zero line,
consistent targets) is checked once.  The public entry points,
:func:`sinkhorn_knopp_batched` and :func:`standardize_batched`, validate
a working copy and hand it to one private driver, ``_scale_batch``,
which runs the core and packages the result without checking again.
:func:`repro.batch.characterize_ensemble` calls that driver directly
on members its callers have already screened (see
``repro.batch.ensemble._characterize_stack_batched``).

Residual histories are logged as one array per iteration; the
per-slice ``residual_history`` tuples are built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive_scalar
from ..exceptions import ConvergenceError, MatrixValueError
from ..normalize.outcome import _removed_alias
from ..normalize.sinkhorn import (
    NormalizationResult,
    ResidualLog,
    _check_deadline,
    _observe_runs,
    _scale_stack,
    _warm_started,
    convergence_message,
)
from ..obs import current_recorder, metrics as _metrics, span as _obs_span
from ..normalize.standard_form import standard_targets
from ._stack import as_float_stack

__all__ = [
    "BatchNormalizationResult",
    "sinkhorn_knopp_batched",
    "standardize_batched",
]


@dataclass(frozen=True)
class BatchNormalizationResult:
    """Columnar outcome of the batched alternating-scaling iteration.

    Field names follow the :class:`~repro.normalize.ScalingOutcome`
    protocol shared with the scalar results — ``matrix`` is the whole
    scaled stack here, and the diagnostics are per-slice arrays instead
    of scalars.  The pre-1.1 names ``matrices`` and
    ``residual_histories`` were removed after their deprecation cycle;
    accessing them raises :class:`AttributeError` naming the
    replacement field.

    Attributes
    ----------
    matrix : numpy.ndarray, shape (N, T, M)
        The scaled stack; slice ``i`` is ``D1_i @ A_i @ D2_i``.
    row_scale : numpy.ndarray, shape (N, T)
        Per-slice diagonals of ``D1``.
    col_scale : numpy.ndarray, shape (N, M)
        Per-slice diagonals of ``D2``.
    converged : numpy.ndarray of bool, shape (N,)
        Per-slice convergence mask.
    iterations : numpy.ndarray of int, shape (N,)
        Full (column pass + row pass) iterations each slice ran before
        freezing.
    residual : numpy.ndarray, shape (N,)
        Final per-slice residual (largest absolute row/column-sum
        deviation from its target).
    residual_history : tuple of tuple of float
        Per-slice residual trace; entry 0 of each is the residual of
        the *input* slice, matching the scalar result's convention.
        Built from the kernel's residual log on first read.
    row_target, col_target : float
        The target sums the iteration aimed for.
    """

    matrix: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    residual_history: tuple[tuple[float, ...], ...] = field(repr=False)
    row_target: float = 1.0
    col_target: float = 1.0

    matrices = _removed_alias("matrices", "matrix")
    residual_histories = _removed_alias(
        "residual_histories", "residual_history"
    )

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def slice(self, index: int) -> NormalizationResult:
        """The scalar-compatible :class:`NormalizationResult` of slice
        ``index`` (a bridge for code written against the scalar API)."""
        return NormalizationResult(
            matrix=self.matrix[index].copy(),
            row_scale=self.row_scale[index].copy(),
            col_scale=self.col_scale[index].copy(),
            converged=bool(self.converged[index]),
            iterations=int(self.iterations[index]),
            residual=float(self.residual[index]),
            residual_history=self.residual_history[index],
            row_target=self.row_target,
            col_target=self.col_target,
        )


class _BuiltOnRead:
    """Storage of the ``residual_history`` field.

    The batched kernel passes the core's :class:`ResidualLog`; it is
    turned into the per-slice tuples the first time the field is read,
    so a run whose histories nobody reads never builds them.  Any other
    value is stored as given.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("residual_history")
        value = obj.__dict__["residual_history"]
        if isinstance(value, ResidualLog):
            value = obj.__dict__["residual_history"] = value.histories()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__["residual_history"] = value


# Installed after the dataclass is built, so the field keeps no default
# and stays out of the repr; __init__ stores through it.
BatchNormalizationResult.residual_history = _BuiltOnRead()


def sinkhorn_knopp_batched(
    stack,
    *,
    row_target: float = 1.0,
    col_target: float | None = None,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> BatchNormalizationResult:
    """Scale every slice of ``stack`` so rows sum to ``row_target`` and
    columns to ``col_target``.

    Semantics per slice are identical to the scalar
    :func:`repro.normalize.sinkhorn_knopp` (same validation, same
    column-then-row pass order, same joint stopping rule); the batching
    is purely an execution strategy.  A slice stops iterating the
    moment it converges, so already-converged slices are not perturbed
    while stragglers continue.

    Parameters
    ----------
    stack : array-like, shape (N, T, M)
        Stack of non-negative matrices, none with an all-zero row or
        column.
    row_target, col_target, tol, max_iterations
        As in the scalar kernel; ``col_target`` defaults to the unique
        consistent value ``T * row_target / M``.
    require_convergence : bool
        When True (default) a :class:`~repro.exceptions.ConvergenceError`
        is raised if *any* slice misses the tolerance, naming the
        offending slice indices; when False the best iterates are
        returned with the per-slice ``converged`` mask.
    deadline_s : float or None
        Wall-clock budget in seconds (checked once per iteration over
        the whole stack).  When it expires, still-active slices freeze
        as non-converged — graceful degradation instead of burning the
        full iteration budget on a straggling slice.  ``None`` (the
        default) means unbounded.
    warm_start : ScalingOutcome or (row_scale, col_scale), optional
        Previous scaling vectors applied before iterating.  A single
        ``(T,)``/``(M,)`` pair (e.g. from the unperturbed base matrix
        of a what-if stack) broadcasts to every slice; per-slice
        ``(N, T)``/``(N, M)`` arrays — e.g. a previous
        :class:`BatchNormalizationResult` — warm each slice
        individually.

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.array([[[1.0, 2.0], [3.0, 4.0]],
    ...                   [[5.0, 1.0], [1.0, 5.0]]])
    >>> result = sinkhorn_knopp_batched(stack)
    >>> bool(result.converged.all())
    True
    >>> np.round(result.matrix.sum(axis=2), 6)
    array([[1., 1.],
           [1., 1.]])
    """
    work = _validated_copy(stack)
    n_rows, n_cols = work.shape[1:]
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
    return _scale_batch(
        work,
        row_target,
        col_target,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )


def _validated_copy(stack) -> np.ndarray:
    """The float64 working copy of ``stack`` the public entry points
    hand to :func:`_scale_batch`: finite, non-negative, and with no
    all-zero row or column in any slice."""
    work = as_float_stack(stack, name="stack").copy()
    if np.isinf(work).any():
        raise MatrixValueError("stack must be finite (got inf entries)")
    if (work < 0).any():
        raise MatrixValueError("stack must be non-negative")
    zero_line = (work.sum(axis=2) == 0).any(axis=1) | (
        work.sum(axis=1) == 0
    ).any(axis=1)
    if zero_line.any():
        bad = np.nonzero(zero_line)[0]
        raise MatrixValueError(
            "stack has an all-zero row or column in slice(s) "
            f"{bad[:5].tolist()}{'...' if bad.size > 5 else ''}; "
            "no scaling can fix that"
        )
    return work


def _scale_batch(
    work: np.ndarray,
    row_target: float,
    col_target: float,
    *,
    tol: float,
    max_iterations: int,
    require_convergence: bool,
    deadline_s: float | None,
    warm_start,
) -> BatchNormalizationResult:
    """The batched driver: scale ``work`` in place to consistent
    targets and package the result.

    ``work`` must already satisfy :func:`_validated_copy`'s checks and
    belong to the caller, who must not use it afterwards (the result's
    ``matrix`` may be the same array).  The public entry points
    validate and then call this; so does
    :func:`repro.batch.ensemble._characterize_stack_batched`, whose
    callers screen every member before routing it to the batch.
    """
    n_slices, n_rows, n_cols = work.shape
    work, row_scale, col_scale = _warm_started(work, warm_start)
    t_end = _check_deadline(deadline_s)
    rec = current_recorder()
    with _obs_span(
        "sinkhorn.batched", slices=n_slices, rows=n_rows, cols=n_cols
    ) as sp:
        on_progress = None
        if rec is not None:
            # Active-mask occupancy: how many slices still iterate.
            def on_progress(active_count: int) -> None:
                sp.sample("active_slices", active_count)
        log, iterations, residual, converged, it, timed_out = (
            _scale_stack(
                work,
                np.full(n_rows, row_target),
                np.full(n_cols, col_target),
                tol=tol,
                max_iterations=max_iterations,
                row_scale=row_scale,
                col_scale=col_scale,
                t_end=t_end,
                on_progress=on_progress,
            )
        )
        if rec is not None:
            sp.note(
                iterations=it,
                converged_slices=int(converged.sum()),
                max_residual=float(residual.max()),
                timed_out=timed_out,
            )
    _observe_runs("batched", iterations, residual, converged)
    if warm_start is not None:
        _metrics.inc(
            "repro_backend_warm_start_total",
            kernel="sinkhorn_batched",
            outcome="converged" if bool(converged.all()) else "pending",
        )
    if require_convergence and not converged.all():
        bad = np.flatnonzero(~converged)
        raise ConvergenceError(
            convergence_message(
                f"{bad.size} of {n_slices} slices",
                tol=tol,
                iterations=it,
                residual=float(residual[bad].max()),
                failing=bad[:5].tolist(),
                deadline_s=deadline_s if timed_out else None,
            ),
            iterations=it,
            residual=float(residual[bad].max()),
        )
    return BatchNormalizationResult(
        matrix=work,
        row_scale=row_scale,
        col_scale=col_scale,
        converged=converged,
        iterations=iterations,
        residual=residual,
        residual_history=log,
        row_target=row_target,
        col_target=col_target,
    )


def standardize_batched(
    stack,
    *,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    policy: str = "raise",
    budget=None,
    fault_plan=None,
    warm_start=None,
) -> BatchNormalizationResult:
    """Convert every slice of a stack to the standard ECS form.

    Applies the Theorem-2 targets (rows ``sqrt(M/T)``, columns
    ``sqrt(T/M)``) so the largest singular value of every converged
    slice is 1.  No Menon pre-test is performed: slices whose zero
    pattern admits no standard form show up as non-converged (see the
    module docstring for the fallback rules).

    ``policy`` selects the fault semantics: ``"raise"`` (default) is
    the historical behavior described above; ``"quarantine"`` /
    ``"repair"`` delegate to
    :func:`repro.robust.standardize_batched_robust`, which isolates
    corrupt or structurally hopeless slices into a
    :class:`~repro.robust.QuarantineReport` (NaN result rows) instead
    of rejecting the whole stack, honouring the optional ``budget``
    and applying the optional chaos ``fault_plan``.

    ``warm_start`` behaves exactly as in :func:`sinkhorn_knopp_batched`
    and requires the default
    ``policy="raise"`` (the robust pipeline re-orders slices, so stale
    scaling vectors cannot be matched up safely).

    Examples
    --------
    >>> import numpy as np
    >>> result = standardize_batched(np.array([[[1.0, 0.0], [0.0, 3.0]]]))
    >>> np.round(result.matrix[0], 6)
    array([[1., 0.],
           [0., 1.]])
    """
    if policy not in ("raise", "quarantine", "repair"):
        raise MatrixValueError(
            f"policy must be 'raise', 'quarantine' or 'repair', got "
            f"{policy!r}"
        )
    if policy != "raise":
        if warm_start is not None:
            raise MatrixValueError(
                "warm_start requires policy='raise' (the robust "
                "pipeline re-orders and repairs slices, so previous "
                "scaling vectors cannot be matched up safely)"
            )
        from ..robust.ensemble import standardize_batched_robust

        return standardize_batched_robust(
            stack,
            tol=tol,
            max_iterations=max_iterations,
            policy=policy,
            budget=budget,
            fault_plan=fault_plan,
        )
    if budget is not None or fault_plan is not None:
        raise MatrixValueError(
            "budget/fault_plan require policy='quarantine' or "
            "policy='repair'"
        )
    work = _validated_copy(stack)
    return _scale_batch(
        work,
        *standard_targets(work.shape[1], work.shape[2]),
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )
