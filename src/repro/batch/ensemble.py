"""One-call columnar characterization of matrix ensembles.

:func:`characterize_ensemble` is the batched sibling of
:func:`repro.measures.characterize_many`: it takes an ``(N, T, M)``
stack (or any sequence of environments) and returns the three paper
measures for every member as flat arrays instead of N profile objects.

Dispatch rules (documented in ``docs/BATCHED.md``):

* all slices share a shape and are strictly positive → fully batched
  kernels (stacked Sinkhorn + one stacked SVD);
* zero-patterned slices that have a standard form (the exact Menon
  test, :func:`repro.structure.normalizability_report`, finds feasible
  margins and no blocking edge) → the same batched kernels, bit-equal
  to scalar :func:`repro.measures.characterize` on that slice;
* zero patterns with no standard form (paper Section VI) → scalar
  :func:`repro.measures.characterize` per slice, so the
  ``tma_fallback`` semantics (strict/limit/column) are honoured
  exactly;
* ragged shapes, or ``batched=False`` → the scalar path for everything,
  optionally across a process pool (``n_jobs``).

Either way the returned columns line up with the input order, and the
batched and scalar paths agree to ≤ 1e-10 on convergent slices (the
differential harness in ``tests/batch/`` enforces this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixShapeError, MatrixValueError, WeightError
from ..normalize.sinkhorn import coerce_warm_start
from ..normalize.standard_form import DEFAULT_TOL, standard_targets
from ..obs import current_recorder, metrics as _metrics, span, traced
from ..structure import normalizability_report
from ._stack import as_ecs_stack, stack_environments
from .measures import _adjacent_ratio_mean
from .sinkhorn import _scale_batch

__all__ = ["EnsembleCharacterization", "characterize_ensemble"]

#: Structured dtype of :meth:`EnsembleCharacterization.records`.
ENSEMBLE_DTYPE = np.dtype(
    [
        ("mph", np.float64),
        ("tdh", np.float64),
        ("tma", np.float64),
        ("iterations", np.int64),
        ("converged", np.bool_),
        ("batched", np.bool_),
    ]
)


@dataclass(frozen=True)
class EnsembleCharacterization:
    """Columnar measures of an ensemble (one row per environment).

    Attributes
    ----------
    mph, tdh, tma : numpy.ndarray, shape (N,)
        The paper's three measures per member.
    iterations : numpy.ndarray of int, shape (N,)
        Standard-form Sinkhorn iterations; ``-1`` where no standard
        form was computed (eq. 5 column fallback).
    converged : numpy.ndarray of bool, shape (N,)
        Whether the standard-form iteration reached tolerance.
    batched : numpy.ndarray of bool, shape (N,)
        Which members took the batched kernels (False = scalar
        fallback — a zero pattern with no standard form, ragged input,
        or ``batched=False``).  Zero-patterned members that have a
        standard form are batched.
    n_tasks, n_machines : int or None
        Common slice dimensions; ``None`` when the input was ragged.
    """

    mph: np.ndarray
    tdh: np.ndarray
    tma: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    batched: np.ndarray
    n_tasks: int | None
    n_machines: int | None

    def __len__(self) -> int:
        return self.mph.shape[0]

    @property
    def measures(self) -> np.ndarray:
        """The ``(N, 3)`` array of (MPH, TDH, TMA) rows."""
        return np.column_stack([self.mph, self.tdh, self.tma])

    def records(self) -> np.ndarray:
        """The full result as a structured array (``ENSEMBLE_DTYPE``)."""
        out = np.empty(len(self), dtype=ENSEMBLE_DTYPE)
        out["mph"] = self.mph
        out["tdh"] = self.tdh
        out["tma"] = self.tma
        out["iterations"] = self.iterations
        out["converged"] = self.converged
        out["batched"] = self.batched
        return out

    def summary(self) -> str:
        """One-line mean ± std digest of the ensemble."""
        m = self.measures
        mean, std = m.mean(axis=0), m.std(axis=0)
        shape = (
            f"{self.n_tasks}x{self.n_machines}"
            if self.n_tasks is not None
            else "ragged"
        )
        return (
            f"{len(self)} environments ({shape}): "
            f"MPH {mean[0]:.3f}±{std[0]:.3f}  "
            f"TDH {mean[1]:.3f}±{std[1]:.3f}  "
            f"TMA {mean[2]:.3f}±{std[2]:.3f}  "
            f"[{int(self.batched.sum())} batched, "
            f"{int((~self.converged).sum())} non-converged]"
        )


def _characterize_columns(args: tuple) -> tuple:
    """Module-level worker (picklable): scalar columns of one member."""
    from ..measures.report import characterize

    matrix, tol, tma_fallback = args
    profile = characterize(matrix, tol=tol, tma_fallback=tma_fallback)
    iterations = (
        profile.sinkhorn_iterations
        if profile.sinkhorn_iterations is not None
        else -1
    )
    converged = (
        profile.sinkhorn_residual is not None
        and profile.sinkhorn_residual <= tol
    )
    return (profile.mph, profile.tdh, profile.tma, iterations, converged)


def _coerce_input(
    environments, task_weights=None, machine_weights=None
) -> tuple[np.ndarray | None, list | None]:
    """Shared input coercion for the plain and robust pipelines.

    Returns ``(stack, members)``: a weighted ``(N, T, M)`` float stack
    (and ``members=None``) when the input stacks, or ``stack=None`` and
    the list of coerced 2-D member arrays when the shapes are ragged.
    """
    if isinstance(environments, np.ndarray) and environments.ndim == 3:
        stack = as_ecs_stack(environments)
    elif isinstance(environments, np.ndarray):
        raise MatrixShapeError(
            "array input must be a 3-D (N, T, M) stack, got ndim="
            f"{environments.ndim} (shape {environments.shape}); wrap a "
            "single matrix as matrix[None, :, :] or pass a list"
        )
    else:
        from ..core.environment import ECSMatrix, ETCMatrix

        environments = list(environments)
        if any(
            isinstance(env, (ECSMatrix, ETCMatrix)) for env in environments
        ) and (task_weights is not None or machine_weights is not None):
            raise WeightError(
                "explicit task_weights/machine_weights require raw-array "
                "environments (matrix wrappers carry their own weights)"
            )
        stack = stack_environments(environments)

    if stack is not None and (
        task_weights is not None or machine_weights is not None
    ):
        from .._validation import check_weights

        w_t = check_weights(task_weights, stack.shape[1], name="task_weights")
        w_m = check_weights(
            machine_weights, stack.shape[2], name="machine_weights"
        )
        stack = w_t[None, :, None] * w_m[None, None, :] * stack

    if stack is None:
        from ..normalize.standard_form import _coerce_ecs

        return None, [_coerce_ecs(env) for env in environments]
    return stack, None


def _characterize_stack_batched(
    sub: np.ndarray,
    *,
    tol: float,
    max_iterations: int,
    deadline_s: float | None = None,
    warm_start=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched (MPH, TDH, TMA, iterations, converged) columns of a
    sub-stack whose members all have a standard form.

    The same reductions :func:`repro.measures.characterize` performs on
    the weighted matrix, lifted one axis: MP is the column-sum rows, TD
    the row-sum rows, TMA the mean trailing singular value of the
    standard form (eq. 8).  Per-slice results are independent of which
    other slices share the stack, which is what lets the robust
    pipeline promise bit-identical healthy members.

    ``sub`` must be a float64 stack the caller owns: it is scaled in
    place.  Its members are not validated again here.  Both callers
    screen them before routing them to the batch:
    :func:`characterize_ensemble` through :func:`as_ecs_stack` or the
    per-member coercion (finite, non-negative, no empty line) plus
    its strictly-positive-or-normalizable routing, and the robust
    pipeline through :func:`repro.robust.classify_matrix` plus its
    strictly-positive routing.  Only the weighted sums can still reach
    inf, so they keep a guard: being non-negative, they are all finite
    exactly when the largest of them is.
    """
    largest = np.maximum.reduce
    mp = np.add.reduce(sub, axis=1)
    td = np.add.reduce(sub, axis=2)
    if not math.isfinite(max(largest(mp, None), largest(td, None))):
        raise MatrixValueError("values must be strictly positive and finite")
    mph = _adjacent_ratio_mean(mp)
    tdh = _adjacent_ratio_mean(td)
    standard = _scale_batch(
        sub,
        *standard_targets(sub.shape[1], sub.shape[2]),
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=False,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )
    t0 = time.perf_counter()
    with span(
        "svd.batched", slices=sub.shape[0], rows=sub.shape[1], cols=sub.shape[2]
    ):
        values = np.linalg.svd(standard.matrix, compute_uv=False)
    _metrics.observe(
        "repro_svd_seconds", time.perf_counter() - t0, kernel="batched"
    )
    if values.shape[1] < 2:
        tma = np.zeros(sub.shape[0], dtype=np.float64)
    else:
        tma = np.clip(
            values[:, 1:].sum(axis=1) / (values.shape[1] - 1), 0.0, 1.0
        )
    return mph, tdh, tma, standard.iterations, standard.converged


@traced(name="batch.characterize_ensemble")
def characterize_ensemble(
    environments=None,
    *,
    store=None,
    memory_budget_mb: float | None = None,
    chunk_size: int | None = None,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    tma_fallback: str = "limit",
    batched: bool = True,
    n_jobs: int | None = None,
    policy: str = "raise",
    budget=None,
    fault_plan=None,
    warm_start=None,
) -> EnsembleCharacterization:
    """Characterize a whole ensemble of environments in one call.

    Parameters
    ----------
    environments : numpy.ndarray of shape (N, T, M), or sequence
        A pre-built stack, or any sequence of raw arrays /
        :class:`~repro.core.ECSMatrix` / :class:`~repro.core.ETCMatrix`
        (wrapper weighting factors are folded in, as everywhere else).
        Same-shape sequences are stacked automatically; ragged ones
        fall back to the scalar path.  Omit it (and pass ``store``) to
        stream a disk-backed ensemble instead.
    store : repro.shard.StackStore or path, optional
        An on-disk stack to characterize out-of-core with flat peak
        memory — the call is delegated to
        :func:`repro.shard.characterize_store` and the result is
        bit-identical to loading the whole stack.  Mutually exclusive
        with ``environments`` (and with weights/``warm_start``, which
        the streamed path does not support).
    memory_budget_mb, chunk_size : optional
        Streaming controls for the ``store`` path (peak working-set
        budget in MiB, or an explicit members-per-chunk); invalid
        without ``store``.
    task_weights, machine_weights : array-like, optional
        Weighting factors applied to every member.  Only valid for
        raw-array input (wrappers carry their own weights; mixing the
        two would double-weight).
    tol, max_iterations
        Sinkhorn controls for the standard form.
    tma_fallback : {"limit", "column", "raise"}
        Section-VI handling for zero patterns with no standard form
        (these take the scalar path; see
        :func:`repro.measures.characterize`).  Zero patterns that have
        one are batched and never need it.
    batched : bool
        Force the scalar path with ``False`` (useful for differential
        testing and for memory-constrained very large stacks — the
        batched path materializes the full ``(N, T, M)`` standard-form
        copy).
    n_jobs : int, optional
        Process-pool width for the scalar path (ignored on the batched
        path, which needs no pool).
    policy : {"raise", "quarantine", "repair"}
        Fault handling (see :mod:`repro.robust`).  ``"raise"`` (the
        default) propagates the first member failure, aborting the
        whole call — the historical behavior.  ``"quarantine"``
        isolates failing members into a structured
        :class:`~repro.robust.QuarantineReport` (their result rows are
        NaN-masked) while every healthy member completes with
        bit-identical results; ``"repair"`` additionally retries
        quarantined members through the
        :mod:`repro.robust.repair` ladder.  Both return a
        :class:`~repro.robust.RobustEnsembleCharacterization`.
    budget : repro.robust.Budget, optional
        Wall-clock / retry budgets; only valid with a robust policy.
    fault_plan : repro.robust.FaultPlan, optional
        Fault injection for chaos drills.  Data faults are applied
        under any policy (so a drill can also demonstrate the
        ``"raise"`` crash); ``stall`` faults need a robust policy,
        whose worker path hosts the injected sleep.
    warm_start : ScalingOutcome or (row_scale, col_scale), optional
        Previous standard-form scaling vectors applied before
        iterating — the incremental re-characterization path for
        ``perturb_stack``-style what-if resubmissions (a scalar result
        on the base matrix broadcasts to every slice).  Requires the
        default ``policy="raise"`` and the batched path (stacked,
        strictly positive input).

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.stack([np.ones((2, 2)), np.eye(2) + 0.01])
    >>> result = characterize_ensemble(stack)
    >>> [round(float(v), 2) for v in result.tma]
    [0.0, 0.98]
    >>> bool(result.batched.all()), bool(result.converged.all())
    (True, True)
    """
    if store is not None:
        if environments is not None:
            raise MatrixValueError(
                "pass either environments or store=, not both (a store "
                "IS the ensemble; there is nothing to combine)"
            )
        if task_weights is not None or machine_weights is not None:
            raise WeightError(
                "task_weights/machine_weights are not supported on the "
                "store path (bake weights in when writing the store)"
            )
        if warm_start is not None:
            raise MatrixValueError(
                "warm_start is not supported on the store path (chunks "
                "stream through; there is no stable slice identity to "
                "warm from)"
            )
        from ..shard.engine import characterize_store

        return characterize_store(
            store,
            memory_budget_mb=memory_budget_mb,
            chunk_size=chunk_size,
            tol=tol,
            max_iterations=max_iterations,
            tma_fallback=tma_fallback,
            batched=batched,
            n_jobs=n_jobs,
            policy=policy,
            budget=budget,
            fault_plan=fault_plan,
        )
    if environments is None:
        raise MatrixValueError(
            "characterize_ensemble needs environments (in-memory) or "
            "store= (out-of-core)"
        )
    if memory_budget_mb is not None or chunk_size is not None:
        raise MatrixValueError(
            "memory_budget_mb/chunk_size only apply to the store path; "
            "in-memory input is characterized in one pass (write the "
            "stack with repro.shard.write_store to stream it)"
        )
    if tma_fallback not in ("limit", "column", "raise"):
        raise MatrixValueError(
            f"tma_fallback must be 'limit', 'column' or 'raise', got "
            f"{tma_fallback!r}"
        )
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
        from ..robust.ensemble import characterize_ensemble_robust

        return characterize_ensemble_robust(
            environments,
            task_weights=task_weights,
            machine_weights=machine_weights,
            tol=tol,
            max_iterations=max_iterations,
            tma_fallback=tma_fallback,
            batched=batched,
            n_jobs=n_jobs,
            policy=policy,
            budget=budget,
            fault_plan=fault_plan,
        )
    if budget is not None:
        raise MatrixValueError(
            "budget requires policy='quarantine' or policy='repair'"
        )
    stack, members = _coerce_input(environments, task_weights, machine_weights)
    if fault_plan is not None:
        if stack is not None:
            stack = fault_plan.apply(stack)
        else:
            members = [
                fault_plan.apply_member(i, m) for i, m in enumerate(members)
            ]

    if stack is None:
        # Ragged shapes: scalar path for every member.
        if warm_start is not None:
            raise MatrixValueError(
                "warm_start requires a stacked (N, T, M) input (ragged "
                "members take the scalar path)"
            )
        from .._parallel import parallel_map

        rec = current_recorder()
        if rec is not None:
            rec.counter("ensemble.slices", len(members))
            rec.counter("ensemble.fallback_slices", len(members))
        _metrics.inc(
            "repro_ensemble_members_total", len(members), path="fallback"
        )
        items = [(member, tol, tma_fallback) for member in members]
        columns = parallel_map(_characterize_columns, items, n_jobs=n_jobs)
        return _from_columns(columns, n_tasks=None, n_machines=None)

    n_slices, n_tasks, n_machines = stack.shape
    positive = (stack > 0).all(axis=(1, 2))
    in_batch = positive & batched
    warm_rows = warm_cols = None
    if warm_start is not None:
        if not in_batch.all():
            raise MatrixValueError(
                "warm_start requires batched=True and a strictly "
                "positive stack (scaling vectors are only reused for "
                "strictly positive members)"
            )
        warm_rows, warm_cols = coerce_warm_start(
            warm_start, n_slices, n_tasks, n_machines
        )
    if batched:
        # A member with zeros joins the batch when it has a standard
        # form (Menon's test finds no blocking edge): the core then runs
        # on the same matrix as the scalar path would.  Only the
        # Section-VI patterns keep the scalar path and its limit
        # semantics; so do members a fault plan made NaN or negative.
        zero = ~positive & (stack >= 0).all(axis=(1, 2))
        for i in np.flatnonzero(zero):
            in_batch[i] = normalizability_report(stack[i]).normalizable
    n_batched = int(in_batch.sum())
    rec = current_recorder()
    if rec is not None:
        rec.counter("ensemble.slices", n_slices)
        rec.counter("ensemble.batched_slices", n_batched)
        rec.counter("ensemble.fallback_slices", n_slices - n_batched)
    for path, count in (
        ("batched", n_batched),
        ("fallback", n_slices - n_batched),
    ):
        if count:
            _metrics.inc("repro_ensemble_members_total", count, path=path)

    mph = np.empty(n_slices, dtype=np.float64)
    tdh = np.empty(n_slices, dtype=np.float64)
    tma = np.empty(n_slices, dtype=np.float64)
    iterations = np.empty(n_slices, dtype=np.int64)
    converged = np.zeros(n_slices, dtype=bool)

    if in_batch.any():
        (
            mph[in_batch],
            tdh[in_batch],
            tma[in_batch],
            iterations[in_batch],
            converged[in_batch],
        ) = _characterize_stack_batched(
            stack[in_batch],
            tol=tol,
            max_iterations=max_iterations,
            warm_start=(
                None
                if warm_rows is None
                else (warm_rows[in_batch], warm_cols[in_batch])
            ),
        )

    fallback = ~in_batch
    if fallback.any():
        from .._parallel import parallel_map

        items = [
            (stack[i], tol, tma_fallback) for i in np.nonzero(fallback)[0]
        ]
        columns = parallel_map(_characterize_columns, items, n_jobs=n_jobs)
        for i, (m, t, a, its, conv) in zip(np.nonzero(fallback)[0], columns):
            mph[i], tdh[i], tma[i] = m, t, a
            iterations[i] = its
            converged[i] = conv

    return EnsembleCharacterization(
        mph=mph,
        tdh=tdh,
        tma=tma,
        iterations=iterations,
        converged=converged,
        batched=in_batch,
        n_tasks=n_tasks,
        n_machines=n_machines,
    )


def _from_columns(
    columns, *, n_tasks: int | None, n_machines: int | None
) -> EnsembleCharacterization:
    """Assemble a columnar result from per-member scalar tuples."""
    arr = np.array(columns, dtype=np.float64).reshape(-1, 5)
    return EnsembleCharacterization(
        mph=arr[:, 0].copy(),
        tdh=arr[:, 1].copy(),
        tma=arr[:, 2].copy(),
        iterations=arr[:, 3].astype(np.int64),
        converged=arr[:, 4].astype(bool),
        batched=np.zeros(arr.shape[0], dtype=bool),
        n_tasks=n_tasks,
        n_machines=n_machines,
    )
