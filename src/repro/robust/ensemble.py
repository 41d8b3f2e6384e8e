"""The fault-tolerant ensemble pipeline (quarantine / repair policies).

:func:`characterize_ensemble_robust` is the robust sibling of
:func:`repro.batch.characterize_ensemble` (which delegates here when
``policy != "raise"``).  The contract:

* **healthy members are untouched** — every member that carries no
  fault completes with results *bit-identical* to a fault-free run,
  because the batched kernels are per-slice independent and the scalar
  path characterizes each member in isolation;
* **faulty members are isolated** — pre-screened data corruption
  (NaN/inf/negative entries, empty lines, Section-VI zero patterns
  under ``tma_fallback="raise"``), Sinkhorn non-convergence, worker
  crashes and worker timeouts each quarantine only the member that
  exhibits them, NaN-masking its result row and recording a
  :class:`~repro.robust.MemberFault` with a stable category slug;
* **repair is explicit** — ``policy="repair"`` additionally walks the
  :mod:`repro.robust.repair` ladder for every repairable fault, and
  repaired members carry their repair description in the report.

Wall-clock budgets (:class:`~repro.robust.Budget`) bound every failure
mode: the batched Sinkhorn stops at the run deadline, stragglers are
abandoned at ``member_timeout_s``, and the repair ladder stops
escalating when the deadline is spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._parallel import WorkerFailure, parallel_map, resolve_n_jobs
from ..batch._stack import as_float_stack
from ..batch.ensemble import (
    EnsembleCharacterization,
    _characterize_columns,
    _characterize_stack_batched,
)
from ..batch.sinkhorn import BatchNormalizationResult, standardize_batched
from ..exceptions import (
    MatrixShapeError,
    MatrixValueError,
    ReproError,
    WeightError,
)
from ..normalize.standard_form import DEFAULT_TOL, _coerce_ecs, standardize
from ..obs import current_recorder, metrics as _metrics, traced
from .budget import DEFAULT_BUDGET, Budget
from .chaos import FaultPlan
from .repair import repair_member, repaired_matrix
from .taxonomy import (
    MemberFault,
    QuarantineReport,
    classify_exception,
    classify_matrix,
)

__all__ = [
    "RobustEnsembleCharacterization",
    "RobustBatchNormalizationResult",
    "characterize_ensemble_robust",
    "standardize_batched_robust",
]


@dataclass(frozen=True)
class RobustEnsembleCharacterization(EnsembleCharacterization):
    """An ensemble characterization plus its quarantine report.

    Quarantined members have NaN measures, ``iterations == -1`` and
    ``converged == False``; repaired members carry their recovered
    measures and show up in ``report.repaired``.
    """

    report: QuarantineReport

    @property
    def healthy_mask(self) -> np.ndarray:
        """Boolean mask of members with a usable result row (healthy or
        repaired)."""
        mask = np.ones(len(self), dtype=bool)
        for index in self.report.quarantined:
            mask[index] = False
        return mask

    def member_payload(self, index: int) -> dict:
        """JSON-safe serving row for member ``index``.

        Healthy members get their measure columns; repaired members
        additionally carry their fault record (``repaired=True``);
        quarantined members get *only* the fault record — the
        characterization service turns that into a structured error
        response without touching the NaN-masked measure row.
        """
        fault = None
        if self.report.faults:
            try:
                fault = self.report.fault(index)
            except KeyError:
                pass
        if fault is not None and not fault.repaired:
            return {"fault": fault.to_payload()}
        payload = {
            "mph": float(self.mph[index]),
            "tdh": float(self.tdh[index]),
            "tma": float(self.tma[index]),
            "iterations": int(self.iterations[index]),
            "converged": bool(self.converged[index]),
            "batched": bool(self.batched[index]),
        }
        if fault is not None:
            payload["fault"] = fault.to_payload()
        return payload

    def summary(self) -> str:
        """Digest over *usable* rows (quarantined NaNs excluded)."""
        usable = self.measures[self.healthy_mask]
        shape = (
            f"{self.n_tasks}x{self.n_machines}"
            if self.n_tasks is not None
            else "ragged"
        )
        if usable.shape[0] == 0:
            stats = "no usable members"
        else:
            mean, std = usable.mean(axis=0), usable.std(axis=0)
            stats = (
                f"MPH {mean[0]:.3f}±{std[0]:.3f}  "
                f"TDH {mean[1]:.3f}±{std[1]:.3f}  "
                f"TMA {mean[2]:.3f}±{std[2]:.3f}"
            )
        return (
            f"{len(self)} environments ({shape}): {stats}  "
            f"[{int(self.batched.sum())} batched, "
            f"{len(self.report.quarantined)} quarantined, "
            f"{len(self.report.repaired)} repaired]"
        )


@dataclass(frozen=True)
class RobustBatchNormalizationResult(BatchNormalizationResult):
    """A batched normalization result plus its quarantine report.

    Quarantined slices have NaN ``matrix``/scale rows; non-convergent
    slices keep their best partial iterate (graceful degradation) but
    are still recorded as faults.
    """

    report: QuarantineReport | None = None


def _robust_worker(args: tuple) -> tuple:
    """Module-level worker (picklable): one member's scalar columns,
    optionally delayed by an injected chaos stall."""
    matrix, tol, tma_fallback, stall_s = args
    if stall_s > 0:
        time.sleep(stall_s)
    return _characterize_columns((matrix, tol, tma_fallback))


def _lenient_member(env):
    """Best-effort member coercion: the strict path first, a raw float
    view when validation rejects the data (the pre-screen will name the
    corruption), ``None`` when it isn't array-like at all."""
    try:
        return _coerce_ecs(env)
    # Raw TypeError/ValueError covers data numpy cannot even coerce
    # (e.g. a string member) — validation never gets to wrap those.
    except (ReproError, TypeError, ValueError):
        from ..core.environment import ECSMatrix, ETCMatrix

        base = env
        if isinstance(base, ETCMatrix):
            try:
                base = base.to_ecs()
            except ReproError:
                pass
        if isinstance(base, (ECSMatrix, ETCMatrix)):
            base = base.values
        try:
            return np.asarray(base, dtype=np.float64)
        except (TypeError, ValueError):
            return None


def _coerce_input_lenient(
    environments, task_weights, machine_weights
) -> tuple[np.ndarray | None, list]:
    """The robust twin of ``repro.batch.ensemble._coerce_input``.

    Same shapes and weight rules, but *member data* is never rejected
    here — corrupt members flow through so the pre-screen can
    quarantine them individually.  Returns ``(stack, members)``; the
    stack is None for ragged (or partly non-array) input, and
    ``members[i]`` is always what the pipeline should screen for
    member ``i``.
    """
    if isinstance(environments, np.ndarray):
        if environments.ndim != 3:
            raise MatrixShapeError(
                "array input must be a 3-D (N, T, M) stack, got ndim="
                f"{environments.ndim} (shape {environments.shape}); wrap "
                "a single matrix as matrix[None, :, :] or pass a list"
            )
        stack = as_float_stack(environments, allow_nan=True)
    else:
        from ..core.environment import ECSMatrix, ETCMatrix

        env_list = list(environments)
        if not env_list:
            raise MatrixShapeError(
                "cannot characterize an empty environment sequence"
            )
        if any(
            isinstance(env, (ECSMatrix, ETCMatrix)) for env in env_list
        ) and (task_weights is not None or machine_weights is not None):
            raise WeightError(
                "explicit task_weights/machine_weights require raw-array "
                "environments (matrix wrappers carry their own weights)"
            )
        members = [_lenient_member(env) for env in env_list]
        stackable = all(
            isinstance(m, np.ndarray) and m.ndim == 2 for m in members
        ) and len({m.shape for m in members}) == 1
        if not stackable:
            # Ragged / malformed input: scalar path, explicit weights
            # cannot apply across differing shapes (same rule as the
            # plain pipeline).
            return None, members
        stack = np.ascontiguousarray(np.stack(members), dtype=np.float64)

    if task_weights is not None or machine_weights is not None:
        from .._validation import check_weights

        w_t = check_weights(task_weights, stack.shape[1], name="task_weights")
        w_m = check_weights(
            machine_weights, stack.shape[2], name="machine_weights"
        )
        stack = w_t[None, :, None] * w_m[None, None, :] * stack
    return stack, [stack[i] for i in range(stack.shape[0])]


def _check_policy(policy: str) -> None:
    if policy not in ("quarantine", "repair"):
        raise MatrixValueError(
            f"robust policy must be 'quarantine' or 'repair', got "
            f"{policy!r}"
        )


def _record_counters(rec, report: QuarantineReport) -> None:
    """Surface quarantine/repair activity in the ambient obs recorder
    and the process-wide metrics registry (outcomes by taxonomy slug)."""
    _metrics.inc(
        "repro_member_outcomes_total",
        len(report.quarantined),
        outcome="quarantined",
    )
    _metrics.inc(
        "repro_member_outcomes_total", len(report.repaired), outcome="repaired"
    )
    by_category = report.by_category()
    for category, indices in by_category.items():
        _metrics.inc(
            "repro_member_outcomes_total",
            len(indices),
            outcome=f"fault.{category}",
        )
    if rec is None:
        return
    rec.counter("robust.quarantined", len(report.quarantined))
    rec.counter("robust.repaired", len(report.repaired))
    rec.counter("robust.retries", report.attempts)
    for category, indices in by_category.items():
        rec.counter(f"robust.fault.{category}", len(indices))


@traced(name="robust.characterize_ensemble")
def characterize_ensemble_robust(
    environments,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    tma_fallback: str = "limit",
    batched: bool = True,
    n_jobs: int | None = None,
    policy: str = "quarantine",
    budget: Budget | None = None,
    fault_plan: FaultPlan | None = None,
) -> RobustEnsembleCharacterization:
    """Characterize an ensemble, isolating faulty members.

    Parameters match :func:`repro.batch.characterize_ensemble` plus the
    robust knobs (``policy``, ``budget``, ``fault_plan`` — see the
    module docstring).  Healthy members' results are bit-identical to a
    fault-free run of the same ensemble.

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.ones((3, 2, 2))
    >>> stack[1, 0, 0] = np.nan
    >>> result = characterize_ensemble_robust(stack, policy="quarantine")
    >>> result.report.quarantined, result.report.categories()
    ((1,), {1: 'nan'})
    >>> bool(np.isnan(result.mph[1])), float(result.mph[0])
    (True, 1.0)
    """
    _check_policy(policy)
    if tma_fallback not in ("limit", "column", "raise"):
        raise MatrixValueError(
            f"tma_fallback must be 'limit', 'column' or 'raise', got "
            f"{tma_fallback!r}"
        )
    budget = DEFAULT_BUDGET if budget is None else budget
    deadline = budget.start()

    stack, members = _coerce_input_lenient(
        environments, task_weights, machine_weights
    )
    if fault_plan is not None:
        for spec in fault_plan.faults:
            if spec.member >= len(members):
                raise MatrixValueError(
                    f"fault targets member {spec.member} but the "
                    f"ensemble has only {len(members)} members"
                )
        if stack is not None:
            stack = fault_plan.apply(stack)
            members = [stack[i] for i in range(stack.shape[0])]
        else:
            members = [
                fault_plan.apply_member(i, m)
                if isinstance(m, np.ndarray) and m.ndim == 2
                else m
                for i, m in enumerate(members)
            ]
    if stack is not None:
        n_tasks, n_machines = int(stack.shape[1]), int(stack.shape[2])
    else:
        n_tasks = n_machines = None
    n = len(members)
    stalled = set(fault_plan.stalled) if fault_plan is not None else set()

    # Pre-screen: structural and value corruption quarantines before
    # any kernel runs, so one bad member cannot poison a batched pass.
    faults: dict[int, tuple[str, str]] = {}
    for i, member in enumerate(members):
        verdict = classify_matrix(member, tma_fallback=tma_fallback)
        if verdict is not None:
            faults[i] = verdict

    mph, tdh, tma = np.full((3, n), np.nan)
    iterations = np.full(n, -1, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    batched_mask = np.zeros(n, dtype=bool)

    healthy = [i for i in range(n) if i not in faults]
    batch_idx: list[int] = []
    if stack is not None and batched:
        # Stalled members are healthy data but must visit the worker
        # path so their injected straggle is actually exercised.
        batch_idx = [
            i
            for i in healthy
            if i not in stalled and bool((members[i] > 0).all())
        ]
    in_batch = set(batch_idx)
    scalar_idx = [i for i in healthy if i not in in_batch]

    rec = current_recorder()
    if rec is not None:
        rec.counter("ensemble.slices", n)
        rec.counter("ensemble.batched_slices", len(batch_idx))
        rec.counter("ensemble.fallback_slices", len(scalar_idx))

    if batch_idx:
        sub = stack[np.asarray(batch_idx)]
        b_mph, b_tdh, b_tma, b_iter, b_conv = _characterize_stack_batched(
            sub,
            tol=tol,
            max_iterations=max_iterations,
            deadline_s=deadline.remaining(),
        )
        for pos, i in enumerate(batch_idx):
            if b_conv[pos]:
                mph[i], tdh[i], tma[i] = b_mph[pos], b_tdh[pos], b_tma[pos]
                iterations[i] = b_iter[pos]
                converged[i] = True
                batched_mask[i] = True
            else:
                detail = (
                    f"standard form missed tol={tol:g} after "
                    f"{int(b_iter[pos])} iterations"
                )
                if deadline.expired():
                    detail += (
                        f" (deadline_s={budget.deadline_s:g} expired)"
                    )
                faults[i] = ("non-convergent", detail)

    if scalar_idx:
        jobs = resolve_n_jobs(n_jobs)
        timeout_s = budget.member_timeout_s
        if timeout_s is not None and jobs == 1:
            # An in-process worker cannot be preempted; a timeout
            # implies a pool.
            jobs = 2
        items = [
            (
                members[i],
                tol,
                tma_fallback,
                fault_plan.stall_seconds(i) if fault_plan is not None else 0.0,
            )
            for i in scalar_idx
        ]
        results = parallel_map(
            _robust_worker,
            items,
            n_jobs=jobs,
            timeout_s=timeout_s,
            return_failures=True,
        )
        for i, result in zip(scalar_idx, results):
            if isinstance(result, WorkerFailure):
                category = classify_exception(result.error)
                faults[i] = (category, str(result.error))
            else:
                mph[i], tdh[i], tma[i] = result[0], result[1], result[2]
                iterations[i] = result[3]
                converged[i] = result[4]

    records: list[MemberFault] = []
    for i in sorted(faults):
        category, detail = faults[i]
        attempts = 0
        repaired = False
        repair_label = None
        if policy == "repair":
            recovery, attempts = repair_member(
                members[i],
                category,
                tol=tol,
                max_iterations=max_iterations,
                budget=budget,
                deadline=deadline,
            )
            if recovery is not None:
                mph[i], tdh[i], tma[i] = recovery.columns[:3]
                iterations[i] = recovery.columns[3]
                converged[i] = recovery.columns[4]
                repaired = True
                repair_label = recovery.repair
                attempts = recovery.attempts
        records.append(
            MemberFault(
                index=i,
                category=category,
                detail=detail,
                attempts=attempts,
                repaired=repaired,
                repair=repair_label,
            )
        )
    report = QuarantineReport(policy=policy, faults=tuple(records))
    _record_counters(rec, report)

    return RobustEnsembleCharacterization(
        mph=mph,
        tdh=tdh,
        tma=tma,
        iterations=iterations,
        converged=converged,
        batched=batched_mask,
        n_tasks=n_tasks,
        n_machines=n_machines,
        report=report,
    )


@traced(name="robust.standardize_batched")
def standardize_batched_robust(
    stack,
    *,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    policy: str = "quarantine",
    budget: Budget | None = None,
    fault_plan: FaultPlan | None = None,
) -> RobustBatchNormalizationResult:
    """Standardize a stack, isolating slices that cannot be scaled.

    Pre-screened corruption (NaN/inf/negative, empty lines) and
    Section-VI zero patterns quarantine with NaN result rows; slices
    that merely miss the tolerance keep their best partial iterate
    (``converged=False``) but are recorded as ``non-convergent``
    faults.  ``policy="repair"`` retries structural faults through
    :func:`repro.robust.repaired_matrix` and non-convergent slices
    through the tolerance-backoff ladder.

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.ones((2, 2, 2))
    >>> stack[1, 0, 0] = np.nan
    >>> result = standardize_batched_robust(stack)
    >>> result.report.categories()
    {1: 'nan'}
    >>> bool(result.converged[0]), bool(np.isnan(result.matrix[1]).all())
    (True, True)
    """
    _check_policy(policy)
    budget = DEFAULT_BUDGET if budget is None else budget
    deadline = budget.start()
    work = as_float_stack(stack, name="stack", allow_nan=True)
    if fault_plan is not None:
        work = fault_plan.apply(work)
    n_slices, n_rows, n_cols = work.shape

    # Structural screening uses the strict ("raise") semantics: a
    # decomposable slice can never converge to the Theorem-2 margins.
    faults: dict[int, tuple[str, str]] = {}
    for i in range(n_slices):
        verdict = classify_matrix(work[i], tma_fallback="raise")
        if verdict is not None:
            faults[i] = verdict

    matrix = np.full_like(work, np.nan)
    row_scale = np.full((n_slices, n_rows), np.nan)
    col_scale = np.full((n_slices, n_cols), np.nan)
    converged = np.zeros(n_slices, dtype=bool)
    iterations = np.zeros(n_slices, dtype=np.int64)
    residual = np.full(n_slices, np.nan)
    histories: list[tuple[float, ...]] = [() for _ in range(n_slices)]

    healthy = [i for i in range(n_slices) if i not in faults]
    row_target = col_target = 1.0
    if healthy:
        partial = standardize_batched(
            work[np.asarray(healthy)],
            tol=tol,
            max_iterations=max_iterations,
            require_convergence=False,
            deadline_s=deadline.remaining(),
        )
        row_target = partial.row_target
        col_target = partial.col_target
        for pos, i in enumerate(healthy):
            matrix[i] = partial.matrix[pos]
            row_scale[i] = partial.row_scale[pos]
            col_scale[i] = partial.col_scale[pos]
            converged[i] = partial.converged[pos]
            iterations[i] = partial.iterations[pos]
            residual[i] = partial.residual[pos]
            histories[i] = partial.residual_history[pos]
            if not partial.converged[pos]:
                detail = (
                    f"missed tol={tol:g} after "
                    f"{int(partial.iterations[pos])} iterations "
                    f"(residual={float(partial.residual[pos]):.3e})"
                )
                if deadline.expired():
                    detail += (
                        f" (deadline_s={budget.deadline_s:g} expired)"
                    )
                faults[i] = ("non-convergent", detail)
    else:
        from ..normalize.standard_form import standard_targets

        row_target, col_target = standard_targets(n_rows, n_cols)

    def _splice(i: int, result) -> None:
        matrix[i] = result.matrix
        row_scale[i] = result.normalization.row_scale
        col_scale[i] = result.normalization.col_scale
        converged[i] = True
        iterations[i] = result.iterations
        residual[i] = result.residual
        histories[i] = result.residual_history

    records: list[MemberFault] = []
    for i in sorted(faults):
        category, detail = faults[i]
        attempts = 0
        repaired = False
        repair_label = None
        if policy == "repair" and not deadline.expired():
            if category in ("empty-line", "decomposable", "infeasible"):
                attempts = 1
                try:
                    fixed = repaired_matrix(work[i])
                    result = standardize(
                        fixed,
                        tol=tol,
                        max_iterations=max_iterations,
                        require_convergence=False,
                        zeros="limit",
                        deadline_s=deadline.remaining(),
                    )
                except MatrixValueError:
                    result = None
                if result is not None and result.converged:
                    _splice(i, result)
                    repaired = True
                    changed = int(np.count_nonzero(fixed != work[i]))
                    repair_label = f"pattern:{changed}"
            elif category == "non-convergent":
                for tol_k, iters_k in zip(
                    budget.attempt_tolerances(tol),
                    budget.attempt_iterations(max_iterations),
                ):
                    if deadline.expired():
                        break
                    attempts += 1
                    result = standardize(
                        work[i],
                        tol=tol_k,
                        max_iterations=iters_k,
                        require_convergence=False,
                        zeros="limit",
                        deadline_s=deadline.remaining(),
                    )
                    if result.converged:
                        _splice(i, result)
                        repaired = True
                        repair_label = f"tol-backoff:{tol_k:g}"
                        break
        records.append(
            MemberFault(
                index=i,
                category=category,
                detail=detail,
                attempts=attempts,
                repaired=repaired,
                repair=repair_label,
            )
        )
    report = QuarantineReport(policy=policy, faults=tuple(records))
    _record_counters(current_recorder(), report)

    return RobustBatchNormalizationResult(
        matrix=matrix,
        row_scale=row_scale,
        col_scale=col_scale,
        converged=converged,
        iterations=iterations,
        residual=residual,
        residual_history=tuple(histories),
        row_target=row_target,
        col_target=col_target,
        report=report,
    )
