"""One-call environment characterization.

:func:`characterize` computes the full profile of an HC environment:
the paper's three measures, the Section II-D comparison statistics for
both machines and task types, and the normalization diagnostics
(standard-form iteration count, residual) that the paper reports for
the SPEC matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_choice
from ..exceptions import ConvergenceError, NotNormalizableError
from ..normalize.standard_form import DEFAULT_TOL, standardize
from ..obs import metrics as _metrics
from ..obs import span as _obs_span
from ._coerce import coerce_ecs_and_weights
from .affinity import tma
from .alternatives import (
    average_adjacent_ratio,
    coefficient_of_variation,
    geometric_mean_ratio,
    min_max_ratio,
)

__all__ = ["HeterogeneityProfile", "characterize", "characterize_many"]


@dataclass(frozen=True)
class HeterogeneityProfile:
    """Complete heterogeneity characterization of one environment.

    Attributes
    ----------
    mph, tdh, tma : float
        The paper's three measures.  ``tma`` may come from the
        column-normalized fallback (eq. 5) when the standard form does
        not exist; ``tma_method`` records which formula produced it.
    machine_performance, task_difficulty : numpy.ndarray
        The MP and TD vectors in original order.
    machine_r, machine_g, machine_cov : float
        Section II-D comparison statistics over MP.
    task_r, task_g, task_cov : float
        The same statistics over TD.
    sinkhorn_iterations : int or None
        Standard-form iteration count (None when the fallback was used).
    sinkhorn_residual : float or None
        Final max row/column-sum error of the standard form.
    tma_method : str
        ``"standard"`` (eq. 8) or ``"column"`` (eq. 5 fallback).
    n_tasks, n_machines : int
        Environment dimensions.
    """

    mph: float
    tdh: float
    tma: float
    machine_performance: np.ndarray = field(repr=False)
    task_difficulty: np.ndarray = field(repr=False)
    machine_r: float
    machine_g: float
    machine_cov: float
    task_r: float
    task_g: float
    task_cov: float
    sinkhorn_iterations: int | None
    sinkhorn_residual: float | None
    tma_method: str
    n_tasks: int
    n_machines: int

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"HC environment: {self.n_tasks} task types x "
            f"{self.n_machines} machines",
            f"  MPH = {self.mph:.4f}   (R={self.machine_r:.4f}, "
            f"G={self.machine_g:.4f}, COV={self.machine_cov:.4f})",
            f"  TDH = {self.tdh:.4f}   (R={self.task_r:.4f}, "
            f"G={self.task_g:.4f}, COV={self.task_cov:.4f})",
            f"  TMA = {self.tma:.4f}   [{self.tma_method} form]",
        ]
        if self.sinkhorn_iterations is not None:
            lines.append(
                f"  standard form: {self.sinkhorn_iterations} iterations, "
                f"residual {self.sinkhorn_residual:.2e}"
            )
        return "\n".join(lines)


def _tma_from_standard(standard) -> float:
    """eq. 8 on an already-computed standard form (no second Sinkhorn)."""
    import scipy.linalg

    shape = standard.matrix.shape
    t0 = time.perf_counter()
    with _obs_span("svd.scalar", rows=shape[0], cols=shape[1]):
        values = scipy.linalg.svdvals(standard.matrix)
    _metrics.observe(
        "repro_svd_seconds", time.perf_counter() - t0, kernel="scalar"
    )
    if values.shape[0] < 2:
        return 0.0
    return float(min(max(values[1:].sum() / (values.shape[0] - 1), 0.0), 1.0))


def characterize(
    matrix,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    tma_fallback: str = "limit",
) -> HeterogeneityProfile:
    """Compute the full heterogeneity profile of an environment.

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment.
    task_weights, machine_weights : array-like, optional
        Weighting factors (wrapper-stored weights used by default).
    tol : float
        Sinkhorn stopping tolerance for the standard form.
    tma_fallback : {"limit", "column", "raise"}
        What to do when the exact standard form does not exist
        (non-normalizable zero pattern, Section VI):

        * ``"limit"`` (default) — evaluate TMA on the limit of the
          paper's eq. 9 iteration (the Fig. 4 semantics); recorded as
          ``tma_method="limit"``.
        * ``"column"`` — fall back to the eq. 5 column-normalized
          formula; recorded as ``tma_method="column"``.
        * ``"raise"`` — propagate the
          :class:`~repro.exceptions.NotNormalizableError`.

    Examples
    --------
    >>> profile = characterize([[1.0, 2.0], [2.0, 4.0]])
    >>> round(profile.mph, 4), round(profile.tdh, 4), round(profile.tma, 4)
    (0.5, 0.5, 0.0)
    """
    check_choice(
        tma_fallback, name="tma_fallback", choices=("limit", "column", "raise")
    )
    ecs, w_t, w_m = coerce_ecs_and_weights(matrix, task_weights, machine_weights)
    weighted = w_t[:, None] * w_m[None, :] * ecs
    mp = weighted.sum(axis=0)
    td = weighted.sum(axis=1)

    iterations: int | None = None
    residual: float | None = None
    method = "standard"
    with _obs_span(
        "measures.characterize", rows=ecs.shape[0], cols=ecs.shape[1]
    ) as sp:
        try:
            standard = standardize(weighted, tol=tol, zeros="strict")
            iterations = standard.iterations
            residual = standard.residual
            tma_value = _tma_from_standard(standard)
        except (NotNormalizableError, ConvergenceError):
            if tma_fallback == "raise":
                raise
            if tma_fallback == "limit":
                try:
                    standard = standardize(weighted, tol=tol, zeros="limit")
                except NotNormalizableError:
                    # Even the eq. 9 limit may not exist (the margins can
                    # be infeasible outright, e.g. one machine compatible
                    # with a single task type); eq. 5 always is.
                    method = "column"
                    tma_value = tma(weighted, method="column")
                else:
                    method = "limit"
                    iterations = standard.iterations
                    residual = standard.residual
                    tma_value = _tma_from_standard(standard)
            else:
                method = "column"
                tma_value = tma(weighted, method="column")
        sp.note(tma_method=method, iterations=iterations)
    _metrics.inc("repro_characterize_runs_total", tma_method=method)

    return HeterogeneityProfile(
        mph=average_adjacent_ratio(mp),
        tdh=average_adjacent_ratio(td),
        tma=tma_value,
        machine_performance=mp,
        task_difficulty=td,
        machine_r=min_max_ratio(mp),
        machine_g=geometric_mean_ratio(mp),
        machine_cov=coefficient_of_variation(mp),
        task_r=min_max_ratio(td),
        task_g=geometric_mean_ratio(td),
        task_cov=coefficient_of_variation(td),
        sinkhorn_iterations=iterations,
        sinkhorn_residual=residual,
        tma_method=method,
        n_tasks=ecs.shape[0],
        n_machines=ecs.shape[1],
    )


def _characterize_worker(args: tuple) -> HeterogeneityProfile:
    """Module-level worker (picklable) for :func:`characterize_many`."""
    matrix, tol, tma_fallback = args
    return characterize(matrix, tol=tol, tma_fallback=tma_fallback)


def characterize_many(
    environments,
    *,
    tol: float = DEFAULT_TOL,
    tma_fallback: str = "limit",
    n_jobs: int | None = None,
) -> list[HeterogeneityProfile]:
    """Characterize a batch of environments, optionally in parallel.

    Equivalent to ``[characterize(e, ...) for e in environments]``;
    with ``n_jobs > 1`` the batch is distributed across a process pool
    (raw arrays and the core matrix wrappers are picklable).  Ensemble
    studies over hundreds of environments are the intended use.

    Examples
    --------
    >>> import numpy as np
    >>> profiles = characterize_many([np.ones((2, 2)), np.eye(2) + 0.01])
    >>> [round(p.tma, 2) for p in profiles]
    [0.0, 0.98]
    """
    from .._parallel import parallel_map

    items = [(env, tol, tma_fallback) for env in environments]
    return parallel_map(_characterize_worker, items, n_jobs=n_jobs)
