"""Fault taxonomy and quarantine reporting for ensemble pipelines.

Section VI of the paper shows that a production characterization
service cannot assume every ensemble member is well behaved: real ETC
matrices carry zeros whose pattern may admit no standard form, profiled
entries may be corrupt (NaN/inf), and iterative normalization may
simply run out of budget.  This module gives every such failure a
stable *category* slug so that quarantine reports, observability
counters and operator tooling all speak the same vocabulary.

Categories
----------
``nan``
    The member contains NaN entries (corrupt profiling data).
``non-finite``
    The member contains infinite entries (infinities belong in the ETC
    representation, never in ECS).
``negative``
    The member contains negative entries.
``empty-line``
    An all-zero row or column — a task no machine can run, or a machine
    that can run nothing (paper Section II-B forbids both).
``decomposable``
    The zero pattern is feasible but decomposable in the
    Marshall–Olkin sense (paper eq. 10): blocking entries prevent any
    exact standard form.
``infeasible``
    The zero pattern admits no equal-margin matrix at all — even the
    eq. 9 limit does not exist.
``non-convergent``
    The Sinkhorn iteration missed its tolerance within the iteration /
    wall-clock budget.
``timeout``
    A worker blew through its per-member wall-clock budget (straggler).
``worker-error``
    Any other exception escaping a per-member worker.
``invalid-shape``
    The member is not a valid 2-D environment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import (
    ConvergenceError,
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    NotNormalizableError,
    ReproError,
)

__all__ = [
    "FAULT_CATEGORIES",
    "UNREPAIRABLE_CATEGORIES",
    "MemberFault",
    "QuarantineReport",
    "classify_exception",
    "classify_matrix",
]

#: Every category a :class:`MemberFault` may carry, in screening order.
FAULT_CATEGORIES = (
    "nan",
    "non-finite",
    "negative",
    "empty-line",
    "decomposable",
    "infeasible",
    "non-convergent",
    "timeout",
    "worker-error",
    "invalid-shape",
)

#: Categories the repair ladder never attempts: corrupt or malformed
#: data has no legitimate numerical fix (``timeout`` members *are*
#: retried — locally, without the straggling worker).
UNREPAIRABLE_CATEGORIES = frozenset(
    {"nan", "non-finite", "negative", "invalid-shape", "worker-error"}
)


@dataclass(frozen=True)
class MemberFault:
    """One quarantined (or repaired) ensemble member.

    Attributes
    ----------
    index : int
        Position of the member in the input ensemble.
    category : str
        One of :data:`FAULT_CATEGORIES`.
    detail : str
        Human-readable diagnosis (original error message, offending
        entry, ...).
    attempts : int
        Repair attempts consumed (0 under ``policy="quarantine"``).
    repaired : bool
        True when a retry produced a usable profile; the member then
        appears in the ensemble result instead of being masked out.
    repair : str or None
        Description of the successful repair (``"drop:2"``,
        ``"add:1"``, ``"tol-backoff:1e-06"``, ``"local-retry"``).
    """

    index: int
    category: str
    detail: str
    attempts: int = 0
    repaired: bool = False
    repair: str | None = None

    def __post_init__(self) -> None:
        if self.category not in FAULT_CATEGORIES:
            raise MatrixValueError(
                f"unknown fault category {self.category!r}; expected one "
                f"of {FAULT_CATEGORIES}"
            )

    def summary(self) -> str:
        state = (
            f"repaired ({self.repair}, {self.attempts} attempt(s))"
            if self.repaired
            else "quarantined"
        )
        return f"member {self.index}: {self.category} — {state}"

    def to_payload(self) -> dict:
        """JSON-safe record (service error bodies, structured logs)."""
        payload: dict = {
            "category": self.category,
            "detail": self.detail,
            "repaired": self.repaired,
        }
        if self.attempts:
            payload["attempts"] = self.attempts
        if self.repair is not None:
            payload["repair"] = self.repair
        return payload


@dataclass(frozen=True)
class QuarantineReport:
    """Structured account of every faulty member of one ensemble run.

    Attributes
    ----------
    policy : str
        The policy that produced the report (``"quarantine"`` or
        ``"repair"``).
    faults : tuple of MemberFault
        One record per faulty member, in member order.  Repaired
        members stay in the report (with ``repaired=True``) so the
        operator sees what was touched.
    """

    policy: str
    faults: tuple[MemberFault, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Indices still masked out of the ensemble result."""
        return tuple(f.index for f in self.faults if not f.repaired)

    @property
    def repaired(self) -> tuple[int, ...]:
        """Indices recovered by the repair ladder."""
        return tuple(f.index for f in self.faults if f.repaired)

    @property
    def attempts(self) -> int:
        """Total repair attempts consumed across all members."""
        return sum(f.attempts for f in self.faults)

    def categories(self) -> dict[int, str]:
        """Mapping of member index to fault category."""
        return {f.index: f.category for f in self.faults}

    def by_category(self) -> dict[str, tuple[int, ...]]:
        """Member indices grouped by fault category."""
        groups: dict[str, list[int]] = {}
        for f in self.faults:
            groups.setdefault(f.category, []).append(f.index)
        return {k: tuple(v) for k, v in groups.items()}

    def fault(self, index: int) -> MemberFault:
        """The fault record of member ``index`` (KeyError if healthy)."""
        for f in self.faults:
            if f.index == index:
                return f
        raise KeyError(index)

    def summary(self) -> str:
        """Multi-line operator digest."""
        if not self.faults:
            return "quarantine report: all members healthy"
        lines = [
            f"quarantine report (policy={self.policy}): "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.repaired)} repaired"
        ]
        lines += [f"  {f.summary()}" for f in self.faults]
        return "\n".join(lines)

    def mark_repaired(
        self, index: int, *, attempts: int, repair: str
    ) -> "QuarantineReport":
        """A copy of the report with member ``index`` marked repaired."""
        faults = tuple(
            replace(f, repaired=True, attempts=attempts, repair=repair)
            if f.index == index
            else f
            for f in self.faults
        )
        return replace(self, faults=faults)


def classify_exception(exc: BaseException) -> str:
    """Map a library exception to its fault category.

    Any :class:`~repro.exceptions.ReproError` (and TimeoutError) has a
    well-defined slot; everything else is a ``worker-error``.

    Examples
    --------
    >>> from repro.exceptions import ConvergenceError
    >>> classify_exception(ConvergenceError("stalled"))
    'non-convergent'
    """
    if isinstance(exc, ConvergenceError):
        return "non-convergent"
    if isinstance(exc, NotNormalizableError):
        return "decomposable"
    if isinstance(exc, EmptyRowColumnError):
        return "empty-line"
    if isinstance(exc, MatrixShapeError):
        return "invalid-shape"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (MatrixValueError, ReproError)):
        # Value-level corruption reported by validation; the message
        # distinguishes the exact entry, the category stays coarse.
        return "worker-error"
    return "worker-error"


def classify_matrix(
    matrix, *, tma_fallback: str = "limit"
) -> tuple[str, str] | None:
    """Pre-screen one member; return ``(category, detail)`` or None.

    The screen is ordered so the most fundamental corruption wins: a
    slice that is both NaN-ridden and decomposable reports ``nan``.
    Structural (zero-pattern) screening runs only when the member
    contains zeros, and the ``decomposable`` verdict is only a fault
    under ``tma_fallback="raise"`` — the ``"limit"`` and ``"column"``
    fallbacks both produce a legitimate TMA for such members (paper
    Section VI), so they stay healthy.

    Examples
    --------
    >>> import numpy as np
    >>> classify_matrix(np.array([[1.0, float("nan")], [1.0, 1.0]]))
    ('nan', 'member contains NaN entries')
    >>> classify_matrix(np.ones((2, 2))) is None
    True
    """
    try:
        arr = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        return ("invalid-shape", f"not coercible to a float matrix: {exc}")
    if arr.ndim != 2 or arr.size == 0:
        return (
            "invalid-shape",
            f"environment must be a non-empty 2-D matrix, got shape "
            f"{arr.shape}",
        )
    if not np.isfinite(arr).all():
        if np.isnan(arr).any():
            return ("nan", "member contains NaN entries")
        return ("non-finite", "member contains infinite entries")
    positive = arr > 0
    if not positive.all():
        if (arr < 0).any():
            return ("negative", "member contains negative entries")
        if not positive.any(axis=1).all() or not positive.any(axis=0).all():
            return ("empty-line", "member has an all-zero row or column")
    if tma_fallback == "raise" and (arr == 0).any():
        from ..structure import normalizability_report

        report = normalizability_report(arr)
        if not report.feasible:
            return (
                "infeasible",
                "zero pattern admits no equal-margin matrix at all",
            )
        if report.blocking_edges:
            return (
                "decomposable",
                "zero pattern is decomposable (Section VI); blocking "
                f"entries {list(report.blocking_edges)[:4]}",
            )
    return None
