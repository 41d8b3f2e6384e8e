"""Chunked execution planning under a peak-memory budget.

The batched kernels materialize several float64 copies of whatever
chunk they are handed (the input copy, the standard form, the scaling
vectors and the stacked SVD workspace).  :func:`plan_shards` inverts
that: given a memory budget it picks the largest chunk whose estimated
working set stays inside it, then tiles the ensemble into consecutive
``[start, stop)`` shards.  The property harness in
``tests/shard/test_planner.py`` pins the two planner invariants:

* the shards partition ``range(n_members)`` — every member is covered
  exactly once, in order, for any (N, chunk, budget);
* ``estimated_peak_bytes <= memory_budget_bytes`` whenever the budget
  admits at least one member (a single member is the planning floor —
  no chunking scheme can stream less than one slice at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixValueError

__all__ = [
    "WORKING_SET_FACTOR",
    "DEFAULT_CHUNK_SIZE",
    "Shard",
    "ShardPlan",
    "plan_shards",
]

#: Peak-memory multiplier: the number of float64 copies of one chunk
#: the streamed pipeline is budgeted to hold at once.  Measured upper
#: bound for the fused standardize+SVD pass (input chunk, standard
#: form, iteration temporaries, stacked SVD workspace, measure
#: columns) with headroom; the memory-ceiling tests
#: in ``tests/shard/`` assert real ``tracemalloc`` peaks stay under
#: ``budget`` with this factor in place.
WORKING_SET_FACTOR = 16

#: Chunk size when neither a budget nor an explicit chunk is given:
#: large enough to amortize per-chunk Python overhead, small enough
#: that an (8, 8) float64 ensemble streams in ~8 MB working sets.
DEFAULT_CHUNK_SIZE = 8192


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the ensemble: members ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise MatrixValueError(
                f"shard [{self.start}, {self.stop}) is empty or negative"
            )

    @property
    def n_members(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A chunked execution plan over one ``(N, T, M)`` ensemble.

    Attributes
    ----------
    n_members, n_tasks, n_machines : int
        Ensemble geometry the plan covers.
    chunk_size : int
        Members per full shard (the last shard may be smaller).
    memory_budget_bytes : int or None
        The budget the chunk size was derived from (None when the
        caller fixed ``chunk_size`` directly or took the default).
    shards : tuple of Shard
        Consecutive, non-overlapping, exactly covering the ensemble.
    """

    n_members: int
    n_tasks: int
    n_machines: int
    chunk_size: int
    memory_budget_bytes: int | None
    shards: tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def member_nbytes(self) -> int:
        """Heap bytes of one float64 member in flight."""
        return self.n_tasks * self.n_machines * 8

    @property
    def estimated_peak_bytes(self) -> int:
        """Budgeted peak working set of streaming one full chunk."""
        return self.chunk_size * self.member_nbytes * WORKING_SET_FACTOR

    def summary(self) -> str:
        """One-line operator digest."""
        budget = (
            f"{self.memory_budget_bytes / 2**20:.0f} MB budget"
            if self.memory_budget_bytes is not None
            else "no budget"
        )
        return (
            f"{len(self.shards)} shard(s) x {self.chunk_size} member(s) "
            f"over {self.n_members} ({budget}, est. peak "
            f"{self.estimated_peak_bytes / 2**20:.1f} MB)"
        )


def plan_shards(
    n_members: int,
    n_tasks: int,
    n_machines: int,
    *,
    memory_budget_bytes: int | None = None,
    chunk_size: int | None = None,
) -> ShardPlan:
    """Tile an ensemble into consecutive shards under a memory budget.

    Parameters
    ----------
    n_members, n_tasks, n_machines : int
        Ensemble geometry.
    memory_budget_bytes : int, optional
        Peak working-set budget.  The chunk size is the largest count
        whose ``chunk * T * M * 8 * WORKING_SET_FACTOR`` fits, floored
        at one member per chunk (the budget is then reported as
        best-effort by :attr:`ShardPlan.estimated_peak_bytes`).
    chunk_size : int, optional
        Fix the chunk size directly (mutually exclusive with the
        budget).

    Examples
    --------
    >>> plan = plan_shards(10, 8, 8, chunk_size=4)
    >>> [(s.start, s.stop) for s in plan.shards]
    [(0, 4), (4, 8), (8, 10)]
    >>> plan_shards(10**6, 8, 8, memory_budget_bytes=64 * 2**20).chunk_size
    8192
    """
    for name, value in (
        ("n_members", n_members),
        ("n_tasks", n_tasks),
        ("n_machines", n_machines),
    ):
        if not isinstance(value, (int, np.integer)) or isinstance(
            value, bool
        ) or value < 1:
            raise MatrixValueError(
                f"{name} must be a positive int, got {value!r}"
            )
    n_members = int(n_members)
    member_nbytes = int(n_tasks) * int(n_machines) * 8

    if chunk_size is not None and memory_budget_bytes is not None:
        raise MatrixValueError(
            "pass either memory_budget_bytes or chunk_size, not both "
            "(an explicit chunk overrides any budget derivation)"
        )
    if chunk_size is not None:
        if not isinstance(chunk_size, (int, np.integer)) or isinstance(
            chunk_size, bool
        ) or chunk_size < 1:
            raise MatrixValueError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        chunk = int(chunk_size)
    elif memory_budget_bytes is not None:
        if not isinstance(
            memory_budget_bytes, (int, np.integer)
        ) or isinstance(memory_budget_bytes, bool) or memory_budget_bytes < 1:
            raise MatrixValueError(
                f"memory_budget_bytes must be a positive int, got "
                f"{memory_budget_bytes!r}"
            )
        chunk = max(
            1, int(memory_budget_bytes) // (member_nbytes * WORKING_SET_FACTOR)
        )
    else:
        chunk = DEFAULT_CHUNK_SIZE
    chunk = min(chunk, n_members)

    shards = tuple(
        Shard(index=i, start=start, stop=min(start + chunk, n_members))
        for i, start in enumerate(range(0, n_members, chunk))
    )
    return ShardPlan(
        n_members=n_members,
        n_tasks=int(n_tasks),
        n_machines=int(n_machines),
        chunk_size=chunk,
        memory_budget_bytes=(
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        ),
        shards=shards,
    )
