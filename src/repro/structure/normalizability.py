"""Exact normalizability test (Menon's theorem via transportation flows).

The paper's Section VI gives *full indecomposability* as a sufficient —
but, as the diagonal-matrix example shows, not necessary — condition for
an equal-row-sum/equal-column-sum scaling ``D1 A D2`` to exist.  The
exact characterization (Menon 1968; Brualdi's convex-polytope analysis)
is:

    diagonal matrices ``D1, D2`` with ``D1 A D2`` having row sums ``r``
    and column sums ``c`` exist **iff** some non-negative matrix ``B``
    with *exactly* the zero pattern of ``A`` has those row/column sums.

Existence of such a ``B`` is a transportation problem: supplies ``r``
at the rows, demands ``c`` at the columns, edges only where ``A`` is
nonzero.  ``B`` must be strictly positive on every edge; because the
feasible set is convex, that holds iff (a) the transportation problem
is feasible at all and (b) *every* edge individually carries positive
flow in at least one feasible solution — checked in one pass from the
strongly connected components of the residual graph of any maximum
flow.

Both steps run in ``scipy.sparse.csgraph`` (Dinic's maximum flow, then
strong components) over integer capacities, so the verdict is exact;
for the small patterns of an ensemble member the test costs a few
hundred microseconds, cheap enough to route every zero-carrying member
of :func:`repro.batch.characterize_ensemble` by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import support_pattern

__all__ = ["is_normalizable", "normalizability_report", "NormalizabilityReport"]


@dataclass(frozen=True)
class NormalizabilityReport:
    """Outcome of the exact normalizability test.

    Attributes
    ----------
    normalizable : bool
        True when a scaling to equal row sums and equal column sums
        exists with the matrix's zero pattern preserved.
    feasible : bool
        True when the transportation problem (ignore strict positivity)
        is feasible; ``normalizable`` implies ``feasible``.
    blocking_edges : tuple of (int, int)
        Pattern positions that can never carry positive flow in any
        feasible solution — the entries whose forced-to-zero status
        breaks normalizability (the paper's eq. 10 matrix has exactly
        one: the entry shared by the heavy row and heavy column).
    """

    normalizable: bool
    feasible: bool
    blocking_edges: tuple[tuple[int, int], ...]


def _transportation_network(pattern: np.ndarray):
    """The source→rows→cols→sink network of ``pattern``, in CSR form.

    Returns ``(tails, heads, capacity, indptr)``, one array entry per
    arc.  Node 0 is the source, nodes ``1..T`` the rows, ``T+1..T+M``
    the columns and ``T+M+1`` the sink.  The arcs are sorted by tail:
    first the ``T`` source arcs, then the pattern arcs in row-major
    order, then the ``M`` sink arcs.
    """
    n_rows, n_cols = pattern.shape
    rows, cols = np.nonzero(pattern)
    row_nodes = np.arange(1, n_rows + 1)
    col_nodes = np.arange(n_rows + 1, n_rows + n_cols + 1)
    tails = np.concatenate(
        [np.zeros(n_rows, dtype=np.intp), rows + 1, col_nodes]
    )
    heads = np.concatenate(
        [row_nodes, cols + n_rows + 1, np.full(n_cols, n_rows + n_cols + 1)]
    )
    # Integer margins: every row supplies M units, every column demands
    # T units, so the grand totals agree exactly (T*M each way) and the
    # max-flow is computed in exact integer arithmetic.  Pattern arcs
    # are effectively uncapacitated.
    capacity = np.concatenate(
        [
            np.full(n_rows, n_cols),
            np.full(rows.size, n_rows * n_cols),
            np.full(n_cols, n_rows),
        ]
    ).astype(np.int32)
    out_degree = np.concatenate(
        [[n_rows], pattern.sum(axis=1), np.ones(n_cols, dtype=np.intp), [0]]
    )
    indptr = np.concatenate([[0], np.cumsum(out_degree)])
    return tails, heads, capacity, indptr


def normalizability_report(matrix) -> NormalizabilityReport:
    """Run the exact Menon-theorem test and return full diagnostics.

    Works for square and rectangular patterns alike and is polynomial
    (one max-flow plus one SCC pass), unlike the every-square-submatrix
    definition of full indecomposability.
    """
    pattern = support_pattern(matrix)
    if not pattern.any(axis=1).all() or not pattern.any(axis=0).all():
        # An all-zero row or column can never reach a positive sum.
        return NormalizabilityReport(
            normalizable=False,
            feasible=False,
            blocking_edges=(),
        )
    # Imported here, so ``import repro`` does not load scipy.sparse.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, maximum_flow

    n_rows, n_cols = pattern.shape
    tails, heads, capacity, indptr = _transportation_network(pattern)
    n_nodes = indptr.size - 1
    network = csr_array((capacity, heads, indptr), shape=(n_nodes, n_nodes))
    result = maximum_flow(network, 0, n_nodes - 1)
    if result.flow_value < n_rows * n_cols:
        return NormalizabilityReport(
            normalizable=False, feasible=False, blocking_edges=()
        )
    flow = np.asarray(result.flow[tails, heads]).reshape(-1)
    # Residual graph: forward arc when flow < capacity, backward when
    # flow > 0.  A zero-flow pattern arc (u, v) can carry positive flow
    # in some feasible solution iff v reaches u in the residual graph —
    # i.e. u and v share a strongly connected component (positive-flow
    # arcs give the v→u residual arc directly, so they always qualify).
    forward = flow < capacity
    backward = flow > 0
    residual = csr_array(
        (
            np.ones(int(forward.sum() + backward.sum()), dtype=np.int8),
            (
                np.concatenate([tails[forward], heads[backward]]),
                np.concatenate([heads[forward], tails[backward]]),
            ),
        ),
        shape=(n_nodes, n_nodes),
    )
    _, component = connected_components(
        residual, directed=True, connection="strong"
    )
    arcs = slice(n_rows, indptr[n_rows + 1])
    rows, cols = tails[arcs], heads[arcs]
    blocked = (flow[arcs] == 0) & (component[rows] != component[cols])
    blocking = tuple(
        zip(
            (rows[blocked] - 1).tolist(),
            (cols[blocked] - n_rows - 1).tolist(),
        )
    )
    return NormalizabilityReport(
        normalizable=not blocking,
        feasible=True,
        blocking_edges=blocking,
    )


def is_normalizable(matrix) -> bool:
    """True when ``D1 A D2`` with equal row sums and equal column sums
    exists (zero pattern preserved).

    This is the exact condition — it accepts the paper's
    diagonal-matrix exception (decomposable but normalizable) and
    rejects the eq. 10 counterexample.

    Examples
    --------
    >>> is_normalizable([[0, 0, 1], [1, 0, 1], [0, 1, 0]])   # paper eq. 10
    False
    >>> is_normalizable([[2, 0], [0, 5]])                    # diagonal
    True
    """
    return normalizability_report(matrix).normalizable
