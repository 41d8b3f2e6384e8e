"""Frozen networkx Menon test: the oracle of the normalizability tests.

``normalizability_report`` is the library's former
:func:`repro.structure.normalizability_report` body, kept verbatim
(networkx max-flow, residual graph, strongly connected components).
The library now runs the same test on ``scipy.sparse.csgraph``; the
tests hold every report field, ``blocking_edges`` order included, to
this loop.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.structure.normalizability import NormalizabilityReport
from repro.structure.patterns import support_pattern


def _transportation_network(
    pattern: np.ndarray,
) -> tuple[nx.DiGraph, int]:
    """Build source→rows→cols→sink network with integer capacities.

    Row supplies are ``M`` units each and column demands ``T`` units
    each (both scaled), the smallest integer margins consistent with
    equal row sums and equal column sums.
    """
    n_rows, n_cols = pattern.shape
    # Integer margins: every row supplies M units, every column demands
    # T units, so the grand totals agree exactly (T*M each way) and the
    # max-flow is computed in exact integer arithmetic.
    row_cap = n_cols
    col_cap = n_rows
    graph = nx.DiGraph()
    for i in range(n_rows):
        graph.add_edge("s", ("r", i), capacity=row_cap)
    for j in range(n_cols):
        graph.add_edge(("c", j), "t", capacity=col_cap)
    rows, cols = np.nonzero(pattern)
    for i, j in zip(rows, cols):
        # Pattern edges are effectively uncapacitated.
        graph.add_edge(("r", int(i)), ("c", int(j)),
                       capacity=n_rows * row_cap)
    return graph, n_rows * row_cap


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
    graph, total = _transportation_network(pattern)
    flow_value, flow = nx.maximum_flow(graph, "s", "t")
    if flow_value < total:
        return NormalizabilityReport(
            normalizable=False, feasible=False, blocking_edges=()
        )
    # Residual graph: forward edge when flow < capacity, backward when
    # flow > 0.  A zero-flow pattern edge (u, v) can carry positive flow
    # in some feasible solution iff v reaches u in the residual graph —
    # i.e. u and v share a strongly connected component (positive-flow
    # edges give the v→u residual arc directly, so they always qualify).
    residual = nx.DiGraph()
    for u, targets in flow.items():
        for v, f in targets.items():
            cap = graph[u][v]["capacity"]
            if f < cap:
                residual.add_edge(u, v)
            if f > 0:
                residual.add_edge(v, u)
    component_of: dict = {}
    for comp_id, comp in enumerate(nx.strongly_connected_components(residual)):
        for node in comp:
            component_of[node] = comp_id
    blocking: list[tuple[int, int]] = []
    rows, cols = np.nonzero(pattern)
    for i, j in zip(rows, cols):
        u, v = ("r", int(i)), ("c", int(j))
        if flow[u].get(v, 0) > 0:
            continue
        if component_of.get(u) != component_of.get(v):
            blocking.append((int(i), int(j)))
    return NormalizabilityReport(
        normalizable=not blocking,
        feasible=True,
        blocking_edges=tuple(blocking),
    )
