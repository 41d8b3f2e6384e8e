"""The csgraph Menon test against the frozen networkx oracle.

``normalizability_report`` runs on ``scipy.sparse.csgraph``; every
field of its report, ``blocking_edges`` order included, must equal the
former networkx body kept in ``tests/reference_normalizability.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structure import normalizability_report
from tests.reference_normalizability import (
    normalizability_report as reference_report,
)


@st.composite
def zero_patterns(draw):
    """Patterns of shape 1–8 × 1–8 with up to 70% zeros (all-zero
    lines included)."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    density = draw(st.floats(0.0, 0.7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 10.0, size=(n_rows, n_cols))
    values[rng.uniform(size=(n_rows, n_cols)) < density] = 0.0
    return values


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(matrix=zero_patterns())
    def test_random_patterns_match(self, matrix):
        assert normalizability_report(matrix) == reference_report(matrix)

    def test_eq10(self, eq10_matrix):
        report = normalizability_report(eq10_matrix)
        assert report == reference_report(eq10_matrix)
        assert report.blocking_edges == ((1, 2),)

    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_fig4_extremes(self, fig4_matrices, name):
        matrix = fig4_matrices[name]
        assert normalizability_report(matrix) == reference_report(matrix)

    def test_fig4_limit_matrices_block(self, fig4_matrices):
        # A, B and D converge only in the eq.-9 limit: each has one
        # blocking entry, the one the limit drives to zero.
        for name in ("A", "B", "D"):
            report = normalizability_report(fig4_matrices[name])
            assert report.feasible and report.blocking_edges == ((1, 0),)

    def test_diagonal_example(self):
        diag = np.diag([3.0, 7.0, 2.0])
        report = normalizability_report(diag)
        assert report == reference_report(diag)
        assert report.normalizable

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 0.0], [1.0, 1.0]],  # all-zero row
            [[0.0, 1.0], [0.0, 1.0]],  # all-zero column
        ],
    )
    def test_all_zero_line(self, matrix):
        report = normalizability_report(matrix)
        assert report == reference_report(matrix)
        assert not report.feasible

    def test_several_blocking_edges_keep_row_major_order(self):
        # Block lower-triangular: the whole lower-left block blocks.
        matrix = np.ones((6, 6))
        matrix[:3, 3:] = 0.0
        report = normalizability_report(matrix)
        assert report == reference_report(matrix)
        assert report.blocking_edges == tuple(
            (i, j) for i in range(3, 6) for j in range(3)
        )
