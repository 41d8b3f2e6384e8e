"""The scalar entry points against the frozen reference loop.

``sinkhorn_knopp`` and ``scale_to_margins`` run the library's one
batched core on a one-slice view.  These tests hold that core, bit for
bit, to the former 2-D loop kept in ``tests/reference_sinkhorn.py``:
matrix, both scale vectors, the iteration count and the full residual
history must be equal, not merely close.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import ConvergenceError
from repro.normalize import (
    scale_to_margins,
    sinkhorn_knopp,
    standard_targets,
    standardize,
)
from repro.spec import load_dataset
from tests.conftest import ecs_matrices
from tests.reference_sinkhorn import (
    FakeClock,
    assert_matches_reference,
    reference_scaling,
)

#: Iteration cap for zero patterns: decomposable ones never converge.
CAPPED = 500


def _margins(n_rows: int, n_cols: int):
    """Unequal, consistent margins for an ``(n_rows, n_cols)`` matrix."""
    rows = np.arange(1.0, n_rows + 1.0)
    cols = np.arange(1.0, n_cols + 1.0)
    return rows, cols * (rows.sum() / cols.sum())


class TestScalarAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(ecs=ecs_matrices(max_side=6, positive_only=False))
    def test_sinkhorn_knopp_matches_reference(self, ecs):
        result = sinkhorn_knopp(
            ecs, require_convergence=False, max_iterations=CAPPED
        )
        ref = reference_scaling(
            ecs, 1.0, ecs.shape[0] / ecs.shape[1], tol=1e-8,
            max_iterations=CAPPED,
        )
        assert_matches_reference(result, ref)

    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(max_side=6))
    def test_scale_to_margins_matches_reference(self, ecs):
        rows, cols = _margins(*ecs.shape)
        result = scale_to_margins(
            ecs, rows, cols, require_convergence=False,
            max_iterations=CAPPED,
        )
        ref = reference_scaling(
            ecs, rows, cols, tol=1e-10, max_iterations=CAPPED
        )
        assert_matches_reference(result, ref)

    @pytest.mark.parametrize(
        "shape", [(12, 7), (12, 5), (8, 8), (32, 16), (512, 256)]
    )
    def test_fixed_matrices_bit_identical(self, shape):
        rng = np.random.default_rng(11)
        ecs = rng.uniform(0.1, 10.0, size=shape)
        ref = reference_scaling(ecs, 1.0, shape[0] / shape[1], tol=1e-8)
        assert ref["converged"]
        assert_matches_reference(sinkhorn_knopp(ecs), ref)

    @pytest.mark.parametrize("name", ["cint2006rate", "cfp2006rate"])
    def test_spec_goldens_match_reference(self, name):
        ecs = load_dataset(name).to_ecs().weighted_values()
        row_target, col_target = standard_targets(*ecs.shape)
        ref = reference_scaling(ecs, row_target, col_target, tol=1e-8)
        assert_matches_reference(standardize(ecs).normalization, ref)

    def test_warm_start_matches_reference(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0.5, 10.0, size=(9, 6))
        cold = sinkhorn_knopp(base)
        perturbed = base * (1.0 + rng.uniform(-1e-3, 1e-3, size=base.shape))
        warm = sinkhorn_knopp(perturbed, warm_start=cold)
        ref = reference_scaling(
            perturbed, 1.0, 9 / 6, tol=1e-8,
            warm_start=(cold.row_scale, cold.col_scale),
        )
        assert ref["iterations"] > 0
        assert_matches_reference(warm, ref)

    def test_deadline_mid_run_matches_reference(self, monkeypatch):
        module = importlib.import_module("repro.normalize.sinkhorn")
        monkeypatch.setattr(module, "time", FakeClock())
        ecs = np.exp(np.random.default_rng(13).uniform(-5.0, 5.0, (8, 8)))
        result = sinkhorn_knopp(
            ecs, deadline_s=5.5, require_convergence=False
        )
        # Stopped by the deadline after five iterations, exactly where
        # an iteration budget of five leaves the reference loop.
        ref = reference_scaling(ecs, 1.0, 1.0, tol=1e-8, max_iterations=5)
        assert not ref["converged"]
        assert_matches_reference(result, ref)
        monkeypatch.setattr(module, "time", FakeClock())
        with pytest.raises(ConvergenceError, match="deadline_s=5.5 expired"):
            sinkhorn_knopp(ecs, deadline_s=5.5)
