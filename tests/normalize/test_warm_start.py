"""Warm-started Sinkhorn on one matrix: exact re-application and
iteration savings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import MatrixValueError
from repro.normalize import (
    ScalingOutcome,
    scale_by_diagonals,
    sinkhorn_knopp,
    standardize,
)
from tests.conftest import ecs_matrices


class TestScalarWarmStart:
    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(min_side=2, max_side=6))
    def test_warm_from_converged_run_is_exact(self, ecs):
        cold = sinkhorn_knopp(ecs)
        warm = sinkhorn_knopp(ecs, warm_start=cold)
        # Re-applying the converged diagonals lands at (or below) the
        # tolerance immediately: zero new iterations, and the matrix is
        # bit-for-bit the closed-form diagonal re-application.
        assert warm.converged
        assert warm.iterations == 0
        assert (warm.row_scale == cold.row_scale).all()
        assert (warm.col_scale == cold.col_scale).all()
        rebuilt = scale_by_diagonals(ecs, cold.row_scale, cold.col_scale)
        assert (warm.matrix == rebuilt).all()
        np.testing.assert_allclose(
            warm.matrix, cold.matrix, rtol=0, atol=1e-7
        )

    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(min_side=2, max_side=6))
    def test_small_perturbations_need_no_more_iterations(self, ecs):
        cold = sinkhorn_knopp(ecs)
        rng = np.random.default_rng(0)
        perturbed = ecs * (1.0 + rng.uniform(-1e-7, 1e-7, size=ecs.shape))
        warm = sinkhorn_knopp(perturbed, warm_start=cold)
        baseline = sinkhorn_knopp(perturbed)
        assert warm.converged
        assert warm.iterations <= baseline.iterations

    def test_tuple_form_accepted(self):
        rng = np.random.default_rng(1)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        cold = sinkhorn_knopp(ecs)
        warm = sinkhorn_knopp(
            ecs, warm_start=(cold.row_scale, cold.col_scale)
        )
        assert warm.iterations == 0

    def test_standard_form_result_is_a_valid_warm_start(self):
        rng = np.random.default_rng(2)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        seeded = standardize(ecs)
        assert isinstance(seeded, ScalingOutcome)
        warm = standardize(ecs, warm_start=seeded)
        assert warm.iterations == 0

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(3)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        with pytest.raises(MatrixValueError, match="warm_start"):
            sinkhorn_knopp(
                ecs, warm_start=(np.ones(5), np.ones(4))
            )

    def test_non_positive_vectors_rejected(self):
        rng = np.random.default_rng(4)
        ecs = rng.uniform(0.5, 5.0, size=(4, 4))
        with pytest.raises(MatrixValueError, match="positive"):
            sinkhorn_knopp(
                ecs, warm_start=(np.zeros(4), np.ones(4))
            )
