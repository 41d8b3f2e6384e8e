"""Warm-started Sinkhorn on stacks and ensembles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.batch import characterize_ensemble, standardize_batched
from repro.exceptions import MatrixValueError
from repro.generate.ensembles import perturb_stack
from repro.normalize import standardize

from .conftest import ecs_stacks


class TestBatchedWarmStart:
    @settings(max_examples=15, deadline=None)
    @given(stack=ecs_stacks(min_side=2, max_side=5))
    def test_warm_from_converged_run_is_exact(self, stack):
        cold = standardize_batched(stack)
        warm = standardize_batched(
            stack, warm_start=(cold.row_scale, cold.col_scale)
        )
        assert warm.converged.all()
        assert (warm.iterations == 0).all()
        assert (warm.row_scale == cold.row_scale).all()
        assert (warm.col_scale == cold.col_scale).all()

    def test_shared_pair_broadcasts_over_the_stack(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.5, 10.0, size=(12, 6))
        stack = perturb_stack(base, 1e-6, 24, seed=5)
        seeded = standardize(base)
        cold = standardize_batched(stack)
        warm = standardize_batched(
            stack, warm_start=(seeded.row_scale, seeded.col_scale)
        )
        assert warm.converged.all()
        assert (warm.iterations <= cold.iterations).all()
        # The warm_start bench criterion: >= 3x fewer total iterations
        # on a perturb_stack re-characterization.
        assert cold.iterations.sum() >= 3 * warm.iterations.sum()

    def test_ensemble_warm_start_threads_through(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.5, 10.0, size=(8, 5))
        stack = perturb_stack(base, 1e-6, 8, seed=6)
        seeded = standardize(base)
        cold = characterize_ensemble(stack)
        warm = characterize_ensemble(
            stack, warm_start=(seeded.row_scale, seeded.col_scale)
        )
        assert warm.converged.all()
        assert warm.iterations.sum() < cold.iterations.sum()
        np.testing.assert_allclose(warm.tma, cold.tma, atol=1e-7)

    def test_robust_policy_rejected(self):
        stack = np.ones((2, 3, 3))
        with pytest.raises(MatrixValueError, match="policy='raise'"):
            standardize_batched(
                stack,
                policy="quarantine",
                warm_start=(np.ones((3,)), np.ones((3,))),
            )

    def test_scalar_fallback_slices_rejected(self):
        stack = np.ones((2, 3, 3))
        stack[0, 0, 0] = 0.0  # zero-patterned slice -> scalar path
        with pytest.raises(MatrixValueError, match="strictly.*positive"):
            characterize_ensemble(
                stack, warm_start=(np.ones(3), np.ones(3))
            )

    def test_ragged_ensemble_rejected(self):
        members = [np.ones((2, 2)), np.ones((3, 3))]
        with pytest.raises(MatrixValueError, match="stacked"):
            characterize_ensemble(
                members, warm_start=(np.ones(2), np.ones(2))
            )
