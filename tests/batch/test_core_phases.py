"""The scaling core's in-place phase against the frozen reference loop.

While every slice of a stack still iterates, the core scales the
working stack and the scale accumulators in place; from the first
freeze on it iterates the stragglers on a gathered copy, and compacts
that copy once half of it has frozen.  Each test below drives one of
those paths and holds every slice, bit for bit, to
``tests/reference_sinkhorn.py``: matrix, both scale vectors, iteration
count and the full residual history.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.batch import sinkhorn_knopp_batched, standardize_batched
from repro.normalize import standard_targets
from tests.reference_sinkhorn import assert_matches_reference, reference_scaling

#: A 2x3 pattern no matrix with equal margins can have: its scales
#: diverge geometrically and overflow to inf after ~2,000 iterations.
INFEASIBLE = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])


def _assert_slices_match(result, stack, row_target, col_target, **kwargs):
    warm = kwargs.pop("warm_start", None)
    for i in range(stack.shape[0]):
        ref = reference_scaling(
            stack[i],
            row_target,
            col_target,
            warm_start=None if warm is None else (warm[0][i], warm[1][i]),
            **kwargs,
        )
        assert_matches_reference(result.slice(i), ref)


class TestInPlacePhase:
    @pytest.mark.parametrize("n_slices", [1, 3, 6])
    def test_slices_freezing_together_never_leave_the_stack(self, n_slices):
        # Identical slices freeze at the same iteration, so the whole
        # run stays in place: no gathered copy, no write-back.
        ecs = np.random.default_rng(31).uniform(0.5, 20.0, size=(12, 5))
        stack = np.repeat(ecs[None], n_slices, axis=0)
        result = standardize_batched(stack)
        assert len(set(result.iterations.tolist())) == 1
        _assert_slices_match(
            result, stack, *standard_targets(12, 5), tol=1e-8
        )

    def test_a_slice_converged_at_entry(self):
        rng = np.random.default_rng(32)
        stack = rng.uniform(0.5, 10.0, size=(4, 6, 6))
        stack[2] = 1.0 / 6.0  # doubly stochastic: residual 0 at entry
        result = sinkhorn_knopp_batched(stack)
        assert result.iterations[2] == 0
        assert (np.delete(result.iterations, 2) > 0).all()
        _assert_slices_match(result, stack, 1.0, 1.0, tol=1e-8)

    def test_freezing_spread_past_the_compaction(self):
        # Dynamic ranges from flat to extreme: the slices freeze over
        # many iterations, so the core leaves the in-place phase at the
        # first freeze and compacts the gathered copy later on.
        rng = np.random.default_rng(33)
        spread = np.linspace(0.0, 6.0, 10)[:, None, None]
        stack = np.exp(spread * rng.uniform(-1.0, 1.0, size=(10, 8, 8)))
        result = sinkhorn_knopp_batched(stack)
        assert len(set(result.iterations.tolist())) >= 6
        _assert_slices_match(result, stack, 1.0, 1.0, tol=1e-8)

    def test_warm_start_in_place(self):
        rng = np.random.default_rng(34)
        stack = rng.uniform(0.5, 10.0, size=(5, 7, 4))
        cold = sinkhorn_knopp_batched(stack)
        perturbed = stack * (1.0 + rng.uniform(-1e-3, 1e-3, stack.shape))
        warm = sinkhorn_knopp_batched(perturbed, warm_start=cold)
        assert (warm.iterations > 0).all()
        _assert_slices_match(
            warm, perturbed, 1.0, 7 / 4, tol=1e-8,
            warm_start=(cold.row_scale, cold.col_scale),
        )

    def test_only_the_scale_overflow_is_silenced(self):
        # The infeasible slice's scales overflow to inf, which the core
        # silences for the whole loop; every other warning category
        # keeps the caller's setting, so the same run under
        # ``under="raise"`` stops at the scales' underflow exactly as
        # the reference loop does.
        stack = np.stack(
            [INFEASIBLE, np.random.default_rng(35).uniform(1.0, 2.0, (2, 3))]
        )
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sinkhorn_knopp_batched(
                stack, require_convergence=False, max_iterations=3000
            )
            assert np.isinf(result.row_scale[0]).any()
            _assert_slices_match(
                result, stack, 1.0, 2 / 3, tol=1e-8, max_iterations=3000
            )
        assert np.geterr() == before
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                reference_scaling(
                    INFEASIBLE, 1.0, 2 / 3, tol=1e-8, max_iterations=3000
                )
            with pytest.raises(FloatingPointError, match="underflow"):
                sinkhorn_knopp_batched(
                    stack, require_convergence=False, max_iterations=3000
                )
