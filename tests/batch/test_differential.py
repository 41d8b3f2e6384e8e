"""Differential harness: batched kernels vs the scalar reference.

Property-based equivalence of ``repro.batch`` against per-slice calls
of the scalar pipeline over random positive and zero-patterned
``(N, T, M)`` stacks.  The batched path is an execution strategy, not a
reformulation — per-slice agreement is held to ≤ 1e-10 on convergent
stacks.  The Sinkhorn iterates are in fact bit-identical, because the
broadcast reductions visit each slice's entries in the same order as a
2-D loop: ``TestBatchedAgainstReference`` pins every slice exactly to
the frozen loop in ``tests/reference_sinkhorn.py``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro.batch import (
    mph_batched,
    sinkhorn_knopp_batched,
    standardize_batched,
    tdh_batched,
    tma_batched,
)
from repro.exceptions import ConvergenceError, MatrixValueError
from repro.measures import mph, tdh, tma
from repro.normalize import sinkhorn_knopp, standard_targets, standardize
from repro.spec import load_dataset
from tests.reference_sinkhorn import (
    FakeClock,
    assert_matches_reference,
    reference_scaling,
)

from .conftest import ecs_stacks

#: Acceptance bound: per-slice batched/scalar agreement on convergent
#: stacks (ISSUE acceptance criterion; the harness pins it).
ATOL = 1e-10

#: Iteration cap for adversarial zero patterns: enough for every
#: normalizable pattern this size, quick to fail for decomposable ones.
CAPPED = 500


class TestSinkhornDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_positive_stacks_match_scalar(self, stack):
        batched = sinkhorn_knopp_batched(stack)
        for i in range(stack.shape[0]):
            scalar = sinkhorn_knopp(stack[i])
            assert bool(batched.converged[i]) == scalar.converged
            assert int(batched.iterations[i]) == scalar.iterations
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=ATOL
            )
            np.testing.assert_allclose(
                batched.row_scale[i], scalar.row_scale, rtol=ATOL
            )
            np.testing.assert_allclose(
                batched.col_scale[i], scalar.col_scale, rtol=ATOL
            )
            assert batched.residual_history[i] == pytest.approx(
                scalar.residual_history, abs=ATOL
            )

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks(positive_only=False))
    def test_zero_patterns_match_scalar(self, stack):
        """Zero patterns — including non-convergent decomposable ones —
        follow the scalar iterate-for-iterate."""
        batched = sinkhorn_knopp_batched(
            stack, require_convergence=False, max_iterations=CAPPED
        )
        for i in range(stack.shape[0]):
            scalar = sinkhorn_knopp(
                stack[i], require_convergence=False, max_iterations=CAPPED
            )
            assert bool(batched.converged[i]) == scalar.converged
            assert int(batched.iterations[i]) == scalar.iterations
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=ATOL
            )
            assert float(batched.residual[i]) == pytest.approx(
                scalar.residual, abs=ATOL
            )

    @settings(max_examples=20, deadline=None)
    @given(stack=ecs_stacks(max_side=4))
    def test_slice_bridge_matches_scalar_result(self, stack):
        """`BatchNormalizationResult.slice(i)` is a drop-in scalar result."""
        batched = sinkhorn_knopp_batched(stack)
        view = batched.slice(0)
        scalar = sinkhorn_knopp(stack[0])
        assert view.converged == scalar.converged
        assert view.iterations == scalar.iterations
        np.testing.assert_allclose(view.matrix, scalar.matrix, rtol=0, atol=ATOL)
        assert view.max_sum_error() == pytest.approx(
            scalar.max_sum_error(), abs=ATOL
        )

    def test_non_convergent_raises_with_slice_indices(self, eq10_stack):
        with pytest.raises(ConvergenceError, match="slice"):
            sinkhorn_knopp_batched(eq10_stack, max_iterations=CAPPED)

    def test_validation_mirrors_scalar(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp_batched(-np.ones((2, 2, 2)))
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp_batched(np.full((1, 2, 2), np.inf))
        bad = np.ones((2, 3, 3))
        bad[1, 2, :] = 0.0  # all-zero row in slice 1
        with pytest.raises(MatrixValueError, match=r"\[1\]"):
            sinkhorn_knopp_batched(bad)
        with pytest.raises(MatrixValueError, match="inconsistent"):
            sinkhorn_knopp_batched(
                np.ones((1, 2, 2)), row_target=1.0, col_target=3.0
            )


@pytest.fixture
def eq10_stack():
    """A stack whose middle slice is Section VI's decomposable eq. 10."""
    eq10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    pos = np.arange(1.0, 10.0).reshape(3, 3)
    return np.stack([pos, eq10, pos + 1.0])


class TestStandardizeDifferential:
    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_standard_form_matches_scalar(self, stack):
        batched = standardize_batched(stack)
        for i in range(stack.shape[0]):
            scalar = standardize(stack[i])
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=ATOL
            )
            assert int(batched.iterations[i]) == scalar.iterations

    def test_partial_convergence_mask(self, eq10_stack):
        result = standardize_batched(
            eq10_stack, require_convergence=False, max_iterations=CAPPED
        )
        assert result.converged.tolist() == [True, False, True]
        assert result.iterations[1] == CAPPED


class TestMeasureDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_mph_matches_scalar(self, stack):
        batched = mph_batched(stack)
        expected = [mph(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=ATOL)

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_tdh_matches_scalar(self, stack):
        batched = tdh_batched(stack)
        expected = [tdh(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=ATOL)

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_tma_matches_scalar(self, stack):
        batched = tma_batched(stack)
        expected = [tma(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=ATOL)

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks(positive_only=False, min_side=2))
    def test_mph_tdh_with_zero_patterns(self, stack):
        """MPH/TDH need no standard form, so they batch for any valid
        zero pattern."""
        np.testing.assert_allclose(
            mph_batched(stack),
            [mph(stack[i]) for i in range(stack.shape[0])],
            rtol=0,
            atol=ATOL,
        )
        np.testing.assert_allclose(
            tdh_batched(stack),
            [tdh(stack[i]) for i in range(stack.shape[0])],
            rtol=0,
            atol=ATOL,
        )


def _assert_slices_match(result, stack, row_target, col_target, **kwargs):
    """Every slice of a batched result equals the frozen loop run on
    that slice alone (``warm_start`` given per slice as ``(rows, cols)``
    arrays)."""
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


class TestBatchedAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_positive_stacks_match_reference(self, stack):
        _, t, m = stack.shape
        result = sinkhorn_knopp_batched(stack)
        _assert_slices_match(result, stack, 1.0, t / m, tol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks(positive_only=False))
    def test_zero_patterns_match_reference(self, stack):
        _, t, m = stack.shape
        result = sinkhorn_knopp_batched(
            stack, require_convergence=False, max_iterations=CAPPED
        )
        _assert_slices_match(
            result, stack, 1.0, t / m, tol=1e-8, max_iterations=CAPPED
        )

    @settings(max_examples=20, deadline=None)
    @given(stack=ecs_stacks(min_side=2))
    def test_standardize_batched_matches_reference(self, stack):
        targets = standard_targets(stack.shape[1], stack.shape[2])
        result = standardize_batched(stack)
        _assert_slices_match(result, stack, *targets, tol=1e-8)

    def test_mixed_convergence_matches_reference(self, eq10_stack):
        result = sinkhorn_knopp_batched(
            eq10_stack, require_convergence=False, max_iterations=CAPPED
        )
        assert result.converged.tolist() == [True, False, True]
        _assert_slices_match(
            result, eq10_stack, 1.0, 1.0, tol=1e-8, max_iterations=CAPPED
        )

    @pytest.mark.parametrize("name", ["cint2006rate", "cfp2006rate"])
    def test_spec_goldens_match_reference(self, name):
        ecs = load_dataset(name).to_ecs().weighted_values()
        stack = np.stack([ecs, ecs[::-1] * 3.0, ecs[:, ::-1]])
        targets = standard_targets(*ecs.shape)
        result = standardize_batched(stack)
        _assert_slices_match(result, stack, *targets, tol=1e-8)

    def test_warm_start_matches_reference(self):
        rng = np.random.default_rng(21)
        stack = rng.uniform(0.5, 10.0, size=(6, 7, 4))
        cold = sinkhorn_knopp_batched(stack)
        perturbed = stack * (
            1.0 + rng.uniform(-1e-3, 1e-3, size=stack.shape)
        )
        warm = sinkhorn_knopp_batched(perturbed, warm_start=cold)
        assert (warm.iterations > 0).all()
        _assert_slices_match(
            warm, perturbed, 1.0, 7 / 4, tol=1e-8,
            warm_start=(cold.row_scale, cold.col_scale),
        )
        # One (T,)/(M,) pair broadcasts to every slice.
        shared = sinkhorn_knopp(stack[0])
        warm = sinkhorn_knopp_batched(
            perturbed, warm_start=(shared.row_scale, shared.col_scale)
        )
        _assert_slices_match(
            warm, perturbed, 1.0, 7 / 4, tol=1e-8,
            warm_start=(
                np.broadcast_to(shared.row_scale, (6, 7)),
                np.broadcast_to(shared.col_scale, (6, 4)),
            ),
        )

    def test_deadline_mid_run_matches_reference(self, monkeypatch):
        module = importlib.import_module("repro.normalize.sinkhorn")
        monkeypatch.setattr(module, "time", FakeClock())
        rng = np.random.default_rng(22)
        slow = np.exp(rng.uniform(-5.0, 5.0, size=(3, 8, 8)))
        fast = np.full((1, 8, 8), 1.0 / 8.0) * (
            1.0 + rng.uniform(-1e-6, 1e-6, size=(1, 8, 8))
        )
        stack = np.concatenate([slow[:2], fast, slow[2:]])
        result = sinkhorn_knopp_batched(
            stack, deadline_s=5.5, require_convergence=False
        )
        # The near-converged slice freezes early on its own; the rest
        # stop at the deadline after five iterations, exactly where an
        # iteration budget of five leaves the reference loop.
        assert result.converged.tolist() == [False, False, True, False]
        assert 0 < result.iterations[2] < 5
        _assert_slices_match(
            result, stack, 1.0, 1.0, tol=1e-8, max_iterations=5
        )
