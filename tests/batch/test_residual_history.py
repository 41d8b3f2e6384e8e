"""Residual histories of batched runs, built on first read.

The core logs one ``(idx, res)`` array pair per iteration; the
per-slice ``residual_history`` tuples are built from that log only when
the field is read.  Whatever the stack's freezing order — slices frozen
early riding along until the sub-stack is compacted, stragglers cut by
``max_iterations`` or a deadline, warm starts — every slice's history
must equal the frozen reference loop's.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.batch import sinkhorn_knopp_batched, standardize_batched
from repro.normalize import convergence_diagnostics, standard_targets
from repro.normalize.sinkhorn import ResidualLog
from repro.robust import standardize_batched_robust
from tests.reference_sinkhorn import (
    FakeClock,
    assert_matches_reference,
    reference_scaling,
)


@pytest.fixture(scope="module")
def spread_stack():
    """40 slices whose convergence takes from 0 to ~40 iterations, so
    slices freeze on many different iterations."""
    rng = np.random.default_rng(23)
    spread = np.linspace(0.0, 4.0, 40)[:, None, None]
    stack = np.exp(spread * rng.uniform(-1.0, 1.0, size=(40, 6, 5)))
    stack[0] = 5.0 / 6.0  # already standard: converged at entry
    return stack


def _assert_histories_match(result, stack, **kwargs):
    t, m = stack.shape[1:]
    warm = kwargs.pop("warm_start", None)
    histories = result.residual_history
    assert len(histories) == stack.shape[0]
    for i in range(stack.shape[0]):
        ref = reference_scaling(
            stack[i], 1.0, t / m,
            warm_start=None if warm is None else (warm[0][i], warm[1][i]),
            **kwargs,
        )
        assert histories[i] == ref["history"]
        assert_matches_reference(result.slice(i), ref)


class TestBuiltOnRead:
    def test_log_until_read_then_tuples(self, spread_stack):
        result = sinkhorn_knopp_batched(spread_stack)
        assert isinstance(result.__dict__["residual_history"], ResidualLog)
        histories = result.residual_history
        assert isinstance(histories, tuple)
        assert all(isinstance(h, tuple) for h in histories)
        assert result.residual_history is histories

    def test_converged_at_entry_has_one_entry(self):
        result = sinkhorn_knopp_batched(np.full((3, 2, 2), 0.5))
        assert result.iterations.tolist() == [0, 0, 0]
        assert result.residual_history == ((0.0,), (0.0,), (0.0,))


class TestAgainstReference:
    def test_spread_freezing_matches(self, spread_stack):
        result = sinkhorn_knopp_batched(spread_stack)
        assert result.converged.all()
        assert len(set(result.iterations.tolist())) > 10
        _assert_histories_match(result, spread_stack, tol=1e-8)

    def test_max_iterations_cut_matches(self, spread_stack):
        result = sinkhorn_knopp_batched(
            spread_stack, max_iterations=7, require_convergence=False
        )
        assert not result.converged.all() and result.converged.any()
        _assert_histories_match(
            result, spread_stack, tol=1e-8, max_iterations=7
        )

    def test_expired_deadline_matches(self, spread_stack, monkeypatch):
        module = importlib.import_module("repro.normalize.sinkhorn")
        monkeypatch.setattr(module, "time", FakeClock())
        result = sinkhorn_knopp_batched(
            spread_stack, deadline_s=6.5, require_convergence=False
        )
        assert result.iterations.max() == 6
        _assert_histories_match(
            result, spread_stack, tol=1e-8, max_iterations=6
        )

    def test_warm_start_matches(self, spread_stack):
        cold = sinkhorn_knopp_batched(spread_stack)
        rng = np.random.default_rng(24)
        perturbed = spread_stack * (
            1.0 + rng.uniform(-1e-3, 1e-3, size=spread_stack.shape)
        )
        warm = sinkhorn_knopp_batched(perturbed, warm_start=cold)
        _assert_histories_match(
            warm, perturbed, tol=1e-8,
            warm_start=(cold.row_scale, cold.col_scale),
        )


class TestReaders:
    def test_slice_carries_its_history(self, spread_stack):
        result = standardize_batched(spread_stack)
        for i in (0, 17, 39):
            view = result.slice(i)
            assert view.residual_history == result.residual_history[i]
            assert view.residual_history[-1] == view.residual

    def test_robust_path_indexes_histories(self, spread_stack):
        stack = spread_stack[:6].copy()
        stack[2, 0, 0] = np.nan
        result = standardize_batched_robust(stack)
        assert result.report.quarantined == (2,)
        assert result.residual_history[2] == ()
        targets = standard_targets(*stack.shape[1:])
        for i in (0, 1, 3, 4, 5):
            ref = reference_scaling(stack[i], *targets, tol=1e-8)
            assert result.residual_history[i] == ref["history"]

    def test_diagnostics_read_a_slice(self, spread_stack):
        result = sinkhorn_knopp_batched(spread_stack, tol=1e-12)
        diag = convergence_diagnostics(result.slice(39))
        assert diag.initial_residual == result.residual_history[39][0]
        assert diag.iterations == result.iterations[39]
        assert 0.0 < diag.rate < 1.0
