"""Which members ``characterize_ensemble`` batches.

A member with zeros joins the batched stack when its zero pattern has a
standard form (Menon's test finds no blocking edge); only the Section-VI
patterns keep the scalar path.  Routing is an execution choice: every
column of a routed member is bit-equal to scalar ``characterize``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import characterize_ensemble
from repro.exceptions import MatrixValueError, NotNormalizableError
from repro.measures import characterize
from repro.obs import recording
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.robust import FaultPlan
from repro.shard import characterize_store, write_store

COLUMNS = ("mph", "tdh", "tma", "iterations", "converged", "batched")

EQ10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


@pytest.fixture(scope="module")
def mixed_stack():
    """Positive members 0 and 3, a normalizable one-zero member 1 and
    the paper's eq.-10 member 2."""
    rng = np.random.default_rng(14)
    stack = rng.uniform(0.5, 5.0, size=(4, 3, 3))
    stack[1, 0, 1] = 0.0
    stack[2] = EQ10 * 3.0
    return stack


def _assert_member_is_scalar(result, i, matrix, tma_fallback="limit"):
    profile = characterize(matrix, tma_fallback=tma_fallback)
    assert result.mph[i] == profile.mph
    assert result.tdh[i] == profile.tdh
    assert result.tma[i] == profile.tma
    expected_iterations = (
        -1 if profile.sinkhorn_iterations is None
        else profile.sinkhorn_iterations
    )
    assert result.iterations[i] == expected_iterations
    return profile


class TestRouting:
    def test_normalizable_zero_member_is_batched(self, mixed_stack):
        result = characterize_ensemble(mixed_stack)
        assert result.batched.tolist() == [True, True, False, True]
        for i in (0, 1, 3):
            _assert_member_is_scalar(result, i, mixed_stack[i])
            assert result.converged[i]

    @pytest.mark.parametrize("tma_fallback", ["limit", "column"])
    def test_eq10_member_keeps_the_scalar_path(
        self, mixed_stack, tma_fallback
    ):
        result = characterize_ensemble(mixed_stack, tma_fallback=tma_fallback)
        assert not result.batched[2]
        profile = _assert_member_is_scalar(
            result, 2, mixed_stack[2], tma_fallback
        )
        assert profile.tma_method == tma_fallback

    def test_eq10_member_raises_under_raise(self, mixed_stack):
        with pytest.raises(NotNormalizableError):
            characterize_ensemble(mixed_stack, tma_fallback="raise")
        # Without the eq.-10 member nothing is left to raise.
        result = characterize_ensemble(
            mixed_stack[[0, 1, 3]], tma_fallback="raise"
        )
        assert result.batched.all()

    def test_store_is_bit_identical(self, mixed_stack, tmp_path):
        whole = characterize_ensemble(mixed_stack)
        store = write_store(tmp_path / "mixed", mixed_stack)
        for chunk_size in (1, 2, 4):
            sharded = characterize_store(store, chunk_size=chunk_size)
            for name in COLUMNS:
                assert np.array_equal(
                    getattr(sharded, name), getattr(whole, name)
                ), name

    def test_missed_max_iterations_reports_not_converged(self, mixed_stack):
        # The scalar path ignored max_iterations and ran the zero member
        # to convergence; in the batch it honours the cap and reports
        # converged=False, as the positive member beside it does.
        result = characterize_ensemble(mixed_stack[[0, 1]], max_iterations=2)
        assert result.batched.tolist() == [True, True]
        assert result.converged.tolist() == [False, False]
        assert result.iterations.tolist() == [2, 2]
        assert np.isfinite(result.tma).all()

    def test_injected_nan_member_keeps_the_scalar_error(self, mixed_stack):
        # A NaN is no zero: the member is not routed, and the scalar
        # path names the corruption.
        plan = FaultPlan.random(4, faults="nan=1", seed=1)
        with pytest.raises(MatrixValueError, match="NaN"):
            characterize_ensemble(mixed_stack, fault_plan=plan)


class TestCountGuard:
    def test_one_zero_members_take_no_fallback(self):
        """Four 8x8 members with one zero each stay off the scalar
        path: no fallback count, no fallback metric."""
        rng = np.random.default_rng(400)
        stack = rng.uniform(0.1, 10.0, size=(400, 8, 8))
        for member in (3, 111, 250, 399):
            stack[member, member % 8, (member // 8) % 8] = 0.0
        with collecting_metrics(MetricsRegistry()) as registry:
            with recording() as rec:
                result = characterize_ensemble(stack)
        assert result.batched.all()
        assert rec.counters["ensemble.fallback_slices"] == 0
        assert rec.counters["ensemble.batched_slices"] == 400
        members = registry.get("repro_ensemble_members_total")
        assert members.value(path="fallback") == 0.0
        assert members.value(path="batched") == 400.0
