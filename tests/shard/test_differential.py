"""Differential harness: sharded execution == in-memory, bit for bit.

One (512, 8, 8) store is characterized under every robustness policy,
serially and through the process pool, and compared with ``np.array_equal`` (no tolerance)
against ``characterize_ensemble`` on the same stack in RAM — including
quarantine reports under injected faults.
"""

import pytest

from repro.batch import characterize_ensemble
from repro.robust import FaultPlan
from repro.shard import characterize_store, write_store

from .conftest import assert_results_equal, random_stack

N_MEMBERS = 512
CHUNK = 100  # five full shards + a short tail


@pytest.fixture(scope="module")
def stack():
    stack = random_stack(N_MEMBERS, 8, 8, seed=42)
    # A couple of zero-patterned (but valid) members exercise the
    # scalar fallback path inside chunks.
    for member in (100, 301):
        stack[member, 0, 1] = 0.0
    return stack


@pytest.fixture(scope="module")
def store(stack, tmp_path_factory):
    path = tmp_path_factory.mktemp("differential") / "store"
    return write_store(path, stack)


@pytest.fixture(scope="module")
def fault_plan():
    # Data faults only (stall semantics are covered by the chaos suite);
    # members span several shards, including the short tail.
    return FaultPlan.random(
        N_MEMBERS, faults="nan=2,zero-row=1,zero-col=1", seed=3
    )


class TestPolicyMatrix:
    def test_raise_policy_matches(self, stack, store):
        whole = characterize_ensemble(stack)
        sharded = characterize_store(store, chunk_size=CHUNK)
        assert_results_equal(sharded, whole)
        assert not sharded.batched[100]  # scalar fallback kept

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_faulty_policies_match(self, stack, store, policy, fault_plan):
        whole = characterize_ensemble(
            stack, policy=policy, fault_plan=fault_plan
        )
        sharded = characterize_store(
            store, chunk_size=CHUNK, policy=policy, fault_plan=fault_plan
        )
        assert_results_equal(sharded, whole)
        # The report carries absolute indices matching the plan's targets.
        assert {f.index for f in sharded.report.faults} == set(
            fault_plan.members
        )


class TestDispatchModes:
    def test_pool_matches_serial(self, stack, store):
        whole = characterize_ensemble(stack)
        pooled = characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        assert_results_equal(pooled, whole)

    def test_pool_matches_with_faults(self, stack, store, fault_plan):
        whole = characterize_ensemble(
            stack, policy="quarantine", fault_plan=fault_plan
        )
        pooled = characterize_store(
            store,
            chunk_size=CHUNK,
            n_jobs=2,
            policy="quarantine",
            fault_plan=fault_plan,
        )
        assert_results_equal(pooled, whole)

    def test_memory_budget_path_matches(self, stack, store):
        whole = characterize_ensemble(stack)
        sharded = characterize_store(store, memory_budget_mb=1.0)
        assert_results_equal(sharded, whole)

    def test_single_shard_matches(self, stack, store):
        whole = characterize_ensemble(stack)
        sharded = characterize_store(store, chunk_size=N_MEMBERS)
        assert_results_equal(sharded, whole)

    def test_chunk_of_one_member(self, stack, store):
        # Degenerate tiling: 512 single-member shards, via the facade.
        small = random_stack(9, 4, 4, seed=9)
        whole = characterize_ensemble(small)
        sharded = characterize_store(
            write_store(store.path.parent / "tiny", small), chunk_size=1
        )
        assert_results_equal(sharded, whole)


class TestFacade:
    def test_characterize_ensemble_store_kwarg(self, stack, store):
        whole = characterize_ensemble(stack)
        via_facade = characterize_ensemble(store=store, chunk_size=CHUNK)
        assert_results_equal(via_facade, whole)

    def test_store_accepted_as_path(self, stack, store):
        whole = characterize_ensemble(stack)
        sharded = characterize_store(str(store.path), chunk_size=CHUNK)
        assert_results_equal(sharded, whole)
