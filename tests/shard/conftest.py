"""Shared fixtures for the sharded-ensemble test harness.

The differential suites all compare a sharded run against the
in-memory pipeline bit for bit, so the helpers here are strict:
``assert_results_equal`` uses ``np.array_equal`` (no tolerance) on
every result column and compares quarantine reports by dataclass
equality.
"""

import numpy as np

from repro.robust.ensemble import RobustEnsembleCharacterization

#: Measure columns every characterization result carries.
RESULT_COLUMNS = ("mph", "tdh", "tma", "iterations", "converged", "batched")


def random_stack(n, t, m, *, seed=0):
    """A positive (N, T, M) stack, log-uniform like the generators."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-2.3, 2.3, size=(n, t, m)))


def assert_results_equal(actual, expected):
    """Bit-identity across all columns, geometry and (robust) reports."""
    assert type(actual) is type(expected)
    assert len(actual) == len(expected)
    assert actual.n_tasks == expected.n_tasks
    assert actual.n_machines == expected.n_machines
    for name in RESULT_COLUMNS:
        a, e = getattr(actual, name), getattr(expected, name)
        assert np.array_equal(a, e, equal_nan=True), (
            f"column {name!r} differs: {a} vs {e}"
        )
    if isinstance(expected, RobustEnsembleCharacterization):
        assert actual.report == expected.report
