"""Offline passes: in memory, from a shard store, and layer by layer.

The store pass runs :func:`repro.shard.characterize_store` under a
32 MiB budget with a pool of one worker per CPU.  The layered pass does
the same work as one call per layer, through each layer's public
function, so each layer's time can be read on its own:

* ``shard.store.read`` — :meth:`StackStore.read` of one planned shard;
* ``batch.sinkhorn`` — :func:`repro.batch.standardize_batched` of the
  shard's positive members;
* ``batch.measures`` — :func:`repro.batch.mph_batched`,
  :func:`repro.batch.tdh_batched` and the stacked SVD behind TMA;
* ``measures.fallback`` — :func:`repro.measures.characterize` of each
  zero-carrying member (the scalar path the library takes for them);
* ``shard.merge`` — :func:`repro.shard.merge_characterizations`.

Its results must equal the library's, so the timed layers are known to
be the work the library does.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import multiprocessing
import sys
import time

import numpy as np

BUDGET_MB = 32
JOBS = len(os.sched_getaffinity(0))


def write_stores(stacks, directory: str) -> list:
    from repro.shard import write_store

    return [
        write_store(os.path.join(directory, f"stack{i}"), stack)
        for i, stack in enumerate(stacks)
    ]


def inmem_pass(stacks) -> tuple[float, list]:
    from repro.batch import characterize_ensemble

    t0 = time.perf_counter()
    results = [characterize_ensemble(stack) for stack in stacks]
    return time.perf_counter() - t0, results


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def store_pass(stores) -> tuple[float, float, list]:
    """Wall seconds, CPU seconds (process plus reaped children), results."""
    from repro.shard import characterize_store

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    results = [
        characterize_store(store, memory_budget_mb=BUDGET_MB, n_jobs=JOBS)
        for store in stores
    ]
    wall = time.perf_counter() - t0
    return wall, _cpu_s() - cpu0, results


def _tma(singular_values: np.ndarray) -> np.ndarray:
    if singular_values.shape[1] < 2:
        return np.zeros(singular_values.shape[0])
    raw = singular_values[:, 1:].sum(axis=1) / (singular_values.shape[1] - 1)
    return np.clip(raw, 0.0, 1.0)


def layered_pass(stores, spans) -> tuple[dict, list]:
    """One pass with every layer called and timed on its own."""
    from repro.batch import EnsembleCharacterization
    from repro.batch import mph_batched, standardize_batched, tdh_batched
    from repro.measures import characterize
    from repro.normalize.standard_form import DEFAULT_TOL
    from repro.shard import merge_characterizations, plan_shards

    totals = dict.fromkeys(
        ("read", "sinkhorn", "measures", "fallback", "merge"), 0.0
    )
    sweeps = []
    members = fallback_members = shards = 0
    peak_bytes = 0
    results = []
    for s, store in enumerate(stores):
        n, t, m = store.shape
        plan = plan_shards(n, t, m, memory_budget_bytes=BUDGET_MB * 2**20)
        shards += len(plan)
        peak_bytes = max(peak_bytes, plan.estimated_peak_bytes)
        members += n
        parts = []
        for shard in plan.shards:
            trace_id = f"store{s}.shard{shard.index}"
            laps = {}
            t0 = time.perf_counter()
            chunk = store.read(shard.start, shard.stop)
            laps["shard.store.read"] = time.perf_counter() - t0

            positive = (chunk > 0).all(axis=(1, 2))
            k = len(chunk)
            mph = np.empty(k)
            tdh = np.empty(k)
            tma = np.empty(k)
            iterations = np.full(k, -1, dtype=np.int64)
            converged = np.zeros(k, dtype=bool)
            sub = chunk[positive]
            t1 = time.perf_counter()
            standard = standardize_batched(sub)
            laps["batch.sinkhorn"] = time.perf_counter() - t1
            t1 = time.perf_counter()
            mph[positive] = mph_batched(sub)
            tdh[positive] = tdh_batched(sub)
            tma[positive] = _tma(
                np.linalg.svd(standard.matrix, compute_uv=False)
            )
            laps["batch.measures"] = time.perf_counter() - t1
            iterations[positive] = standard.iterations
            converged[positive] = standard.converged
            sweeps.extend(standard.iterations.tolist())

            t1 = time.perf_counter()
            for i in np.flatnonzero(~positive):
                profile = characterize(chunk[i])
                mph[i], tdh[i], tma[i] = profile.mph, profile.tdh, profile.tma
                if profile.sinkhorn_iterations is not None:
                    iterations[i] = profile.sinkhorn_iterations
                converged[i] = (
                    profile.sinkhorn_residual is not None
                    and profile.sinkhorn_residual <= DEFAULT_TOL
                )
            laps["measures.fallback"] = time.perf_counter() - t1
            fallback_members += int((~positive).sum())

            root = spans.add("shard.batch", trace_id, time.perf_counter() - t0)
            for name, seconds in laps.items():
                spans.add(name, trace_id, seconds, parent=root)
            totals["read"] += laps["shard.store.read"]
            totals["sinkhorn"] += laps["batch.sinkhorn"]
            totals["measures"] += laps["batch.measures"]
            totals["fallback"] += laps["measures.fallback"]
            parts.append(
                (
                    shard.start,
                    EnsembleCharacterization(
                        mph=mph, tdh=tdh, tma=tma, iterations=iterations,
                        converged=converged, batched=positive,
                        n_tasks=t, n_machines=m,
                    ),
                )
            )
        t0 = time.perf_counter()
        results.append(merge_characterizations(parts))
        merge_s = time.perf_counter() - t0
        spans.add("shard.merge", f"store{s}", merge_s)
        totals["merge"] += merge_s

    per_member = 1e6 / members
    layers = {
        "shard.store.read_us_per_member": totals["read"] * per_member,
        "batch.sinkhorn.us_per_member": totals["sinkhorn"] * per_member,
        "batch.sinkhorn.iterations": float(np.mean(sweeps)),
        "batch.measures.us_per_member": totals["measures"] * per_member,
        "measures.fallback_members": float(fallback_members),
        "measures.fallback_us_per_member": (
            totals["fallback"] * 1e6 / fallback_members
            if fallback_members else 0.0
        ),
        "shard.planner.shards": float(shards),
        "shard.planner.estimated_peak_mb": peak_bytes / 2**20,
        "shard.merge.ms": totals["merge"] * 1e3,
        "explained_us_per_member": sum(totals.values()) * per_member,
    }
    return layers, results


def _scale(stack: np.ndarray, sweeps: int) -> None:
    _, t, m = stack.shape
    row_target, col_target = math.sqrt(m / t), math.sqrt(t / m)
    a = stack.copy()
    for _ in range(sweeps):
        a *= (col_target / a.sum(axis=1))[:, None, :]
        a *= (row_target / a.sum(axis=2))[:, :, None]


def scaling_loop_s(stacks, sweeps: int) -> float:
    """Seconds of a bare numpy row/column scaling loop: ``sweeps``
    column-then-row passes over every stack, with no convergence test
    and no masks.  Program changes cannot move it; machine speed does."""
    t0 = time.perf_counter()
    for stack in stacks:
        _scale(stack, sweeps)
    return time.perf_counter() - t0


def _scale_share(args) -> None:
    path, start, stop, sweeps = args
    from repro.shard import StackStore

    _scale(StackStore(path).read(start, stop), sweeps)


class Calibration:
    """The scaling loop over the stored members, split over a pool of
    ``JOBS`` processes: the machine's speed with every core busy, to set
    the store pass against.

    Each measurement forks a fresh pool, as the store pass does, because
    on a small virtual machine freshly forked workers can stay together
    on one CPU for seconds while long-lived ones stay spread out.  A
    fork pool, unlike a spawn pool, starts no resource tracker process
    that could outlive the run.
    """

    def __init__(self, stores, sweeps: int) -> None:
        self.shares = [
            (str(store.path), int(part[0]), int(part[-1]) + 1, sweeps)
            for store in stores
            for part in np.array_split(np.arange(store.n_members), JOBS)
        ]

    def all_cores_s(self) -> float:
        with multiprocessing.get_context("fork").Pool(JOBS) as pool:
            t0 = time.perf_counter()
            pool.map(_scale_share, self.shares, chunksize=1)
            seconds = time.perf_counter() - t0
            pool.close()
            pool.join()
        return seconds


def floor_us_per_member(stacks, sweeps: int, repeats: int = 3) -> float:
    """The kernel's floor: the scaling loop over the positive members,
    for the sweeps the kernel reported."""
    positive = [s[(s > 0).all(axis=(1, 2))] for s in stacks]
    members = sum(len(s) for s in positive)
    times = [scaling_loop_s(positive, sweeps) for _ in range(repeats)]
    return float(np.median(times)) * 1e6 / members


def store_peak_mb(stores, src_dir: str, cwd: str) -> float:
    """Peak resident memory of a store pass, in MiB.

    Runs the pass in a fresh interpreter so nothing the benchmark holds
    counts, and takes the larger of its own peak and the largest
    worker's peak.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "store_peak.py")
    out = subprocess.run(
        [sys.executable, script, str(BUDGET_MB), str(JOBS)]
        + [str(store.path) for store in stores],
        env=dict(os.environ, PYTHONPATH=src_dir),
        cwd=cwd,
        capture_output=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(out.stdout)["peak_mb"])
