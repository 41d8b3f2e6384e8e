"""Kernel cost of one lone ``/v1/characterize`` request, layer by layer.

A lone request reaches the kernel as a batch of one:
``CharacterizationServer._run_characterize_batch`` runs it in the
server's executor.  This script times that call on one 12x5 matrix with
metrics enabled, as served, and the layers under it:

* ``runner``: the whole call (stacking, payloads included);
* ``robust``: ``characterize_ensemble`` under the serving policy
  (screening, fault report, counters);
* ``kernel``: ``_characterize_stack_batched`` (line sums, standard
  form, SVD);
* ``standardize``: ``standardize_batched`` on the same stack;
* ``core``: the bare ``_scale_stack`` iteration.

Usage (from the repository root)::

    python benchmarks/lone_kernel.py [--calls 1000] [--runs 10]
    python benchmarks/lone_kernel.py --baseline OTHER/src

Each run is a fresh interpreter that times ``--calls`` calls of every
layer, cycling over 64 matrices.  With ``--baseline`` the runs
alternate between this checkout's ``src/`` and the given source tree,
so a drift in machine speed hits both alike; the report gives each
tree's median µs/call and the speedup of the medians, with how many of
the paired runs the change won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("runner", "robust", "kernel", "standardize", "core")


def _one_run(calls: int) -> dict:
    import numpy as np

    from repro.batch.ensemble import (
        _characterize_stack_batched,
        characterize_ensemble,
    )
    from repro.batch.sinkhorn import standardize_batched
    from repro.normalize.sinkhorn import _scale_stack
    from repro.normalize.standard_form import standard_targets
    from repro.obs.metrics import MetricsRegistry, collecting_metrics
    from repro.serve import CharacterizationServer, ServeConfig

    rng = np.random.default_rng(3)
    stacks = [rng.uniform(0.5, 20.0, (1, 12, 5)) for _ in range(64)]
    options = {
        "tol": 1e-8,
        "policy": "quarantine",
        "backend": "numpy",
        "tma_fallback": "limit",
    }
    row_target, col_target = standard_targets(12, 5)
    rows, cols = np.full(12, row_target), np.full(5, col_target)
    with collecting_metrics(MetricsRegistry()):
        server = CharacterizationServer(ServeConfig(port=0))
        layers = {
            "runner": lambda s: server._run_characterize_batch(
                dict(options), [s[0]]
            ),
            "robust": lambda s: characterize_ensemble(
                s, tol=1e-8, policy="quarantine"
            ),
            "kernel": lambda s: _characterize_stack_batched(
                s.copy(), tol=1e-8, max_iterations=100_000
            ),
            "standardize": lambda s: standardize_batched(s),
            "core": lambda s: _scale_stack(
                s.copy(), rows, cols, tol=1e-8, max_iterations=100_000,
                row_scale=np.ones((1, 12)), col_scale=np.ones((1, 5)),
                t_end=None,
            ),
        }
        out = {}
        for name in LAYERS:
            call = layers[name]
            for i in range(100):
                call(stacks[i % 64])
            t0 = time.perf_counter()
            for i in range(calls):
                call(stacks[i % 64])
            out[name] = (time.perf_counter() - t0) / calls * 1e6
    return out


def _spawn(src: str, calls: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--one", "--calls", str(calls)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=1000)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", help="another source tree to compare")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_one_run(args.calls)))
        return 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    trees = {"change": src}
    if args.baseline:
        trees = {"baseline": str(Path(args.baseline).resolve()), **trees}
    runs: dict = {name: [] for name in trees}
    for k in range(args.runs):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_spawn(trees[name], args.calls))
    print(f"{args.runs} runs x {args.calls} calls, median us/call")
    print(f"  {'layer':12s}" + "".join(f"{name:>12s}" for name in trees))
    for layer in LAYERS:
        medians = [
            statistics.median(r[layer] for r in runs[name]) for name in trees
        ]
        print(f"  {layer:12s}" + "".join(f"{m:12.1f}" for m in medians))
    if args.baseline:
        base = [r["runner"] for r in runs["baseline"]]
        new = [r["runner"] for r in runs["change"]]
        wins = sum(b > n for b, n in zip(base, new))
        print(
            f"runner speedup {statistics.median(base) / statistics.median(new):.2f}x"
            f" (medians), change faster in {wins} of {len(base)} paired runs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
