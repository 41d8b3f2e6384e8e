"""The repository benchmark: served, in-memory and out-of-core characterization.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_lone --seed 1 --seconds 20 --trace 0

One run of a workload:

1. makes the workload's inputs from ``--seed`` (``inputs.py``);
2. sets up several times and keeps the last set-up: a ``repro-hc serve
   --port 0`` child until ``/healthz/ready`` answers, plus the offline
   stacks written as shard stores (``setup_s`` is the median);
3. measures in rounds, so that a short burst of load from elsewhere on
   the machine spoils at most one of them.  Each round serves the
   workload's requests in a closed loop (``serving.py``), then
   characterizes the offline stacks in memory and from the stores
   (``offline.py``).  The server's CPU time per request and each offline
   pass are set against a bare numpy loop run beside them, which cancels
   how fast the shared machine runs at the time; client latency is
   reported as measured.  With ``--trace 1`` each round also serves a
   traced slice, in which every request asks for ``debug_timings`` and
   ``/metrics`` is diffed, and one pass at the end calls every layer on
   its own;
4. stops the server with SIGTERM and requires "drain complete", exit 0;
5. checks every answer against the library's scalar path
   (``checks.py``), store results against in-memory ones, and a seeded
   member sample against the scalar path.

It prints a table of every metric, then one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Stores and spans live in a temporary directory inside the checkout,
removed at exit.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import offline  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Measurement rounds per run; each round-level figure is a median.
ROUNDS = 5
#: ``/healthz/live`` round trips per run.
HEALTHZ_PROBES = 41
#: Sweeps of the fixed numpy loop the offline passes are set against.
CALIBRATION_SWEEPS = 10
#: Members of the seeded scalar-path sample.
SAMPLE_MEMBERS = 24

#: debug_timings stages, as spans under the server span.
STAGES = (
    ("cache_s", "serve.cache.lookup_ms"),
    ("coalesce_linger_s", "serve.coalesce.linger_ms"),
    ("queue_wait_s", "serve.resilience.queue_wait_ms"),
    ("kernel_s", "batch.kernel_ms"),
    ("render_s", "serve.protocol.render_ms"),
)


def _percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class Run:
    def __init__(self, args, root: Path, tmp: str) -> None:
        self.args = args
        self.src = str(root / "src")
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.table: dict = {}
        self.layers: dict = {}
        self.reference = checks.Reference()
        self.spans = spans.Spans()
        #: Per-round serving figures and per-pass offline figures.
        self.samples: dict = {}
        self.scrapes: list = []
        self.traced: list = []

    def count(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- set-up --------------------------------------------------------

    def set_up(self, workload):
        from repro.generate import random_ecs_stack

        times = []
        server = None
        for k in range(SETUPS):
            if server is not None:
                self.count(server.stop())
            t0 = time.perf_counter()
            server = serving.Server(self.src, self.tmp)
            try:
                server.wait_ready()
                if workload.name == "ensemble":
                    _, members, cells = inputs.ensemble_zeros(self.args.seed)
                    stack = random_ecs_stack(
                        inputs.ENSEMBLE_MEMBERS, *inputs.ENSEMBLE_SHAPE,
                        seed=workload.stack_seed,
                    )
                    workload.stacks = [
                        inputs.apply_zeros(stack, members, cells)
                    ]
                stores = offline.write_stores(
                    workload.stacks, os.path.join(self.tmp, f"setup{k}")
                )
            except BaseException:
                server.kill()
                raise
            times.append(time.perf_counter() - t0)
        self.table["setup_s"] = statistics.median(times)
        return server, stores

    # -- serving -------------------------------------------------------

    def serve_round(self, workload, server, cursor: int, seconds: float) -> int:
        """One untraced slice (and a traced one with ``--trace 1``);
        returns the index of the next unsent request."""
        plain_s = seconds / 2 if self.args.trace else seconds
        members = sum(len(s) for s in workload.stacks)

        def loop_us_per_member() -> float:
            loop_s = offline.scaling_loop_s(workload.stacks, CALIBRATION_SWEEPS)
            return loop_s * 1e6 / members

        before = loop_us_per_member()
        cpu0 = server.cpu_s()
        answers, wall = serving.closed_loop(
            server, workload.requests, cursor, workload.clients, plain_s
        )
        cpu_us = (server.cpu_s() - cpu0) * 1e6 / len(answers)
        after = loop_us_per_member()
        # Server CPU leaves out time the machine gave to other tenants;
        # setting it against the numpy loop run either side of it also
        # cancels how fast the machine was running at the time.
        self.sample("cpu_ms", cpu_us / 1e3)
        self.sample("serve_cpu_floor_ratio", cpu_us * 2 / (before + after))
        good = self._check(workload, answers)
        latencies = [a.seconds * 1e3 for a in answers if a.status == 200]
        self.sample("p50_ms", statistics.median(latencies))
        self.sample("p90_ms", _percentile(latencies, 90))
        self.sample("throughput_rps", sum(good) / wall)
        self.table["requests"] = self.table.get("requests", 0) + len(answers)
        cursor += len(answers)
        if self.args.trace:
            before = serving.scrape(server)
            traced, _ = serving.closed_loop(
                server, workload.requests, cursor, workload.clients,
                seconds - plain_s, debug=True,
            )
            self.scrapes.append((before, serving.scrape(server)))
            good = self._check(workload, traced)
            self.traced.extend(a for a, ok in zip(traced, good) if ok)
            self.sample(
                "traced_p50_ms",
                statistics.median(
                    a.seconds * 1e3 for a in traced if a.status == 200
                ),
            )
            cursor += len(traced)
        return cursor

    def _check(self, workload, answers) -> list:
        good = []
        for answer in answers:
            request = workload.requests[answer.index]
            ok = answer.status == 200 and self.reference.answer_ok(
                request.endpoint, request.matrix, answer.body
            )
            self.count(ok)
            good.append(ok)
        return good

    def request_layers(self) -> None:
        """Per-layer request metrics from the traced slices."""
        queue_waits = []
        for answer in self.traced:
            debug = json.loads(answer.body)["debug"]
            timings = debug["timings"]
            trace_id = answer.trace_id or debug["trace_id"]
            root = self.spans.add("serve.client", trace_id, answer.seconds)
            server = self.spans.add(
                "serve.server", trace_id, debug["total_s"], parent=root
            )
            for key, name in STAGES:
                if key in timings:
                    self.spans.add(name, trace_id, timings[key], parent=server)
            queue_waits.append(timings.get("queue_wait_s", 0.0) * 1e3)
        # Means, so that the layers add up to the client total.
        n = len(self.traced)
        selfs = self.spans.self_seconds()
        names = {
            "serve.client": "serve.server.transport_ms",
            "serve.server": "serve.server.other_ms",
            **{name: name for _, name in STAGES},
        }
        for span_name, metric in names.items():
            self.layers[metric] = sum(selfs.get(span_name, [])) * 1e3 / n
        self.layers["serve.client.total_ms"] = (
            sum(a.seconds for a in self.traced) * 1e3 / n
        )
        print(
            f"traced requests: {n}; their layers add up to "
            f"{sum(self.layers[m] for m in names.values()):.4f} ms of a "
            f"{self.layers['serve.client.total_ms']:.4f} ms client mean"
        )
        self.layers["serve.resilience.queue_wait_p50_ms"] = statistics.median(
            queue_waits
        )
        self.layers["serve.resilience.queue_wait_p90_ms"] = _percentile(
            queue_waits, 90
        )
        self.layers["trace.overhead_ms"] = statistics.median(
            self.samples["traced_p50_ms"]
        ) - statistics.median(self.samples["p50_ms"])

        def delta(name, label=""):
            return sum(
                serving.counter_delta(before, after, name, label)
                for before, after in self.scrapes
            )

        hits = delta("repro_serve_cache_events_total", 'event="hit-')
        misses = delta("repro_serve_cache_events_total", 'event="miss"')
        batches = delta("repro_serve_coalesce_batch_size_count")
        self.layers.update(
            {
                "serve.cache.hits": hits,
                "serve.cache.misses": misses,
                "serve.cache.lookups": hits + misses,
                "serve.cache.hit_ratio": hits / (hits + misses),
                "serve.cache.stores": delta(
                    "repro_serve_cache_events_total", 'event="store"'
                ),
                "serve.cache.inflight_joins": delta(
                    "repro_serve_request_seconds_count", 'source="inflight"'
                ),
                "serve.coalesce.batches": batches,
                "serve.coalesce.batch_size_mean": (
                    delta("repro_serve_coalesce_batch_size_sum") / batches
                ),
                "batch.kernel_invocations": delta(
                    "repro_serve_kernel_invocations_total"
                ),
                "serve.resilience.admitted": delta("repro_serve_admitted_total"),
                "serve.resilience.shed": delta("repro_serve_shed_total"),
            }
        )

    # -- offline -------------------------------------------------------

    def offline_round(
        self, stacks, stores, calibration, seconds: float
    ) -> list:
        """In-memory and store passes, at least one of each, for
        ``seconds``; returns the last in-memory results."""
        def one_core() -> float:
            return offline.scaling_loop_s(stacks, CALIBRATION_SWEEPS)

        stop_at = time.perf_counter() + seconds
        while True:
            # Each pass is set against the numpy loop run just before and
            # just after it on as many cores, which cancels the machine's
            # speed at that moment.
            before = one_core()
            inmem_s, in_results = offline.inmem_pass(stacks)
            after = one_core()
            self.sample("inmem_floor_ratio", inmem_s * 2 / (before + after))
            self.sample("inmem_s", inmem_s)

            before = calibration.all_cores_s()
            wall, cpu, store_results = offline.store_pass(stores)
            after = calibration.all_cores_s()
            self.sample("store_floor_ratio", wall * 2 / (before + after))
            self.sample("store_s", wall)
            self.sample("store_cpu_s", cpu)
            self.count(
                all(
                    checks.same_results(a, b)
                    for a, b in zip(in_results, store_results)
                )
            )
            if time.perf_counter() >= stop_at:
                return in_results

    def offline_checks(self, stacks, stores, in_results) -> None:
        rng = np.random.default_rng([self.args.seed, 5])
        for stack, result in zip(stacks, in_results):
            zero = np.flatnonzero(~(stack > 0).all(axis=(1, 2)))
            sample = rng.choice(len(stack), SAMPLE_MEMBERS, replace=False)
            indices = np.union1d(sample, zero)
            bad = self.reference.members_ok(stack, result, indices)
            self.count(bad == 0, len(indices))
        iterations = np.concatenate(
            [r.iterations[r.batched] for r in in_results]
        )
        self.layers["floor.numpy_us_per_member"] = offline.floor_us_per_member(
            stacks, int(np.ceil(iterations.mean()))
        )
        self.table["store_peak_mb"] = offline.store_peak_mb(
            stores, self.src, self.tmp
        )
        members = sum(len(s) for s in stacks)
        wall = statistics.median(self.samples["store_s"])
        self.layers["batch.ensemble.us_per_member"] = (
            statistics.median(self.samples["inmem_s"]) * 1e6 / members
        )
        self.layers["shard.engine.us_per_member"] = wall * 1e6 / members
        if self.args.trace:
            layers, layered = offline.layered_pass(stores, self.spans)
            self.count(
                all(
                    checks.same_results(a, b)
                    for a, b in zip(in_results, layered)
                )
            )
            explained = layers.pop("explained_us_per_member")
            cpu = statistics.median(self.samples["store_cpu_s"])
            layers["shard.engine.wall_s"] = wall
            layers["shard.engine.cpu_s"] = cpu
            layers["shard.engine.unattributed_us_per_member"] = (
                cpu * 1e6 / members - explained
            )
            print(
                f"store pass CPU: {cpu * 1e6 / members:.2f} us/member, "
                f"{explained:.2f} of it in the timed layers"
            )
            self.layers.update(layers)

    # -- whole run -----------------------------------------------------

    def run(self) -> int:
        args = self.args
        workload = inputs.build(args.workload, args.seed, args.seconds)
        server, stores = self.set_up(workload)
        share = inputs.SERVE_SHARE[workload.name]
        calibration = offline.Calibration(stores, CALIBRATION_SWEEPS)
        try:
            if workload.name == "ensemble":
                workload.requests = inputs.ensemble_requests(
                    args.seed, workload.stacks[0],
                    inputs.n_requests(workload.name, args.seconds),
                )
            healthz = [
                server.get("/healthz/live")[3] * 1e3
                for _ in range(HEALTHZ_PROBES)
            ]
            self.layers["serve.server.healthz_ms"] = statistics.median(healthz)
            cursor = 0
            for _ in range(ROUNDS):
                cursor = self.serve_round(
                    workload, server, cursor, args.seconds * share / ROUNDS
                )
                in_results = self.offline_round(
                    workload.stacks, stores, calibration,
                    args.seconds * (1 - share) / ROUNDS,
                )
        finally:
            self.count(server.stop())
        for name in ("serve_cpu_floor_ratio", "inmem_floor_ratio",
                     "store_floor_ratio"):
            self.table[name] = statistics.median(self.samples[name])
        for name in ("p50_ms", "p90_ms", "throughput_rps"):
            self.layers[name] = statistics.median(self.samples[name])
        self.layers["serve.server.cpu_ms_per_request"] = statistics.median(
            self.samples["cpu_ms"]
        )
        self.offline_checks(workload.stacks, stores, in_results)
        if args.trace:
            self.request_layers()
            written = self.spans.write(os.path.join(self.tmp, "spans.jsonl"))
            print(f"traced run: {written} spans kept, written at the end")
        return self.report()

    def report(self) -> int:
        self.table["failed_frac"] = self.failed / self.attempted
        print(
            f"workload {self.args.workload}, seed {self.args.seed}: "
            f"{self.table['requests']} requests, {ROUNDS} rounds"
        )
        rows = [(n, u, self.table[n], w) for n, u, _, w in metrics.END_TO_END]
        name, unit, _, why = metrics.FAILED_FRAC
        rows.append((name, unit, self.table[name], why))
        for name, unit, _, moves in metrics.PER_LAYER:
            if name in self.layers:
                rows.append((name, unit, self.layers[name], moves))
        for name, unit, value, note in rows:
            print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
        if self.args.trace:
            chosen = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
            values = self.layers
        else:
            chosen = [(n, u) for n, u, _, _ in metrics.END_TO_END]
            values = self.table
        correct = self.failed == 0
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        n: {"value": float(values[n]), "unit": u}
                        for n, u in chosen
                    },
                }
            )
        )
        return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: the library source (src/repro) is not in this "
            "checkout; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        return Run(args, root, tmp).run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
