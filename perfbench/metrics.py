"""The benchmark's metrics: units, direction, and what each should move.

``END_TO_END`` is what a user of the service or the library sees; the
result line of an untraced run carries all of them.  ``PER_LAYER`` comes
from the traced run; each entry names the end-to-end metric and the
workload it should move, so a performance claim can name its
prediction before any code is written.
"""

# name, unit, better, what it means
END_TO_END = (
    ("setup_s", "s", "lower",
     "server spawn until /healthz/ready, plus making and writing the "
     "offline stacks (median of several set-ups)"),
    ("serve_cpu_floor_ratio", "ratio", "lower",
     "server CPU time per answered request over the numpy loop's time "
     "per member, run just before and after it (median round)"),
    ("inmem_floor_ratio", "ratio", "lower",
     "characterize_ensemble wall time over a fixed 10-sweep numpy "
     "scaling loop on the same members, run beside it (median pass)"),
    ("store_floor_ratio", "ratio", "lower",
     "characterize_store wall time over the same loop split across as "
     "many processes as the store's pool, run beside it (median pass)"),
    ("store_peak_mb", "MiB", "lower",
     "peak resident memory of any one process of a store pass"),
)

# Printed on every run, not in the result line: it is 0 when nothing
# fails, and the result line carries `attempted` and `failed` already.
FAILED_FRAC = ("failed_frac", "1", "lower",
               "failed or incorrect operations over operations attempted")

# name, unit, better, should move (end-to-end metric on workload)
PER_LAYER = (
    ("p50_ms", "ms", "lower",
     "client-observed request latency, median of the rounds' medians; "
     "waits such as linger show here and not in serve_cpu_floor_ratio"),
    ("p90_ms", "ms", "lower",
     "client-observed request latency, median of the rounds' p90s"),
    ("throughput_rps", "1/s", "higher", "correct answers per second"),
    ("batch.ensemble.us_per_member", "us", "lower",
     "inmem_floor_ratio: the same pass in wall time, machine speed "
     "included"),
    ("shard.engine.us_per_member", "us", "lower",
     "store_floor_ratio: the same pass in wall time, machine speed "
     "included"),
    ("serve.client.total_ms", "ms", "lower",
     "mean client latency of the traced requests; the layers below "
     "add up to it"),
    ("serve.server.transport_ms", "ms", "lower",
     "p50_ms on serve_lone (accept, read, parse, write)"),
    ("serve.server.cpu_ms_per_request", "ms", "lower",
     "serve_cpu_floor_ratio: the same CPU time, machine speed included"),
    ("serve.server.healthz_ms", "ms", "lower",
     "floor of transport_ms and machine-speed probe; moves with the "
     "machine"),
    ("serve.server.other_ms", "ms", "lower",
     "throughput_rps on serve_mix (large standardize bodies)"),
    ("serve.coalesce.linger_ms", "ms", "lower",
     "p50_ms on serve_lone; must not cost throughput_rps on serve_mix"),
    ("serve.coalesce.batch_size_mean", "count", "higher",
     "throughput_rps on serve_mix"),
    ("serve.coalesce.batches", "count", "lower",
     "throughput_rps on serve_mix"),
    ("serve.resilience.queue_wait_ms", "ms", "lower",
     "p90_ms on serve_mix"),
    ("serve.resilience.queue_wait_p50_ms", "ms", "lower",
     "p90_ms on serve_mix"),
    ("serve.resilience.queue_wait_p90_ms", "ms", "lower",
     "p90_ms on serve_mix"),
    ("serve.resilience.admitted", "count", "higher",
     "p90_ms and failed_frac on serve_mix"),
    ("serve.resilience.shed", "count", "lower",
     "p90_ms and failed_frac on serve_mix"),
    ("serve.cache.lookup_ms", "ms", "lower",
     "p50_ms and throughput_rps on serve_mix; put cost on serve_lone"),
    ("serve.cache.lookups", "count", "higher",
     "base of serve.cache.hit_ratio"),
    ("serve.cache.hits", "count", "higher",
     "p50_ms and throughput_rps on serve_mix"),
    ("serve.cache.misses", "count", "lower",
     "p50_ms and throughput_rps on serve_mix"),
    ("serve.cache.stores", "count", "lower",
     "p50_ms on serve_lone (every lookup misses there)"),
    ("serve.cache.inflight_joins", "count", "higher",
     "throughput_rps on serve_mix"),
    ("serve.cache.hit_ratio", "ratio", "higher",
     "p50_ms and throughput_rps on serve_mix"),
    ("batch.kernel_ms", "ms", "lower",
     "p50_ms on serve_lone (N = 1 calls), throughput_rps on serve_mix"),
    ("batch.kernel_invocations", "count", "lower",
     "throughput_rps on serve_mix"),
    ("serve.protocol.render_ms", "ms", "lower",
     "throughput_rps on serve_mix (32x16 bodies)"),
    ("batch.sinkhorn.us_per_member", "us", "lower",
     "inmem_floor_ratio and store_floor_ratio on ensemble; "
     "barely p50_ms on serve_lone"),
    ("batch.sinkhorn.iterations", "count", "lower",
     "inmem_floor_ratio and store_floor_ratio on ensemble"),
    ("batch.measures.us_per_member", "us", "lower",
     "inmem_floor_ratio and store_floor_ratio on ensemble"),
    ("measures.fallback_members", "count", "lower",
     "inmem_floor_ratio and store_floor_ratio on ensemble"),
    ("measures.fallback_us_per_member", "us", "lower",
     "inmem_floor_ratio and store_floor_ratio on ensemble"),
    ("shard.store.read_us_per_member", "us", "lower",
     "store_floor_ratio on ensemble, nothing elsewhere"),
    ("shard.planner.shards", "count", "lower",
     "store_floor_ratio and store_peak_mb on ensemble"),
    ("shard.planner.estimated_peak_mb", "MiB", "lower",
     "store_peak_mb on ensemble"),
    ("shard.merge.ms", "ms", "lower",
     "store_floor_ratio on ensemble"),
    ("shard.engine.wall_s", "s", "lower",
     "store_floor_ratio on ensemble (set against cpu_s)"),
    ("shard.engine.cpu_s", "s", "lower",
     "store_floor_ratio on ensemble; wall up with CPU flat is waiting"),
    ("shard.engine.unattributed_us_per_member", "us", "lower",
     "store_floor_ratio on ensemble (pool, pickling, scheduling)"),
    ("floor.numpy_us_per_member", "us", "lower",
     "kernel floor and machine-speed probe; moves with the machine"),
    ("trace.overhead_ms", "ms", "lower",
     "traced minus untraced client p50: the cost of debug_timings"),
)
