"""Peak memory of one store pass, measured in a fresh interpreter.

Usage: ``python3 store_peak.py BUDGET_MB JOBS STORE_DIR...`` with the
library on ``PYTHONPATH``.  Prints ``{"peak_mb": ...}``: the larger of
this process's peak resident set and that of its largest worker.
"""

import json
import resource
import sys

from repro.shard import characterize_store


def main(argv) -> None:
    budget_mb, jobs = float(argv[0]), int(argv[1])
    for path in argv[2:]:
        characterize_store(path, memory_budget_mb=budget_mb, n_jobs=jobs)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"peak_mb": peak_kib / 1024}))


if __name__ == "__main__":
    main(sys.argv[1:])
