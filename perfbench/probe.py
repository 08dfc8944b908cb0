"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py WORKLOAD JOB_SEED WORKDIR

Imports bicrit, generates and loads the first job's inputs and validates
its critical pair, then prints one JSON line with the import and
validation times.  The parent times the whole probe up to that line.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    name, job_seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import workloads                # bicrit, numpy and scipy
    from bicrit.weights import validate_critical_pair
    import_s = time.perf_counter() - t0
    wl = workloads.make(name, ROOT)
    pair = wl.load(wl.prepare(job_seed, workdir))
    validate_s = None
    if pair is not None:
        t1 = time.perf_counter()
        validate_critical_pair(pair)
        validate_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "validate_s": validate_s}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
