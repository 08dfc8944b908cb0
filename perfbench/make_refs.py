"""Regenerate perfbench/references.json from the current checkout.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

Runs every job of each workload's pool once, untraced, and stores what the
job's output check compares: digests, KS values, exit statuses and the
clustering estimate.  The references must come from a commit whose outputs
are trusted (the file in the repository was made from the seed commit);
regenerating them on a changed program would hide a changed output.
"""

import json
import os
import shutil
import sys

import run                          # sets the thread caps before numpy loads

POOL = {"full-n50k": 40, "masses-heavy": 16, "limit-height": 40,
        "graph-small": 160}


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads
    workdir = os.path.join(run.OUT, "make-refs")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = {"commit": run.git_commit(run.ROOT), "workloads": {}}
    try:
        for name, size in POOL.items():
            wl = workloads.make(name, run.ROOT)
            refs = {}
            for job_seed in range(size):
                inputs = wl.prepare(job_seed, workdir)
                output = wl.run(inputs)
                observed, problems = wl.observe(inputs, output)
                if problems:
                    print(f"{name} job {job_seed}: {problems}", file=sys.stderr)
                    return 1
                refs[str(job_seed)] = observed
            out["workloads"][name] = refs
            print(f"{name}: {size} jobs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "references.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
