"""Job-level benchmark of bicrit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One closed-loop client runs the workload's jobs one after another in this
process, with thread pools capped at 1.  The workload seed picks the order
of the jobs from the workload's reference pool (``references.json``, made
from the seed commit by ``make_refs.py``); every job's output is checked
against its reference.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
replays each job's calls into the layer functions with a span around each
and reports the per-layer metrics, including a scaling sweep.  Metric
names and units are those of BENCHMARK.json; the last line of standard
output is the JSON result.  A fuller result file with provenance, per-job
records, spans and counters is written under ``perfbench/out/``.

``--smoke`` runs one job per workload through both paths and checks that
every metric named in BENCHMARK.json is emitted with its unit, and that
every declared layer and counter is recorded by at least one workload.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:             # before numpy is first imported
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
SWEEP_REPEATS = 3
TAIL_BEYOND = 10                    # samples the tail percentile leaves above it


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_references(name: str) -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)["workloads"][name]


def job_order(pool: list[int], seed: int):
    """The workload seed's permutation of the reference pool, repeated."""
    order = random.Random(seed).sample(sorted(pool), len(pool))
    while True:
        yield from order


# ---------------------------------------------------------------------------
# set-up


def setup_probes(name: str, job_seed: int, count: int, workdir: str) -> list[dict]:
    """Time ``count`` fresh interpreters from start to the first job being
    ready: import, config generation and load, and pair validation."""
    probes = []
    for k in range(count):
        probe_dir = os.path.join(workdir, f"probe{k}")
        os.makedirs(probe_dir)
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "probe.py"), name,
                 str(job_seed), probe_dir],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if status != 0 or not line:
            raise BenchError(f"set-up probe exited with status {status}")
        probes.append(dict(json.loads(line), wall_s=wall))
    return probes


# ---------------------------------------------------------------------------
# jobs


class JobRunner:
    """Runs and checks the jobs of one workload in a closed loop.

    Each job writes into a new, empty directory.  Truncating an existing
    file that holds data costs a synchronous block discard on a filesystem
    mounted with ``discard``, which would time the disk rather than the
    program.  Deleting the directory after the check costs the same (about
    1.3 s per ``limit-height`` job, longer than the job), so that goes to a
    thread of its own, which mostly waits on the disk while the next job
    computes.  The README records the measurement behind this choice."""

    def __init__(self, wl, refs: dict, workdir: str):
        self.wl = wl
        self.refs = refs
        self.workdir = workdir
        self._cleaner = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        self._removals: list[concurrent.futures.Future] = []

    def close(self) -> None:
        """Wait for every removal and raise the first error among them."""
        self._cleaner.shutdown(wait=True)
        for f in self._removals:
            f.result()

    def job(self, job_seed: int, tracer=None) -> dict:
        """Prepare, run and check one job.  Only the call itself is timed."""
        wl = self.wl
        jobdir = tempfile.mkdtemp(prefix="job-", dir=self.workdir)
        inputs = wl.prepare(job_seed, jobdir)
        rec = {"job_seed": job_seed, "generated": inputs["generated"],
               "traced": tracer is not None}
        t0 = time.perf_counter()
        try:
            output = wl.run(inputs) if tracer is None else wl.traced(inputs, tracer)
            rec["seconds"] = time.perf_counter() - t0
            rec["observed"], problems = wl.observe(inputs, output)
            problems += wl.compare(rec["observed"], self.refs[str(job_seed)])
        except Exception:            # a failed job is recorded, not fatal
            rec.setdefault("seconds", time.perf_counter() - t0)
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            self._removals.append(self._cleaner.submit(shutil.rmtree, jobdir))
        rec["ok"] = not problems
        rec["problems"] = problems
        return rec

    def loop(self, seeds, seconds: float) -> list[dict]:
        """The next job starts when the previous one has been checked,
        until ``seconds`` of job time and at least one job are done."""
        jobs: list[dict] = []
        busy = 0.0
        while busy < seconds or not jobs:
            rec = self.job(next(seeds))
            jobs.append(rec)
            busy += rec["seconds"]
        return jobs


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least TAIL_BEYOND
    samples above it, but never below the 90th (nearest rank), with that
    percentile and the count of samples above it.  The floor keeps the
    figure a tail when a run has few jobs: below 100 jobs it is the 90th
    percentile with fewer than TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    rank = max(len(xs) - TAIL_BEYOND, math.ceil(0.9 * len(xs)))
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


# ---------------------------------------------------------------------------
# provenance


def git_commit(root: str) -> str | None:
    """The checkout's commit, or None when the checkout is no git
    repository (git is not asked, so it does not look above the root)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(name: str, seed: int, jobs: list[dict]) -> dict:
    import bicrit
    import numpy
    import scipy
    return {
        "package_version": bicrit.__version__,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": name,
        "workload_seed": seed,
        "generated_configs": [{"job_seed": j["job_seed"],
                               "config": j["generated"]} for j in jobs],
    }


# ---------------------------------------------------------------------------
# one run


def untraced_run(runner, order, seconds, warmup, probes) -> tuple:
    jobs = runner.loop(order, 0.0) if warmup else []
    measured = runner.loop(order, seconds)
    lat = [j["seconds"] for j in measured]
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"job_tail_percentile": tail_pct, "job_tail_samples_beyond": beyond,
              "measured_jobs": len(lat)}
    return metrics, detail, jobs + measured, {}


#: counters reported as the median over the records made, with their units
COUNTERS = {
    "lifo.explore.steps": "count",
    "lifo.peak_queue": "count",
    "lifo.explore.candidate_entries": "count",
    "encoding.kappa": "count",
    "harness.surplus_atoms": "count",
    "harness.surplus_edges": "count",
    "harness.surplus_edge_ratio": "1",
    "harness.run_report.partial": "count",
    "limit_sim.kept_jumps": "count",
    "limit_sim.truncation": "1",
    "limit_sim.thinning_accept_ratio": "1",
    "limit_sim.height_points": "count",
    "limit_sim.height_warnings": "count",
    "graph_core.dense_cells": "count",
    "graph_core.edges": "count",
    "graph_core.edge_yield": "1",
    "graph_core.wedges": "count",
    "checks.violations": "count",
}


def traced_run(runner, order, seconds, warmup, probes, sweep_seed,
               sweep_repeats) -> tuple:
    """Each job runs untraced and then at once traced, until ``seconds``
    of untraced job time are done; then the scaling sweep runs.  Coverage
    is the median over the pairs of the traced job's layer span time
    (``LAYER_SPANS``) over the untraced job's latency; overhead is the
    median over the pairs of the traced job's CLI-equivalent span time
    (``CLI_SPANS``) over that latency, minus 1.  Running each pair back to
    back exposes both halves to the same load from other processes, and
    taking the ratio per pair keeps jobs of different sizes apart."""
    import workloads
    from sweep import scaling_sweep
    from tracer import Tracer
    tracer = Tracer()
    for p in probes:
        tracer.add_time("setup.import", p["import_s"])
        if p["validate_s"] is not None:
            tracer.add_time("weights.validate_critical_pair", p["validate_s"])
    jobs = runner.loop(order, 0.0) if warmup else []
    untraced, traced = [], []
    busy = 0.0
    while busy < seconds or not traced:
        seed = next(order)
        untraced.append(runner.job(seed))
        tracer.job = len(traced)
        traced.append(runner.job(seed, tracer))
        busy += untraced[-1]["seconds"]
    base = [j["seconds"] for j in untraced]
    coverage = [tracer.span_total(runner.wl.LAYER_SPANS, job=k) / base[k]
                for k in range(len(traced))]
    overhead = [tracer.span_total(runner.wl.CLI_SPANS, job=k) / base[k] - 1.0
                for k in range(len(traced))]
    sweep = scaling_sweep(workloads.FullN50k(ROOT), sweep_seed, sweep_repeats)

    metrics, calls = {}, {}
    for m in load_benchmark()["per_layer"]:
        name = m["name"]
        if name.endswith(".s"):
            value, calls[name] = tracer.median_time(name[:-len(".s")])
            metrics[name] = (value, "s")
        elif name.endswith(".exponent"):
            metrics[name] = (sweep["exponents"][name[:-len(".exponent")]], "1")
    for name, unit in COUNTERS.items():
        value, calls[name] = tracer.median_count(name)
        metrics[name] = (value, unit)
    metrics["trace.coverage"] = (statistics.median(coverage), "1")
    metrics["trace.overhead_frac"] = (statistics.median(overhead), "1")
    detail = {"untraced_job_p50_s": statistics.median(base),
              "coverage_per_job": coverage,
              "calls": calls, "sweep": sweep["table"]}
    return metrics, detail, jobs + untraced + traced, {
        "spans": tracer.spans, "counters": tracer.counters}


def check_metrics(metrics: dict, trace: int) -> None:
    """The emitted metrics must be exactly those BENCHMARK.json declares
    for the mode, with the declared units."""
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, undeclared {extra}, unit mismatch {units}")


def run(name: str, seed: int, seconds: float, trace: int, probes_n: int,
        warmup: bool, sweep_repeats: int) -> tuple[dict, dict]:
    """One benchmark run; returns the result line's object and the detail
    written beside it."""
    if name not in [w["name"] for w in load_benchmark()["workloads"]]:
        raise BenchError(f"unknown workload {name!r}")
    refs = load_references(name)
    pool = [int(k) for k in refs]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        order = job_order(pool, seed)
        probes = setup_probes(name, next(job_order(pool, seed)), probes_n,
                              workdir)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import workloads
        runner = JobRunner(workloads.make(name, ROOT), refs, workdir)
        try:
            if trace:
                metrics, detail, jobs, trace_data = traced_run(
                    runner, order, seconds, warmup, probes, seed,
                    sweep_repeats)
            else:
                metrics, detail, jobs, trace_data = untraced_run(
                    runner, order, seconds, warmup, probes)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_metrics(metrics, trace)
    failed = sum(not j["ok"] for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    detail["jobs_failed_frac"] = failed / len(jobs)
    record = dict(result, detail=detail, probes=probes,
                  provenance=provenance(name, seed, jobs),
                  jobs=jobs, **trace_data)
    path = os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, detail


def uncalled(calls_per_workload: list[dict]) -> list[str]:
    """The layers and counters that no workload recorded even once."""
    names = set().union(*calls_per_workload)
    return sorted(n for n in names
                  if not any(calls.get(n) for calls in calls_per_workload))


def smoke() -> int:
    """One job per workload through the untraced and the traced path;
    ``check_metrics`` fails the run if a metric or unit is missing, and a
    declared layer or counter that no workload records fails the smoke, as
    it would read 0 everywhere."""
    bad = 0
    calls = []
    for w in load_benchmark()["workloads"]:
        for trace in (0, 1):
            res, detail = run(w["name"], 0, 0.0, trace, probes_n=1,
                              warmup=False, sweep_repeats=1)
            ok = res["correct"] and res["attempted"] >= 1
            bad += not ok
            if trace:
                calls.append(detail["calls"])
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace} "
                  f"metrics={len(res['metrics'])} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
    never = uncalled(calls)
    if never:
        bad += 1
        print(f"FAIL never recorded: {', '.join(never)}", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        result, _detail = run(args.workload, args.seed, args.seconds,
                              args.trace, SETUP_PROBES, warmup=True,
                              sweep_repeats=SWEEP_REPEATS)
    except (BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
