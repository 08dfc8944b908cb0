"""Self-tests of the benchmark.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import os
import shutil
import sys

import pytest

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT, f"test-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_smoke_emits_every_declared_metric():
    assert run.smoke() == 0


def test_corrupted_reference_digest_fails_the_job(workdir):
    wl = workloads.make("full-n50k", run.ROOT)
    refs = run.load_references("full-n50k")
    corrupted = dict(refs, **{"0": dict(refs["0"], report_sha256="0" * 64)})
    good = run.JobRunner(wl, refs, workdir)
    bad = run.JobRunner(wl, corrupted, workdir)
    try:
        assert good.job(0)["ok"]
        rec = bad.job(0)
    finally:
        good.close()
        bad.close()
    assert not rec["ok"]
    assert any("report_sha256" in p for p in rec["problems"])


def test_path_csv_off_the_limit_path_fails_the_law_check(workdir):
    wl = workloads.make("limit-height", run.ROOT)
    inputs = wl.prepare(0, workdir)
    output = wl.run(inputs)
    assert wl.observe(inputs, output)[1] == []
    path = os.path.join(inputs["out"], "path3.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    t, value, height = lines[5].split(",")
    lines[5] = ",".join([t, repr(float(value) + 1e-9), height])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = wl.observe(inputs, output)[1]
    assert problems == ["path3.csv: value differs from simulate_z"]


def test_tail_leaves_ten_samples_above_it_but_stays_at_p90_or_higher():
    assert run.tail([float(k) for k in range(1, 201)]) == (190.0, 95.0, 10)
    assert run.tail([float(k) for k in range(1, 31)]) == (27.0, 90.0, 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_job_order_depends_only_on_the_seed():
    a = run.job_order(list(range(8)), 5)
    b = run.job_order(list(range(8)), 5)
    first = [next(a) for _ in range(16)]
    assert first == [next(b) for _ in range(16)]
    assert sorted(first[:8]) == list(range(8)) and first[8:] == first[:8]


def test_a_layer_no_workload_records_is_reported():
    calls = [{"a.s": 0, "b.s": 3, "c": 0}, {"a.s": 0, "b.s": 0, "c": 1}]
    assert run.uncalled(calls) == ["a.s"]
