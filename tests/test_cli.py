import json
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bicrit
from bicrit import checks, encoding
from bicrit.cli import main
from bicrit.harness import ExperimentConfig
from bicrit.limit_sim import LimitParams, height_from_z, simulate_z
from bicrit.weights import point_mass


@pytest.fixture()
def config_file(tmp_path):
    cfg = ExperimentConfig(spec_b=point_mass(1.0), spec_w=point_mass(1.0),
                           theta=1.0, n=100, replicates=20, seed=1,
                           top_k=2, features="masses")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def test_cli_simulate(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--config", config_file, "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert "hash=" in capsys.readouterr().out


def test_cli_check(capsys):
    rc = main(["check", "--instances", "5", "--seed", "4", "--max-side", "15"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS load-composition" in text


def test_cli_check_failure_prints_a_replayable_call(monkeypatch, capsys):
    """The first failing instance of a forced failure (the height oracle
    made off by one on paths with an odd number of jumps) is rerun from
    the seed and max_side that ``check`` prints, with the same failures."""
    real = encoding.literal_height
    monkeypatch.setattr(encoding, "literal_height",
                        lambda z, t: real(z, t) + len(z.jump_times) % 2)
    assert main(["check", "--instances", "6", "--seed", "2",
                 "--max-side", "9"]) == 1
    text = capsys.readouterr().out
    first = re.search(r"first failing instance: seed=(\d+) n=(\d+) m=(\d+) "
                      r"max_side=(\d+)", text)
    call = re.search(r"checks\.check_instance\((\d+), max_side=(\d+)\)", text)
    seed, n, m, side = (int(v) for v in first.groups())
    assert (seed, side) == tuple(int(v) for v in call.groups())
    printed = re.findall(r"^  failed ([\w-]+)", text, re.M)
    res = checks.check_instance(seed, max_side=side)
    assert (res.n, res.m) == (n, m)
    assert printed == [o.name for o in res.outcomes if not o.ok]
    assert printed == ["height-stack-vs-literal"]


def test_cli_limit(tmp_path, capsys):
    rc = main(["limit", "--regime", "1", "--paths", "3", "--horizon", "2.0",
               "--step", "0.002", "--keep-paths", "1",
               "--out", str(tmp_path / "lim")])
    assert rc == 0
    assert (tmp_path / "lim" / "excursions.csv").exists()
    assert (tmp_path / "lim" / "path0.csv").exists()


def test_cli_limit_writes_the_height_at_each_row_time(tmp_path, capsys):
    """A kept path of 10,001 grid points is written every 5th row; each row's
    height is the estimate at that row's own grid point."""
    out = tmp_path / "lim"
    assert main(["limit", "--regime", "2", "--paths", "2", "--horizon", "1.0",
                 "--step", "1e-4", "--keep-paths", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    params = LimitParams(regime=2, theta=1.0, alpha=1.5, c_b=1.0)
    for i, child in enumerate(np.random.SeedSequence(3).spawn(2)):
        path = simulate_z(params, 1.0, 1e-4, child)
        height = height_from_z(path, params).values
        table = np.loadtxt(out / f"path{i}.csv", delimiter=",", skiprows=1)
        rows = np.arange(0, len(path.times), 5)
        assert np.array_equal(table[:, 0], path.times[rows])
        assert np.array_equal(table[:, 2], height[rows])


def test_cli_clustering(capsys):
    rc = main(["clustering", "--n", "40", "--trials", "300", "--seed", "2"])
    assert rc == 0
    assert "CL=" in capsys.readouterr().out


def test_cli_compare_small(config_file, capsys):
    rc = main(["compare", "--config", config_file, "--replicates", "60",
               "--threshold", "0.5"])
    out = capsys.readouterr().out
    assert "KS(y-mass)" in out
    assert rc == 0


def _write(tmp_path, d):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    return str(path)


GRID_RULE = "limit needs a finite horizon > 0 and step in (0, horizon / 1000]"


def _desk(**changes):
    cfg = ExperimentConfig(spec_b=point_mass(1.0), spec_w=point_mass(1.0),
                           theta=1.0, n=100, replicates=5, seed=1,
                           features="masses")
    return dict(cfg.to_dict(), **changes)


@pytest.mark.parametrize("command, config, extra, message", [
    ("simulate", _desk(workerz=2), [], "unknown config keys: workerz"),
    ("simulate", _desk(features="ful"), [], "features must be one of"),
    ("simulate", _desk(n=0), [], "n must be an integer >= 1"),
    ("simulate", _desk(), ["--replicates", "0"], "replicates must be an integer >= 1"),
    ("compare", _desk(top_k=0), [], "top_k must be an integer >= 1"),
    ("simulate", _desk(workers=0), [], "workers must be an integer >= 1"),
    ("simulate", _desk(theta=-1.0), [], "need theta > 0"),
    ("simulate", _desk(spec_b={"kind": "point-mass", "value": 2.0}), [],
     "second-moment product"),
    ("clustering", None, ["--n", "2"], "clustering needs --n of at least 3"),
    ("simulate", _desk(spec_b={"kind": "point-mass", "valu": 1.0}), [],
     "point-mass spec: unknown key 'valu', missing key 'value'"),
    ("simulate", _desk(spec_w={"value": 1.0}), [], "weight spec needs a 'kind' key"),
    ("simulate", None, ["--config", "no-such-config.json"],
     "cannot read config no-such-config.json"),
    ("limit", None, ["--regime", "2", "--alpha", "2.5"],
     "stable regimes need alpha in (1, 2)"),
    ("limit", None, ["--regime", "3"], "regime 3 needs both tail constants"),
    ("limit", None, ["--regime", "1", "--theta", "0"], "theta must be positive"),
    ("limit", None, ["--regime", "2", "--step", "0"], GRID_RULE),
    ("limit", None, ["--regime", "1", "--paths", "-1"], "limit needs --paths"),
    ("limit", None, ["--regime", "2", "--epsilon", "0"], "--epsilon must be positive"),
    ("check", None, ["--instances", "-3"], "check needs --instances"),
    ("check", None, ["--instances", "0"], "check needs --instances"),
    ("check", None, ["--max-side", "0"], "--max-side of at least 1"),
    ("compare", _desk(limit={"horizon": 10.0, "step": 0.5, "paths": 10}), [],
     GRID_RULE + ", got horizon=10.0 and step=0.5"),
    ("simulate", _desk(limit={"horizon": -1.0, "step": 1e-3, "paths": 10}), [],
     GRID_RULE),
    ("limit", None, ["--regime", "1", "--horizon", "-1"], GRID_RULE),
    ("limit", None, ["--regime", "1", "--horizon", "inf"], GRID_RULE),
])
def test_cli_invalid_input_exits_2_with_one_line(tmp_path, capsys, command,
                                                  config, extra, message):
    argv = [command] + extra
    if config is not None:
        argv += ["--config", _write(tmp_path, config)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bicrit: error: ")
    assert message in lines[0]


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not JSON"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_cli_unreadable_config_exits_2_with_one_line(tmp_path, capsys, text,
                                                     message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["simulate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bicrit: error: ")
    assert message in lines[0]


def test_cli_leaves_scipy_unloaded(tmp_path):
    """SciPy serves only the quadrature, limit-rate and Levy-stable paths;
    importing the CLI, a full-feature simulate and check never load it."""
    script = f"""
import json, sys
from bicrit.cli import main
from bicrit.harness import ExperimentConfig
from bicrit.weights import point_mass

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {{"import": scipy_modules()}}
cfg = ExperimentConfig(spec_b=point_mass(1.0), spec_w=point_mass(1.0),
                       theta=1.0, n=60, replicates=2, features="full")
with open({str(tmp_path / "c.json")!r}, "w") as fh:
    json.dump(cfg.to_dict(), fh)
assert main(["simulate", "--config", fh.name, "--out", {str(tmp_path / "o")!r}]) == 0
loaded["simulate"] = scipy_modules()
assert main(["check", "--instances", "2"]) == 0
loaded["check"] = scipy_modules()
print(json.dumps(loaded))
"""
    src = os.path.dirname(os.path.dirname(bicrit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "simulate": [], "check": []}


def test_cli_limit_warns_once_on_small_epsilon(tmp_path, capsys):
    argv = ["limit", "--regime", "2", "--paths", "3", "--horizon", "1.0",
            "--step", "0.001", "--keep-paths", "2", "--epsilon", "1e-6"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {tmp_path / 'a' / 'excursions.csv'}\n"
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("bicrit: warning: occupation epsilon")
    assert lines[0].endswith("(2 of 2 kept paths)")
    argv[-1] = "1.0"
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "a" / "excursions.csv").read_bytes()
            == (tmp_path / "b" / "excursions.csv").read_bytes())


def test_cli_simulate_warns_on_partial_run(config_file, tmp_path, capsys,
                                           monkeypatch):
    from bicrit import harness
    whole = tmp_path / "whole"
    assert main(["simulate", "--config", config_file, "--out", str(whole)]) == 0
    assert capsys.readouterr().err == ""
    calls = []
    real = harness._one_replicate

    def capped(job):
        calls.append(job)
        if len(calls) > 5:
            raise MemoryError
        return real(job)

    monkeypatch.setattr(harness, "_one_replicate", capped)
    cut = tmp_path / "cut"
    assert main(["simulate", "--config", config_file, "--out", str(cut)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("bicrit: warning: out of memory; the report holds "
                            "5 of 20 replicates\n")
    assert "hash=" in captured.out
    assert '"partial": true' in (cut / "report.json").read_text()


def test_cli_simulate_hash_ignores_out(config_file, tmp_path, capsys):
    hashes = []
    for name in ("a", "b"):
        argv = ["simulate", "--config", config_file, "--replicates", "3",
                "--out", str(tmp_path / name)]
        assert main(argv) == 0
        hashes.append(re.search(r"hash=(\w+)", capsys.readouterr().out)[1])
    assert hashes[0] == hashes[1]
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched replicate only when forked")
def test_cli_simulate_partial_run_with_workers(tmp_path, capfd, monkeypatch):
    from bicrit import harness
    config = _write(tmp_path, _desk(replicates=40, workers=2))
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "whole")]) == 0
    capfd.readouterr()
    whole = json.loads((tmp_path / "whole" / "report.json").read_text())
    bad_seed = whole["replicates"][20]["seed"]
    real = harness._masses_only_replicate

    def capped(pair, top_k, seed):
        if seed == bad_seed:
            raise MemoryError
        return real(pair, top_k, seed)

    monkeypatch.setattr(harness, "_masses_only_replicate", capped)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "cut")]) == 0
    captured = capfd.readouterr()
    cut = json.loads((tmp_path / "cut" / "report.json").read_text())
    assert cut["partial"] is True
    assert 0 < len(cut["replicates"]) <= 20
    assert cut["replicates"] == whole["replicates"][:len(cut["replicates"])]
    assert captured.err == (f"bicrit: warning: out of memory; the report holds "
                            f"{len(cut['replicates'])} of 40 replicates\n")


@pytest.mark.parametrize("config, message", [
    (_desk(theta="1"), "theta must be a finite number, got '1'"),
    (_desk(theta=True), "theta must be a finite number, got True"),
    (_desk(theta=float("nan")), "theta must be a finite number, got nan"),
    (_desk(spec_b={"kind": "point-mass", "value": "1"}),
     "point-mass spec: each of value must be a finite number"),
    (_desk(spec_w={"kind": "exponential", "rate": True}),
     "exponential spec: each of rate must be a finite number"),
    (_desk(spec_w={"kind": "exponential", "rate": float("inf")}),
     "exponential spec: each of rate must be a finite number"),
    (_desk(seed="a"), "seed must be an integer >= 0, got 'a'"),
    (_desk(seed=True), "seed must be an integer >= 0, got True"),
    (_desk(spec_b={"kind": "discrete-table", "values": [0.5, 2.0],
                   "probs": [1.0]}),
     "values and probs must be nonempty lists of finite numbers of equal length"),
    (_desk(spec_b={"kind": "discrete-table", "values": [], "probs": []}),
     "values and probs must be nonempty lists of finite numbers of equal length"),
    (_desk(limit={"horizon": "10", "step": 0.001, "paths": 10}),
     "limit.horizon must be a finite number, got '10'"),
    (_desk(limit={"horizon": True, "step": 0.001, "paths": 10}),
     "limit.horizon must be a finite number, got True"),
])
def test_cli_config_value_of_wrong_type_exits_2_with_one_line(
        tmp_path, capsys, config, message):
    argv = ["simulate", "--config", _write(tmp_path, config),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bicrit: error: ")
    assert message in lines[0]


def test_cli_closed_stdout_exits_1_without_traceback(config_file, tmp_path):
    """The reader of stdout is gone before the child writes its summary."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(bicrit.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bicrit.cli", "simulate", "--config",
             config_file, "--replicates", "5", "--out", str(tmp_path / "o")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""
