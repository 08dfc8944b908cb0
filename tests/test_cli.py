import json
import os
import subprocess
import sys

import pytest

import bicrit
from bicrit.cli import main
from bicrit.harness import ExperimentConfig
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


def test_cli_limit(tmp_path, capsys):
    rc = main(["limit", "--regime", "1", "--paths", "3", "--horizon", "2.0",
               "--step", "0.002", "--keep-paths", "1",
               "--out", str(tmp_path / "lim")])
    assert rc == 0
    assert (tmp_path / "lim" / "excursions.csv").exists()
    assert (tmp_path / "lim" / "path0.csv").exists()


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
    ("limit", None, ["--regime", "2", "--step", "0"], "--step in (0, horizon / 1000]"),
    ("limit", None, ["--regime", "1", "--paths", "-1"], "limit needs --paths"),
    ("limit", None, ["--regime", "2", "--epsilon", "0"], "--epsilon must be positive"),
    ("check", None, ["--instances", "-3"], "check needs --instances"),
    ("check", None, ["--instances", "0"], "check needs --instances"),
    ("check", None, ["--max-side", "0"], "--max-side of at least 1"),
])
def test_cli_invalid_input_exits_2_with_one_line(tmp_path, capsys, command,
                                                  config, extra, message):
    argv = [command] + extra
    if config is not None:
        argv += ["--config", _write(tmp_path, config), "--out", str(tmp_path / "o")]
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
