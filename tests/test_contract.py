"""Pinned behaviour contract: report hashes, the limit excursion table, the
KS values of a small ``compare`` and the wedge counts of one ``clustering``
estimate.

Every pin was computed with numpy 2.4.6, scipy 1.17.1 and Python 3.11.7.
A change that moves a pin must edit the pin in the same diff and say in
CHANGES.md which pin moved and why.
"""

import hashlib
import json

import numpy as np
import pytest

from bicrit import harness
from bicrit.cli import main
from bicrit.graph_core import clustering_estimate
from bicrit.limit_sim import LimitParams
from bicrit.weights import (discrete_table, exponential, make_critical_pair,
                            point_mass, power_tail, spec_to_dict)


def _config(spec_b, spec_w, theta, n, replicates, features, seed=0, **limit):
    d = {"spec_b": spec_to_dict(spec_b), "spec_w": spec_to_dict(spec_w),
         "theta": theta, "n": n, "replicates": replicates, "seed": seed,
         "top_k": 2, "features": features, "workers": 1}
    if limit:
        d["limit"] = dict({"horizon": 10.0, "step": 1e-3, "epsilon": None},
                          **limit)
    return harness.ExperimentConfig.from_dict(d)


def _critical(spec_b, spec_w, theta, n, replicates, features, **kw):
    pair = make_critical_pair(spec_b, spec_w, theta, n)
    return _config(pair.spec_b, pair.spec_w, theta, n, replicates, features,
                   **kw)


DESK = (point_mass(1.0, "b"), point_mass(1.0, "w"), 1.0)

CONFIGS = {
    "desk-masses": lambda: _config(*DESK, 5000, 200, "masses"),
    "desk-full": lambda: _config(*DESK, 5000, 50, "full"),
    "power-tail-exponential-full": lambda: _critical(
        power_tail(1.5, 0.5, 1.0), exponential(1.0, "w"), 1.0, 3000, 20,
        "full"),
    # atoms 0.5 and 2.0 against whites of weight 1: every mass is a
    # multiple of 0.5, so the rankings meet exact ties
    "discrete-table-ties-full": lambda: _config(
        discrete_table([0.5, 2.0], [0.8, 0.2]), point_mass(1.0, "w"), 1.0,
        500, 50, "full"),
    "n1-full": lambda: _config(*DESK[:2], 1.0, 1, 50, "full"),
    "exponential-theta20-full": lambda: _critical(
        exponential(1.0), exponential(1.0, "w"), 20.0, 200, 20, "full"),
}

HASHES = {
    "desk-masses":
        "c4cce801573cc1390e573878a71eb39a50e4999532bdaa5633cfefca0b6d8417",
    "desk-full":
        "c33f1fa1485c09e62f0c7cf4d0a448022ebb8f532015d0f79cd59be46691f4bc",
    "power-tail-exponential-full":
        "ac92ed5103d516161c9ae827079a03cc41d7a64ca1a691c2d13fb0c6ed844347",
    "discrete-table-ties-full":
        "0a8cbefe704c4433df1abfa37c573b57338f96865f9bb972e02dbbace0a10df1",
    "n1-full":
        "b22cfdabcb4415a52b8ab5b7cebb98dc701310667c6167bf6c6cc4b90acd9f16",
    "exponential-theta20-full":
        "77f9cdfd4aea79b4e1db007e73ccfd1bd3959096f34264f504fe5475a0fe75ea",
}

#: sha256 of excursions.csv from ``bicrit limit`` with LIMIT_ARGV
LIMIT_ARGV = ["limit", "--regime", "2", "--alpha", "1.5", "--paths", "6",
              "--keep-paths", "0", "--seed", "7"]
EXCURSIONS_SHA256 = (
    "6db768d0ebb9c7c2bd3864c067e96e30c9e68aab4939878d5d8fa5fc0bd17e20")

#: ``bicrit compare`` on the desk pair at n = 200 against 60 Brownian paths
COMPARE_KS_Y = [0.15, 0.18333333333333332]
COMPARE_KS_X = [0.2, 0.21666666666666667]
COMPARE_EXIT = 1                # a KS distance exceeds 0.1

#: (wedges, closed, graphs) of the desk laws at n = m = 2000, 5000 trials,
#: seed 0; it holds the direct sampler's random stream
CLUSTERING_COUNTS = (5766, 2973, 3)


def _compare_config():
    return _config(*DESK, 200, 60, "masses", seed=5, paths=60)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_hash_is_pinned(name):
    report = harness.run_discrete(CONFIGS[name]())
    assert report.content_hash() == HASHES[name]


def test_limit_excursions_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "lim"
    assert main(LIMIT_ARGV + ["--out", str(out)]) == 0
    digest = hashlib.sha256((out / "excursions.csv").read_bytes()).hexdigest()
    assert digest == EXCURSIONS_SHA256


def test_compare_ks_values_are_pinned(tmp_path, capsys):
    cfg = _compare_config()
    report = harness.run_discrete(cfg)
    ensemble = harness.simulate_limit_ensemble(
        LimitParams.from_pair(cfg.pair()), cfg.limit.paths, cfg.limit.horizon,
        cfg.limit.step, cfg.top_k, np.random.SeedSequence([cfg.seed, 1]))
    result = harness.compare_with_limit(report, ensemble)
    assert result.ks_y == COMPARE_KS_Y
    assert result.ks_x == COMPARE_KS_X
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["compare", "--config", str(path)]) == COMPARE_EXIT


def test_clustering_counts_are_pinned():
    est = clustering_estimate(point_mass(1.0), point_mass(1.0), 2000, 2000,
                              trials=5000, seed=0)
    assert (est.wedges, est.closed, est.graphs) == CLUSTERING_COUNTS
