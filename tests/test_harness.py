import json
import math

import numpy as np
import pytest
from scipy import stats

from bicrit import encoding, harness, lifo
from bicrit import limit_sim as ls
from bicrit.weights import exponential, point_mass


def small_config(**kw):
    base = dict(spec_b=point_mass(1.0), spec_w=point_mass(1.0), theta=1.0,
                n=200, replicates=40, seed=3, top_k=2, features="full")
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_run_discrete_deterministic():
    a = harness.run_discrete(small_config())
    b = harness.run_discrete(small_config())
    assert a.canonical_json() == b.canonical_json()
    assert a.content_hash() == b.content_hash()


def test_masses_only_matches_full_on_masses():
    full = harness.run_discrete(small_config())
    fast = harness.run_discrete(small_config(features="masses"))
    for ra, rb in zip(full.replicates, fast.replicates):
        assert ra.kappa == rb.kappa
        assert ra.y_ranked_masses == pytest.approx(rb.y_ranked_masses)
        for ca, cb in zip(ra.top_by_x, rb.top_by_x):
            assert ca.x_mass == pytest.approx(cb.x_mass)
            assert ca.y_mass == pytest.approx(cb.y_mass)
            assert ca.y_rank == cb.y_rank


def test_kappa_zero_flagging():
    # a single black/white pair misses its edge with probability 1/e
    cfg = small_config(n=1, replicates=20, features="masses")
    report = harness.run_discrete(cfg)
    assert report.kappa_zero_count > 0
    for rep in report.replicates:
        if rep.kappa == 0:
            assert rep.top_by_x == [] and rep.y_ranked_masses == []


def test_report_round_trip_and_emit(tmp_path):
    report = harness.run_discrete(small_config(replicates=5))
    again = harness.RunReport.from_dict(json.loads(report.canonical_json()))
    assert again.canonical_json() == report.canonical_json()
    written = harness.emit(report, str(tmp_path))
    assert (tmp_path / "report.json").exists()
    rows = (tmp_path / "components.csv").read_text().strip().splitlines()
    assert rows[0].startswith("replicate,seed,kappa")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["hash"] == report.content_hash()


def test_emit_empty_report(tmp_path):
    cfg = small_config(replicates=0)
    report = harness.run_discrete(cfg)
    harness.emit(report, str(tmp_path))
    rows = (tmp_path / "components.csv").read_text().strip().splitlines()
    assert len(rows) == 1           # header only


def test_poissonized_surplus_empty_when_load_zero():
    # whites arrive too late: queue never fills
    x, y = np.ones(3), np.ones(2)
    clocks = lifo.ClockSet(np.array([0.2, 0.5, 0.9]), np.array([90.0, 95.0]))
    rec = lifo.explore(x, y, math.sqrt(6.0), clocks)
    sigma = encoding.sigma_transfer(rec)
    marks, edges = harness.poissonized_surplus(rec, sigma, seed=0)
    assert len(marks.pairs) == 0 and edges == []


def test_poissonized_surplus_hand_fixture():
    # one component: root b0 with white w0 (service 5); b1 interrupts at
    # +1 bringing w1 (service 3); atoms under the first strip map to b0
    x = np.array([1.0, 1.0])
    y = np.array([5.0, 3.0])
    z = 10.0
    eb = np.array([0.1, 1.1])
    ew = np.array([0.5, 1.6])       # w0 in I(b0) = (0,1],  w1 in I(b1) = (1,2]
    rec = lifo.explore(x, y, z, lifo.ClockSet(eb, ew))
    sigma = encoding.sigma_transfer(rec)
    rng = np.random.default_rng(0)
    seen_pairs = set()
    below_plateau_targets = set()
    for s in range(300):
        marks, edges = harness.poissonized_surplus(rec, sigma, rng)
        seen_pairs.update(edges)
        for (t, t_prev), (_s, yy) in zip(marks.pairs, marks.atoms):
            if yy < 4.0 and t > 1.1:
                below_plateau_targets.add(round(t_prev, 12))
    # the only possible cross pair joins b1 to w0's parent b0, and the
    # matched time is b0's arrival (its serving start)
    assert seen_pairs <= {(1, 0)}
    assert (1, 0) in seen_pairs
    assert below_plateau_targets == {0.1}


def test_point_atom_of_childless_black_mid_excursion():
    # b0 roots at 0.1 with w0 (service 2); b1 interrupts at 0.6 bringing w1
    # (service 3); childless b2 interrupts w1 at 1.1 with the load at 4.  A
    # point atom at level y pairs b2 with the client that arrived when the
    # load last sat at or below y: b1 at 0.6 (load 1.5) or b0 at 0.1
    x = np.array([1.0, 1.0, 3.0])
    y = np.array([2.0, 3.0])
    rec = lifo.explore(x, y, 4.0, lifo.ClockSet(np.array([0.1, 0.6, 1.1]),
                                                 np.array([0.5, 1.5])))
    assert rec.point_black.tolist() == [2] and rec.point_load.tolist() == [4.0]
    sigma = encoding.sigma_transfer(rec)
    lo, hi = sigma.left_value(1.1), float(sigma.value(1.1))
    seen = set()
    for seed in range(100):
        marks, edges = harness.poissonized_surplus(rec, sigma, seed)
        for (t, t_prev), (s, level) in zip(marks.pairs, marks.atoms):
            if t == 1.1 and lo <= s <= hi:
                expect = (0.6, (2, 1)) if level >= 1.5 - 1e-12 else (0.1, (2, 0))
                assert t_prev == expect[0]
                assert expect[1] in edges
                seen.add(expect[1])
    assert seen == {(2, 0), (2, 1)}


def test_two_surplus_samplers_agree_chisquare():
    x = np.full(4, 1.2)
    y = np.full(4, 1.1)
    z = 4.0
    runs = 4000
    rng_a = np.random.default_rng(1)
    rng_b = np.random.default_rng(2)
    counts_a = np.zeros(8, dtype=int)
    counts_b = np.zeros(8, dtype=int)
    for _ in range(runs):
        clocks = lifo.sample_clocks(x, y, z, rng_a)
        rec = lifo.explore(x, y, z, clocks)
        proj = lifo.project_surplus(rec, lifo.sample_surplus_direct(rec, z, rng_a))
        counts_a[min(len(proj), 7)] += 1
        clocks = lifo.ClockSet(*[c for c in
                                 (lifo.sample_clocks(x, y, z, rng_b).black,
                                  lifo.sample_clocks(x, y, z, rng_b).white)])
        rec = lifo.explore(x, y, z, clocks)
        sigma = encoding.sigma_transfer(rec)
        _, edges = harness.poissonized_surplus(rec, sigma, rng_b)
        counts_b[min(len(set(edges)), 7)] += 1
    keep = (counts_a + counts_b) >= 10
    res = stats.chi2_contingency(np.vstack([counts_a[keep], counts_b[keep]]))
    assert res.pvalue > 0.01


def test_limit_ensemble_and_comparison_self_consistency():
    params = ls.LimitParams(regime=1, theta=1.0)
    ens_a = harness.simulate_limit_ensemble(params, 400, 6.0, 3e-3, 2, seed=1)
    ens_b = harness.simulate_limit_ensemble(params, 400, 6.0, 3e-3, 2, seed=2)
    for k in range(2):
        d = stats.ks_2samp(ens_a.lengths[:, k], ens_b.lengths[:, k]).statistic
        assert d <= 0.1


def test_compare_with_limit_and_negative_control():
    cfg = harness.ExperimentConfig(
        spec_b=point_mass(1.0), spec_w=point_mass(1.0), theta=1.0, n=1000,
        replicates=300, seed=5, top_k=2, features="masses")
    report = harness.run_discrete(cfg)
    params = ls.LimitParams.from_pair(cfg.pair())
    ens = harness.simulate_limit_ensemble(params, 300, 8.0, 4e-3, 2, seed=6)
    res = harness.compare_with_limit(report, ens, threshold=0.15)
    assert res.passed, res.ks_y
    neg = harness.compare_with_limit(report, ens, mass_exponent=0.5)
    assert all(v > 0.2 for v in neg.ks_y)


def test_ranking_consistency_degenerate():
    cfg = small_config(replicates=1, features="masses")
    report = harness.run_discrete(cfg)
    rep = harness.ranking_consistency(report, 1)
    assert rep.agreement_frequency in (0.0, 1.0)


def test_ranking_consistency_ratio_near_rho():
    cfg = harness.ExperimentConfig(
        spec_b=point_mass(1.0), spec_w=point_mass(1.0), theta=1.0, n=1000,
        replicates=300, seed=8, top_k=1, features="masses")
    report = harness.run_discrete(cfg)
    rep = harness.ranking_consistency(report, 1)
    assert rep.agreement_frequency >= 0.8
    assert abs(rep.ratio_mean - 1.0) <= 0.1


def test_config_round_trip():
    cfg = small_config(spec_b=exponential(1.0),
                       spec_w=point_mass(1.0 / math.sqrt(2.0)))
    again = harness.ExperimentConfig.from_dict(
        json.loads(json.dumps(cfg.to_dict())))
    assert again.pair().z == pytest.approx(cfg.pair().z)
    assert again.spec_b == cfg.spec_b


def test_diameter_and_surplus_recorded():
    report = harness.run_discrete(small_config(n=400, replicates=10))
    found = False
    for rep in report.replicates:
        for comp in rep.top_by_x:
            assert comp.diameter_bound >= 1
            found = True
    assert found


def test_worker_pool_matches_sequential():
    seq = harness.run_discrete(small_config(replicates=12, features="masses"))
    par = harness.run_discrete(small_config(replicates=12, features="masses",
                                            workers=2))
    # configs differ only in the worker count, which the hash covers; compare
    # the replicate payloads directly
    assert [r.y_ranked_masses for r in seq.replicates] == \
           [r.y_ranked_masses for r in par.replicates]
    assert [r.seed for r in seq.replicates] == [r.seed for r in par.replicates]


def test_worker_pool_matches_sequential_full_features():
    seq = harness.run_discrete(small_config(replicates=12))
    par = harness.run_discrete(small_config(replicates=12, workers=2))
    assert seq.to_dict()["replicates"] == par.to_dict()["replicates"]


def test_compare_rejects_rank_mismatch():
    cfg = small_config(replicates=10, top_k=1, features="masses")
    report = harness.run_discrete(cfg)
    params = ls.LimitParams(regime=1, theta=1.0)
    ens = harness.simulate_limit_ensemble(params, 20, 4.0, 4e-3, 2, seed=1)
    with pytest.raises(ValueError):
        harness.compare_with_limit(report, ens)


def test_poissonized_per_pair_probability():
    # single candidate pair: retention probability 1 - exp(-x * remaining / z)
    x = np.array([1.0, 1.0])
    y = np.array([5.0, 3.0])
    z = 10.0
    rec = lifo.explore(x, y, z, lifo.ClockSet(np.array([0.1, 1.1]),
                                              np.array([0.5, 1.6])))
    sigma = encoding.sigma_transfer(rec)
    rng = np.random.default_rng(0)
    runs = 20_000
    hits = sum((1, 0) in set(harness.poissonized_surplus(rec, sigma, rng)[1])
               for _ in range(runs))
    target = 1.0 - math.exp(-4.0 / z)
    assert abs(hits / runs - target) <= 0.012


def _config_dict(**changes):
    cfg = harness.ExperimentConfig(spec_b=point_mass(1.0), spec_w=point_mass(1.0),
                                   theta=1.0, n=50, replicates=3)
    d = dict(cfg.to_dict(), **changes)
    return {k: v for k, v in d.items() if v is not None}


@pytest.mark.parametrize("changes, message", [
    ({"replicate": 5}, "unknown config keys: replicate"),
    ({"limit": {"paths": 10, "stpe": 0.1}}, "unknown limit keys: stpe"),
    ({"theta": None}, "missing config keys: theta"),
    ({"features": "mass"}, "features must be one of"),
    ({"n": 0}, "n must be an integer >= 1"),
    ({"replicates": 0}, "replicates must be an integer >= 1"),
    ({"top_k": -1}, "top_k must be an integer >= 1"),
    ({"workers": 0}, "workers must be an integer >= 1"),
    ({"n": 12.5}, "n must be an integer >= 1"),
])
def test_config_from_dict_rejects(changes, message):
    with pytest.raises(harness.ConfigError, match=message):
        harness.ExperimentConfig.from_dict(_config_dict(**changes))


def test_config_from_dict_accepts_both_feature_sets():
    for features in harness.FEATURES:
        cfg = harness.ExperimentConfig.from_dict(_config_dict(features=features))
        assert cfg.features == features


def _ks_sample_pairs():
    """3,000 sample pairs of sizes 1-300, half with integer ties and half
    Pareto, among them size-1 samples and the compare shape 100 vs 100."""
    rng = np.random.default_rng(18)
    for i in range(3000):
        n1, n2 = (int(v) for v in rng.integers(1, 301, size=2))
        if i % 10 == 1:
            n1 = 1
        elif i % 10 == 2:
            n1 = n2 = 100
        if i % 2:
            top = int(rng.integers(1, 20))
            a = rng.integers(0, top, size=n1).astype(float)
            b = rng.integers(0, top, size=n2).astype(float)
        else:
            a, b = rng.pareto(1.5, size=n1), 1.3 * rng.pareto(1.5, size=n2)
        yield a, b


def test_ks_statistic_equals_scipy_on_tied_and_heavy_samples():
    for a, b in _ks_sample_pairs():
        assert (harness._ks_statistic(a, b)
                == stats.ks_2samp(a, b).statistic), (len(a), len(b))


def test_ks_statistic_edge_samples():
    same = np.arange(5.0)
    assert harness._ks_statistic(same, same[::-1]) == 0.0
    assert harness._ks_statistic(same, same + 10.0) == 1.0
    # past 10000 points scipy switches to the asymptotic p-value and does
    # not round the distance
    rng = np.random.default_rng(4)
    big, small = rng.random(10_001), rng.random(7)
    assert (harness._ks_statistic(big, small)
            == stats.ks_2samp(big, small).statistic)
    with pytest.warns(Warning):
        assert math.isnan(stats.ks_2samp(np.empty(0), same).statistic)
    assert math.isnan(harness._ks_statistic(np.empty(0), same))
    assert math.isnan(harness._ks_statistic(same, np.empty(0)))
