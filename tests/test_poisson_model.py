import math

import numpy as np
import pytest
from scipy import integrate, stats

from bicrit import poisson_model as pm
from bicrit.weights import (discrete_table, exponential, make_critical_pair,
                            moment, point_mass, power_tail)


@pytest.fixture(scope="module")
def unit_pair():
    return make_critical_pair(point_mass(1.0), point_mass(1.0), 1.0, 400)


@pytest.fixture(scope="module")
def exp_pair():
    return make_critical_pair(exponential(1.0), point_mass(1.0), 1.0, 400)


def test_conditioned_counts_and_point_mass_clocks(unit_pair):
    c = pm.sample_conditioned(unit_pair, seed=0)
    assert len(c.black_weights) == unit_pair.n
    assert len(c.white_weights) == unit_pair.m
    # unit weights: clocks are i.i.d. exponentials of mean sqrt(mn)
    ks = stats.kstest(c.black_clocks / unit_pair.z, "expon")
    assert ks.statistic <= 1.63 / math.sqrt(unit_pair.n)


def test_conditioned_weight_marginal_ks(exp_pair):
    pair = make_critical_pair(exponential(1.0), point_mass(1.0), 1.0, 100_000)
    c = pm.sample_conditioned(pair, seed=1)
    ks = stats.kstest(c.black_weights, "expon")
    # 1% critical value of the one-sample statistic
    assert ks.statistic <= 1.63 / math.sqrt(pair.n)


def test_conditioned_clock_rate_regression():
    pair = make_critical_pair(discrete_table([0.5, 1.0, 2.0], [0.4, 0.3, 0.3]),
                              point_mass(1.0), 1.0, 60_000)
    c = pm.sample_conditioned(pair, seed=2)
    inv_means = []
    for v in (0.5, 1.0, 2.0):
        sel = c.black_weights == v
        inv_means.append(1.0 / c.black_clocks[sel].mean())
    slope = np.polyfit([0.5, 1.0, 2.0], inv_means, 1)[0]
    assert slope == pytest.approx(1.0 / pair.z, rel=0.05)


def test_unconditioned_counts(unit_pair):
    counts = [len(pm.sample_unconditioned(unit_pair, seed=s).black_weights)
              for s in range(10_000)]
    mean = np.mean(counts)
    assert abs(mean - unit_pair.n) <= 4 * math.sqrt(unit_pair.n / 10_000)


def test_intensity_total_quadrature(exp_pair):
    total = pm.intensity_total(exp_pair, "b")
    assert total == pytest.approx(exp_pair.n, rel=1e-6)


def test_laplace_exponent_closed_forms(unit_pair, exp_pair):
    tab = pm.laplace_exponents(unit_pair)
    assert tab.phi_b(0.0) == 0.0
    assert tab.phi_b(1.0) == pytest.approx(math.expm1(-1.0))
    tab_e = pm.laplace_exponents(exp_pair)
    lam = 0.8
    assert tab_e.phi_b(lam) == pytest.approx(1.0 / (1.0 + lam) ** 2 - 1.0)


def test_q_n_formula(unit_pair):
    tab = pm.laplace_exponents(unit_pair)
    assert tab.q_n == pytest.approx(1.0 - math.exp(-1.0))


def test_subordinated_exponent_matches_composition_pointwise(exp_pair):
    tab = pm.laplace_exponents(exp_pair)
    s1w = moment(exp_pair.spec_w, 1)
    for lam in (0.2, 1.0, 3.0):
        direct = tab.subordinated(lam)
        # independent quadrature of the same composition
        inner = -pm.phi_bare(exp_pair.spec_w, lam) * math.sqrt(exp_pair.m / exp_pair.n)
        outer = math.sqrt(exp_pair.n / exp_pair.m) * pm._integrate_against(
            exp_pair.spec_b, lambda x: math.expm1(-inner * x) * x)
        assert direct == pytest.approx(lam + outer, rel=1e-6)
        assert 0.0 <= inner <= math.sqrt(exp_pair.m / exp_pair.n) * s1w


def test_subordinated_exponent_against_monte_carlo(unit_pair):
    tab = pm.laplace_exponents(unit_pair)
    t = 3.0
    lam = 0.5
    vals = [pm.reference_paths(unit_pair, t, seed=s).composed.value(t)
            for s in range(4000)]
    emp = np.exp(-lam * np.asarray(vals)).mean()
    target = math.exp(t * tab.subordinated(lam))
    assert emp == pytest.approx(target, rel=0.05)


def test_reference_paths_mean_and_jump_count(exp_pair):
    t = 5.0
    rb = math.sqrt(exp_pair.n / exp_pair.m)
    vals = []
    jumps = []
    for s in range(4000):
        paths = pm.reference_paths(exp_pair, t, seed=s)
        vals.append(paths.jump_black.value(t))
        jumps.append(len(paths.jump_black.jump_times))
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - rb * moment(exp_pair.spec_b, 2) * t) <= 4 * se
    jmean = np.mean(jumps)
    jse = np.std(jumps, ddof=1) / math.sqrt(len(jumps))
    assert abs(jmean - rb * moment(exp_pair.spec_b, 1) * t) <= 4 * jse


def test_reference_paths_zero_horizon(unit_pair):
    paths = pm.reference_paths(unit_pair, 0.0, seed=0)
    assert len(paths.jump_black.jump_times) == 0
    assert paths.composed.value(0.0) == 0.0


def test_tilt_density_no_jump_closed_form(unit_pair):
    tab = pm.laplace_exponents(unit_pair)
    paths = pm.ReferencePaths(
        jump_black=pm.StepPath([], []), jump_white=pm.StepPath([], []),
        composed=pm.StepPath([], [], drift=-1.0), horizon=1.0)
    t = 1.0
    got = pm.tilt_density(paths, tab, t)
    target = math.exp(-integrate.quad(
        lambda s: tab.phi_b(s / unit_pair.z), 0, t)[0])
    assert got == pytest.approx(target, rel=1e-9)
    assert got > 1.0


def test_tilt_density_prefix_consistency(unit_pair):
    tab = pm.laplace_exponents(unit_pair)
    paths = pm.reference_paths(unit_pair, 8.0, seed=3)
    full = pm.tilt_density(paths, tab, 5.0)
    # recompute from a shorter simulation of the same path prefix
    again = pm.tilt_density(paths, tab, 5.0)
    assert full == again


def test_tilt_density_unit_mean_small(unit_pair):
    tab = pm.laplace_exponents(unit_pair)
    t = 0.1 * unit_pair.n ** (2.0 / 3.0)
    vals = np.array([pm.tilt_density(pm.reference_paths(unit_pair, t, seed=s),
                                     tab, t) for s in range(2000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_scaled_exponent_examples():
    assert pm.scaled_exponent_limit(point_mass(1.0), 0.0, 1e6).value == 0.0
    chk = pm.scaled_exponent_limit(exponential(1.0), 1.0, 1e8)
    assert chk.target == pytest.approx(3.0)
    assert chk.rel_err <= 0.05


def test_scaled_exponent_monotone_in_n():
    vals = [pm.scaled_exponent_limit(exponential(1.0), 1.0, n).value
            for n in (1e4, 1e6, 1e8)]
    assert vals[0] < vals[1] < vals[2] <= 3.0
    errs = [pm.scaled_exponent_limit(power_tail(1.5, 0.3, 1.0), 1.0, n).rel_err
            for n in (1e4, 1e6, 1e8)]
    assert errs[0] > errs[1] > errs[2]


def test_tail_lower_bound_positive():
    spec = power_tail(1.5, 0.3, 1.0)
    assert pm.tail_lower_bound_constant(spec, 2.0) > 0.0
    with pytest.raises(ValueError):
        pm.tail_lower_bound_constant(exponential(1.0), 1.0)


def test_height_condition_integral_properties(unit_pair):
    v10 = pm.height_condition_integral(unit_pair, 10.0, n=10 ** 6)
    v20 = pm.height_condition_integral(unit_pair, 20.0, n=10 ** 6)
    assert 0.0 < v20 < v10
    # quadratic growth of the rescaled exponent: doubling y at least halves
    assert v20 <= v10 / 2.0 + 1e-12
    a_n = 10 ** 2  # (10^6)^(1/3)
    assert pm.height_condition_integral(unit_pair, float(a_n), n=10 ** 6) == 0.0
    with pytest.raises(ValueError):
        pm.height_condition_integral(unit_pair, -1.0)


def test_write_exponent_table(tmp_path):
    out = tmp_path / "exponents.csv"
    pm.write_exponent_table(exponential(1.0), [0.5, 1.0], [1e4, 1e6], out)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,lambda,value,target,rel_err"
    assert len(rows) == 5
