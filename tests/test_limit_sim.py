import math

import numpy as np
import pytest
from scipy import integrate, stats

from bicrit import limit_sim as ls
from bicrit.weights import make_critical_pair, point_mass, power_tail


def unit_params():
    return ls.LimitParams(regime=1, theta=1.0)


def stable_params(c_b=0.4, alpha=1.5):
    return ls.LimitParams(regime=2, theta=1.0, alpha=alpha, c_b=c_b)


def test_psi_unit_constants():
    p = unit_params()
    assert p.jump_coeff == pytest.approx(2.0)
    assert ls.psi(p, 1.3) == pytest.approx(1.3 ** 2)
    assert ls.psi(p, 0.0) == 0.0


def test_limit_constant_value():
    from bicrit.poisson_model import limit_constant
    assert limit_constant(1.5) == pytest.approx(2.5 * math.sqrt(math.pi) / 0.75)
    assert limit_constant(1.5) == pytest.approx(5.90818, abs=5e-6)
    assert limit_constant(2.0) == 0.5


@pytest.mark.parametrize("seed", range(20))
def test_psi_matches_independent_recomputation(seed):
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.3, 3.0))
    s_b2, s_b3 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 3.0))
    s_w2, s_w3 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 3.0))
    p = ls.LimitParams(regime=1, theta=theta, sig_b2=s_b2, sig_b3=s_b3,
                       sig_w2=s_w2, sig_w3=s_w3)
    lam = float(rng.uniform(0.1, 2.0))
    c1 = s_w3 * s_b2 + math.sqrt(theta) * s_w2 ** 2 * s_b3
    assert ls.psi(p, lam) == 0.5 * c1 * lam ** 2
    alpha = float(rng.uniform(1.1, 1.9))
    cb, cw = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
    p3 = ls.LimitParams(regime=3, theta=theta, sig_b2=s_b2, sig_w2=s_w2,
                        alpha=alpha, c_b=cb, c_w=cw)
    from bicrit.poisson_model import limit_constant
    c3 = cw * s_b2 + cb * theta ** ((alpha - 1) / 2) * s_w2 ** alpha
    assert ls.psi(p3, lam) == pytest.approx(limit_constant(alpha) * c3 * lam ** alpha)


def test_params_from_pair_regimes():
    pair = make_critical_pair(point_mass(1.0), point_mass(1.0), 1.0, 100)
    p = ls.LimitParams.from_pair(pair)
    assert p.regime == 1 and p.jump_coeff == pytest.approx(2.0)
    heavy = make_critical_pair(power_tail(1.5, 0.3, 1.0), point_mass(1.0),
                               1.0, 100)
    p2 = ls.LimitParams.from_pair(heavy)
    assert p2.regime == 2 and p2.alpha == 1.5 and p2.c_b == 0.3


def test_levy_endpoint_laplace_regimes():
    p1 = ls.LimitParams(regime=1, theta=1.0, sig_b2=4.0, sig_b3=8.0,
                        sig_w2=0.25, sig_w3=0.125)
    # c1 = 0.125*4 + 0.0625*8 = 1.0
    assert p1.jump_coeff == pytest.approx(1.0)
    for lam in (0.5, 1.0):
        samp = ls.levy_endpoints(p1, 1.0, 100_000, seed=1)
        emp = float(np.exp(-lam * samp).mean())
        assert emp == pytest.approx(math.exp(ls.psi(p1, lam)), rel=0.05)
    p2 = stable_params(0.12)
    for lam in (0.5, 1.0, 2.0):
        samp = ls.levy_endpoints(p2, 1.0, 100_000, seed=2)
        emp = float(np.exp(-lam * samp).mean())
        assert emp == pytest.approx(math.exp(ls.psi(p2, lam)), rel=0.05)


def test_simulate_z_zero_horizon():
    path = ls.simulate_z(unit_params(), 0.0, 1e-3, seed=0)
    assert path.values.tolist() == [0.0]


def test_simulate_z_step_guard():
    with pytest.raises(ValueError):
        ls.simulate_z(unit_params(), 1.0, 0.01, seed=0)


def test_simulate_z_regime1_mean_parabola():
    p = unit_params()
    ends = {0.5: [], 1.5: []}
    for s in range(400):
        path = ls.simulate_z(p, 1.5, 1.5e-3, seed=s)
        for tq in ends:
            ends[tq].append(path.value_at(tq))
    for tq, vals in ends.items():
        vals = np.asarray(vals)
        target = -float(ls.drift_integral(p, tq))
        assert target == pytest.approx(-0.5 * p.jump_coeff * tq ** 2 / 1.0)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 4 * se


def test_tilted_stable_marginal_laplace():
    # compensated jump part against the exact time-inhomogeneous transform
    p = stable_params(0.4)
    q, a, c = p.tilt_slope, p.alpha, p.psi_coeff
    lam, tq = 1.0, 0.5
    ends = []
    for s in range(1500):
        path = ls.simulate_z(p, 0.6, 6e-4, seed=s)
        ends.append(path.value_at(tq) + float(ls.drift_integral(p, tq)))
    emp = float(np.exp(-lam * np.asarray(ends)).mean())
    exact = math.exp(integrate.quad(
        lambda s: c * ((lam + q * s) ** a - (q * s) ** a
                       - a * (q * s) ** (a - 1) * lam), 0, tq)[0])
    assert emp == pytest.approx(exact, rel=0.05)


def test_height_regime1_transform_and_zero_set():
    p = unit_params()
    path = ls.simulate_z(p, 1.0, 1e-3, seed=9)
    h = ls.height_from_z(path, p)
    refl = path.reflected()
    assert np.all(h.values >= 0.0)
    assert np.array_equal(h.values == 0.0, refl == 0.0)
    assert np.allclose(h.values, 2.0 / p.jump_coeff * refl)


def test_height_monotone_path_is_zero():
    p = unit_params()
    times = np.arange(1001) * 1e-3
    path = ls.GridPath(times, -times, 1e-3)
    h = ls.height_from_z(path, p)
    assert np.all(h.values == 0.0)


def test_height_estimator_self_consistency_stable():
    p = stable_params(0.4)
    path = ls.simulate_z(p, 1.0, 1e-4, seed=11)
    noise = (p.psi_coeff * path.step) ** (1.0 / p.alpha)
    eps = 32 * noise
    h1 = ls.height_from_z(path, p, epsilon=eps, stride=10)
    h2 = ls.height_from_z(path, p, epsilon=eps / 2, stride=10)
    i1, i2 = h1.values.mean(), h2.values.mean()
    assert abs(i1 - i2) / i1 < 0.10


def test_height_estimator_warns_near_noise_floor():
    p = stable_params(0.4)
    path = ls.simulate_z(p, 1.0, 1e-3, seed=12)
    noise = (p.psi_coeff * path.step) ** (1.0 / p.alpha)
    h = ls.height_from_z(path, p, epsilon=noise, stride=50)
    assert "warning" in h.meta


def _height_oracle_cases():
    """(path, params, epsilon or None for the default, stride), fixed before
    the first comparison: simulated paths of regimes 2 and 3 over a grid
    of alpha, stride and epsilon, then synthetic paths, the lattice ones
    with exact ties z_k + epsilon == z_i, and paths of one and two points."""
    for regime in (2, 3):
        for alpha in (1.05, 1.5, 1.95):
            p = ls.LimitParams(regime=regime, theta=1.0, alpha=alpha, c_b=1.0,
                               c_w=0.5 if regime == 3 else 0.0)
            path = ls.simulate_z(p, 1.0, 1e-3, seed=int(100 * alpha) + regime)
            floor = (p.psi_coeff * path.step) ** (1.0 / p.alpha)
            for stride in (1, 5, 10):
                for eps in (None, floor, 0.05):
                    yield path, p, eps, stride
    p = stable_params()
    step = 1e-2
    rng = np.random.default_rng(5)
    lattice = np.concatenate([[0], np.cumsum(rng.integers(-2, 3, 400))])
    for values, eps in ((np.zeros(300), 0.1),
                        (-np.arange(300) * 0.01, 0.1),
                        (np.arange(300) * 0.01, 0.1),
                        (lattice * 0.25, 0.25),
                        (lattice * 0.1, 0.1),
                        (lattice * 0.1 + 0.05, 0.1),
                        (np.zeros(1), 0.1),
                        (np.array([0.0, -1.0]), 0.5),
                        (np.array([0.0, 1.0]), 0.5),
                        (np.array([0.0, -0.5]), 0.5)):
        path = ls.GridPath(np.arange(len(values)) * step, values, step)
        for stride in (1, 5):
            yield path, p, eps, stride


def test_height_from_z_equals_sweep_oracle():
    import seed_oracle as oracle
    for path, p, eps, stride in _height_oracle_cases():
        h = ls.height_from_z(path, p, epsilon=eps, stride=stride)
        want = oracle.occupation_height(path, h.meta["epsilon"], stride)
        assert np.array_equal(h.values, want), (p, eps, stride, len(path.values))


def test_rank_excursions_cases():
    step = 1e-3
    times = np.arange(2001) * step
    path = ls.GridPath(times, -times, step)
    assert ls.rank_excursions(path) == []

    vals = np.where((times > 0.5) & (times <= 1.0), 0.2, 0.0) - times * 0.0
    # single bump: make a path whose reflected part is positive on one run
    z = np.minimum.accumulate(-times * 0.01) + vals
    path = ls.GridPath(times, z, step)
    exc = ls.rank_excursions(path)
    assert len(exc) == 1


def test_rank_excursions_partition_identity():
    p = unit_params()
    path = ls.simulate_z(p, 2.0, 2e-3, seed=13)
    exc = ls.rank_excursions(path)
    total = sum(e.length for e in exc)
    refl = path.reflected()
    zero_time = float((refl == 0.0).sum() - 1) * path.step
    assert total + zero_time == pytest.approx(2.0, abs=1e-9)


def test_sample_marks_flat_path_empty():
    p = unit_params()
    times = np.arange(1001) * 1e-3
    path = ls.GridPath(times, -times, 1e-3)
    marks = ls.sample_marks(path, p, seed=0)
    assert len(marks.pairs) == 0


def test_sample_marks_count_matches_area():
    p = unit_params()
    path = ls.simulate_z(p, 2.0, 2e-3, seed=3)
    area = float(path.reflected().sum() * path.step * p.rho)
    counts = [len(ls.sample_marks(path, p, seed=s).pairs) for s in range(4000)]
    mean = np.mean(counts)
    target = area / math.sqrt(p.theta)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - target) <= 3 * se
    # Poisson dispersion: variance close to mean
    assert np.var(counts) == pytest.approx(mean, rel=0.15)


def test_sample_marks_pairs_inside_domain():
    p = unit_params()
    path = ls.simulate_z(p, 2.0, 2e-3, seed=4)
    marks = ls.sample_marks(path, p, seed=5)
    for t, t_prev in marks.pairs:
        assert 0.0 <= t_prev <= t


def test_build_limit_graph_tree_and_mass():
    p = unit_params()
    path = ls.simulate_z(p, 2.0, 2e-3, seed=6)
    h = ls.height_from_z(path, p)
    empty = ls.MarkSet(np.empty((0, 2)), np.empty((0, 2)))
    space = ls.build_limit_graph(p, path, h, empty, 1, resolution=64)
    exc = ls.rank_excursions(path)[0]
    assert space.total_mass == pytest.approx(p.rho * exc.length, rel=1e-9)
    with pytest.raises(ValueError):
        ls.build_limit_graph(p, path, h, empty, 10 ** 6)


def test_build_limit_graph_self_loop_mark_no_op():
    p = unit_params()
    path = ls.simulate_z(p, 2.0, 2e-3, seed=6)
    h = ls.height_from_z(path, p)
    exc = ls.rank_excursions(path)[0]
    t_mid = 0.5 * (exc.g + exc.d)
    loop = ls.MarkSet(np.array([[t_mid, t_mid]]), np.array([[0.0, 0.0]]))
    empty = ls.MarkSet(np.empty((0, 2)), np.empty((0, 2)))
    a = ls.build_limit_graph(p, path, h, loop, 1, resolution=64)
    b = ls.build_limit_graph(p, path, h, empty, 1, resolution=64)
    assert a.size == b.size
    assert np.allclose(np.sort(a.dist, axis=None), np.sort(b.dist, axis=None))


def test_tilt_density_path_unit_mean_regime1():
    p = unit_params()
    tq = 0.5
    vals = []
    for s in range(4000):
        levy = ls.simulate_levy(p, tq, 5e-4, seed=s)
        vals.append(ls.tilt_density_path(levy, p, tq))
    vals = np.asarray(vals)
    assert vals[0] > 0
    assert abs(vals.mean() - 1.0) <= 0.05
    # t = 0 gives exactly 1
    levy = ls.simulate_levy(p, tq, 5e-4, seed=0)
    assert ls.tilt_density_path(levy, p, 0.0) == 1.0


def test_tilt_density_deterministic_drift_sanity():
    # replace the path by its zero mean: density is exp(-compensator)
    p = unit_params()
    tq = 0.5
    times = np.arange(int(tq / 5e-4) + 1) * 5e-4
    levy = ls.GridPath(times, np.zeros_like(times), 5e-4)
    got = ls.tilt_density_path(levy, p, tq)
    q = p.tilt_slope
    comp = integrate.quad(lambda s: ls.psi(p, q * s), 0, tq)[0]
    assert got == pytest.approx(math.exp(-comp), rel=1e-6)


def test_binomial_case_height_distribution():
    # unit weights, theta = 1: the height of the tilted path has the same
    # law as twice the reflected drifted Brownian motion of the matched
    # homogeneous model; compare marginals at t = 0.5 by two-sample KS
    p = unit_params()
    t_query, step, n_paths = 0.5, 1e-3, 1500
    ours = np.empty(n_paths)
    for s in range(n_paths):
        path = ls.simulate_z(p, 1.0, step, seed=s)
        h = ls.height_from_z(path, p)
        ours[s] = h.value_at(t_query)
    rng = np.random.default_rng(999)
    theta = 1.0
    gamma = 1.0 + math.sqrt(theta)
    n_grid = int(1.0 / step)
    times = np.arange(n_grid + 1) * step
    theirs = np.empty(n_paths)
    for s in range(n_paths):
        bm = np.concatenate([[0.0], np.cumsum(
            rng.normal(0.0, math.sqrt(step), n_grid))])
        drifted = theta ** 0.25 * gamma ** -0.5 * bm - 0.5 * times ** 2
        refl = drifted - np.minimum.accumulate(drifted)
        theirs[s] = 2.0 * refl[int(t_query / step / math.sqrt(theta))]
    res = stats.ks_2samp(ours, theirs)
    crit = 1.63 * math.sqrt(2.0 / n_paths)    # 1% two-sample critical value
    assert res.statistic <= crit


def _ranked_fields(ranked):
    return [[(type(v), v) for v in vars(e).values()] for e in ranked]


def _oracle_paths():
    """70 paths per regime on a 1000-point grid, then hand-made edge cases:
    a flat path, a one-point path, a run through the last grid point, runs
    of equal length, and runs one grid cell apart in length."""
    params = (unit_params(), stable_params(1.0),
              ls.LimitParams(regime=3, theta=1.0, alpha=1.3, c_b=1.0, c_w=0.5))
    for p in params:
        for seed in range(70):
            yield ls.simulate_z(p, 10.0, 1e-2, seed=seed)
    step = 0.5
    for values in ([0.0] * 6, [0.0], [0.0, -1.0, 0.5, 0.7],
                   [0.0, -1.0, 1.0, -1.0, -2.0, 0.0, -2.0, -3.0],
                   [0.0, 1.0, 2.0, -1.0, 0.0, 0.0, -2.0, 5.0, 5.0],
                   [0.0, 1.0, 2.0, -1.0, 0.0, -2.0]):
        values = np.asarray(values)
        yield ls.GridPath(np.arange(len(values)) * step, values, step)


def test_rank_excursions_equals_scan_oracle():
    import seed_oracle as oracle
    for path in _oracle_paths():
        assert (_ranked_fields(ls.rank_excursions(path))
                == _ranked_fields(oracle.rank_excursions(path)))


def test_excursion_runs_edge_cases():
    starts, ends = ls.excursion_runs(np.zeros(1))
    assert starts.tolist() == [] and ends.tolist() == []
    starts, ends = ls.excursion_runs(np.array([0.0, -1.0, 1.0, -1.0, -2.0,
                                               0.0, 3.0]))
    assert starts.tolist() == [2, 5] and ends.tolist() == [2, 6]
