"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s / -rP) and
asserts the stated threshold.  The heavy discrete-versus-limit run is
shared between criteria 7 and 8 through module-scoped fixtures.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bicrit import checks, encoding, harness, lifo
from bicrit import graph_core as gc
from bicrit import limit_sim as ls
from bicrit import metric_space as ms
from bicrit import poisson_model as pm
from bicrit.weights import (exponential, make_critical_pair, point_mass,
                            power_tail)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, detail


# -- criterion 1 -----------------------------------------------------------

def test_criterion_1_sampler_equivalence():
    n = m = 2
    z = 2.0
    x = np.ones(n)
    y = np.ones(m)
    runs = 100_000
    rng = np.random.default_rng(101)
    counts = Counter()
    for _ in range(runs):
        clocks = lifo.sample_clocks(x, y, z, rng)
        rec = lifo.explore(x, y, z, clocks)
        surplus = lifo.sample_surplus_direct(rec, z, rng)
        counts[frozenset(lifo.assemble_graph(rec, surplus).edges)] += 1
    p = -math.expm1(-1.0 / z)
    cells = [(i, j) for i in range(n) for j in range(m)]
    tv = 0.0
    for bits in range(2 ** (n * m)):
        edges = frozenset(cells[k] for k in range(n * m) if bits >> k & 1)
        exact = p ** len(edges) * (1 - p) ** (n * m - len(edges))
        tv += abs(counts.get(edges, 0) / runs - exact)
    tv *= 0.5
    report("1 sampler-equivalence", tv <= 0.02, f"TV={tv:.4f} <= 0.02")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_2_exact_identity_suite():
    results = checks.identity_suite(1000, seed=2024, max_side=50)
    fails = checks.summarize(results)
    report("2 exact-identities", not fails,
           f"violations={fails or 0} over 1000 instances")


# -- criterion 3 -----------------------------------------------------------

def test_criterion_3_clustering_limit():
    est = gc.clustering_estimate(point_mass(1.0), point_mass(1.0),
                                 2000, 2000, trials=100_000, seed=33)
    err = abs(est.value - 0.5)
    report("3 clustering-limit", err <= 0.03,
           f"CL={est.value:.4f}, |CL-0.5|={err:.4f} <= 0.03 "
           f"(wedges={est.wedges})")


# -- criterion 4 -----------------------------------------------------------

def test_criterion_4_scaled_exponent_limits():
    chk = pm.scaled_exponent_limit(exponential(1.0), 1.0, 1e8)
    ok1 = chk.rel_err <= 0.05
    spec = power_tail(1.5, 0.3, 1.0)
    chk2 = pm.scaled_exponent_limit(spec, 1.0, 1e8)
    ok2 = chk2.rel_err <= 0.10
    lower = pm.tail_lower_bound_constant(spec, 2.0)
    report("4 exponent-limits", ok1 and ok2 and lower > 0,
           f"third rel={chk.rel_err:.4f} <= 0.05, "
           f"power rel={chk2.rel_err:.4f} <= 0.10, lower-bound C={lower:.3f}")


# -- criterion 5 -----------------------------------------------------------

def test_criterion_5_martingale_means():
    pair = make_critical_pair(point_mass(1.0), point_mass(1.0), 1.0, 400)
    table = pm.laplace_exponents(pair)
    b_n = pair.n ** (2.0 / 3.0)
    details = []
    ok = True
    for frac in (0.1, 0.5):
        t = frac * b_n
        vals = np.array([pm.tilt_density(pm.reference_paths(pair, t, seed=s),
                                         table, t) for s in range(10_000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        gap = abs(vals.mean() - 1.0)
        ok &= gap <= 3 * se
        details.append(f"t={frac}b_n: |mean-1|={gap:.4f} <= 3SE={3 * se:.4f}")

    params = ls.LimitParams(regime=1, theta=1.0)
    tq = 0.5
    dens = np.array([ls.tilt_density_path(ls.simulate_levy(params, tq, 5e-4, s),
                                          params, tq) for s in range(10_000)])
    gap = abs(dens.mean() - 1.0)
    ok &= gap <= 0.05
    details.append(f"limit density |mean-1|={gap:.4f} <= 0.05")
    report("5 martingale-means", ok, "; ".join(details))


# -- criterion 6 -----------------------------------------------------------

def test_criterion_6_surplus_poissonization():
    x = np.full(4, 1.2)
    y = np.full(4, 1.1)
    z = 4.0
    runs = 10_000
    rng_a = np.random.default_rng(61)
    rng_b = np.random.default_rng(62)
    counts_a = np.zeros(10, dtype=int)
    counts_b = np.zeros(10, dtype=int)

    def component_counts(rec, pairs):
        exc = encoding.excursions(encoding.z_process(rec).queue_load,
                                  x_by_jump=x[rec.order])
        comp_of = {}
        for e in exc:
            for j in e.member_jumps:
                comp_of[int(rec.order[j])] = e.component_id
        per = Counter()
        for b, b2 in pairs:
            per[comp_of[b]] += 1
        return [per.get(e.component_id, 0) for e in exc]

    for _ in range(runs):
        clocks = lifo.sample_clocks(x, y, z, rng_a)
        rec = lifo.explore(x, y, z, clocks)
        proj = lifo.project_surplus(rec, lifo.sample_surplus_direct(rec, z, rng_a))
        for c in component_counts(rec, proj):
            counts_a[min(c, 9)] += 1
        clocks = lifo.sample_clocks(x, y, z, rng_b)
        rec = lifo.explore(x, y, z, clocks)
        sigma = encoding.sigma_transfer(rec)
        _, edges = harness.poissonized_surplus(rec, sigma, rng_b)
        for c in component_counts(rec, set(edges)):
            counts_b[min(c, 9)] += 1

    keep = (counts_a + counts_b) >= 10
    res = stats.chi2_contingency(np.vstack([counts_a[keep], counts_b[keep]]))
    report("6 surplus-poissonization", res.pvalue > 0.01,
           f"chi2 p={res.pvalue:.4f} > 0.01 "
           f"(direct={counts_a[keep].tolist()}, poisson={counts_b[keep].tolist()})")


# -- criteria 7 and 8 ------------------------------------------------------

@pytest.fixture(scope="module")
def headline_run():
    cfg = harness.ExperimentConfig(
        spec_b=point_mass(1.0), spec_w=point_mass(1.0), theta=1.0, n=5000,
        replicates=2000, seed=7788, top_k=2, features="masses")
    return harness.run_discrete(cfg)


@pytest.fixture(scope="module")
def limit_ensemble():
    params = ls.LimitParams(regime=1, theta=1.0)
    return harness.simulate_limit_ensemble(params, 2000, 10.0, 1e-3, 2,
                                           seed=4455)


def test_criterion_7_scaling_surrogate(headline_run, limit_ensemble):
    res = harness.compare_with_limit(headline_run, limit_ensemble,
                                     threshold=0.1)
    neg = harness.compare_with_limit(headline_run, limit_ensemble,
                                     mass_exponent=0.5)
    ok = res.passed and all(v > 0.2 for v in neg.ks_y)
    report("7 scaling-surrogate", ok,
           f"KS top-1={res.ks_y[0]:.4f}, top-2={res.ks_y[1]:.4f} <= 0.1; "
           f"negative control={min(neg.ks_y):.3f} > 0.2")


def test_criterion_8_ranking_surrogate(headline_run):
    rep = harness.ranking_consistency(headline_run)
    ok = rep.agreement_frequency >= 0.9 and abs(rep.ratio_mean - 1.0) <= 0.05
    report("8 ranking-surrogate", ok,
           f"agreement={rep.agreement_frequency:.4f} >= 0.9, "
           f"ratio={rep.ratio_mean:.4f} within 5% of 1")


# -- criterion 9 -----------------------------------------------------------

def _equispaced_coded(rng, n_samples=3, zeta=None):
    zeta = float(rng.uniform(1.0, 3.0)) if zeta is None else zeta
    times = np.arange(n_samples) * zeta / n_samples
    values = rng.uniform(0.0, 1.5, n_samples)
    values[0] = rng.uniform(0.0, 0.3)
    return ms.CodedFunction(times=times, values=values, zeta=zeta)


def test_criterion_9_metric_properties():
    rng = np.random.default_rng(91)
    violations = 0
    for _ in range(10_000 // 4):
        h = _equispaced_coded(rng, n_samples=6)
        ts = rng.uniform(0, h.zeta, 4)
        d = {(a, b): ms.coded_distance(h, ts[a], ts[b])
             for a, b in itertools.product(range(4), repeat=2)}
        for perm in itertools.permutations(range(4)):
            i, j, k, l = perm
            lhs = d[(i, j)] + d[(k, l)]
            rhs = max(d[(i, k)] + d[(j, l)], d[(i, l)] + d[(j, k)])
            if lhs > rhs + 1e-9:
                violations += 1

    shortcut_bad = 0
    coded_bad = 0
    for trial in range(50):
        h = _equispaced_coded(rng)
        q = int(rng.integers(0, 2))
        grid = h.times
        marks = [(float(grid[rng.integers(len(grid))]),
                  float(grid[rng.integers(len(grid))])) for _ in range(q)]
        eps = float(rng.choice([0.0, 0.05, 0.2]))
        amp = 1.0
        tree = ms.quotient_space(h, len(h.times))
        graph = ms.shortcut_graph(h, marks, eps)
        value = ms.ghp_distance(tree, graph)
        bound = ms.shortcut_tree_bound(h, len(marks), eps, amp)
        if value > bound + 1e-9:
            shortcut_bad += 1

        h2 = ms.CodedFunction(times=h.times,
                              values=np.maximum(h.values +
                                                rng.uniform(-0.1, 0.1, len(h.values)), 0.0),
                              zeta=h.zeta)
        eps1 = float(rng.uniform(0.01, 0.2))
        eps2 = float(rng.uniform(0.01, 0.2))
        a_graph = ms.CodedGraph(h, marks, eps1)
        b_graph = ms.CodedGraph(h2, marks, eps2)
        value2 = ms.ghp_distance(a_graph.realise(), b_graph.realise())
        bound2 = ms.ghp_coded_bound(a_graph, b_graph)
        if value2 > bound2 + 1e-9:
            coded_bad += 1

    ok = violations == 0 and shortcut_bad == 0 and coded_bad == 0
    report("9 metric-properties", ok,
           f"four-point violations={violations}, shortcut-bound "
           f"violations={shortcut_bad}/50, comparison-bound violations={coded_bad}/50")


# -- criterion 10 ----------------------------------------------------------

def test_criterion_10_limit_law_checks():
    paths = 100_000
    details = []
    ok = True
    regime1 = ls.LimitParams(regime=1, theta=1.0, sig_b2=16.0, sig_b3=64.0,
                             sig_w2=1.0 / 16.0, sig_w3=1.0 / 64.0)
    regime2 = ls.LimitParams(regime=2, theta=1.0, alpha=1.5, c_b=0.12)
    for tag, params, seed in (("regime1", regime1, 105), ("regime2", regime2, 106)):
        samples = ls.levy_endpoints(params, 1.0, paths, seed=seed)
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            emp = float(np.exp(-lam * samples).mean())
            target = math.exp(ls.psi(params, lam))
            worst = max(worst, abs(emp - target) / target)
        ok &= worst <= 0.05
        details.append(f"{tag} worst rel={worst:.4f}")
    report("10 limit-laws", ok, "; ".join(details) + " <= 0.05")
