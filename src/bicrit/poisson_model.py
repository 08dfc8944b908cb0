"""Poisson description of the i.i.d. model and the exponent calculus.

A planar Poisson measure with intensity sqrt(n/m) x e^{-xt/sqrt(mn)} dF(x) dt
generates weight/clock pairs for one colour; conditioned on its atom count
the weights are i.i.d. F and the clocks are conditionally exponential.  The
conditioned law therefore factorises and is sampled directly, never by
rejection.

Two compound Poisson reference processes with Levy measures
sqrt(n/m) x dF_b(x) and sqrt(m/n) y dF_w(y) serve as the untilted baseline;
the load path of the model is absolutely continuous with respect to their
composition, with an explicit exponential density whose unit mean the test
suite checks by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import StepPath
from .weights import (CriticalPair, WeightSpec, moment, sample_size_biased,
                      sample_weights, validate_critical_pair, REGIME_THIRD)

#: relative error target for the exponent quadratures
PHI_RTOL = 1e-8


@dataclass
class PoissonCoupling:
    black_clocks: np.ndarray
    black_weights: np.ndarray
    white_clocks: np.ndarray
    white_weights: np.ndarray
    n: int
    m: int
    conditioned: bool


def sample_conditioned(pair: CriticalPair, seed) -> PoissonCoupling:
    """Exactly n black and m white atoms.

    Uses the factorised form of the conditioned law: weights i.i.d. from
    the specs, clocks conditionally exponential with rate weight/sqrt(mn).
    """
    rng = np.random.default_rng(seed)
    z = pair.z
    xw = sample_weights(pair.spec_b, pair.n, rng)
    eb = rng.exponential(z / xw)
    yw = sample_weights(pair.spec_w, pair.m, rng)
    ew = rng.exponential(z / yw)
    return PoissonCoupling(eb, xw, ew, yw, pair.n, pair.m, conditioned=True)


def sample_unconditioned(pair: CriticalPair, seed) -> PoissonCoupling:
    """Atom counts Poisson(n) and Poisson(m); atoms i.i.d. given counts."""
    if pair.n < 1 or pair.m < 1:
        raise ValueError("intensities require n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    z = pair.z
    nb = int(rng.poisson(pair.n))
    xw = sample_weights(pair.spec_b, nb, rng)
    eb = rng.exponential(z / xw) if nb else np.empty(0)
    nw = int(rng.poisson(pair.m))
    yw = sample_weights(pair.spec_w, nw, rng)
    ew = rng.exponential(z / yw) if nw else np.empty(0)
    return PoissonCoupling(eb, xw, ew, yw, pair.n, pair.m, conditioned=False)


def intensity_total(pair: CriticalPair, colour: str = "b") -> float:
    """Total mass of the planar intensity, by nested quadrature (the inner
    clock integral is rescaled to unit decay before integrating)."""
    from scipy import integrate

    spec = pair.spec_b if colour == "b" else pair.spec_w
    ratio = math.sqrt(pair.n / pair.m) if colour == "b" else math.sqrt(pair.m / pair.n)
    z = pair.z

    def per_weight(x):
        # substitute u = x t / z in the clock integral
        inner, _ = integrate.quad(lambda u: ratio * z * math.exp(-u),
                                  0, np.inf, epsabs=0.0, epsrel=1e-10)
        return inner

    return _integrate_against(spec, per_weight)


def _integrate_against(spec: WeightSpec, fn) -> float:
    """integral of fn(x) dF(x), splitting heavy tails at the cutoff."""
    from scipy import integrate

    p = spec.params
    if spec.kind == "point-mass":
        return fn(p["value"])
    if spec.kind == "discrete-table":
        return float(sum(q * fn(v) for v, q in zip(p["values"], p["probs"])))
    if spec.kind == "exponential":
        rate = p["rate"]
        val, _ = integrate.quad(lambda x: fn(x) * rate * math.exp(-rate * x),
                                0, np.inf, epsabs=0.0,
                                epsrel=PHI_RTOL * 1e-2, limit=200)
        return val
    if spec.kind == "uniform":
        lo, hi = p["low"], p["high"]
        val, _ = integrate.quad(lambda x: fn(x) / (hi - lo), lo, hi,
                                epsabs=0.0, epsrel=PHI_RTOL * 1e-2, limit=200)
        return val
    g, c = p["tail_index"], p["cutoff"]
    pt = spec.tail_mass()
    body, _ = integrate.quad(lambda x: fn(x) * (1.0 - pt) / c, 0, c,
                             epsabs=0.0, epsrel=PHI_RTOL * 1e-2, limit=200)
    tail, _ = integrate.quad(
        lambda x: fn(x) * (g + 1.0) * p["tail_constant"] * x ** (-(g + 2.0)),
        c, np.inf, epsabs=0.0, epsrel=PHI_RTOL * 1e-2, limit=400)
    return body + tail


def phi_hat_bare(spec: WeightSpec, lam: float) -> float:
    """Compensated exponent integral  (e^{-lam x} - 1 + lam x) x dF(x),
    without any n/m prefactor.  Closed form where cheap, quadrature else."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 0.0
    p = spec.params
    if spec.kind == "point-mass":
        a = p["value"]
        return (math.expm1(-lam * a) + lam * a) * a
    if spec.kind == "exponential":
        b = p["rate"]
        return b / (b + lam) ** 2 - 1.0 / b + 2.0 * lam / b ** 2
    if spec.kind == "discrete-table":
        return float(sum(q * (math.expm1(-lam * v) + lam * v) * v
                         for v, q in zip(p["values"], p["probs"])))
    if spec.kind == "power-tail":
        from scipy import integrate

        # split the Pareto tail where the exponential term dies: beyond L
        # the integrand is (lam x - 1) x^{-g-1} up to an O(e^{-60}) remainder
        g, c = p["tail_index"], p["cutoff"]
        pt = spec.tail_mass()
        body, _ = integrate.quad(
            lambda x: (math.expm1(-lam * x) + lam * x) * x * (1.0 - pt) / c,
            0, c, epsabs=0.0, epsrel=PHI_RTOL * 1e-2, limit=200)
        coef = (g + 1.0) * p["tail_constant"]
        big = max(c, 60.0 / lam)
        mid, _ = integrate.quad(
            lambda x: (math.expm1(-lam * x) + lam * x) * x ** (-(g + 1.0)),
            c, big, epsabs=0.0, epsrel=PHI_RTOL * 1e-2, limit=400)
        rest = lam * big ** (1.0 - g) / (g - 1.0) - big ** (-g) / g
        return body + coef * (mid + rest)
    return _integrate_against(
        spec, lambda x: (math.expm1(-lam * x) + lam * x) * x)


def phi_bare(spec: WeightSpec, lam: float) -> float:
    """Uncompensated exponent integral  (e^{-lam x} - 1) x dF(x)."""
    return phi_hat_bare(spec, lam) - moment(spec, 2) * lam


@dataclass
class LaplaceExponentTable:
    """Exponents of the two compound Poisson references and their
    subordination, at the (n, m) of one pair."""

    pair: CriticalPair

    def __post_init__(self):
        self._rb = math.sqrt(self.pair.n / self.pair.m)
        self._rw = math.sqrt(self.pair.m / self.pair.n)
        self._s1w = moment(self.pair.spec_w, 1)

    def phi_b(self, lam: float) -> float:
        return self._rb * phi_bare(self.pair.spec_b, lam)

    def phi_w(self, lam: float) -> float:
        return self._rw * phi_bare(self.pair.spec_w, lam)

    def subordinated(self, lam: float) -> float:
        """Exponent of the composed reference path: lam + phi_b(-phi_w(lam))."""
        return lam + self.phi_b(-self.phi_w(lam))

    @property
    def q_n(self) -> float:
        """Total jump rate of the composed path: -phi_b at the limiting
        argument sqrt(m/n) * sigma1_w."""
        return -self.phi_b(self._rw * self._s1w)

    def scalings(self, n: int | None = None) -> tuple[float, float]:
        """(a_n, b_n): spatial and temporal scale for the pair's regime."""
        n = self.pair.n if n is None else n
        report = validate_critical_pair(self.pair)
        if report.regime == REGIME_THIRD:
            return n ** (1.0 / 3.0), n ** (2.0 / 3.0)
        a = report.alpha
        return n ** (1.0 / (a + 1.0)), n ** (a / (a + 1.0))

    def psi_n(self, u: float, n: int | None = None) -> float:
        """Rescaled branching exponent (b_n / q_n) * subordinated(u q_n / a_n)."""
        a_n, b_n = self.scalings(n)
        q = self.q_n
        return b_n / q * self.subordinated(u * q / a_n)


def laplace_exponents(pair: CriticalPair) -> LaplaceExponentTable:
    return LaplaceExponentTable(pair)


@dataclass
class ReferencePaths:
    jump_black: StepPath        # compound Poisson, drift 0
    jump_white: StepPath        # compound Poisson on [0, final black value]
    composed: StepPath          # drift -1, white evaluated along black
    horizon: float


def reference_paths(pair: CriticalPair, horizon: float, seed) -> ReferencePaths:
    """Simulate the two reference processes and their composition exactly on
    the jump skeleton."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    rng = np.random.default_rng(seed)
    rb = math.sqrt(pair.n / pair.m)
    rw = math.sqrt(pair.m / pair.n)
    rate_b = rb * moment(pair.spec_b, 1)
    kb = int(rng.poisson(rate_b * horizon)) if horizon > 0 else 0
    tb = np.sort(rng.uniform(0.0, horizon, size=kb))
    sb = sample_size_biased(pair.spec_b, kb, rng)
    black = StepPath(tb, sb, drift=0.0, t_end=horizon)

    span = float(sb.sum())
    rate_w = rw * moment(pair.spec_w, 1)
    kw = int(rng.poisson(rate_w * span)) if span > 0 else 0
    tw = np.sort(rng.uniform(0.0, span, size=kw))
    sw = sample_size_biased(pair.spec_w, kw, rng)
    white = StepPath(tw, sw, drift=0.0, t_end=span)

    cum_b = np.concatenate([[0.0], np.cumsum(sb)])
    at = np.asarray(white.value(cum_b))
    composed = StepPath(tb, at[1:] - at[:-1], drift=-1.0, t_end=horizon)
    return ReferencePaths(black, white, composed, horizon)


def tilt_density(paths: ReferencePaths, table: LaplaceExponentTable,
                 t: float) -> float:
    """Exponential change-of-measure density at time t.

    The two stochastic integrals are finite sums over the realised jumps;
    the two compensator integrals are quadratures of the exponents along
    the clock.  The density has unit mean under the reference law.
    """
    from scipy import integrate

    z = table.pair.z
    lb_t = float(paths.jump_black.value(t))

    def jump_sum(path: StepPath, upto: float) -> float:
        mask = path.jump_times <= upto
        return float(np.dot(path.jump_times[mask], path.jump_sizes[mask])) / z

    int_w, _ = integrate.quad(lambda s: table.phi_w(s / z), 0.0, lb_t,
                              epsrel=PHI_RTOL, limit=200)
    int_b, _ = integrate.quad(lambda s: table.phi_b(s / z), 0.0, t,
                              epsrel=PHI_RTOL, limit=200)
    log_e = -(jump_sum(paths.jump_white, lb_t) + int_w
              + jump_sum(paths.jump_black, t) + int_b)
    return math.exp(log_e)


def limit_constant(alpha: float) -> float:
    """(alpha+1) Gamma(2-alpha) / (alpha (alpha-1)) for alpha in (1,2);
    1/2 at alpha = 2."""
    if alpha == 2.0:
        return 0.5
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    from scipy import special

    return (alpha + 1.0) * special.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))


@dataclass
class ScaledExponentCheck:
    n: float
    lam: float
    value: float
    target: float
    rel_err: float
    regime: str


def scaled_exponent_limit(spec: WeightSpec, lam: float, n: float,
                          regime: str | None = None) -> ScaledExponentCheck:
    """Rescaled compensated exponent against its large-n limit.

    Third-moment laws: n^{2/3} phi_hat(n^{-1/3} lam) -> (sigma_3 / 2) lam^2.
    Power tails with index g: n^{g/(g+1)} phi_hat(n^{-1/(g+1)} lam) ->
    tail_constant * limit_constant(g) * lam^g.
    """
    inferred = "power" if spec.heavy else "third"
    if regime is None:
        regime = inferred
    if regime != inferred:
        raise ValueError(f"spec is in the {inferred!r} regime, not {regime!r}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if regime == "third":
        value = n ** (2.0 / 3.0) * phi_hat_bare(spec, n ** (-1.0 / 3.0) * lam)
        target = 0.5 * moment(spec, 3) * lam ** 2
    else:
        g = spec.params["tail_index"]
        value = (n ** (g / (g + 1.0))
                 * phi_hat_bare(spec, n ** (-1.0 / (g + 1.0)) * lam))
        target = spec.params["tail_constant"] * limit_constant(g) * lam ** g
    rel = abs(value - target) / target if target else abs(value)
    return ScaledExponentCheck(n, lam, value, target, rel, regime)


def write_exponent_table(spec: WeightSpec, lams, ns, path) -> None:
    """CSV emission of the scaled-exponent checks: one row per (n, lambda)
    with the value, its limit target and the relative error."""
    with open(path, "w") as fh:
        fh.write("n,lambda,value,target,rel_err\n")
        for n in ns:
            for lam in lams:
                chk = scaled_exponent_limit(spec, float(lam), float(n))
                fh.write(f"{chk.n!r},{chk.lam!r},{chk.value!r},"
                         f"{chk.target!r},{chk.rel_err!r}\n")


def tail_lower_bound_constant(spec: WeightSpec, lam_max: float,
                              grid: int = 200) -> float:
    """Largest C with phi_hat(lam) >= C lam^g on (0, lam_max], evaluated on
    a log grid; positive for every exact power-tail spec."""
    if not spec.heavy:
        raise ValueError("lower-bound check applies to power-tail specs")
    g = spec.params["tail_index"]
    lams = np.geomspace(lam_max * 1e-6, lam_max, grid)
    ratios = [phi_hat_bare(spec, float(l)) / float(l) ** g for l in lams]
    return float(min(ratios))


def height_condition_integral(pair: CriticalPair, y: float,
                              n: int | None = None) -> float:
    """Tail integral of 1 / psi_n from y up to the spatial scale a_n.

    Finite and decreasing in y under criticality; a nonpositive psi_n along
    the range indicates a subcritical pair (or a bug) and raises.
    """
    from scipy import integrate

    if y <= 0:
        raise ValueError("y must be positive")
    table = laplace_exponents(pair)
    a_n, _ = table.scalings(n)
    if y >= a_n:
        return 0.0
    probe = np.geomspace(y, a_n, 64)
    vals = np.array([table.psi_n(float(u), n) for u in probe])
    if np.any(vals <= 0.0):
        raise ValueError("psi_n nonpositive on the integration range")
    val, _ = integrate.quad(lambda u: 1.0 / table.psi_n(u, n), y, a_n,
                            epsrel=1e-8, limit=400)
    return float(val)
