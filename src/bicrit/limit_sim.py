"""Discretised simulation of the three continuum limit processes.

Regime 1 is a Brownian motion with an exactly integrated parabolic drift.
Regimes 2 and 3 are built from a compensated Poisson measure of jumps with
intensity  c_i (alpha+1) x^{-alpha-1} e^{-q x s} dx ds  (q the tilt
slope): jumps above a truncation level eps are sampled exactly by thinning,
the compensated jumps below eps are replaced by a centred Gaussian whose
time-inhomogeneous variance rate integral(x^2 intensity, x < eps) is
computed exactly, and the deterministic drift (1/q) Psi_i(q t) is
subtracted.  The Gaussian completion carries the full second moment of the
small-jump band, so the only model error is its residual non-Gaussianity,
which vanishes as eps decreases; the default eps is set by a per-path jump
budget because driving the band's standard deviation itself below a small
fraction of the path scale by omission alone would need astronomically
many jumps for alpha well inside (1, 2).

Untilted stable paths use totally skewed stable increments with the scale
sigma = (c |cos(pi alpha / 2)|)^(1/alpha), the unique scale for which the
increment Laplace transform at unit time equals exp(c lambda^alpha); the
mapping is verified against the empirical transform in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric_space import CodedFunction, FiniteMeasuredMetricSpace, shortcut_graph
from .poisson_model import limit_constant
from .weights import CriticalPair, moment, validate_critical_pair, REGIME_THIRD

#: expected number of proposed tail jumps per simulated path
JUMP_BUDGET = 200_000


@dataclass(frozen=True)
class LimitParams:
    regime: int
    theta: float
    sig_b2: float = 1.0
    sig_b3: float = 1.0
    sig_w2: float = 1.0
    sig_w3: float = 1.0
    alpha: float = 2.0
    c_b: float = 0.0
    c_w: float = 0.0

    def __post_init__(self):
        if self.regime not in (1, 2, 3):
            raise ValueError("regime must be 1, 2 or 3")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if self.regime == 1 and self.alpha != 2.0:
            raise ValueError("regime 1 fixes alpha = 2")
        if self.regime in (2, 3) and not (1.0 < self.alpha < 2.0):
            raise ValueError("stable regimes need alpha in (1, 2)")
        if self.regime == 2 and self.c_b <= 0:
            raise ValueError("regime 2 needs a positive black tail constant")
        if self.regime == 3 and (self.c_b <= 0 or self.c_w <= 0):
            raise ValueError("regime 3 needs both tail constants")

    @property
    def tilt_slope(self) -> float:
        return self.sig_b2 / self.theta

    @property
    def rho(self) -> float:
        return self.sig_b2 / math.sqrt(self.theta)

    @property
    def jump_coeff(self) -> float:
        """c_i in the exponent Psi_i = limit_constant(alpha) * c_i * lam^alpha."""
        if self.regime == 1:
            return (self.sig_w3 * self.sig_b2
                    + math.sqrt(self.theta) * self.sig_w2 ** 2 * self.sig_b3)
        stable_part = (self.c_b * self.theta ** ((self.alpha - 1.0) / 2.0)
                       * self.sig_w2 ** self.alpha)
        if self.regime == 2:
            return stable_part
        return self.c_w * self.sig_b2 + stable_part

    @property
    def psi_coeff(self) -> float:
        return limit_constant(self.alpha) * self.jump_coeff

    @classmethod
    def from_pair(cls, pair: CriticalPair) -> "LimitParams":
        report = validate_critical_pair(pair)
        b, w = pair.spec_b, pair.spec_w
        kw = dict(
            theta=pair.theta,
            sig_b2=moment(b, 2), sig_w2=moment(w, 2),
            sig_b3=moment(b, 3) if not b.heavy else math.inf,
            sig_w3=moment(w, 3) if not w.heavy else math.inf,
            c_b=b.params.get("tail_constant", 0.0) if b.heavy else 0.0,
            c_w=w.params.get("tail_constant", 0.0) if w.heavy else 0.0,
        )
        if report.regime == REGIME_THIRD:
            return cls(regime=1, alpha=2.0, **kw)
        regime = 3 if report.regime == "matched-heavy" else 2
        if regime == 2:
            kw["c_w"] = 0.0
        return cls(regime=regime, alpha=report.alpha, **kw)


def psi(params: LimitParams, lam: float) -> float:
    """Exponent of the untilted limit path: limit_constant * c_i * lam^alpha."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return params.psi_coeff * lam ** params.alpha


def drift_integral(params: LimitParams, t) -> np.ndarray | float:
    """(1/q) Psi_i(q t), the deterministic part removed from the tilted path."""
    q = params.tilt_slope
    return params.psi_coeff * q ** (params.alpha - 1.0) * np.asarray(t) ** params.alpha


def stable_scale(coeff: float, alpha: float) -> float:
    """Scale of the totally skewed stable law whose Laplace transform is
    exp(coeff * lam^alpha)."""
    return (coeff * abs(math.cos(math.pi * alpha / 2.0))) ** (1.0 / alpha)


def levy_endpoints(params: LimitParams, t: float, count: int, seed) -> np.ndarray:
    """i.i.d. copies of the untilted path value at time t."""
    rng = np.random.default_rng(seed)
    if params.regime == 1:
        return rng.normal(0.0, math.sqrt(params.jump_coeff * t), size=count)
    from scipy import stats

    scale = stable_scale(params.psi_coeff * t, params.alpha)
    return stats.levy_stable.rvs(params.alpha, 1.0, loc=0.0, scale=scale,
                                 size=count, random_state=rng)


@dataclass
class GridPath:
    times: np.ndarray
    values: np.ndarray
    step: float
    meta: dict = field(default_factory=dict)

    def running_min(self) -> np.ndarray:
        return np.minimum.accumulate(self.values)

    def reflected(self) -> np.ndarray:
        return self.values - self.running_min()

    def value_at(self, t: float) -> float:
        idx = min(int(round(t / self.step)), len(self.values) - 1)
        return float(self.values[max(idx, 0)])


def simulate_levy(params: LimitParams, horizon: float, step: float,
                  seed) -> GridPath:
    """One untilted path on a uniform grid, with exact-in-law increments."""
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    rng = np.random.default_rng(seed)
    if params.regime == 1:
        inc = rng.normal(0.0, math.sqrt(params.jump_coeff * step), size=n_steps)
    else:
        from scipy import stats

        scale = stable_scale(params.psi_coeff * step, params.alpha)
        inc = stats.levy_stable.rvs(params.alpha, 1.0, loc=0.0, scale=scale,
                                    size=n_steps, random_state=rng)
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return GridPath(times, values, step)


def default_truncation(params: LimitParams, horizon: float,
                       budget: int = JUMP_BUDGET) -> float:
    """Truncation level at which the expected tail-jump proposal count over
    the horizon equals the budget."""
    a = params.alpha
    ci = params.jump_coeff
    return (ci * (a + 1.0) * horizon / (a * budget)) ** (1.0 / a)


def small_jump_variance_rate(params: LimitParams, eps: float,
                             s: np.ndarray) -> np.ndarray:
    """d/ds of the variance of the compensated below-truncation jumps:
    integral over x < eps of x^2 c_i (alpha+1) x^{-alpha-1} e^{-q x s} dx."""
    from scipy import special

    a = params.alpha
    q = params.tilt_slope
    ci = params.jump_coeff
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    zero = q * s * eps < 1e-12
    out[zero] = ci * (a + 1.0) * eps ** (2.0 - a) / (2.0 - a)
    sz = s[~zero]
    z = q * sz * eps
    lower = special.gammainc(2.0 - a, z) * special.gamma(2.0 - a)
    out[~zero] = ci * (a + 1.0) * (q * sz) ** (a - 2.0) * lower
    return out


def _upper_gamma_neg(s: float, z: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma with parameter s in (-1, 0), via the recurrence
    from the positive-parameter regularised function."""
    from scipy import special

    z = np.asarray(z, dtype=float)
    top = special.gammaincc(s + 1.0, z) * special.gamma(s + 1.0)
    return (top - z ** s * np.exp(-z)) / s


def truncated_jump_mean_rate(params: LimitParams, eps: float,
                             s: np.ndarray) -> np.ndarray:
    """d/ds of the retained-jump mean: integral over x >= eps of
    x * c_i (alpha+1) x^{-alpha-1} e^{-q x s} dx, vectorised in s."""
    a = params.alpha
    q = params.tilt_slope
    ci = params.jump_coeff
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    zero = s <= 0.0
    out[zero] = ci * (a + 1.0) * eps ** (1.0 - a) / (a - 1.0)
    sz = s[~zero]
    z = q * sz * eps
    out[~zero] = ci * (a + 1.0) * (q * sz) ** (a - 1.0) * _upper_gamma_neg(1.0 - a, z)
    return out


def simulate_z(params: LimitParams, horizon: float, step: float, seed,
               truncation: float | None = None) -> GridPath:
    """One tilted path on a uniform grid.

    Regime 1: Gaussian increments plus the exactly integrated parabola.
    Regimes 2 and 3: thinned Pareto jumps above the truncation level,
    compensated by their running mean, a Gaussian completion carrying the
    exact variance of the below-truncation band, minus the drift integral.
    """
    if horizon == 0.0:
        return GridPath(np.zeros(1), np.zeros(1), step)
    if step > 1e-3 * horizon:
        raise ValueError("step must not exceed horizon / 1000")
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step
    rng = np.random.default_rng(seed)
    if params.regime == 1:
        inc = rng.normal(0.0, math.sqrt(params.jump_coeff * step), size=n_steps)
        noise = np.concatenate([[0.0], np.cumsum(inc)])
        values = noise - drift_integral(params, times)
        return GridPath(times, values, step)

    a = params.alpha
    q = params.tilt_slope
    ci = params.jump_coeff
    eps = default_truncation(params, horizon) if truncation is None else truncation
    # dominate the inhomogeneous intensity by its s = 0 envelope and thin
    base_rate = ci * (a + 1.0) / a * eps ** (-a)
    count = int(rng.poisson(base_rate * horizon))
    s_prop = rng.uniform(0.0, horizon, size=count)
    x_prop = eps * rng.random(count) ** (-1.0 / a)
    keep = rng.random(count) < np.exp(-q * x_prop * s_prop)
    s_jump = s_prop[keep]
    x_jump = x_prop[keep]
    order = np.argsort(s_jump)
    s_jump, x_jump = s_jump[order], x_jump[order]
    idx = np.searchsorted(s_jump, times, side="right")
    jump_sum = np.concatenate([[0.0], np.cumsum(x_jump)])[idx]

    rate = truncated_jump_mean_rate(params, eps, times)
    mean_big = np.concatenate([[0.0],
                               np.cumsum((rate[:-1] + rate[1:]) * 0.5 * step)])
    var_rate = small_jump_variance_rate(params, eps, times[:-1] + 0.5 * step)
    gauss = np.concatenate([[0.0],
                            np.cumsum(rng.normal(0.0, np.sqrt(var_rate * step)))])
    values = jump_sum - mean_big + gauss - drift_integral(params, times)
    return GridPath(times, values, step,
                    meta={"truncation": eps, "kept_jumps": int(keep.sum())})


def height_from_z(path: GridPath, params: LimitParams,
                  epsilon: float | None = None, stride: int = 1) -> GridPath:
    """Height path of a tilted path.

    Regime 1 admits the exact transform (2 / c_1) * (Z - running minimum).
    The stable regimes use the occupation estimator: the time spent by the
    past path within epsilon of its future minimum, divided by epsilon.
    The sweep is quadratic in the grid size; ``stride`` evaluates every
    stride-th grid point and holds the value in between.
    """
    if params.regime == 1:
        values = 2.0 / params.jump_coeff * path.reflected()
        return GridPath(path.times, values, path.step)
    h = path.step
    noise_floor = (params.psi_coeff * h) ** (1.0 / params.alpha)
    if epsilon is None:
        # measured eps-ladders show the estimate is discretisation-dominated
        # until a handful of noise scales above the floor
        epsilon = 8.0 * noise_floor
    meta = {"epsilon": float(epsilon)}
    if epsilon <= 4.0 * noise_floor:
        meta["warning"] = ("occupation epsilon within a few grid noise "
                           "scales of the floor; estimates are unreliable")
    z = path.values
    n = len(z)
    out = np.zeros(n)
    for j in range(1, n, stride):
        future_min = np.minimum.accumulate(z[j::-1])[::-1]
        out[j] = h / epsilon * np.count_nonzero(z[:j + 1] <= future_min + epsilon)
        if stride > 1:
            out[j:min(j + stride, n)] = out[j]
    return GridPath(path.times, out, path.step, meta=meta)


@dataclass
class RankedExcursion:
    g: float
    d: float
    length: float
    start_index: int
    end_index: int
    near_tie: bool = False


def rank_excursions(path: GridPath) -> list[RankedExcursion]:
    """Maximal grid runs with the reflected path positive, ranked by length
    (descending), ties broken by left endpoint.  Lengths within one grid
    cell of the next one are flagged as near ties."""
    refl = path.reflected()
    pos = refl > 0.0
    out: list[RankedExcursion] = []
    j = 0
    n = len(pos)
    while j < n:
        if pos[j]:
            k = j
            while k + 1 < n and pos[k + 1]:
                k += 1
            g = float(path.times[j] - path.step)
            d = float(path.times[k])
            out.append(RankedExcursion(g, d, d - g, j, k))
            j = k + 1
        else:
            j += 1
    out.sort(key=lambda e: (-e.length, e.g))
    for i in range(len(out) - 1):
        if abs(out[i].length - out[i + 1].length) <= path.step:
            out[i].near_tie = True
            out[i + 1].near_tie = True
    return out


@dataclass
class MarkSet:
    pairs: np.ndarray       # (count, 2): (t_l, t'_l)
    atoms: np.ndarray       # (count, 2): originating (s_l, y_l)


def sup_time_below(refl: np.ndarray, times: np.ndarray, j: int,
                   level: float) -> float:
    """Largest grid time u <= times[j] with refl(u) <= level."""
    below = np.nonzero(refl[:j + 1] <= level)[0]
    return float(times[below[-1]])


def sample_marks(path: GridPath, params: LimitParams, seed) -> MarkSet:
    """Poisson shortcut marks under the reflected path.

    Atoms fall with rate 1/sqrt(theta) on the region whose first coordinate
    is the tilt-scaled time rho * t and whose fibre is [0, reflected(t)];
    each atom (s, y) maps to the pair (t, t') with t = s / rho and t' the
    last time the reflected path was at or below y.
    """
    rng = np.random.default_rng(seed)
    refl = path.reflected()
    rho = params.rho
    cell = refl * path.step * rho
    area = float(cell.sum())
    count = int(rng.poisson(area / math.sqrt(params.theta)))
    if count == 0 or area == 0.0:
        return MarkSet(np.empty((0, 2)), np.empty((0, 2)))
    probs = cell / area
    idx = rng.choice(len(refl), size=count, p=probs)
    pairs = np.empty((count, 2))
    atoms = np.empty((count, 2))
    for l, j in enumerate(np.sort(idx)):
        t = float(path.times[j])
        y = float(rng.uniform(0.0, refl[j]))
        t_prev = sup_time_below(refl, path.times, j, y)
        pairs[l] = (t, t_prev)
        atoms[l] = (rho * t, y)
    return MarkSet(pairs, atoms)


def build_limit_graph(params: LimitParams, zpath: GridPath, hpath: GridPath,
                      marks: MarkSet, k: int,
                      resolution: int = 256) -> FiniteMeasuredMetricSpace:
    """Measured metric space carried by the k-th longest excursion.

    The height path is read on the excursion window with the time axis
    stretched by 1/rho (mass coordinates), the marks falling inside the
    window become shortcut pairs, and the coded-function machinery builds
    the quotient with shortcut length zero.
    """
    ranked = rank_excursions(zpath)
    if not 1 <= k <= len(ranked):
        raise ValueError(f"excursion rank {k} out of range (have {len(ranked)})")
    exc = ranked[k - 1]
    rho = params.rho
    zeta = rho * exc.length
    sample_times = (np.arange(resolution) + 0.5) * zeta / resolution
    src = np.clip(((exc.g + sample_times / rho) / zpath.step).round().astype(int),
                  0, len(hpath.values) - 1)
    values = hpath.values[src]
    coded = CodedFunction(times=sample_times, values=values, zeta=zeta,
                          kind="finite-range")
    window_pairs = []
    for t, t_prev in marks.pairs:
        if exc.g < t <= exc.d:
            u = min(max(rho * (t - exc.g), 0.0), zeta)
            v = min(max(rho * (t_prev - exc.g), 0.0), zeta)
            window_pairs.append((u, v))
    return shortcut_graph(coded, window_pairs, 0.0, sample_times=sample_times)


def tilt_density_path(levy: GridPath, params: LimitParams, t: float) -> float:
    """Exponential density of the tilted law along one untilted grid path:
    exp of minus the left-point integral of q s dL_s minus the exact
    compensator integral of Psi(q s)."""
    q = params.tilt_slope
    j = int(round(t / levy.step))
    s = levy.times[:j]
    dl = np.diff(levy.values[:j + 1])
    stochastic = q * float(np.dot(s, dl))
    compensator = (params.psi_coeff * q ** params.alpha
                   * t ** (params.alpha + 1.0) / (params.alpha + 1.0))
    return math.exp(-stochastic - compensator)
