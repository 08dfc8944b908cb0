"""Weight laws for the two vertex classes of the bipartite graph model.

A :class:`WeightSpec` declares a probability law on (0, inf) together with
closed-form moments where available.  A black/white pair of specs is
*critical* when the product of their second moments equals one; criticality
is enforced by rescaling one spec, never by rejection.

The heavy-tailed family is realised as a mixture: a bounded (uniform)
density below a cutoff plus an exact Pareto tail above it, so that the
survival function equals ``tail_constant * x**(-(tail_index+1))`` exactly
for all x >= cutoff.  The family is closed under rescaling, which is what
makes criticality tuning possible without disturbing the tail exponent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

#: tolerance on |sigma2_b * sigma2_w - 1| for a pair to count as critical
CRITICALITY_TOL = 1e-12

#: relative error target for all moment quadratures
QUADRATURE_RTOL = 1e-8

#: parameter names of each kind
PARAMS = {
    "point-mass": ("value",),
    "exponential": ("rate",),
    "uniform": ("low", "high"),
    "discrete-table": ("values", "probs"),
    "power-tail": ("tail_index", "tail_constant", "cutoff"),
}
KINDS = tuple(PARAMS)

REGIME_THIRD = "third-moments"
REGIME_DOMINANT = "dominant-heavy"
REGIME_MATCHED = "matched-heavy"


class InvalidSpecError(ValueError):
    pass


def is_number(value) -> bool:
    """A finite real number; bools, nan and +-inf are refused."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class CriticalityError(ValueError):
    """Raised when a pair is not critical; carries the offending product."""

    def __init__(self, product: float):
        self.product = product
        super().__init__(
            f"second-moment product {product!r} differs from 1 by more than "
            f"{CRITICALITY_TOL}"
        )


@dataclass(frozen=True)
class WeightSpec:
    """A weight distribution on (0, inf).

    params by kind:
      point-mass:     value
      exponential:    rate
      uniform:        low, high  (0 <= low < high)
      discrete-table: values, probs
      power-tail:     tail_index (in (1,2)), tail_constant, cutoff
    """

    kind: str
    params: dict[str, Any]
    label: str = "b"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown kind {self.kind!r}")
        p = self.params
        expected = PARAMS[self.kind]
        bad = ([f"unknown key {k!r}" for k in sorted(set(p) - set(expected))]
               + [f"missing key {k!r}" for k in expected if k not in p])
        if bad:
            raise InvalidSpecError(f"{self.kind} spec: {', '.join(bad)} "
                                   f"(expects {', '.join(expected)})")
        if self.kind == "discrete-table":
            v, pr = p["values"], p["probs"]
            if not (isinstance(v, (list, tuple)) and isinstance(pr, (list, tuple))
                    and len(v) == len(pr) > 0
                    and all(is_number(a) for a in (*v, *pr))):
                raise InvalidSpecError("discrete-table spec: values and probs "
                                       "must be nonempty lists of finite numbers "
                                       "of equal length")
        elif not all(is_number(p[k]) for k in expected):
            raise InvalidSpecError(f"{self.kind} spec: each of "
                                   f"{', '.join(expected)} must be a finite number")
        if self.kind == "point-mass":
            if p["value"] <= 0:
                raise InvalidSpecError("point mass must sit in (0, inf)")
        elif self.kind == "exponential":
            if p["rate"] <= 0:
                raise InvalidSpecError("rate must be positive")
        elif self.kind == "uniform":
            if not (0 <= p["low"] < p["high"]):
                raise InvalidSpecError("need 0 <= low < high")
        elif self.kind == "discrete-table":
            v = np.asarray(p["values"], dtype=float)
            pr = np.asarray(p["probs"], dtype=float)
            if v.min() <= 0:
                raise InvalidSpecError("atoms must be positive")
            if pr.min() < 0 or abs(pr.sum() - 1.0) > 1e-12:
                raise InvalidSpecError("probs must be a distribution")
        elif self.kind == "power-tail":
            g = p["tail_index"]
            if not (1.0 < g < 2.0):
                raise InvalidSpecError("tail_index must lie in (1, 2)")
            if p["tail_constant"] <= 0 or p["cutoff"] <= 0:
                raise InvalidSpecError("tail_constant and cutoff must be positive")
            if self.tail_mass() > 1.0 + 1e-12:
                raise InvalidSpecError(
                    "tail_constant * cutoff**(-(tail_index+1)) exceeds 1"
                )

    def tail_mass(self) -> float:
        """P(X >= cutoff) for the power-tail kind."""
        p = self.params
        return p["tail_constant"] * p["cutoff"] ** (-(p["tail_index"] + 1.0))

    @property
    def heavy(self) -> bool:
        return self.kind == "power-tail"


def point_mass(value: float, label: str = "b") -> WeightSpec:
    return WeightSpec("point-mass", {"value": float(value)}, label)


def exponential(rate: float, label: str = "b") -> WeightSpec:
    return WeightSpec("exponential", {"rate": float(rate)}, label)


def uniform(low: float, high: float, label: str = "b") -> WeightSpec:
    return WeightSpec("uniform", {"low": float(low), "high": float(high)}, label)


def discrete_table(values, probs, label: str = "b") -> WeightSpec:
    return WeightSpec(
        "discrete-table",
        {"values": tuple(float(v) for v in values), "probs": tuple(float(q) for q in probs)},
        label,
    )


def power_tail(tail_index: float, tail_constant: float, cutoff: float = 1.0,
               label: str = "b") -> WeightSpec:
    return WeightSpec(
        "power-tail",
        {"tail_index": float(tail_index), "tail_constant": float(tail_constant),
         "cutoff": float(cutoff)},
        label,
    )


def moment(spec: WeightSpec, r: float) -> float:
    """r-th moment of the law from exact formulas, +inf when the integral
    diverges."""
    if r <= 0:
        raise ValueError("moment order must be positive")
    p = spec.params
    if spec.kind == "power-tail" and r >= p["tail_index"] + 1.0:
        return math.inf
    if spec.kind == "point-mass":
        return p["value"] ** r
    if spec.kind == "exponential":
        return math.gamma(r + 1.0) / p["rate"] ** r
    if spec.kind == "uniform":
        lo, hi = p["low"], p["high"]
        return (hi ** (r + 1.0) - lo ** (r + 1.0)) / ((r + 1.0) * (hi - lo))
    if spec.kind == "discrete-table":
        v = np.asarray(p["values"])
        return float(np.dot(np.asarray(p["probs"]), v ** r))
    # power-tail mixture: uniform body on (0, cutoff) + Pareto(tail_index+1) tail
    g, c = p["tail_index"], p["cutoff"]
    pt = spec.tail_mass()
    body = (1.0 - pt) * c ** r / (r + 1.0)
    tail = pt * (g + 1.0) * c ** r / (g + 1.0 - r)
    return body + tail


def _moment_quadrature(spec: WeightSpec, r: float) -> float:
    """Reference for ``moment`` at a finite order: an adaptive quadrature
    (continuous kinds) with relative error target QUADRATURE_RTOL."""
    from scipy import integrate

    p = spec.params
    if spec.kind == "point-mass":
        return p["value"] ** r
    if spec.kind == "discrete-table":
        v = np.asarray(p["values"])
        return float(np.dot(np.asarray(p["probs"]), v ** r))
    if spec.kind == "exponential":
        rate = p["rate"]
        val, _ = integrate.quad(lambda x: x ** r * rate * math.exp(-rate * x),
                                0, np.inf, epsrel=QUADRATURE_RTOL * 1e-2)
        return val
    if spec.kind == "uniform":
        lo, hi = p["low"], p["high"]
        val, _ = integrate.quad(lambda x: x ** r / (hi - lo), lo, hi,
                                epsrel=QUADRATURE_RTOL * 1e-2)
        return val
    g, c = p["tail_index"], p["cutoff"]
    pt = spec.tail_mass()
    body, _ = integrate.quad(lambda x: x ** r * (1.0 - pt) / c, 0, c,
                             epsabs=0.0, epsrel=QUADRATURE_RTOL * 1e-2)
    # tail via u = cutoff/x, turning the power decay into a finite integral
    tail, _ = integrate.quad(
        lambda u: (g + 1.0) * p["tail_constant"] * c ** (r - g - 1.0) * u ** (g - r),
        0.0, 1.0, epsabs=0.0, epsrel=QUADRATURE_RTOL * 1e-2)
    return body + tail


def survival(spec: WeightSpec, x: float) -> float:
    """P(X > x)."""
    p = spec.params
    if spec.kind == "point-mass":
        return 1.0 if x < p["value"] else 0.0
    if spec.kind == "exponential":
        return math.exp(-p["rate"] * max(x, 0.0))
    if spec.kind == "uniform":
        lo, hi = p["low"], p["high"]
        if x < lo:
            return 1.0
        if x >= hi:
            return 0.0
        return (hi - x) / (hi - lo)
    if spec.kind == "discrete-table":
        v = np.asarray(p["values"])
        return float(np.dot(np.asarray(p["probs"]), (v > x).astype(float)))
    g, c = p["tail_index"], p["cutoff"]
    if x >= c:
        return p["tail_constant"] * x ** (-(g + 1.0))
    pt = spec.tail_mass()
    return 1.0 - (1.0 - pt) * max(x, 0.0) / c


def sample_weights(spec: WeightSpec, count: int, seed) -> np.ndarray:
    """i.i.d. draws from the law; deterministic given the seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    p = spec.params
    if spec.kind == "point-mass":
        return np.full(count, p["value"])
    if spec.kind == "exponential":
        return rng.exponential(1.0 / p["rate"], size=count)
    if spec.kind == "uniform":
        return rng.uniform(p["low"], p["high"], size=count)
    if spec.kind == "discrete-table":
        return rng.choice(np.asarray(p["values"]), size=count,
                          p=np.asarray(p["probs"]))
    g, c = p["tail_index"], p["cutoff"]
    pt = spec.tail_mass()
    u = rng.random(count)
    out = np.empty(count)
    tail = u < pt
    # inverse-CDF of the Pareto tail: S(x) = pt * (x/c)^{-(g+1)}
    out[tail] = c * (u[tail] / pt) ** (-1.0 / (g + 1.0))
    out[~tail] = rng.uniform(0.0, c, size=int((~tail).sum()))
    return out


def sample_size_biased(spec: WeightSpec, count: int, seed) -> np.ndarray:
    """Draws from the size-biased law x dF(x) / sigma_1.

    Used for compound-Poisson jump sizes whose intensity is x dF(x).
    """
    rng = np.random.default_rng(seed)
    p = spec.params
    if spec.kind == "point-mass":
        return np.full(count, p["value"])
    if spec.kind == "exponential":
        # x * rate * e^{-rate x} / sigma_1 is Gamma(2, 1/rate)
        return rng.gamma(2.0, 1.0 / p["rate"], size=count)
    if spec.kind == "uniform":
        lo, hi = p["low"], p["high"]
        u = rng.random(count)
        return np.sqrt(lo * lo + u * (hi * hi - lo * lo))
    if spec.kind == "discrete-table":
        v = np.asarray(p["values"])
        w = np.asarray(p["probs"]) * v
        return rng.choice(v, size=count, p=w / w.sum())
    g, c = p["tail_index"], p["cutoff"]
    pt = spec.tail_mass()
    w_body = (1.0 - pt) * c / 2.0           # integral of x dF below cutoff
    w_tail = pt * (g + 1.0) * c / g         # and above
    u = rng.random(count)
    out = np.empty(count)
    tail = u < w_tail / (w_body + w_tail)
    # size-biased Pareto(g+1) is Pareto(g)
    out[tail] = c * rng.random(int(tail.sum())) ** (-1.0 / g)
    out[~tail] = c * np.sqrt(rng.random(int((~tail).sum())))
    return out


def rescale(spec: WeightSpec, factor: float) -> WeightSpec:
    """The law of factor * X.  Every kind is closed under rescaling."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    p = spec.params
    if spec.kind == "point-mass":
        return point_mass(p["value"] * factor, spec.label)
    if spec.kind == "exponential":
        return exponential(p["rate"] / factor, spec.label)
    if spec.kind == "uniform":
        return uniform(p["low"] * factor, p["high"] * factor, spec.label)
    if spec.kind == "discrete-table":
        return discrete_table([v * factor for v in p["values"]], p["probs"],
                              spec.label)
    # survival of factor*X at x is C (x/factor)^{-(g+1)}: still exact power tail
    g = p["tail_index"]
    return power_tail(g, p["tail_constant"] * factor ** (g + 1.0),
                      p["cutoff"] * factor, spec.label)


@dataclass(frozen=True)
class CriticalPair:
    """A critical black/white pair with m = floor(theta * n)."""

    spec_b: WeightSpec
    spec_w: WeightSpec
    theta: float
    n: int

    def __post_init__(self):
        if self.theta <= 0 or self.n < 1:
            raise InvalidSpecError("need theta > 0 and n >= 1")
        if self.m < 1:
            raise InvalidSpecError("m = floor(theta*n) must be at least 1")

    @property
    def m(self) -> int:
        return int(math.floor(self.theta * self.n))

    @property
    def z(self) -> float:
        return math.sqrt(self.m * self.n)

    @property
    def rho(self) -> float:
        return moment(self.spec_b, 2) / math.sqrt(self.theta)


def make_critical_pair(spec_b: WeightSpec, spec_w: WeightSpec, theta: float,
                       n: int) -> CriticalPair:
    """Rescale the white spec so that sigma2_b * sigma2_w = 1 exactly."""
    s2b = moment(spec_b, 2)
    s2w = moment(spec_w, 2)
    scale = 1.0 / math.sqrt(s2b * s2w)
    return CriticalPair(spec_b, rescale(spec_w, scale), theta, n)


@dataclass(frozen=True)
class RegimeReport:
    theta: float
    rho: float
    regime: str
    alpha: float | None
    product: float


def validate_critical_pair(pair: CriticalPair) -> RegimeReport:
    """Check criticality and classify the tail regime.

    By convention the white tail must not be heavier than the black one;
    swap the roles of the two vertex classes otherwise.
    """
    s2b = moment(pair.spec_b, 2)
    s2w = moment(pair.spec_w, 2)
    product = s2b * s2w
    if abs(product - 1.0) > CRITICALITY_TOL:
        raise CriticalityError(product)
    b, w = pair.spec_b, pair.spec_w
    if not b.heavy and not w.heavy:
        regime, alpha = REGIME_THIRD, None
    elif b.heavy and not w.heavy:
        regime, alpha = REGIME_DOMINANT, b.params["tail_index"]
    elif b.heavy and w.heavy:
        ab = b.params["tail_index"]
        aw = w.params["tail_index"]
        if aw < ab:
            raise InvalidSpecError(
                "white tail heavier than black; swap the vertex classes")
        regime = REGIME_MATCHED if aw == ab else REGIME_DOMINANT
        alpha = ab
    else:
        raise InvalidSpecError(
            "white tail heavier than black; swap the vertex classes")
    return RegimeReport(pair.theta, s2b / math.sqrt(pair.theta), regime,
                        alpha, product)


def spec_to_dict(spec: WeightSpec) -> dict:
    d = {"kind": spec.kind, "label": spec.label}
    d.update({k: (list(v) if isinstance(v, tuple) else v)
              for k, v in spec.params.items()})
    return d


def spec_from_dict(d: dict) -> WeightSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidSpecError(f"weight spec needs a 'kind' key, one of "
                               f"{', '.join(KINDS)}")
    d = dict(d)
    kind = d.pop("kind")
    label = d.pop("label", "b")
    if kind == "discrete-table":
        d.update({k: tuple(d[k]) for k in ("values", "probs")
                  if isinstance(d.get(k), list)})
    return WeightSpec(kind, d, label)
