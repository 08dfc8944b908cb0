"""Experiment orchestration: replicated discrete runs, the Poissonised
surplus sampler, limit ensembles, and statistical comparisons.

The desk-scale surrogate for the heavy limit statements is scalar: the
k-th largest rescaled white component weight against the k-th longest
excursion of the simulated tilted limit path.  Full metric-measure
convergence is not checked here; the exact identity suite carries the
per-run guarantees instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import encoding, lifo
from .graph_core import adjacency, double_sweep
from .limit_sim import LimitParams, MarkSet, excursion_runs, simulate_z
from .poisson_model import sample_conditioned
from .weights import (CriticalPair, WeightSpec, is_number, spec_from_dict,
                      spec_to_dict, validate_critical_pair)

REPORT_SCHEMA = "bicrit-run-report-1"
FEATURES = ("masses", "full")


class ConfigError(ValueError):
    """A config or command-line value the program cannot run with."""


def _check_keys(cls, d: dict, where: str) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {where} keys: {', '.join(missing)}")


@dataclass
class LimitConfig:
    """Limit ensemble of ``compare``.  ``epsilon`` is reserved and inert:
    nothing reads it, but it stays in the hashed config so that report
    hashes do not move."""

    horizon: float = 10.0
    step: float = 1e-3
    paths: int = 2000
    epsilon: float | None = None


def check_limit_grid(horizon: float, step: float) -> None:
    """The grid rule of a limit path: ``simulate_z`` needs a finite
    horizon > 0 and a step of at most a thousandth of the horizon."""
    if not (0 < horizon < math.inf and 0 < step <= 1e-3 * horizon):
        raise ConfigError(f"limit needs a finite horizon > 0 and step in "
                          f"(0, horizon / 1000], got horizon={horizon!r} "
                          f"and step={step!r}")


@dataclass
class ExperimentConfig:
    spec_b: WeightSpec
    spec_w: WeightSpec
    theta: float
    n: int
    replicates: int = 100
    seed: int = 0
    top_k: int = 2
    features: str = "full"           # "masses" skips surplus and diameters
    workers: int = 1
    limit: LimitConfig = field(default_factory=LimitConfig)
    out_dir: str | None = None

    def pair(self) -> CriticalPair:
        return CriticalPair(self.spec_b, self.spec_w, self.theta, self.n)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spec_b"] = spec_to_dict(self.spec_b)
        d["spec_w"] = spec_to_dict(self.spec_w)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config; raises ConfigError on unknown or missing keys,
        an unknown ``features`` value, a number of the wrong type, a
        negative seed, a count below 1, or a limit grid that breaks
        ``check_limit_grid``."""
        _check_keys(cls, d, "config")
        d = dict(d)
        d["spec_b"] = spec_from_dict(d["spec_b"])
        d["spec_w"] = spec_from_dict(d["spec_w"])
        if "limit" in d:
            if not isinstance(d["limit"], dict):
                raise ConfigError("limit must be a JSON object")
            _check_keys(LimitConfig, d["limit"], "limit")
            d["limit"] = LimitConfig(**d["limit"])
        cfg = cls(**d)
        if cfg.features not in FEATURES:
            raise ConfigError(f"features must be one of {FEATURES}, "
                              f"got {cfg.features!r}")
        lim = cfg.limit
        for name, value in (("theta", cfg.theta), ("limit.horizon", lim.horizon),
                            ("limit.step", lim.step)):
            if not is_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        check_limit_grid(lim.horizon, lim.step)
        if not (lim.epsilon is None or is_number(lim.epsilon)):
            raise ConfigError(f"limit.epsilon must be a finite number or null, "
                              f"got {lim.epsilon!r}")
        for name, value, low in (("seed", cfg.seed, 0), ("n", cfg.n, 1),
                                 ("replicates", cfg.replicates, 1),
                                 ("top_k", cfg.top_k, 1),
                                 ("workers", cfg.workers, 1),
                                 ("limit.paths", lim.paths, 1)):
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, "
                                  f"got {value!r}")
        return cfg


@dataclass
class ComponentSummary:
    x_mass: float
    y_mass: float
    root_black: int
    surplus_count: int = 0
    diameter_bound: int = 0
    y_rank: int = 0                  # 1-based rank of this component by y mass


@dataclass
class ReplicateSummary:
    index: int
    seed: int
    kappa: int
    top_by_x: list[ComponentSummary]
    y_ranked_masses: list[float]     # k largest y masses, descending


@dataclass
class RunReport:
    config: dict
    replicates: list[ReplicateSummary]
    kappa_zero_count: int
    partial: bool = False            # resource cap hit before all replicates
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "kappa_zero_count": self.kappa_zero_count,
            "partial": self.partial,
            "replicates": [
                {
                    "index": r.index, "seed": r.seed, "kappa": r.kappa,
                    "top_by_x": [asdict(c) for c in r.top_by_x],
                    "y_ranked_masses": r.y_ranked_masses,
                }
                for r in self.replicates
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        reps = [ReplicateSummary(
            index=r["index"], seed=r["seed"], kappa=r["kappa"],
            top_by_x=[ComponentSummary(**c) for c in r["top_by_x"]],
            y_ranked_masses=list(r["y_ranked_masses"]))
            for r in d["replicates"]]
        return cls(config=d["config"], replicates=reps,
                   kappa_zero_count=d["kappa_zero_count"],
                   partial=d.get("partial", False), schema=d["schema"])

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Poissonised surplus edges


def _timeline(record: lifo.ExplorationRecord):
    """The serving pieces with the idle stretches between them filled in.

    Returns the timeline index of each serving piece and, per timeline
    piece, its end time, the reflected load at its end and the black in
    service (-1 while idle); the last array has one more -1 for the time
    after the last piece."""
    t0, t1 = record.piece_t0, record.piece_t1
    idle = t0 > np.concatenate([[0.0], t1[:-1]])     # idle piece before
    position = np.arange(len(t0)) + np.cumsum(idle)
    size = len(t0) + int(idle.sum())
    end_t = np.empty(size)
    end_t[position] = t1
    end_t[position[idle] - 1] = t0[idle]
    end_level = np.zeros(size)
    end_level[position] = record.piece_load0 - (t1 - t0)
    black = np.full(size + 1, -1)
    black[position] = record.piece_black
    return position, end_t, end_level, black


def _locate_previous(end_level: np.ndarray, j_atom: int, y: float) -> int:
    """Last timeline piece before ``j_atom`` that ends with the load at or
    below y, or -1: the load sat at or below y last at that piece's end,
    and the client served next arrived there.  Looks back through windows
    of growing width."""
    bound = y + 1e-12
    hi, width = j_atom, 64
    while hi > 0:
        lo = max(hi - width, 0)
        hits = np.flatnonzero(end_level[lo:hi] <= bound)
        if len(hits):
            return lo + int(hits[-1])
        hi, width = lo, 4 * width
    return -1


def poissonized_surplus(record: lifo.ExplorationRecord,
                        sigma: encoding.SigmaTransfer, seed
                        ) -> tuple[MarkSet, list[tuple[int, int]]]:
    """Surplus edges from a Poisson rain under the reflected load path.

    Atoms fall with rate 1/z on the region whose first coordinate runs
    through the transferred (black-weight) scale and whose fibre at time t
    is [0, load(t)].  Each atom maps to the serving client and the client
    served at the last time the load sat at or below the atom's level;
    self-pairs are dropped from the edge list but kept in the marks.
    """
    rng = np.random.default_rng(seed)
    z = record.z
    x, delta = record.x, record.delta
    position, end_t, end_level, tl_black = _timeline(record)
    t0, r0, black = record.piece_t0, record.piece_load0, record.piece_black
    length = record.piece_t1 - t0
    rate = x[black] / delta[black]
    # float_power calls the C library's pow, as ``length ** 2`` on a scalar
    # does; squaring rounds differently on about one input in a thousand
    piece_area = rate * (r0 * length - 0.5 * np.float_power(length, 2))
    loaded = np.flatnonzero(record.point_load > 0.0)
    areas = np.concatenate([piece_area, x[record.point_black[loaded]]
                            * record.point_load[loaded]])
    total_area = float(areas.sum())
    count = int(rng.poisson(total_area / z)) if total_area > 0 else 0
    if count == 0:
        return MarkSet(np.empty((0, 2)), np.empty((0, 2))), []

    # a zero-service arrival sits in the timeline piece that follows the
    # last serving piece closed before it
    point_piece = np.concatenate([[0], position + 1])[record.point_piece]
    pairs = np.empty((count, 2))
    atoms = np.empty((count, 2))
    edges: list[tuple[int, int]] = []
    chosen = rng.choice(len(areas), size=count, p=areas / total_area)
    for idx, which in enumerate(chosen.tolist()):
        if which < len(t0):
            r, span = r0[which], length[which]
            u = rng.random()
            # inverse CDF of the linear density r0 - tau on [0, length]
            area_t = r * span - 0.5 * span ** 2
            tau = r - math.sqrt(max(r ** 2 - 2.0 * u * area_t, 0.0))
            tau = min(tau, span)
            t = t0[which] + tau
            y = rng.uniform(0.0, r - tau)
            s = float(sigma.value(t0[which])) + rate[which] * tau
            b = black[which]
            j_atom = position[which]
        else:
            q = loaded[which - len(t0)]
            t, b = record.point_t[q], record.point_black[q]
            y = rng.uniform(0.0, record.point_load[q])
            s = rng.uniform(sigma.left_value(t), float(sigma.value(t)))
            j_atom = point_piece[q]
        j = _locate_previous(end_level, j_atom, y)
        pairs[idx] = (t, end_t[j] if j >= 0 else 0.0)
        atoms[idx] = (s, y)
        b_prev = tl_black[j + 1] if j >= 0 else -1
        if b_prev >= 0 and b_prev != b:
            edges.append((int(b), int(b_prev)))
    return MarkSet(pairs, atoms), edges


# ---------------------------------------------------------------------------
# discrete replicated runs


def rank_components(x_mass: np.ndarray, y_mass: np.ndarray, top_k: int):
    """The ``top_k`` components by x mass, the 1-based rank by y mass of
    each of them, and the ``top_k`` largest y masses, descending.  Both
    rankings are stable: equal masses keep exploration order.  Equal means
    equal as floats.  y masses that are equal in exact arithmetic, such as
    components with as many point-mass whites, can come out a few ulps
    apart from the summation, and then rank in the order rounding gives
    them; ROADMAP item 9(b) takes that up.

    Only what is reported is sorted.  The components with x mass at or
    above the ``top_k``-th largest hold the top ``top_k``; they are taken in
    exploration order, so a stable sort of them is the head of the stable
    order of all.  The stable rank of component c by y mass is
    ``#(y > y_c) + #(y[:c] == y_c) + 1``.
    """
    kappa = len(y_mass)
    if kappa > top_k:
        cut = kappa - top_k
        cand = np.flatnonzero(x_mass >= np.partition(x_mass, cut)[cut])
        y_top = np.partition(y_mass, cut)[cut:]
    else:
        cand = np.arange(kappa)
        y_top = y_mass
    by_x = cand[np.argsort(-x_mass[cand], kind="stable")[:top_k]].tolist()
    y_rank = [int(np.count_nonzero(y_mass > y_mass[c])
                  + np.count_nonzero(y_mass[:c] == y_mass[c])) + 1
              for c in by_x]
    return by_x, y_rank, np.sort(y_top)[::-1].tolist()


def _masses_only_replicate(pair: CriticalPair, top_k: int,
                           seed: int) -> ReplicateSummary:
    coupling = sample_conditioned(pair, seed)
    clocks = lifo.ClockSet(coupling.black_clocks, coupling.white_clocks)
    y_mass, x_mass, roots = lifo.component_masses(
        coupling.black_weights, coupling.white_weights, pair.z, clocks)
    by_x, y_rank, y_ranked = rank_components(x_mass, y_mass, top_k)
    tops = [ComponentSummary(float(x_mass[c]), float(y_mass[c]),
                             int(roots[c]), y_rank=rank)
            for c, rank in zip(by_x, y_rank)]
    return ReplicateSummary(0, seed, len(y_mass), tops, y_ranked)


def _full_replicate(pair: CriticalPair, top_k: int, seed: int) -> ReplicateSummary:
    coupling = sample_conditioned(pair, seed)
    clocks = lifo.ClockSet(coupling.black_clocks, coupling.white_clocks)
    x, y = coupling.black_weights, coupling.white_weights
    record = lifo.explore(x, y, pair.z, clocks)
    zpaths = encoding.z_process(record)
    sigma = encoding.sigma_transfer(record)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    _marks, surplus_pairs = poissonized_surplus(record, sigma, rng)

    exc = encoding.excursion_table(zpaths.queue_load,
                                   x_by_jump=x[record.order])
    kappa = len(exc)
    if kappa == 0:
        return ReplicateSummary(0, seed, 0, [], [])
    comp_of_black = np.empty(record.n, dtype=int)
    comp_of_black[record.order] = exc.component
    surplus = np.array(sorted(set(surplus_pairs)), dtype=int).reshape(-1, 2)
    surplus_comp = comp_of_black[surplus[:, 0]]
    surplus_per_comp = np.zeros(kappa, dtype=int)
    np.add.at(surplus_per_comp, surplus_comp, 1)

    by_x, y_rank, y_ranked = rank_components(exc.x_mass, exc.y_mass, top_k)
    tops = []
    for c, rank in zip(by_x, y_rank):
        blacks = record.order[exc.root_jump[c]:exc.end_jump[c]]
        shortcuts = surplus[surplus_comp == c]
        tops.append(ComponentSummary(
            float(exc.x_mass[c]), float(exc.y_mass[c]), int(blacks[0]),
            surplus_count=int(surplus_per_comp[c]),
            diameter_bound=_component_diameter(record, blacks, shortcuts),
            y_rank=rank))
    return ReplicateSummary(0, seed, kappa, tops, y_ranked)


def _component_diameter(record: lifo.ExplorationRecord, blacks: np.ndarray,
                        surplus: np.ndarray) -> int:
    """Double BFS sweep on the component of the distance-modified graph
    (forest plus the black-to-black shortcut rows of ``surplus``).  Local
    vertex ids: ``blacks`` in exploration order, root first, then the
    component's whites by index."""
    whites = np.flatnonzero(np.isin(record.parent_black, blacks))
    nb = len(blacks)
    local = np.empty(record.n, dtype=np.intp)
    local[blacks] = np.arange(nb)
    parent_white = record.parent_white[blacks]
    joined = parent_white >= 0
    us = np.concatenate([local[record.parent_black[whites]],
                         np.flatnonzero(joined), local[surplus[:, 0]]])
    vs = np.concatenate([np.arange(nb, nb + len(whites)),
                         nb + np.searchsorted(whites, parent_white[joined]),
                         local[surplus[:, 1]]])
    return double_sweep(adjacency(nb + len(whites), us.tolist(), vs.tolist()), 0)


def _one_replicate(job) -> ReplicateSummary:
    pair, top_k, features, seed = job
    if features == "masses":
        return _masses_only_replicate(pair, top_k, seed)
    return _full_replicate(pair, top_k, seed)


def run_discrete(config: ExperimentConfig) -> RunReport:
    """Replicated pipeline: conditioned sampling, exploration, encodings,
    component extraction and the Poissonised surplus, with rescaled
    observables recorded per replicate.

    Deterministic given the seed: replicate seeds are spawned up front and
    results are merged in index order, so the report does not depend on the
    worker count.  When a replicate runs out of memory, serially or in a
    worker, the report keeps the replicates merged before it and is marked
    partial."""
    pair = config.pair()
    validate_critical_pair(pair)
    seed_seq = np.random.SeedSequence(config.seed)
    child_seeds = [int(s.generate_state(1)[0]) for s in
                   seed_seq.spawn(config.replicates)]
    jobs = [(pair, config.top_k, config.features, s) for s in child_seeds]
    pool = (multiprocessing.Pool(config.workers)
            if config.workers > 1 and len(jobs) > 1 else None)
    results = (map(_one_replicate, jobs) if pool is None
               else pool.imap(_one_replicate, jobs, chunksize=16))
    reps = []
    partial = False
    try:
        for rep in results:
            reps.append(rep)
    except MemoryError:
        partial = True
    finally:
        if pool is not None:
            pool.terminate()
    kappa_zero = 0
    for i, rep in enumerate(reps):
        rep.index = i
        if rep.kappa == 0:
            kappa_zero += 1
    return RunReport(config=config.to_dict(), replicates=reps,
                     kappa_zero_count=kappa_zero, partial=partial)


# ---------------------------------------------------------------------------
# limit ensembles and comparison


@dataclass
class LimitEnsemble:
    params: LimitParams
    lengths: np.ndarray              # (paths, top_k) longest-excursion lengths
    horizon: float
    step: float


def top_excursion_lengths(values: np.ndarray, step: float, k: int) -> np.ndarray:
    """The k longest excursion lengths of a grid path, descending, padded
    with zeros."""
    starts, ends = excursion_runs(values)
    lengths = (ends - starts + 1) * step
    top = np.sort(lengths)[::-1]
    out = np.zeros(k)
    out[:min(k, len(top))] = top[:k]
    return out


def simulate_limit_ensemble(params: LimitParams, paths: int, horizon: float,
                            step: float, top_k: int, seed) -> LimitEnsemble:
    seq = (seed if isinstance(seed, np.random.SeedSequence)
           else np.random.SeedSequence(seed))
    lengths = np.empty((paths, top_k))
    for i, child in enumerate(seq.spawn(paths)):
        path = simulate_z(params, horizon, step, child)
        lengths[i] = top_excursion_lengths(path.values, step, top_k)
    return LimitEnsemble(params, lengths, horizon, step)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance, equal to
    ``scipy.stats.ks_2samp(a, b).statistic``: when neither sample exceeds
    10000 points, scipy's exact mode rounds the distance to a multiple of
    1 / lcm(n1, n2).  nan when a sample is empty."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    if min(n1, n2) == 0:
        return math.nan
    both = np.concatenate([a, b])
    diff = (np.searchsorted(a, both, side="right") / n1
            - np.searchsorted(b, both, side="right") / n2)
    d = max(float(np.clip(-diff.min(), 0, 1)), float(diff.max()))
    if max(n1, n2) <= 10000:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = round(d * lcm) / lcm
    return d


@dataclass
class ComparisonResult:
    ks_y: list[float]                # per rank k, y-mass scale vs lengths
    ks_x: list[float]                # x-mass scale vs rho * lengths
    mass_exponent: float
    threshold: float
    passed: bool


def compare_with_limit(report: RunReport, ensemble: LimitEnsemble,
                       threshold: float = 0.1,
                       mass_exponent: float | None = None) -> ComparisonResult:
    """Two-sample KS distances between rescaled component weights and the
    ranked excursion lengths of the limit ensemble."""
    cfg = report.config
    n = cfg["n"]
    pair_regime = validate_critical_pair(ExperimentConfig.from_dict(cfg).pair())
    if mass_exponent is None:
        alpha = 2.0 if pair_regime.alpha is None else pair_regime.alpha
        mass_exponent = alpha / (alpha + 1.0)
    top_k = ensemble.lengths.shape[1]
    if top_k > cfg["top_k"]:
        raise ValueError("ensemble ranks exceed the ranks recorded in the run")
    rho = ensemble.params.rho
    ks_y = []
    ks_x = []
    for k in range(top_k):
        disc_y = np.array([r.y_ranked_masses[k] for r in report.replicates
                           if len(r.y_ranked_masses) > k]) / n ** mass_exponent
        limit_k = ensemble.lengths[:, k]
        ks_y.append(_ks_statistic(disc_y, limit_k))
        disc_x = np.array([r.top_by_x[k].x_mass for r in report.replicates
                           if len(r.top_by_x) > k]) / n ** mass_exponent
        ks_x.append(_ks_statistic(disc_x, rho * limit_k))
    passed = all(v <= threshold for v in ks_y)
    return ComparisonResult(ks_y, ks_x, mass_exponent, threshold, passed)


@dataclass
class RankingReport:
    agreement_frequency: float
    ratio_mean: float
    ratio_ci_low: float
    ratio_ci_high: float
    replicates_used: int


def ranking_consistency(report: RunReport) -> RankingReport:
    """Frequency with which the top component by black weight is the top
    component by white weight, plus the mass-ratio statistics."""
    agree = 0
    used = 0
    ratios = []
    for rep in report.replicates:
        if not rep.top_by_x:
            continue
        used += 1
        top = rep.top_by_x[0]
        if top.y_rank == 1:
            agree += 1
        if top.y_mass > 0:
            ratios.append(top.x_mass / top.y_mass)
    ratios = np.asarray(ratios)
    mean = float(ratios.mean()) if len(ratios) else math.nan
    se = float(ratios.std(ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else math.nan
    return RankingReport(
        agreement_frequency=agree / used if used else math.nan,
        ratio_mean=mean, ratio_ci_low=mean - 1.96 * se,
        ratio_ci_high=mean + 1.96 * se, replicates_used=used)


# ---------------------------------------------------------------------------
# report emission


def emit(report: RunReport, out_dir: str) -> dict:
    """Write the report as JSON and a CSV table, plus a JSON summary;
    returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = {"json": os.path.join(out_dir, "report.json"),
               "csv": os.path.join(out_dir, "components.csv")}
    with open(written["json"], "w") as fh:
        fh.write(report.canonical_json())
    with open(written["csv"], "w") as fh:
        fh.write("replicate,seed,kappa,rank_x,x_mass,y_mass,"
                 "surplus_count,diameter_bound,y_rank\n")
        for rep in report.replicates:
            for k, comp in enumerate(rep.top_by_x):
                fh.write(f"{rep.index},{rep.seed},{rep.kappa},{k + 1},"
                         f"{comp.x_mass!r},{comp.y_mass!r},"
                         f"{comp.surplus_count},{comp.diameter_bound},"
                         f"{comp.y_rank}\n")
    meta = os.path.join(out_dir, "summary.json")
    with open(meta, "w") as fh:
        json.dump({"schema": report.schema, "hash": report.content_hash(),
                   "replicates": len(report.replicates),
                   "kappa_zero_count": report.kappa_zero_count},
                  fh, sort_keys=True, indent=2)
    written["summary"] = meta
    return written
