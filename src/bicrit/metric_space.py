"""Function-encoded pseudo-metric spaces, shortcut graphs and comparisons.

A nonnegative cadlag step function h on [0, zeta] codes a tree-like
pseudo-metric d(s, t) = h(s) + h(t) - 2 min h on [s, t]; quotienting the
zero-distance pairs yields a finite measured metric space once time is
sampled.  Shortcut pairs contribute min(eps, d) to path lengths, and the
eps = 0 case re-quotients the identified points.

Comparison distance: the infimum over common embeddings of Hausdorff plus
Prokhorov discrepancy.  For finite spaces every embedding is realised by a
cross-distance matrix gluing the two point sets, so the computation here
searches correspondences built from pairs of maps, glues with the midpoint
radius, and evaluates Hausdorff and Prokhorov exactly on the glued space.
The search is exhaustive below a size cap and a seeded local search above
it; the reported value is therefore an upper bound within the documented
family rather than a certified infimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import bfs

#: points closer than this merge into one quotient class
MERGE_TOL = 1e-9

#: metric sanity tolerance on triangle inequality checks
TRIANGLE_TOL = 1e-9

#: joint (f, g) enumerations up to this size are exhaustive
_EXHAUSTIVE_CAP = 1500
_PRUNED_CAP = 11_000_000     # vectorised distortion scan, value on best few
_TOP_CANDIDATES = 1500


@dataclass
class CodedFunction:
    """Sampled coding function: value at t is that of the last sample <= t."""

    times: np.ndarray
    values: np.ndarray
    zeta: float
    kind: str = "finite-range"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.times) != len(self.values) or not len(self.times):
            raise ValueError("need matching, nonempty sample arrays")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must increase")
        if self.times[0] < 0 or self.times[-1] > self.zeta:
            raise ValueError("samples must lie in [0, zeta]")
        if np.any(self.values < 0):
            raise ValueError("coding functions are nonnegative")
        if self.kind not in ("continuous", "finite-range"):
            raise ValueError("kind must be 'continuous' or 'finite-range'")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                      0, len(self.times) - 1)
        out = self.values[idx]
        return out if out.ndim else float(out)

    def index_of(self, t: float) -> int:
        if not 0 <= t <= self.zeta:
            raise ValueError("time outside the domain")
        return int(np.clip(np.searchsorted(self.times, t, side="right") - 1,
                           0, len(self.times) - 1))

    def extended(self, t):
        """Evaluation extended by zero beyond zeta."""
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.zeta, 0.0, self.evaluate(np.minimum(t, self.zeta)))
        return out if out.ndim else float(out)


def coded_distance(h: CodedFunction, s: float, t: float) -> float:
    """h(s) + h(t) - 2 min h over [min(s,t), max(s,t)]."""
    i, j = sorted((h.index_of(s), h.index_of(t)))
    trough = float(h.values[i:j + 1].min())
    return float(h.values[i] + h.values[j] - 2.0 * trough)


def _pairwise_coded(values: np.ndarray) -> np.ndarray:
    n = len(values)
    d = np.zeros((n, n))
    for a in range(n):
        trough = np.minimum.accumulate(values[a:])
        d[a, a:] = values[a] + values[a:] - 2.0 * trough
    return np.maximum(d, d.T)


@dataclass
class FiniteMeasuredMetricSpace:
    dist: np.ndarray
    masses: np.ndarray
    labels: list | None = None

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        n = len(self.masses)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        if np.any(self.masses < 0):
            raise ValueError("masses must be nonnegative")
        if np.any(np.abs(self.dist - self.dist.T) > TRIANGLE_TOL):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(self.dist)) > TRIANGLE_TOL):
            raise ValueError("diagonal must vanish")
        scale = max(1.0, float(self.dist.max(initial=0.0)))
        if n <= 60:
            via = (self.dist[:, :, None] + self.dist[None, :, :]).min(axis=1)
            if np.any(self.dist - via > TRIANGLE_TOL * scale):
                raise ValueError("triangle inequality violated")
        else:
            # full check is cubic; spot-check a fixed batch of triples
            rng = np.random.default_rng(12345)
            for _ in range(2000):
                a, b, c = rng.integers(0, n, size=3)
                if self.dist[a, c] - (self.dist[a, b] + self.dist[b, c]) > \
                        TRIANGLE_TOL * scale:
                    raise ValueError("triangle inequality violated")

    @property
    def size(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def diameter(self) -> float:
        return float(self.dist.max(initial=0.0))

    def to_csv(self, path) -> None:
        """Distance matrix with the mass vector as a trailing column."""
        block = np.column_stack([self.dist, self.masses])
        np.savetxt(path, block, delimiter=",")


def _merge_classes(dist: np.ndarray, masses: np.ndarray,
                   tol: float = MERGE_TOL):
    """Union points at mutual distance below tol; masses add up."""
    n = len(masses)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if dist[a, b] < tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    reps: list[int] = []
    rep_index: dict[int, int] = {}
    cls = np.empty(n, dtype=int)
    for a in range(n):
        r = find(a)
        if r not in rep_index:
            rep_index[r] = len(reps)
            reps.append(r)
        cls[a] = rep_index[r]
    k = len(reps)
    new_mass = np.zeros(k)
    for a in range(n):
        new_mass[cls[a]] += masses[a]
    new_dist = dist[np.ix_(reps, reps)].copy()
    np.fill_diagonal(new_dist, 0.0)
    return new_dist, new_mass, cls


def quotient_space(h: CodedFunction, sample_count: int) -> FiniteMeasuredMetricSpace:
    """Uniform time samples of the coded pseudo-metric, zero-distance points
    merged, each sample carrying mass zeta / sample_count."""
    if sample_count < 2:
        raise ValueError("need at least two samples")
    times = np.arange(sample_count) * h.zeta / sample_count
    values = np.asarray(h.evaluate(times))
    d = _pairwise_coded(values)
    masses = np.full(sample_count, h.zeta / sample_count)
    dist, mass, _ = _merge_classes(d, masses)
    return FiniteMeasuredMetricSpace(dist, mass)


def shortcut_graph(h: CodedFunction, pairs, eps: float,
                   sample_count: int | None = None,
                   sample_times=None) -> FiniteMeasuredMetricSpace:
    """Shortest-path metric over the sampled quotient where each shortcut
    pair contributes min(eps, coded distance); eps = 0 re-quotients the
    newly identified points.

    Shortcut endpoints are adjoined to the sample set with zero mass; only
    they can shorten a path, so the finite computation is exact for the
    sampled step function.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if sample_times is None:
        if sample_count is None:
            sample_times = h.times.copy()
        else:
            sample_times = np.arange(sample_count) * h.zeta / sample_count
    sample_times = np.asarray(sample_times, dtype=float)
    n_base = len(sample_times)
    extra = []
    for u, v in pairs:
        for t in (u, v):
            if not 0 <= t <= h.zeta:
                raise ValueError("shortcut endpoint outside the domain")
            extra.append(t)
    all_times = np.concatenate([sample_times, np.asarray(extra, dtype=float)])
    masses = np.concatenate([np.full(n_base, h.zeta / n_base),
                             np.zeros(len(extra))])
    order = np.argsort(all_times, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    values = np.asarray(h.evaluate(all_times[order]))
    d = _pairwise_coded(values)
    dist0, mass0, cls = _merge_classes(d, masses[order])
    weights = dist0.copy()
    for k, (u, v) in enumerate(pairs):
        a = cls[rank[n_base + 2 * k]]
        b = cls[rank[n_base + 2 * k + 1]]
        w = min(eps, weights[a, b])
        weights[a, b] = min(weights[a, b], w)
        weights[b, a] = weights[a, b]
    metric = _min_plus_closure(weights)
    if eps == 0.0:
        metric, mass0, _ = _merge_classes(metric, mass0)
    return FiniteMeasuredMetricSpace(metric, mass0)


def _min_plus_closure(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths over a dense symmetric weight matrix
    (zero-length edges are genuine edges here)."""
    d = weights.copy()
    for k in range(len(d)):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


# ---------------------------------------------------------------------------
# comparison of two finite measured metric spaces


_MASK_CACHE: dict[int, np.ndarray] = {}


def _subset_masks(p: int) -> np.ndarray:
    if p not in _MASK_CACHE:
        bits = np.arange(1, 2 ** p)[:, None]
        _MASK_CACHE[p] = (bits >> np.arange(p)[None, :] & 1).astype(bool)
    return _MASK_CACHE[p]


def _prokhorov_exact(cross: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Exact Prokhorov distance between measures supported on the two sides
    of a glued finite space, cross the cross-distance matrix.

    For each subset S of one support, the smallest feasible slack is
    min over enlargement thresholds of max(threshold, mass(S) - covered);
    the distance is the worst case over subsets and both directions.
    """

    def one_direction(c: np.ndarray, a_mass: np.ndarray, b_mass: np.ndarray) -> float:
        masks = _subset_masks(len(a_mass))
        mass_s = masks @ a_mass                              # (S,)
        dist_s = np.where(masks[:, :, None], c[None, :, :],
                          np.inf).min(axis=1)                # (S, q)
        order = np.argsort(dist_s, axis=1)
        sorted_d = np.take_along_axis(dist_s, order, axis=1)
        cums = np.cumsum(b_mass[order], axis=1)
        lowers = np.concatenate([np.zeros((len(masks), 1)), sorted_d], axis=1)
        covered = np.concatenate([np.zeros((len(masks), 1)), cums], axis=1)
        needed = np.maximum(lowers, mass_s[:, None] - covered).min(axis=1)
        return float(needed.max())

    return max(one_direction(cross, mu, nu),
               one_direction(cross.T, nu, mu))


def _hausdorff(cross: np.ndarray) -> float:
    return float(max(cross.min(axis=1).max(), cross.min(axis=0).max()))


def _glue_value_fast(da, db, mu, nu, f, g):
    """Hausdorff + Prokhorov for the canonical gluing of the correspondence
    graph(f) union graph(g), with midpoint radius dis/2."""
    p, q = len(mu), len(nu)
    f = np.asarray(f)
    g = np.asarray(g)
    dis = 0.0
    if p > 1:
        dis = max(dis, float(np.abs(da - db[np.ix_(f, f)]).max()))
    if q > 1:
        dis = max(dis, float(np.abs(da[np.ix_(g, g)] - db).max()))
    dis = max(dis, float(np.abs(da[:, g] - db[f, :]).max()))
    r = dis / 2.0
    via_f = (da[:, :, None] + db[f, :][None, :, :]).min(axis=1)
    via_g = (da[:, g][:, :, None] + db[:, :][None, :, :]).min(axis=1)
    cross = np.minimum(via_f, via_g) + r
    return _hausdorff(cross) + _prokhorov_exact(cross, mu, nu)


def ghp_distance(space_a: FiniteMeasuredMetricSpace,
                 space_b: FiniteMeasuredMetricSpace,
                 mode: str = "exact-small", seed: int = 0) -> float:
    """Comparison distance between two small measured metric spaces.

    Searches correspondences generated by map pairs (exhaustively below the
    size cap, else by a seeded hill climb), glues each candidate with the
    midpoint radius, and evaluates the Hausdorff and Prokhorov terms
    exactly on the glued space.  Spaces with more than six points are
    rejected; use the coded-function comparison bound instead.
    """
    if mode != "exact-small":
        raise ValueError("ghp_distance computes the exact-small mode; "
                         "use ghp_coded_bound for the coded bound")
    p, q = space_a.size, space_b.size
    if p > 6 or q > 6:
        raise ValueError("exact-small comparison is limited to six points")
    da, db = space_a.dist, space_b.dist
    mu, nu = space_a.masses, space_b.masses
    total = q ** p * p ** q
    best = math.inf
    if total <= _EXHAUSTIVE_CAP:
        for f in itertools.product(range(q), repeat=p):
            for g in itertools.product(range(p), repeat=q):
                best = min(best, _glue_value_fast(da, db, mu, nu, f, g))
        return best
    if total <= _PRUNED_CAP:
        return _ghp_pruned(da, db, mu, nu, seed)
    return _ghp_local_search(da, db, mu, nu, seed)


def _ghp_pruned(da, db, mu, nu, seed) -> float:
    p, q = len(mu), len(nu)
    fs = np.array(list(itertools.product(range(q), repeat=p)), dtype=int)
    gs = np.array(list(itertools.product(range(p), repeat=q)), dtype=int)
    dis_f = np.zeros(len(fs))
    for i in range(p):
        for i2 in range(i + 1, p):
            dis_f = np.maximum(dis_f, np.abs(da[i, i2] - db[fs[:, i], fs[:, i2]]))
    dis_g = np.zeros(len(gs))
    for j in range(q):
        for j2 in range(j + 1, q):
            dis_g = np.maximum(dis_g, np.abs(da[gs[:, j], gs[:, j2]] - db[j, j2]))
    cross = np.zeros((len(fs), len(gs)), dtype=np.float32)
    for i in range(p):
        for j in range(q):
            term = np.abs(da[i, gs[:, j]][None, :] - db[fs[:, i], j][:, None])
            np.maximum(cross, term.astype(np.float32), out=cross)
    total_dis = np.maximum(cross, np.maximum(dis_f[:, None], dis_g[None, :]))
    flat = np.argsort(total_dis, axis=None)[:_TOP_CANDIDATES]
    rng = np.random.default_rng(seed)
    extras = rng.integers(0, total_dis.size, size=200)
    best = math.inf
    for k in np.concatenate([flat, extras]):
        fi, gi = divmod(int(k), len(gs))
        best = min(best, _glue_value_fast(da, db, mu, nu,
                                          tuple(fs[fi]), tuple(gs[gi])))
    return best


def _ghp_local_search(da, db, mu, nu, seed, restarts: int = 40) -> float:
    p, q = len(mu), len(nu)
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        f = list(rng.integers(0, q, size=p))
        g = list(rng.integers(0, p, size=q))
        cur = _glue_value_fast(da, db, mu, nu, tuple(f), tuple(g))
        improved = True
        while improved:
            improved = False
            for i in range(p):
                for cand in range(q):
                    if cand == f[i]:
                        continue
                    old = f[i]
                    f[i] = cand
                    val = _glue_value_fast(da, db, mu, nu, tuple(f), tuple(g))
                    if val < cur - 1e-15:
                        cur = val
                        improved = True
                    else:
                        f[i] = old
            for j in range(q):
                for cand in range(p):
                    if cand == g[j]:
                        continue
                    old = g[j]
                    g[j] = cand
                    val = _glue_value_fast(da, db, mu, nu, tuple(f), tuple(g))
                    if val < cur - 1e-15:
                        cur = val
                        improved = True
                    else:
                        g[j] = old
        best = min(best, cur)
    return best


@dataclass
class CodedGraph:
    """A function-coded shortcut graph: the coding function, the shortcut
    pairs as domain times, and the shortcut length parameter."""

    h: CodedFunction
    marks: list[tuple[float, float]] = field(default_factory=list)
    eps: float = 0.0

    def realise(self, sample_count: int | None = None) -> FiniteMeasuredMetricSpace:
        return shortcut_graph(self.h, self.marks, self.eps,
                              sample_count=sample_count)


def modulus_of_continuity(h: CodedFunction, delta: float) -> float:
    """sup |h(s) - h(t)| over |s - t| <= delta of the zero-extended step
    function; conservative across step boundaries."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    times = np.concatenate([h.times, [h.zeta]])
    values = np.concatenate([h.values, [0.0]])
    if delta == 0.0:
        return 0.0
    worst = 0.0
    n = len(times)
    for i in range(n):
        j = i + 1
        while j < n and times[j] - (times[i + 1] if i + 1 < n else h.zeta) <= delta:
            worst = max(worst, abs(values[i] - values[j]))
            j += 1
    return worst


def ghp_coded_bound(a: CodedGraph, b: CodedGraph,
                    delta: float | None = None) -> float:
    """Comparison bound between two coded graphs with matched mark lists:
    6 (q+1) (sup-norm gap + delta-modulus of the first function)
    + 3 q max(eps) + domain-length gap."""
    if len(a.marks) != len(b.marks):
        raise ValueError("mark lists must have equal length")
    qn = len(a.marks)
    if delta is None:
        delta = 0.0
        for (s1, t1), (s2, t2) in zip(a.marks, b.marks):
            delta = max(delta, abs(s1 - s2), abs(t1 - t2))
    grid = np.unique(np.concatenate([a.h.times, b.h.times,
                                     [a.h.zeta, b.h.zeta]]))
    sup_gap = float(np.max(np.abs(np.asarray(a.h.extended(grid))
                                  - np.asarray(b.h.extended(grid)))))
    omega = modulus_of_continuity(a.h, delta)
    return (6.0 * (qn + 1) * (sup_gap + omega)
            + 3.0 * qn * max(a.eps, b.eps)
            + abs(a.h.zeta - b.h.zeta))


def shortcut_tree_bound(h: CodedFunction, n_marks: int, eps: float,
                        amplitude: float = 1.0) -> float:
    """Bound on the comparison distance between a shortcut graph over
    amplitude * h and the plain quotient tree of amplitude * h:
    n_marks (2 eps + amplitude) + amplitude."""
    return n_marks * (2.0 * eps + amplitude) + amplitude


# ---------------------------------------------------------------------------
# discrete distortion certificate


def bfs_all_pairs(adj: list[list[int]]) -> np.ndarray:
    """All-pairs BFS distances of an unweighted graph given as adjacency
    lists; unreachable pairs get +inf."""
    n = len(adj)
    out = np.full((n, n), math.inf)
    for s in range(n):
        dist = [-1] * n
        order = bfs(adj, s, dist)
        out[s, order] = [dist[v] for v in order]
    return out


@dataclass
class DistortionReport:
    max_distortion: float
    bound: int
    ok: bool


def distortion_certificate(dist_original: np.ndarray, dist_modified: np.ndarray,
                           surplus_count: int) -> DistortionReport:
    """Largest pairwise distance change between a component and its
    distance-modified version, certified against the surplus-edge count."""
    if dist_original.shape != dist_modified.shape:
        raise ValueError("distance matrices must share a vertex set")
    finite = np.isfinite(dist_original) & np.isfinite(dist_modified)
    if not np.all(np.isfinite(dist_original) == np.isfinite(dist_modified)):
        raise ValueError("modified graph changed the component structure")
    gap = np.abs(dist_original - dist_modified)[finite]
    worst = float(gap.max(initial=0.0))
    return DistortionReport(worst, surplus_count, worst <= surplus_count)
