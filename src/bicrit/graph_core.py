"""Direct sampler of the weighted bipartite graph and derived graph queries.

Vertices are indexed 0..n-1 (black) and 0..m-1 (white).  Internally a
combined index space is used for traversals: black i -> i, white j -> n+j.
Adjacency is stored as sorted neighbour lists per vertex; the graphs of
interest are sparse at criticality and the workload is BFS-heavy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .weights import CriticalPair, sample_weights

#: refuse to materialise Bernoulli matrices above this many cells
_DENSE_CELL_CAP = 50_000_000

INF = math.inf


def edge_probability(x: float, y: float, z: float) -> float:
    """1 - exp(-x*y/z), the probability of a black/white edge."""
    if x <= 0 or y <= 0 or z <= 0:
        raise ValueError("edge_probability needs positive arguments")
    return -math.expm1(-x * y / z)


@dataclass
class BipartiteGraph:
    x_weights: np.ndarray
    y_weights: np.ndarray
    edges: list[tuple[int, int]]            # (black, white), deduplicated
    z: float
    black_adj: list[list[int]] = field(init=False, repr=False)
    white_adj: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.x_weights = np.asarray(self.x_weights, dtype=float)
        self.y_weights = np.asarray(self.y_weights, dtype=float)
        if len(self.x_weights) and self.x_weights.min() <= 0:
            raise ValueError("black weights must be positive")
        if len(self.y_weights) and self.y_weights.min() <= 0:
            raise ValueError("white weights must be positive")
        n, m = self.n, self.m
        seen = set()
        dedup = []
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"edge ({i},{j}) out of range")
            if (i, j) not in seen:
                seen.add((i, j))
                dedup.append((int(i), int(j)))
        dedup.sort()
        self.edges = dedup
        self.black_adj = [[] for _ in range(n)]
        self.white_adj = [[] for _ in range(m)]
        for i, j in dedup:
            self.black_adj[i].append(j)
            self.white_adj[j].append(i)

    @property
    def n(self) -> int:
        return len(self.x_weights)

    @property
    def m(self) -> int:
        return len(self.y_weights)

    def to_edge_list(self) -> str:
        """Dump format used by golden tests: one 'b<i> w<j>' per line."""
        return "\n".join(f"b{i} w{j}" for i, j in self.edges)


def sample_direct(pair_or_x, y_weights=None, z=None, seed=None) -> BipartiteGraph:
    """Sample the graph edge by edge: each (i, j) present independently
    with probability 1 - exp(-x_i y_j / z).

    Either pass a CriticalPair (weights are drawn i.i.d. from its specs) or
    explicit weight vectors plus z.
    """
    rng = np.random.default_rng(seed)
    if isinstance(pair_or_x, CriticalPair):
        pair = pair_or_x
        x = sample_weights(pair.spec_b, pair.n, rng)
        y = sample_weights(pair.spec_w, pair.m, rng)
        z = pair.z
    else:
        x = np.asarray(pair_or_x, dtype=float)
        y = np.asarray(y_weights, dtype=float)
        if z is None:
            raise ValueError("z required with explicit weights")
    n, m = len(x), len(y)
    if n * m > _DENSE_CELL_CAP:
        raise ValueError("instance too large for the dense direct sampler")
    p = -np.expm1(-np.outer(x, y) / z)
    hit = rng.random((n, m)) < p
    ii, jj = np.nonzero(hit)
    return BipartiteGraph(x, y, list(zip(ii.tolist(), jj.tolist())), z)


@dataclass
class IntersectionGraph:
    """Graph on black indices; i ~ j iff they share a white neighbour."""

    n: int
    edges: set[tuple[int, int]]             # (i, j) with i < j
    adj: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            self.adj[i].append(j)
            self.adj[j].append(i)
        for a in self.adj:
            a.sort()


def intersection_graph(graph: BipartiteGraph) -> IntersectionGraph:
    edges = set()
    for blacks in graph.white_adj:
        for a in range(len(blacks)):
            for b in range(a + 1, len(blacks)):
                edges.add((blacks[a], blacks[b]))
    return IntersectionGraph(graph.n, edges)


@dataclass
class ComponentRecord:
    black_members: list[int]
    white_members: list[int]
    x_mass: float
    y_mass: float
    edge_count: int
    surplus_count: int = 0
    diameter_bound: int = 0

    @property
    def nontrivial(self) -> bool:
        return self.edge_count >= 1


class GraphDistances:
    """Component decomposition plus on-demand BFS distances.

    Distances are computed lazily per source and cached; a query across
    components returns +inf.
    """

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph
        n, m = graph.n, graph.m
        self._comp = np.full(n + m, -1, dtype=int)
        self._dist_cache: dict[int, np.ndarray] = {}
        comps: list[ComponentRecord] = []
        for start in range(n + m):
            if self._comp[start] != -1:
                continue
            cid = len(comps)
            members = self._bfs_collect(start, cid)
            blacks = sorted(v for v in members if v < n)
            whites = sorted(v - n for v in members if v >= n)
            ec = sum(len(graph.black_adj[i]) for i in blacks)
            comps.append(ComponentRecord(
                black_members=blacks,
                white_members=whites,
                x_mass=float(graph.x_weights[blacks].sum()) if blacks else 0.0,
                y_mass=float(graph.y_weights[whites].sum()) if whites else 0.0,
                edge_count=ec,
            ))
        self.components = comps
        for rec in self.components:
            if rec.nontrivial:
                rec.diameter_bound = self._double_sweep(rec)

    def _neighbours(self, v: int) -> list[int]:
        n = self.graph.n
        if v < n:
            return [n + j for j in self.graph.black_adj[v]]
        return self.graph.white_adj[v - n]

    def _bfs_collect(self, start: int, cid: int) -> list[int]:
        self._comp[start] = cid
        frontier = [start]
        members = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self._neighbours(v):
                    if self._comp[w] == -1:
                        self._comp[w] = cid
                        members.append(w)
                        nxt.append(w)
            frontier = nxt
        return members

    def _bfs_from(self, source: int) -> np.ndarray:
        if source in self._dist_cache:
            return self._dist_cache[source]
        n, m = self.graph.n, self.graph.m
        dist = np.full(n + m, -1, dtype=int)
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in self._neighbours(v):
                    if dist[w] == -1:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        self._dist_cache[source] = dist
        return dist

    def _double_sweep(self, rec: ComponentRecord) -> int:
        # two BFS sweeps: exact on trees, a lower-bound style estimate otherwise
        v0 = rec.black_members[0] if rec.black_members else rec.white_members[0] + self.graph.n
        d0 = self._bfs_from(v0)
        members = rec.black_members + [self.graph.n + j for j in rec.white_members]
        far = max(members, key=lambda v: d0[v])
        d1 = self._bfs_from(far)
        return int(max(d1[v] for v in members))

    def component_of_black(self, i: int) -> int:
        return int(self._comp[i])

    def component_of_white(self, j: int) -> int:
        return int(self._comp[self.graph.n + j])

    def distance(self, u: tuple[str, int], v: tuple[str, int]) -> float:
        """Graph distance between ('b', i) / ('w', j) style vertices."""
        a = self._encode(u)
        b = self._encode(v)
        if self._comp[a] != self._comp[b]:
            return INF
        d = self._bfs_from(a)[b]
        return float(d)

    def _encode(self, v: tuple[str, int]) -> int:
        colour, idx = v
        if colour == "b":
            if not 0 <= idx < self.graph.n:
                raise ValueError("black index out of range")
            return idx
        if colour == "w":
            if not 0 <= idx < self.graph.m:
                raise ValueError("white index out of range")
            return self.graph.n + idx
        raise ValueError("vertex colour must be 'b' or 'w'")


def components_and_distances(graph: BipartiteGraph) -> GraphDistances:
    return GraphDistances(graph)


def _intersection_bfs(ig: IntersectionGraph, source: int) -> np.ndarray:
    dist = np.full(ig.n, -1, dtype=int)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in ig.adj[v]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


@dataclass
class ClusteringEstimate:
    value: float
    std_error: float
    wedges: int
    closed: int
    graphs: int
    defined: bool = True


def clustering_estimate(spec_b, spec_w, n: int, m: int, z: float | None = None,
                        trials: int = 100_000, seed=None) -> ClusteringEstimate:
    """Monte Carlo estimate of the conditional adjacency probability
    P(V2 ~ V3 | V1 ~ V2 and V1 ~ V3) over uniform distinct triples.

    Conditioned triples are in bijection with wedges of the intersection
    graph (centre = V1, size-biased by deg(deg-1)), so the estimator counts
    closed versus open wedges exactly in each sampled graph and pools the
    counts across replicate graphs until ``trials`` conditioned samples have
    been seen.  Literal rejection over raw triples would waste essentially
    every draw at criticality.
    """
    if n < 3:
        raise ValueError("need at least three black vertices")
    if z is None:
        z = math.sqrt(n * m)
    rng = np.random.default_rng(seed)
    wedges = 0
    closed = 0
    graphs = 0
    while wedges < trials and graphs < 10_000:
        x = sample_weights(spec_b, n, rng)
        y = sample_weights(spec_w, m, rng)
        g = sample_direct(x, y, z, rng)
        ig = intersection_graph(g)
        edge_set = ig.edges
        for v in range(ig.n):
            nb = ig.adj[v]
            d = len(nb)
            if d < 2:
                continue
            wedges += d * (d - 1) // 2
            for a in range(d):
                for b in range(a + 1, d):
                    u, w = nb[a], nb[b]
                    if ((u, w) if u < w else (w, u)) in edge_set:
                        closed += 1
        graphs += 1
    if wedges == 0:
        return ClusteringEstimate(math.nan, math.nan, 0, 0, graphs, defined=False)
    p = closed / wedges
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / wedges)
    return ClusteringEstimate(p, se, wedges, closed, graphs)


@dataclass
class IsometryReport:
    ok: bool
    pairs_checked: int
    violations: list[tuple[int, int, float, float]]


def isometry_check(graph: BipartiteGraph, ig: IntersectionGraph | None = None,
                   max_pairs: int | None = None, seed=None) -> IsometryReport:
    """Verify d_gr(b_i, b_j) = 2 * d_rig(i, j) for black pairs sharing a
    component, by exhaustive BFS on both graphs."""
    if ig is None:
        ig = intersection_graph(graph)
    gd = components_and_distances(graph)
    n = graph.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if gd.component_of_black(i) == gd.component_of_black(j)]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[k] for k in idx]
    violations = []
    for i, j in pairs:
        db = gd.distance(("b", i), ("b", j))
        dr = _intersection_bfs(ig, i)[j]
        if dr < 0 or db != 2 * dr:
            violations.append((i, j, db, float(dr)))
    return IsometryReport(not violations, len(pairs), violations)
