"""Direct sampler of the weighted bipartite graph and derived graph queries.

Vertices are indexed 0..n-1 (black) and 0..m-1 (white).  Traversals use a
combined index space: black i -> i, white j -> n+j.

Every breadth-first search in the package runs on the one kernel here:
``adjacency`` turns edge endpoint arrays into neighbour lists, ``bfs``
fills a caller-supplied distance list and returns the visit order, and
``double_sweep`` bounds a component's diameter.  The graphs searched are
small or sparse, so the kernel is plain Python over lists.
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


def adjacency(size: int, us, vs) -> list[list[int]]:
    """Neighbour lists of the undirected graph on 0..size-1 with edges
    (us[k], vs[k]); ``us`` and ``vs`` are equal-length int sequences."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], source: int, dist: list[int]) -> list[int]:
    """Breadth-first search from ``source``.  ``dist`` holds -1 for every
    unvisited vertex; the search writes the distance of each vertex it
    reaches and returns those vertices in visit order, ``source`` first."""
    dist[source] = 0
    order = [source]
    for v in order:
        dv = dist[v] + 1
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dv
                order.append(w)
    return order


def double_sweep(adj: list[list[int]], source: int) -> int:
    """Two BFS sweeps, from ``source`` and then from the first vertex, by
    index, at maximal distance from it: the eccentricity of that vertex.
    Exact on trees, a lower bound on the component's diameter otherwise."""
    dist = [-1] * len(adj)
    order = bfs(adj, source, dist)
    dmax = dist[order[-1]]
    far = min(v for v in order if dist[v] == dmax)
    dist = [-1] * len(adj)
    order = bfs(adj, far, dist)
    return dist[order[-1]]


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
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        try:
            keys = np.ravel_multi_index(e.T, (n, m))     # i*m + j, range-checked
        except ValueError:
            # viewed as unsigned, a negative index is out of range too
            i, j = e[(e.view(np.uint64) >= (n, m)).any(axis=1).argmax()].tolist()
            raise ValueError(f"edge ({i},{j}) out of range") from None
        self.edges = [divmod(k, m) for k in np.unique(keys).tolist()]
        self.black_adj = [[] for _ in range(n)]
        self.white_adj = [[] for _ in range(m)]
        for i, j in self.edges:
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
        # sorted edges give sorted neighbour lists
        edges = sorted(self.edges)
        self.adj = adjacency(self.n, [i for i, _ in edges], [j for _, j in edges])


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
        self.adj = adjacency(n + m, [i for i, _ in graph.edges],
                             [n + j for _, j in graph.edges])
        self._comp = [-1] * (n + m)
        self._dist_cache: dict[int, list[int]] = {}
        comps: list[ComponentRecord] = []
        seen = [-1] * (n + m)
        for start in range(n + m):
            if seen[start] != -1:
                continue
            members = bfs(self.adj, start, seen)
            for v in members:
                self._comp[v] = len(comps)
            blacks = sorted(v for v in members if v < n)
            whites = sorted(v - n for v in members if v >= n)
            rec = ComponentRecord(
                black_members=blacks,
                white_members=whites,
                x_mass=float(graph.x_weights[blacks].sum()) if blacks else 0.0,
                y_mass=float(graph.y_weights[whites].sum()) if whites else 0.0,
                edge_count=sum(len(graph.black_adj[i]) for i in blacks),
            )
            # start is the component's least combined index
            if rec.nontrivial:
                rec.diameter_bound = double_sweep(self.adj, start)
            comps.append(rec)
        self.components = comps

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
        dist = self._dist_cache.get(a)
        if dist is None:
            dist = self._dist_cache[a] = [-1] * len(self.adj)
            bfs(self.adj, a, dist)
        return float(dist[b])

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
    component, with one BFS per source black on each graph."""
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
    rig: dict[int, list[int]] = {}         # intersection-graph BFS per source
    for i, j in pairs:
        if i not in rig:
            rig[i] = [-1] * ig.n
            bfs(ig.adj, i, rig[i])
        db = gd.distance(("b", i), ("b", j))
        dr = rig[i][j]
        if dr < 0 or db != 2 * dr:
            violations.append((i, j, db, float(dr)))
    return IsometryReport(not violations, len(pairs), violations)
