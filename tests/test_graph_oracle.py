"""The breadth-first kernel of graph_core against networkx as a slow oracle:
components, distances, the all-pairs matrix and the double sweep."""

import math

import numpy as np
import pytest

from bicrit import graph_core as gc
from bicrit.metric_space import bfs_all_pairs

nx = pytest.importorskip("networkx")


def random_bipartite(rng):
    """Edge list with duplicates; n or m of 1, no edges and isolated
    whites all come up."""
    n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
    p = float(rng.choice([0.0, 0.05, 0.15, 0.4]))
    edges = [(i, j) for i in range(n) for j in range(m) if rng.random() < p]
    if edges:
        edges += [edges[k] for k in rng.integers(len(edges), size=len(edges) // 2)]
    return gc.BipartiteGraph(np.ones(n), rng.uniform(0.5, 2.0, m), edges, 1.0)


def random_graph(rng):
    """Generic undirected edge arrays with self-loops and duplicate pairs."""
    size = int(rng.integers(1, 16))
    count = int(rng.integers(0, 2 * size + 1))
    us = rng.integers(size, size=count).tolist()
    vs = rng.integers(size, size=count).tolist()
    us += us[:3]
    vs += vs[:3]
    return size, us, vs


def nx_graph(size, us, vs):
    g = nx.Graph()
    g.add_nodes_from(range(size))
    g.add_edges_from(zip(us, vs))
    return g


def nx_combined(graph):
    n = graph.n
    return nx_graph(n + graph.m, [i for i, _ in graph.edges],
                    [n + j for _, j in graph.edges])


def nx_double_sweep(g, source):
    d0 = nx.single_source_shortest_path_length(g, source)
    far = min(v for v in d0 if d0[v] == max(d0.values()))
    return max(nx.single_source_shortest_path_length(g, far).values())


BIPARTITE = [random_bipartite(np.random.default_rng(s)) for s in range(150)]
GENERIC = [random_graph(np.random.default_rng(1000 + s)) for s in range(150)]


def test_instances_cover_edge_sizes():
    assert any(g.n == 1 for g in BIPARTITE) and any(g.m == 1 for g in BIPARTITE)
    assert any(not g.edges for g in BIPARTITE)
    assert any(any(not blacks for blacks in g.white_adj) and g.edges
               for g in BIPARTITE)
    assert any(u == v for _, us, vs in GENERIC for u, v in zip(us, vs))


@pytest.mark.parametrize("k", range(0, 150, 15))
def test_components_match_networkx(k):
    for graph in BIPARTITE[k:k + 15]:
        n = graph.n
        g = nx_combined(graph)
        want = sorted((sorted(c) for c in nx.connected_components(g)),
                      key=lambda c: c[0])
        gd = gc.components_and_distances(graph)
        assert len(gd.components) == len(want)
        for rec, comp in zip(gd.components, want):
            assert rec.black_members == [v for v in comp if v < n]
            assert rec.white_members == [v - n for v in comp if v >= n]
            assert rec.edge_count == g.subgraph(comp).number_of_edges()
            assert rec.y_mass == pytest.approx(graph.y_weights[rec.white_members].sum())
            for v in comp:
                assert (gd.component_of_black(v) if v < n
                        else gd.component_of_white(v - n)) == want.index(comp)


@pytest.mark.parametrize("k", range(0, 150, 15))
def test_distances_from_every_source_match_networkx(k):
    for graph in BIPARTITE[k:k + 15]:
        n, m = graph.n, graph.m
        g = nx_combined(graph)
        gd = gc.components_and_distances(graph)
        label = [("b", i) for i in range(n)] + [("w", j) for j in range(m)]
        for s in range(n + m):
            want = nx.single_source_shortest_path_length(g, s)
            dist = [-1] * (n + m)
            order = gc.bfs(gd.adj, s, dist)
            assert order[0] == s and sorted(order) == sorted(want)
            assert [dist[v] for v in order] == sorted(want.values())
            for t in range(n + m):
                assert dist[t] == want.get(t, -1)
                assert gd.distance(label[s], label[t]) == want.get(t, math.inf)


@pytest.mark.parametrize("k", range(0, 150, 30))
def test_bfs_all_pairs_matches_networkx(k):
    for size, us, vs in GENERIC[k:k + 30]:
        got = bfs_all_pairs(gc.adjacency(size, us, vs))
        want = np.full((size, size), math.inf)
        for s, row in nx.all_pairs_shortest_path_length(nx_graph(size, us, vs)):
            for t, d in row.items():
                want[s, t] = d
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", range(0, 150, 30))
def test_double_sweep_matches_networkx(k):
    for size, us, vs in GENERIC[k:k + 30]:
        adj = gc.adjacency(size, us, vs)
        g = nx_graph(size, us, vs)
        for s in range(size):
            assert gc.double_sweep(adj, s) == nx_double_sweep(g, s)


def test_double_sweep_takes_first_far_vertex_by_index():
    # from 0 all of 1, 2, 3 are one step away; 1 sees everything within one
    # step, 3 is two steps from 2
    adj = gc.adjacency(4, [0, 0, 0, 1, 1], [1, 2, 3, 2, 3])
    assert gc.double_sweep(adj, 0) == 1
    assert gc.double_sweep(adj, 2) == 2
