import math
import re

import numpy as np
import pytest

from bicrit import graph_core as gc
from bicrit.weights import point_mass, exponential, sample_weights

# bipartite edges of the worked queue-construction figure, 0-based
FIG_EDGES = [(0, 3), (1, 3), (1, 4), (2, 2), (2, 4), (3, 0), (3, 3), (4, 0), (5, 1)]


def fig_graph():
    return gc.BipartiteGraph(np.ones(6), np.ones(5), FIG_EDGES, z=1.0)


def test_edge_probability_examples():
    assert gc.edge_probability(1, 1, 1) == pytest.approx(1 - math.exp(-1))
    assert gc.edge_probability(2, 3, 6) == pytest.approx(1 - math.exp(-1))
    assert gc.edge_probability(1, 1, 1e9) == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(ValueError):
        gc.edge_probability(0, 1, 1)


def test_sample_direct_single_pair_frequency():
    hits = 0
    runs = 100_000
    for seed in range(runs):
        g = gc.sample_direct([1.0], [1.0], 1.0, seed)
        hits += len(g.edges)
    assert abs(hits / runs - (1 - math.exp(-1))) <= 0.01


def test_sample_direct_huge_z_no_edges():
    for seed in range(100):
        g = gc.sample_direct(np.ones(10), np.ones(10), 1e12, seed)
        assert not g.edges


def test_sample_direct_deterministic():
    a = gc.sample_direct(np.ones(8), np.ones(8), 4.0, seed=5)
    b = gc.sample_direct(np.ones(8), np.ones(8), 4.0, seed=5)
    assert a.edges == b.edges


def test_intersection_graph_star():
    g = gc.BipartiteGraph(np.ones(3), np.ones(1), [(0, 0), (1, 0), (2, 0)], 1.0)
    ig = gc.intersection_graph(g)
    assert ig.edges == {(0, 1), (0, 2), (1, 2)}


def test_intersection_graph_fixture():
    ig = gc.intersection_graph(fig_graph())
    assert ig.edges == {(0, 1), (0, 3), (1, 3), (1, 2), (3, 4)}


def test_intersection_graph_empty():
    g = gc.BipartiteGraph(np.ones(3), np.ones(2), [], 1.0)
    assert gc.intersection_graph(g).edges == set()


def test_intersection_matches_bruteforce_on_randoms():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, m = rng.integers(2, 20), rng.integers(2, 20)
        g = gc.sample_direct(np.full(n, 2.0), np.full(m, 2.0),
                             math.sqrt(n * m), rng)
        ig = gc.intersection_graph(g)
        brute = set()
        for i in range(n):
            for j in range(i + 1, n):
                if set(g.black_adj[i]) & set(g.black_adj[j]):
                    brute.add((i, j))
        assert ig.edges == brute


def test_components_and_distances_path():
    g = gc.BipartiteGraph(np.ones(2), np.ones(1), [(0, 0), (1, 0)], 1.0)
    gd = gc.components_and_distances(g)
    assert gd.distance(("b", 0), ("b", 1)) == 2.0


def test_components_fixture_membership():
    gd = gc.components_and_distances(fig_graph())
    comp = gd.components[gd.component_of_black(1)]
    assert len(comp.black_members) == 5
    assert len(comp.white_members) == 4
    assert comp.nontrivial


def test_singleton_white_is_trivial_component():
    g = gc.BipartiteGraph(np.ones(1), np.ones(2), [(0, 0)], 1.0)
    gd = gc.components_and_distances(g)
    lonely = gd.components[gd.component_of_white(1)]
    assert lonely.black_members == [] and lonely.white_members == [1]
    assert not lonely.nontrivial
    assert gd.distance(("w", 1), ("b", 0)) == math.inf


def test_per_edge_frequency_binomial():
    rng = np.random.default_rng(4)
    x = sample_weights(exponential(1.0), 5, rng)
    y = sample_weights(exponential(1.0), 5, rng)
    z = 5.0
    runs = 10_000
    counts = np.zeros((5, 5))
    for seed in range(runs):
        g = gc.sample_direct(x, y, z, seed + 10_000)
        for i, j in g.edges:
            counts[i, j] += 1
    p = -np.expm1(-np.outer(x, y) / z)
    se = np.sqrt(p * (1 - p) / runs)
    assert np.all(np.abs(counts / runs - p) <= 4 * se + 1e-12)


def test_clustering_all_blacks_share_one_white():
    # one shared white makes the intersection graph complete: CL = 1
    est = gc.clustering_estimate(point_mass(1.0), point_mass(40.0), 6, 1,
                                 z=1.0, trials=50, seed=0)
    assert est.value == pytest.approx(1.0)


def test_clustering_dense_white_side_drops():
    moderate = gc.clustering_estimate(point_mass(1.0), point_mass(1.0),
                                      40, 40, trials=4000, seed=1)
    many_whites = gc.clustering_estimate(point_mass(1.0), point_mass(1.0),
                                         40, 1600, trials=4000, seed=2)
    assert many_whites.value < moderate.value - 0.15


def test_isometry_on_randoms():
    rng = np.random.default_rng(9)
    for k in range(100):
        g = gc.sample_direct(np.ones(30), np.ones(30), 30.0, rng)
        rep = gc.isometry_check(g)
        assert rep.ok, rep.violations[:3]


def test_edge_list_dump():
    assert fig_graph().to_edge_list().splitlines()[0] == "b0 w3"


def test_isometry_subsamples_to_max_pairs_reproducibly():
    g = gc.sample_direct(np.ones(30), np.ones(30), 20.0, seed=3)
    gd = gc.components_and_distances(g)
    same = sum(len(c.black_members) * (len(c.black_members) - 1) // 2
               for c in gd.components)
    assert same > 25
    rep = gc.isometry_check(g, max_pairs=25, seed=8)
    assert rep.ok and rep.pairs_checked == 25
    assert gc.isometry_check(g, max_pairs=25, seed=8) == rep
    assert gc.isometry_check(g).pairs_checked == same


def test_isometry_flags_an_intersection_graph_missing_an_edge():
    g = fig_graph()
    ig = gc.intersection_graph(g)
    for edge in sorted(ig.edges):
        wrong = gc.IntersectionGraph(ig.n, ig.edges - {edge})
        rep = gc.isometry_check(g, wrong)
        assert not rep.ok
        assert any(i == edge[0] and j == edge[1] for i, j, _, _ in rep.violations)


def test_bipartite_graph_dedups_like_a_sorted_set():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        raw = list(zip(rng.integers(n, size=20).tolist(),
                       rng.integers(m, size=20).tolist()))
        g = gc.BipartiteGraph(np.ones(n), np.ones(m), raw, 1.0)
        assert g.edges == sorted(set(raw))
        assert all(type(v) is int for e in g.edges for v in e)
        assert g.black_adj == [[j for i, j in g.edges if i == b] for b in range(n)]


@pytest.mark.parametrize("edges, named", [
    ([(0, 0), (2, 0), (-1, 0)], "(2,0)"),
    ([(1, 2), (0, -1), (5, 5)], "(0,-1)"),
    ([(1, 3)], "(1,3)"),
])
def test_bipartite_graph_names_first_out_of_range_edge(edges, named):
    with pytest.raises(ValueError, match=re.escape(f"edge {named} out of range")):
        gc.BipartiteGraph(np.ones(2), np.ones(3), edges, 1.0)
