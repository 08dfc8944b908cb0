import math

import numpy as np
import pytest

from bicrit import lifo
from bicrit.graph_core import components_and_distances

# Worked queue-construction example: 6 blacks, 5 whites, clock order
# b2 < b4 < b5 < b1 < b3 < b6 (1-based labels), whites placed so the first
# tree collects b2,b4,b5,b1,b3 and the second is b6-w2.
FIG_X = np.array([1.056, 2.275, 1.570, 1.767, 0.748, 2.125])
FIG_Y = np.array([1.973, 1.436, 1.07, 1.969, 1.43])
FIG_EB = np.array([4.854, 1.484, 6.43, 2.262, 2.965, 8.76])
FIG_EW = np.array([3.107, 8.758, 7.0, 0.889, 1.616])


def fig_record():
    clocks = lifo.ClockSet(FIG_EB, FIG_EW)
    return lifo.explore(FIG_X, FIG_Y, 3.0, clocks)


def test_single_pair():
    clocks = lifo.ClockSet(np.array([0.7]), np.array([0.4]))
    rec = lifo.explore(np.array([1.0]), np.array([1.0]), 1.0, clocks)
    assert rec.steps == 2
    assert rec.delta[0] == pytest.approx(1.0)
    assert rec.forest_edges() == [(0, 0)]


def test_fixture_queue_state_after_step_two():
    # step 2: black 3 interrupts white 3 and queues its offspring on top
    rec = fig_record()
    step, black, queue = rec.candidates[0]
    assert (step, black) == (2, 3)
    assert [(j, round(r, 6)) for j, r in queue] == [
        (3, round(1.969 - (2.262 - 1.484), 6)), (4, 1.43)]
    kids = rec.worder[rec.offspring_lo[3]:rec.offspring_hi[3]].tolist()
    assert [(j, round(FIG_Y[j], 6)) for j in kids] == [(0, 1.973)]


def test_fixture_forest_and_step_count():
    rec = fig_record()
    assert rec.steps == 11
    expected = sorted([(1, 3), (1, 4), (0, 3), (3, 3), (3, 0), (4, 0),
                       (2, 4), (2, 2), (5, 1)])
    assert rec.forest_edges() == expected
    assert rec.roots == [1, 5]


def test_fixture_black_forest_matches_queue_genealogy():
    rec = fig_record()
    parents, roots = lifo.black_forest(rec)
    assert parents.tolist() == [1, -1, 1, 1, 3, -1]
    gen, _ = lifo.lifo_genealogy(FIG_EB[rec.order], rec.delta[rec.order])
    mapped = np.full(6, -1)
    for pos in range(6):
        if gen[pos] >= 0:
            mapped[rec.order[pos]] = rec.order[gen[pos]]
    assert np.array_equal(parents, mapped)


def test_all_whites_late_gives_isolated_roots():
    x = np.ones(4)
    y = np.ones(3)
    clocks = lifo.ClockSet(np.array([0.1, 0.4, 0.9, 1.3]),
                           np.array([100.0, 101.0, 102.0]))
    rec = lifo.explore(x, y, 1.0, clocks)
    assert np.all(rec.delta == 0.0)
    assert rec.roots == [0, 1, 2, 3]
    assert rec.forest_edges() == []


def test_generic_genealogy_fixture():
    # five clients; the first three nest, the fourth re-interrupts client 1,
    # the fifth arrives to an idle server
    arrivals = [0.322, 1.740, 2.436, 5.414, 8.868]
    services = [3.93, 1.508, 0.772, 0.764, 1.032]
    parents, roots = lifo.lifo_genealogy(arrivals, services)
    assert parents.tolist() == [-1, 0, 1, 0, -1]
    assert roots == [0, 4]


def test_generic_genealogy_zero_services():
    parents, roots = lifo.lifo_genealogy([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert parents.tolist() == [-1, -1, -1]
    assert roots == [0, 1, 2]


def test_generic_genealogy_nested_path():
    parents, _ = lifo.lifo_genealogy([0.0, 1.0, 2.0, 3.0], [10, 8, 6, 4])
    assert parents.tolist() == [-1, 0, 1, 2]


def test_generic_genealogy_rejects_unsorted():
    with pytest.raises(ValueError):
        lifo.lifo_genealogy([1.0, 0.5], [1.0, 1.0])


def test_black_forest_drops_childless_whites():
    # one black, one white never explored
    clocks = lifo.ClockSet(np.array([0.5]), np.array([50.0]))
    rec = lifo.explore(np.array([1.0]), np.array([1.0]), 1.0, clocks)
    parents, roots = lifo.black_forest(rec)
    assert parents.tolist() == [-1] and roots == [0]
    assert rec.parent_black.tolist() == [-1]


def test_surplus_empty_candidates():
    clocks = lifo.ClockSet(np.array([0.5]), np.array([0.2]))
    rec = lifo.explore(np.array([1.0]), np.array([1.0]), 1.0, clocks)
    assert rec.candidates == []
    assert lifo.sample_surplus_direct(rec, 1.0, seed=0) == []


def test_surplus_single_candidate_frequency():
    # two blacks, one white: second black interrupts while the white waits
    # with remaining chosen so the retention probability is exactly 1/2
    x = np.array([1.0, 1.0])
    y = np.array([2.0])
    z = 1.0
    remaining = math.log(2.0)  # 1 - exp(-remaining * x/z) = 1/2
    eb = np.array([0.1, 0.1 + (y[0] - remaining)])
    ew = np.array([0.5])       # inside I(first black) = (0, 1]
    rec = lifo.explore(x, y, z, lifo.ClockSet(eb, ew))
    assert len(rec.candidates) == 1
    (step, v, cand), = rec.candidates
    assert cand == [(0, pytest.approx(remaining))]
    rng = np.random.default_rng(123)
    hits = sum(bool(lifo.sample_surplus_direct(rec, z, rng)) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) <= 0.01


def test_assemble_graph_dedupes_duplicate_surplus():
    rec = fig_record()
    base = lifo.assemble_graph(rec, [])
    dup = lifo.assemble_graph(rec, [rec.forest_edges()[0]])
    assert base.edges == dup.edges


def test_step_bound_and_tiling_on_randoms():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        x = rng.uniform(0.5, 2.0, n)
        y = rng.uniform(0.5, 2.0, m)
        z = math.sqrt(n * m)
        rec = lifo.explore(x, y, z, lifo.sample_clocks(x, y, z, rng))
        assert rec.steps <= n + m
        ordered = rec.intervals[rec.order]
        assert ordered[0, 0] == 0.0
        assert np.allclose(ordered[1:, 0], ordered[:-1, 1], atol=1e-9)
        assert ordered[-1, 1] == pytest.approx(x.sum())


def test_components_of_assembled_graph_match_forest():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, m = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        x = rng.uniform(0.5, 2.0, n)
        y = rng.uniform(0.5, 2.0, m)
        z = math.sqrt(n * m)
        rec = lifo.explore(x, y, z, lifo.sample_clocks(x, y, z, rng))
        surplus = lifo.sample_surplus_direct(rec, z, rng)
        graph = lifo.assemble_graph(rec, surplus)
        gd = components_and_distances(graph)
        # surplus edges never merge forest components
        forest = lifo.assemble_graph(rec, [])
        gd2 = components_and_distances(forest)
        for i in range(n):
            for j in range(n):
                same1 = gd.component_of_black(i) == gd.component_of_black(j)
                same2 = gd2.component_of_black(i) == gd2.component_of_black(j)
                assert same1 == same2


def test_component_masses_vectorised_matches_explore():
    from bicrit import encoding
    rng = np.random.default_rng(21)
    for _ in range(40):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        x = rng.uniform(0.5, 2.0, n)
        y = rng.uniform(0.5, 2.0, m)
        z = math.sqrt(n * m)
        clocks = lifo.sample_clocks(x, y, z, rng)
        y_mass, x_mass, roots = lifo.component_masses(x, y, z, clocks)
        rec = lifo.explore(x, y, z, clocks)
        exc = encoding.excursions(encoding.z_process(rec).queue_load,
                                  x_by_jump=x[rec.order])
        assert len(exc) == len(y_mass)
        for e, ym, xm, r in zip(exc, y_mass, x_mass, roots):
            assert e.y_mass == pytest.approx(ym, abs=1e-9)
            assert e.x_mass == pytest.approx(xm, abs=1e-9)
            assert int(rec.order[e.root_jump]) == int(r)


def test_record_json_round_trip_golden():
    rec = fig_record()
    assert rec.steps == 11
    assert rec.roots == [1, 5]
    assert rec.order.tolist() == [1, 3, 4, 0, 2, 5]


def test_clock_collision_redraw():
    rng = np.random.default_rng(0)
    x = np.ones(3)
    y = np.ones(3)
    clocks = lifo.sample_clocks(x, y, 1.0, rng)
    both = np.concatenate([clocks.black, clocks.white])
    assert len(np.unique(both)) == len(both)


def _clock_arrays():
    """Random arrays, and arrays with exact ties: all equal, the two
    smallest equal, the two largest equal, and few distinct values."""
    rng = np.random.default_rng(31)
    for size in (0, 1, 2, 3, 17, 1000):
        a = rng.exponential(1.0, size)
        yield a
        yield np.full(size, 0.5)
        if size >= 2:
            front, end = a.copy(), a.copy()
            front[np.argsort(a)[1]] = a.min()
            end[np.argsort(a)[-2]] = a.max()
            yield front
            yield end
        yield rng.integers(0, 4, size).astype(float)


def test_clock_order_equals_stable_argsort():
    for a in _clock_arrays():
        assert np.array_equal(lifo.clock_order(a),
                              np.argsort(a, kind="stable")), a


def test_dial_orders_are_stable_clock_orders_under_ties():
    # clocks rounded onto a coarse grid tie often; the whites beyond the
    # dial are sorted apart from those under it
    rng = np.random.default_rng(32)
    for _ in range(60):
        n, m = int(rng.integers(1, 300)), int(rng.integers(1, 300))
        x = rng.uniform(0.5, 2.0, n)
        y = rng.uniform(0.5, 2.0, m)
        z = math.sqrt(n * m)
        clocks = lifo.sample_clocks(x, y, z, rng)
        clocks = lifo.ClockSet(np.round(clocks.black, 1),
                               np.round(clocks.white, 1))
        rec = lifo.explore(x, y, z, clocks)
        assert np.array_equal(rec.order,
                              np.argsort(clocks.black, kind="stable"))
        assert np.array_equal(rec.worder,
                              np.argsort(clocks.white, kind="stable"))


def test_assembled_law_total_variation_small_instance():
    # six-cell instance: exhaustive product law over 64 edge sets
    import itertools
    from collections import Counter
    n, m = 2, 3
    z = math.sqrt(n * m)
    x = np.ones(n)
    y = np.ones(m)
    p = -math.expm1(-1.0 / z)
    runs = 200_000
    rng = np.random.default_rng(77)
    counts = Counter()
    for _ in range(runs):
        rec = lifo.explore(x, y, z, lifo.sample_clocks(x, y, z, rng))
        surplus = lifo.sample_surplus_direct(rec, z, rng)
        counts[frozenset(lifo.assemble_graph(rec, surplus).edges)] += 1
    cells = [(i, j) for i in range(n) for j in range(m)]
    tv = 0.0
    for bits in range(2 ** (n * m)):
        edges = frozenset(cells[k] for k in range(n * m) if bits >> k & 1)
        exact = p ** len(edges) * (1 - p) ** (n * m - len(edges))
        tv += abs(counts.get(edges, 0) / runs - exact)
    assert 0.5 * tv <= 0.02
