import math

import numpy as np
import pytest

from bicrit import encoding as enc
from bicrit import lifo
from bicrit.checks import random_instance
from bicrit.metric_space import bfs_all_pairs


def make_record(seed, max_side=50):
    x, y, z, clocks, rng = random_instance(seed, max_side)
    return lifo.explore(x, y, z, clocks), rng


def test_lambda_single_black():
    clocks = lifo.ClockSet(np.array([0.5]), np.array([100.0]))
    rec = lifo.explore(np.array([3.0]), np.array([1.0]), 1.0, clocks)
    lam_x, _ = enc.lambda_paths(rec)
    assert lam_x.value(0.4) == 0.0
    assert lam_x.value(0.5) == 3.0
    assert lam_x.value(10.0) == 3.0


def test_lambda_conservation_and_jump_order():
    rec, _ = make_record(5)
    lam_x, lam_y = enc.lambda_paths(rec)
    assert lam_x.final_value() == pytest.approx(rec.x.sum())
    assert lam_y.final_value() == pytest.approx(rec.y.sum())
    assert np.array_equal(lam_x.jump_sizes, rec.x[rec.order])


def test_z_process_trivial_cases():
    # no whites inside any interval: Z_t = -t
    clocks = lifo.ClockSet(np.array([0.3, 0.8]), np.array([100.0]))
    rec = lifo.explore(np.ones(2), np.ones(1), 1.0, clocks)
    z = enc.z_process(rec).queue_load
    assert z.value(0.5) == pytest.approx(-0.5)
    # single pair: jump of size y at the black clock
    clocks = lifo.ClockSet(np.array([0.3]), np.array([0.5]))
    rec = lifo.explore(np.ones(1), np.array([0.7]), 1.0, clocks)
    z = enc.z_process(rec).queue_load
    assert z.value(0.3) == pytest.approx(-0.3 + 0.7)


@pytest.mark.parametrize("seed", range(100))
def test_z_dual_construction_random(seed):
    rec, _ = make_record(seed)
    paths = enc.z_process(rec)          # raises internally on mismatch
    assert np.allclose(paths.queue_load.jump_sizes, paths.composed.jump_sizes,
                       atol=1e-9)


def test_height_single_jump_interval():
    z = enc.StepPath([1.0], [2.0], drift=-1.0)
    h = enc.height_process(z)
    assert h.value(0.5) == 0
    assert h.value(1.0) == 1
    assert h.value(2.9) == 1
    assert h.value(3.0) == 0           # departure instant not counted
    assert h.value(5.0) == 0


def test_height_nested_services_reaches_three():
    # the five-client queue of the genealogy fixture, as a drift -1 path
    arrivals = np.array([0.322, 1.740, 2.436, 5.414, 8.868])
    services = np.array([3.93, 1.508, 0.772, 0.764, 1.032])
    z = enc.StepPath(arrivals, services, drift=-1.0)
    h = enc.height_process(z)
    assert h.value(2.5) == 3           # during client 3's service
    assert max(h.levels) == 3


@pytest.mark.parametrize("seed", range(40))
def test_height_stack_matches_literal_everywhere(seed):
    rec, rng = make_record(seed, max_side=12)
    z = enc.z_process(rec).queue_load
    h = enc.height_process(z)
    probes = list(z.jump_times) + list(rng.uniform(0, z.jump_times.max() + 1, 8))
    for t in probes:
        assert h.value(float(t)) == enc.literal_height(z, float(t))


def test_vertex_height_examples():
    # root with a child: height 1 = 2*1 - 1
    clocks = lifo.ClockSet(np.array([0.3]), np.array([0.5]))
    rec = lifo.explore(np.ones(1), np.ones(1), 1.0, clocks)
    h = enc.height_process(enc.z_process(rec).queue_load)
    assert enc.vertex_heights(rec, h).tolist() == [1]
    # childless root: indicator correction gives 2*0 - 1 + 2 = 1
    clocks = lifo.ClockSet(np.array([0.3]), np.array([100.0]))
    rec = lifo.explore(np.ones(1), np.ones(1), 1.0, clocks)
    h = enc.height_process(enc.z_process(rec).queue_load)
    assert enc.vertex_heights(rec, h).tolist() == [1]


@pytest.mark.parametrize("seed", range(60))
def test_vertex_heights_random(seed):
    rec, _ = make_record(seed)
    h = enc.height_process(enc.z_process(rec).queue_load)
    assert np.array_equal(enc.vertex_heights(rec, h), lifo.forest_heights(rec))


def test_tree_distance_same_time_is_zero():
    rec, _ = make_record(3)
    z = enc.z_process(rec).queue_load
    h = enc.height_process(z)
    spans = enc.serving_sets(rec)
    k, ((a, b), *_rest) = next(iter(spans.items()))
    t = a if a == b else 0.5 * (a + b)
    assert enc.tree_distance_via_height(h, z, t, t) == 0.0


def test_tree_distance_parent_child_is_one():
    # two blacks: second interrupts the first's white service
    x = np.array([1.0, 1.0])
    y = np.array([2.0])
    clocks = lifo.ClockSet(np.array([0.1, 0.6]), np.array([0.5]))
    rec = lifo.explore(x, y, 1.0, clocks)
    z = enc.z_process(rec).queue_load
    h = enc.height_process(z)
    spans = enc.serving_sets(rec)
    a0, b0 = spans[0][0]
    a1, b1 = spans[1][0]
    t0 = 0.5 * (a0 + b0) if a0 != b0 else a0
    t1 = 0.5 * (a1 + b1) if a1 != b1 else a1
    assert enc.tree_distance_via_height(h, z, t0, t1) == 1.0


def test_tree_distance_idle_raises():
    clocks = lifo.ClockSet(np.array([0.5]), np.array([0.2]))
    rec = lifo.explore(np.ones(1), np.ones(1), 1.0, clocks)
    z = enc.z_process(rec).queue_load
    h = enc.height_process(z)
    with pytest.raises(enc.QueueIdleError):
        enc.tree_distance_via_height(h, z, 0.1, 0.2)


@pytest.mark.parametrize("seed", range(40))
def test_tree_distance_matches_forest_bfs(seed):
    rec, rng = make_record(seed, max_side=25)
    z = enc.z_process(rec).queue_load
    h = enc.height_process(z)
    parents, _ = lifo.black_forest(rec)
    adj = [[] for _ in range(rec.n)]
    for i in range(rec.n):
        if parents[i] >= 0:
            adj[i].append(int(parents[i]))
            adj[int(parents[i])].append(i)
    oracle = bfs_all_pairs(adj)
    serve_time = {}
    for k, spans in enc.serving_sets(rec).items():
        a, b = spans[0]
        serve_time[k] = a if a == b else 0.5 * (a + b)
    for _ in range(15):
        i, j = int(rng.integers(rec.n)), int(rng.integers(rec.n))
        got = enc.tree_distance_via_height(h, z, serve_time[i], serve_time[j])
        want = float(oracle[i, j])
        assert got == want or (math.isinf(got) and math.isinf(want))


def test_excursions_trivial_cases():
    # single pair: one excursion carrying the white and black weights
    clocks = lifo.ClockSet(np.array([0.3]), np.array([0.5]))
    rec = lifo.explore(np.array([1.3]), np.array([0.7]), 1.0, clocks)
    z = enc.z_process(rec).queue_load
    exc = enc.excursions(z, x_by_jump=rec.x[rec.order])
    assert len(exc) == 1
    assert exc[0].y_mass == pytest.approx(0.7)
    assert exc[0].x_mass == pytest.approx(1.3)
    assert exc[0].d - exc[0].g == pytest.approx(0.7)
    # pure drift: no excursions
    clocks = lifo.ClockSet(np.array([0.3]), np.array([99.0]))
    rec = lifo.explore(np.ones(1), np.ones(1), 1.0, clocks)
    z = enc.z_process(rec).queue_load
    assert enc.excursions(z) == []


def test_sigma_single_pair_linear_rise():
    clocks = lifo.ClockSet(np.array([0.3]), np.array([0.2]))
    rec = lifo.explore(np.array([1.5]), np.array([0.8]), 1.0, clocks)
    sigma = enc.sigma_transfer(rec)
    assert sigma.value(0.3) == pytest.approx(0.0)
    assert sigma.value(0.3 + 0.4) == pytest.approx(1.5 * 0.4 / 0.8)
    assert sigma.value(0.3 + 0.8) == pytest.approx(1.5)
    assert sigma.total == pytest.approx(1.5)


def test_sigma_childless_black_jumps():
    clocks = lifo.ClockSet(np.array([0.3]), np.array([99.0]))
    rec = lifo.explore(np.array([1.5]), np.ones(1), 1.0, clocks)
    sigma = enc.sigma_transfer(rec)
    assert sigma.left_value(0.3) == pytest.approx(0.0)
    assert sigma.value(0.3) == pytest.approx(1.5)


def test_sigma_inverse_round_trip():
    rec, _ = make_record(17)
    sigma = enc.sigma_transfer(rec)
    for s in np.linspace(0.0, sigma.total * 0.999, 23):
        t = sigma.inverse(float(s))
        assert sigma.left_value(t) <= s + 1e-9
        assert float(sigma.value(t)) >= s - 1e-9


def test_step_path_csv_export(tmp_path):
    z = enc.StepPath([0.5, 1.0], [1.0, 2.0], drift=-1.0)
    out = tmp_path / "z.csv"
    z.to_csv(out, np.linspace(0, 2, 5))
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,value"
    assert len(rows) == 6


@pytest.mark.parametrize("times", [
    [0.5, 1.0, 2.5, 4.0],                 # sorted
    [2.5, 0.5, 4.0, 1.0],                 # unsorted
    [1.0, 1.0, 0.5, 1.0, 0.5],            # unsorted with ties
    [0.5, 1.0, 1.0, 1.0],                 # sorted with ties
    [],
])
def test_step_path_orders_jumps_as_a_stable_sort(times):
    sizes = np.arange(1.0, len(times) + 1.0)
    order = np.argsort(np.asarray(times, dtype=float), kind="stable")
    z = enc.StepPath(times, sizes, drift=-1.0)
    assert np.array_equal(z.jump_times, np.asarray(times, dtype=float)[order])
    assert np.array_equal(z.jump_sizes, sizes[order])
    assert np.array_equal(z._cum, np.concatenate([[0.0],
                                                  np.cumsum(sizes[order])]))
