"""The array-native exploration record, sigma transfer and surplus samplers,
the row-blocked direct sampler and the suffix-minimum height oracle against
the object-based, dense and scalar versions in ``seed_oracle``, bit for
bit."""

import math

import numpy as np
import pytest

import seed_oracle as oracle
from bicrit import checks, encoding, harness, lifo
from bicrit.graph_core import sample_direct
from bicrit.weights import exponential, point_mass, power_tail, sample_weights

LAWS = {
    "point-mass": point_mass(1.0),
    "exponential": exponential(0.8),
    "pareto": power_tail(1.3, 0.4, 1.2),
}
INSTANCES = 110                     # per law


def oracle_instance(law: str, seed: int):
    """Weights of one law, sides from 1 to 60 (every fifth instance has a
    side of length 1), z off criticality by up to a factor of 5."""
    rng = np.random.default_rng([seed, len(law)])
    n, m = (int(v) for v in rng.integers(1, 61, size=2))
    if seed % 5 == 0:
        n, m = (1, m) if seed % 10 == 0 else (n, 1)
    x = sample_weights(LAWS[law], n, rng)
    y = sample_weights(LAWS[law], m, rng)
    z = math.sqrt(n * m) * float(rng.uniform(0.2, 1.0))
    clocks = lifo.sample_clocks(x, y, z, rng)
    return x, y, z, clocks


def assert_same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("law", sorted(LAWS))
def test_record_sigma_and_surplus_match_oracle(law):
    for seed in range(INSTANCES):
        x, y, z, clocks = oracle_instance(law, seed)
        rec = lifo.explore(x, y, z, clocks)
        ref = oracle.explore(x, y, z, clocks)
        ctx = f"law={law} seed={seed}"

        for name in ("order", "intervals", "delta", "parent_white",
                     "parent_black"):
            assert_same(getattr(rec, name), getattr(ref, name), f"{name} {ctx}")
        assert rec.steps == ref.steps and rec.roots == ref.roots, ctx
        for v in range(rec.n):
            kids = rec.worder[rec.offspring_lo[v]:rec.offspring_hi[v]]
            assert_same(kids, ref.offspring[v], f"offspring {ctx}")
        pieces = [(p.t0, p.t1, p.black, p.load0) for p in ref.serving]
        assert_same(np.column_stack([rec.piece_t0, rec.piece_t1,
                                     rec.piece_black, rec.piece_load0]),
                    np.array(pieces, dtype=float).reshape(-1, 4),
                    f"pieces {ctx}")
        points = [(p.t, p.black, p.load, p.pieces_before)
                  for p in ref.point_services]
        assert_same(np.column_stack([rec.point_t, rec.point_black,
                                     rec.point_load, rec.point_piece]),
                    np.array(points, dtype=float).reshape(-1, 4),
                    f"points {ctx}")
        assert rec.candidates == ref.candidates, ctx

        sigma = encoding.sigma_transfer(rec)
        ref_sigma = oracle.sigma_transfer(ref)
        for name in ("break_times", "left_values", "right_values", "slopes"):
            assert_same(getattr(sigma, name), getattr(ref_sigma, name),
                        f"sigma.{name} {ctx}")
        assert sigma.total == ref_sigma.total, ctx

        for draw in range(3):
            marks, edges = harness.poissonized_surplus(rec, sigma, draw)
            ref_marks, ref_edges = oracle.poissonized_surplus(ref, ref_sigma,
                                                              draw)
            assert_same(marks.pairs, ref_marks.pairs, f"pairs {ctx} {draw}")
            assert_same(marks.atoms, ref_marks.atoms, f"atoms {ctx} {draw}")
            assert edges == ref_edges, f"{ctx} draw={draw}"
            assert (lifo.sample_surplus_direct(rec, z, draw)
                    == oracle.sample_surplus_direct(ref, z, draw)), ctx


def test_oracle_instances_cover_edge_sizes_and_atoms():
    sides = set()
    atoms = 0
    for law in LAWS:
        for seed in range(INSTANCES):
            x, y, z, clocks = oracle_instance(law, seed)
            sides.update((len(x), len(y)))
            ref = oracle.explore(x, y, z, clocks)
            marks, _ = oracle.poissonized_surplus(
                ref, oracle.sigma_transfer(ref), 0)
            atoms += len(marks.pairs)
    assert 1 in sides and atoms >= 300


# (n, m): sides of 1 and single blocks; then several blocks: m = 53 gives
# 1,236-row blocks that do not divide n, 2000 x 2000 runs in 32-row blocks,
# and m > 2**16 gives one row per block
SMALL_SIDES = [(1, 1), (1, 40), (40, 1), (37, 53)]
BLOCK_SIDES = [(1500, 53), (2000, 2000), (3, 70_000)]
# z as a multiple of the critical sqrt(n m): p near 1, critical, no edges
Z_SCALES = [1e-6, 1.0, 1e12]


def assert_same_sample(x, y, z, seed, ctx):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_direct(x, y, z, rng)
    want = oracle.sample_direct(x, y, z, ref_rng)
    assert got.edges == want.edges, ctx
    assert rng.bit_generator.state == ref_rng.bit_generator.state, ctx
    return len(want.edges)


@pytest.mark.parametrize("b", range(len(checks.SPEC_POOL)))
def test_sample_direct_matches_dense_oracle(b):
    """Black law b of the identity suite's pool against every white law at
    the small sides and all three z scales.  At the block sides it meets
    one white law, a cyclic shift of the pool, at the critical and the
    largest z; the smallest z runs at 1500 x 53 only, since near p = 1 the
    graph constructor's time grows with the edge count."""
    pool = checks.SPEC_POOL
    cases = [(w, k, n, m, scale) for w in range(len(pool))
             for k, (n, m) in enumerate(SMALL_SIDES) for scale in Z_SCALES]
    cases += [((b + 1 + k) % len(pool), 10 + k, n, m, scale)
              for k, (n, m) in enumerate(BLOCK_SIDES) for scale in Z_SCALES
              if m == 53 or scale >= 1.0]
    edges = 0
    for w, k, n, m, scale in cases:
        rng = np.random.default_rng([b, w, k])
        x = sample_weights(pool[b], n, rng)
        y = sample_weights(pool[w], m, rng)
        z = scale * math.sqrt(n * m)
        edges += assert_same_sample(x, y, z, [b, w, k, 1],
                                    f"b={b} w={w} n={n} m={m} z={z}")
    assert edges > 0


def test_sample_direct_of_empty_side_draws_nothing():
    for n, m in [(0, 0), (0, 5), (5, 0)]:
        rng = np.random.default_rng(3)
        g = sample_direct(np.ones(n), np.ones(m), 1.0, rng)
        assert g.edges == [] and (g.n, g.m) == (n, m)
        assert rng.random() == np.random.default_rng(3).random()


def test_sample_direct_nan_weight_hits_nothing_as_in_dense_draw():
    x = np.array([1.0, np.nan, 2.0, 0.5])
    y = np.array([np.nan, 1.5, 1.0])
    assert assert_same_sample(x, y, 1.0, 4, "nan weights") > 0


def tie_instance(seed: int):
    """Point-mass and two-atom laws on both sides, sides 1 to 15."""
    rng = np.random.default_rng([seed, 25])
    pool = [checks.SPEC_POOL[0], checks.SPEC_POOL[5]]
    n, m = (int(v) for v in rng.integers(1, 16, size=2))
    x = sample_weights(pool[seed % 2], n, rng)
    y = sample_weights(pool[seed // 2 % 2], m, rng)
    z = math.sqrt(n * m)
    return x, y, z, lifo.sample_clocks(x, y, z, rng), rng


@pytest.mark.parametrize("part", range(4))
def test_literal_height_matches_scalar_loop(part):
    """1,000 identity-suite instances and 200 tie-heavy ones, at every jump
    time (where a childless black's zero-size jump ties its pre-jump level
    with the value at t) and at random times."""
    ties = 0
    for k in range(part, 1200, 4):
        x, y, z, clocks, rng = (checks.random_instance(k, 15) if k < 1000
                                else tie_instance(k))
        zpath = encoding.z_process(lifo.explore(x, y, z, clocks)).queue_load
        times = zpath.jump_times
        probes = list(times) + list(rng.uniform(0.0, times.max() + 1.0, 4))
        for t in probes:
            assert (encoding.literal_height(zpath, float(t))
                    == oracle.literal_height(zpath, float(t))), f"k={k} t={t}"
        ties += int(np.count_nonzero(zpath.jump_sizes == 0.0))
    assert ties > 0
