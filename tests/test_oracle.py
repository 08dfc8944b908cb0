"""The array-native exploration record, sigma transfer and surplus samplers
against the object-based versions in ``seed_oracle``, bit for bit."""

import math

import numpy as np
import pytest

import seed_oracle as oracle
from bicrit import encoding, harness, lifo
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
