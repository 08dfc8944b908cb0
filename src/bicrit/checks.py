"""Per-run exact identity checks, shared by the CLI and the test suite.

Every check here is pathwise: it must hold on every realisation, not just
in distribution.  The driver samples random instances with mixed weight
laws and reports the first failure with enough context to replay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoding, lifo
from .graph_core import (adjacency, components_and_distances, intersection_graph,
                         isometry_check)
from .metric_space import bfs_all_pairs, distortion_certificate
from .weights import (WeightSpec, discrete_table, exponential, point_mass,
                      power_tail, sample_weights, uniform)

TOL = 1e-9

SPEC_POOL: list[WeightSpec] = [
    point_mass(1.0),
    point_mass(2.0),
    exponential(1.0),
    exponential(0.7),
    uniform(0.5, 1.5),
    discrete_table([0.5, 2.0], [0.8, 0.2]),
    power_tail(1.5, 0.3, 1.0),
    power_tail(1.3, 0.4, 1.2),
]


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class InstanceResult:
    seed: int
    n: int
    m: int
    outcomes: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


def random_instance(seed: int, max_side: int = 50):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_side + 1))
    m = int(rng.integers(1, max_side + 1))
    spec_b = SPEC_POOL[int(rng.integers(len(SPEC_POOL)))]
    spec_w = SPEC_POOL[int(rng.integers(len(SPEC_POOL)))]
    x = sample_weights(spec_b, n, rng)
    y = sample_weights(spec_w, m, rng)
    z = math.sqrt(n * m)
    clocks = lifo.sample_clocks(x, y, z, rng)
    return x, y, z, clocks, rng


def check_instance(seed: int, max_side: int = 50,
                   literal_height_probes: int = 4) -> InstanceResult:
    x, y, z, clocks, rng = random_instance(seed, max_side)
    n, m = len(x), len(y)
    res = InstanceResult(seed, n, m)
    add = res.outcomes.append

    record = lifo.explore(x, y, z, clocks)
    add(CheckOutcome("step-bound", record.steps <= n + m,
                     f"steps={record.steps} n+m={n + m}"))

    ordered = record.intervals[record.order]
    tiles = (abs(ordered[0, 0]) <= TOL
             and np.all(np.abs(ordered[1:, 0] - ordered[:-1, 1]) <= TOL)
             and abs(ordered[-1, 1] - x.sum()) <= TOL * max(1.0, x.sum()))
    add(CheckOutcome("interval-tiling", bool(tiles)))

    try:
        zpaths = encoding.z_process(record)
        add(CheckOutcome("load-composition", True))
    except AssertionError as exc:
        add(CheckOutcome("load-composition", False, str(exc)))
        return res
    zpath = zpaths.queue_load

    gen_parents, _ = lifo.lifo_genealogy(clocks.black[record.order],
                                         record.delta[record.order])
    bparents, _ = lifo.black_forest(record)
    expect = np.full(n, -1, dtype=int)
    for pos in range(n):
        if gen_parents[pos] >= 0:
            expect[record.order[pos]] = record.order[gen_parents[pos]]
    add(CheckOutcome("queue-genealogy", bool(np.array_equal(bparents, expect))))

    height = encoding.height_process(zpath)
    probes = rng.uniform(0.0, float(clocks.black.max()) + 1.0,
                         size=literal_height_probes)
    lit_ok = all(encoding.literal_height(zpath, float(t)) == height.value(float(t))
                 for t in probes)
    add(CheckOutcome("height-stack-vs-literal", lit_ok))

    vh = encoding.vertex_heights(record, height)
    fh = lifo.forest_heights(record)
    add(CheckOutcome("vertex-heights", bool(np.array_equal(vh, fh)),
                     f"formula={vh.tolist()} forest={fh.tolist()}"))

    dist_ok = _check_tree_distances(record, height, zpath, rng)
    add(CheckOutcome("tree-distance", dist_ok))

    surplus = lifo.sample_surplus_direct(record, z, rng)
    graph = lifo.assemble_graph(record, surplus)
    gd = components_and_distances(graph)
    exc = encoding.excursions(zpath, x_by_jump=x[record.order])
    nontrivial = [c for c in gd.components if c.nontrivial]
    exc_ok = len(exc) == len(nontrivial)
    if exc_ok:
        for e in exc:
            root = int(record.order[e.root_jump])
            comp = gd.components[gd.component_of_black(root)]
            exc_ok &= abs(e.y_mass - comp.y_mass) <= TOL * max(1.0, comp.y_mass)
            exc_ok &= abs(e.x_mass - comp.x_mass) <= TOL * max(1.0, comp.x_mass)
    add(CheckOutcome("excursion-masses", exc_ok))

    sigma = encoding.sigma_transfer(record)
    sig_ok = abs(sigma.total - x.sum()) <= TOL * max(1.0, x.sum())
    sig_ok &= bool(np.all(np.diff(sigma.right_values) >= -TOL))
    for k, spans in encoding.serving_sets(record).items():
        measure = sum(sigma.image_length(a, b) for a, b in spans)
        sig_ok &= abs(measure - x[k]) <= TOL * max(1.0, x[k])
    add(CheckOutcome("transfer-measure", sig_ok))

    iso = isometry_check(graph, intersection_graph(graph))
    add(CheckOutcome("intersection-isometry", iso.ok,
                     f"violations={iso.violations[:3]}"))

    add(_check_distortion(record, graph, gd, surplus))
    return res


def _check_tree_distances(record, height, zpath, rng) -> bool:
    n = record.n
    bparents, _ = lifo.black_forest(record)
    child = np.flatnonzero(bparents >= 0)
    oracle = bfs_all_pairs(adjacency(n, child.tolist(),
                                     bparents[child].tolist()))

    serve_time = {}
    for k, spans in encoding.serving_sets(record).items():
        a, b = spans[0]
        serve_time[k] = a if a == b else 0.5 * (a + b)
    pairs = min(10, n * n)
    for _ in range(pairs):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        got = encoding.tree_distance_via_height(
            height, zpath, serve_time[i], serve_time[j])
        want = float(oracle[i, j])
        if got != want and not (math.isinf(got) and math.isinf(want)):
            return False
    return True


def _check_distortion(record, graph, gd, surplus) -> CheckOutcome:
    n, m = record.n, record.m
    forest = record.forest_edges()
    shortcuts = [(b, b2) for b, b2 in lifo.project_surplus(record, surplus)
                 if b != b2]
    us = [i for i, _ in forest] + [b for b, _ in shortcuts]
    vs = [n + j for _, j in forest] + [b2 for _, b2 in shortcuts]
    d_orig = bfs_all_pairs(gd.adj)
    d_mod = bfs_all_pairs(adjacency(n + m, us, vs))
    ok = True
    detail = ""
    for comp in gd.components:
        if not comp.nontrivial:
            continue
        verts = comp.black_members + [n + j for j in comp.white_members]
        s_k = sum(1 for b, w in surplus
                  if gd.component_of_black(b) ==
                  gd.component_of_black(comp.black_members[0]))
        sub = np.ix_(verts, verts)
        rep = distortion_certificate(d_orig[sub], d_mod[sub], s_k)
        if not rep.ok:
            ok = False
            detail = f"distortion {rep.max_distortion} > {s_k}"
            break
    return CheckOutcome("surplus-distortion", ok, detail)


def identity_suite(instances: int, seed: int = 0,
                   max_side: int = 50) -> list[InstanceResult]:
    """Run the full pathwise identity suite on random instances."""
    base = np.random.SeedSequence(seed)
    out = []
    for child in base.spawn(instances):
        out.append(check_instance(int(child.generate_state(1)[0]),
                                  max_side=max_side))
    return out


def summarize(results: list[InstanceResult]) -> dict[str, int]:
    """Failure counts by check name; empty when everything passed."""
    fails: dict[str, int] = {}
    for res in results:
        for o in res.outcomes:
            if not o.ok:
                fails[o.name] = fails.get(o.name, 0) + 1
    return fails
