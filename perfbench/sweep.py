"""Scaling sweep of the discrete stages and the height estimator.

The discrete stages are timed at three values of n spanning a decade, on
the desk config with full features; ``height_from_z`` is timed at three
grid sizes.  Each exponent is the least-squares slope of log median time
against log size.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from bicrit import harness, lifo, limit_sim
from bicrit.poisson_model import sample_conditioned

from tracer import Tracer
from workloads import FullN50k, LimitHeight, replicate_seeds

SIZES = (5_000, 15_811, 50_000)
GRID_STEPS = (4e-3, 2e-3, 1e-3)     # 2500, 5000 and 10000 points on horizon 10
REPLAYED = ("lifo.explore", "encoding.sigma_transfer", "encoding.excursions",
            "harness.poissonized_surplus")


def _slope(table: dict) -> float:
    """Least-squares log-log slope over the sizes with a positive median;
    a remainder time can fall within noise of zero at the smallest n.
    0.0 when fewer than two sizes qualify."""
    pts = [(size, t) for size, t in table.items() if t > 0.0]
    if len(pts) < 2:
        return 0.0
    sizes, times = zip(*pts)
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def scaling_sweep(full: FullN50k, seed: int, repeats: int) -> dict:
    """Returns ``{"exponents": {stage: slope}, "table": {stage: {size: s}}}``."""
    samples: dict[str, dict[int, list[float]]] = {}

    def add(stage, size, seconds):
        samples.setdefault(stage, {}).setdefault(size, []).append(seconds)

    for rep in range(repeats):
        for n in SIZES:
            d = dict(full.base, n=n, features="full", replicates=1,
                     seed=seed * 1000 + rep)
            cfg = harness.ExperimentConfig.from_dict(d)
            # the real run and its replay both start from a freshly collected
            # heap, so a collection does not land in only one of them
            gc.collect()
            t0 = time.perf_counter()
            harness.run_discrete(cfg)
            run_s = time.perf_counter() - t0
            tracer = Tracer()
            gc.collect()
            full.replay(cfg, tracer)
            for stage in REPLAYED:
                add(stage, n, tracer.median_time(stage)[0])
            add("harness.replicate_rest", n,
                run_s - tracer.span_total(FullN50k.STAGES))
            coupling = sample_conditioned(cfg.pair(), replicate_seeds(cfg)[0])
            clocks = lifo.ClockSet(coupling.black_clocks, coupling.white_clocks)
            t0 = time.perf_counter()
            lifo.component_masses(coupling.black_weights,
                                  coupling.white_weights, cfg.pair().z, clocks)
            add("lifo.component_masses", n, time.perf_counter() - t0)

    limit = LimitHeight()
    params = limit.params()
    for k, step in enumerate(GRID_STEPS):
        path = limit_sim.simulate_z(params, limit.HORIZON, step,
                                    np.random.SeedSequence([seed, k]))
        for _ in range(repeats):
            t0 = time.perf_counter()
            limit_sim.height_from_z(path, params)
            add("limit_sim.height_from_z", len(path.times),
                time.perf_counter() - t0)

    table = {stage: {size: statistics.median(v) for size, v in by_size.items()}
             for stage, by_size in samples.items()}
    exponents = {stage: _slope(t) for stage, t in table.items()}
    return {"exponents": exponents, "table": table}
