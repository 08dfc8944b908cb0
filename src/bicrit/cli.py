"""Command-line front end.

Subcommands:
  simulate    replicated discrete runs, reports to --out
  limit       tilted limit ensembles, path samples and excursion tables
  compare     discrete run against a limit ensemble (KS distances)
  check       pathwise identity suite on random instances
  clustering  Monte Carlo clustering coefficient

Configs are JSON files mirroring ExperimentConfig; see the README for the
schema.  Exit status is nonzero whenever a requested check fails, and 2,
with one ``bicrit: error:`` line on stderr, for an invalid config or
argument.  Warnings that do not change the results go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checks, harness
from .graph_core import clustering_estimate
from .limit_sim import LimitParams, height_from_z, rank_excursions, simulate_z
from .weights import CriticalityError, InvalidSpecError, point_mass


def _load_config(path: str, overrides: argparse.Namespace) -> harness.ExperimentConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise harness.ConfigError(f"cannot read config {path}: "
                                  f"{exc.strerror}") from None
    except ValueError as exc:
        raise harness.ConfigError(f"config {path} is not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise harness.ConfigError(f"config {path} must hold a JSON object")
    for key, value in (("seed", overrides.seed),
                       ("replicates", getattr(overrides, "replicates", None)),
                       ("out_dir", getattr(overrides, "out", None))):
        if value is not None:
            d[key] = value
    return harness.ExperimentConfig.from_dict(d)


def _warn_partial(report: harness.RunReport) -> None:
    if report.partial:
        print(f"bicrit: warning: out of memory; the report holds "
              f"{len(report.replicates)} of {report.config['replicates']} "
              f"replicates", file=sys.stderr)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    report = harness.run_discrete(cfg)
    _warn_partial(report)
    out = cfg.out_dir or "bicrit-out"
    written = harness.emit(report, out)
    print(f"replicates={len(report.replicates)} "
          f"kappa_zero={report.kappa_zero_count} hash={report.content_hash()}")
    for kind, path in written.items():
        print(f"  {kind}: {path}")
    return 0


def _cmd_limit(args) -> int:
    try:
        params = LimitParams(regime=args.regime, theta=args.theta,
                             alpha=args.alpha if args.regime > 1 else 2.0,
                             c_b=args.c_b, c_w=args.c_w)
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from None
    if not (args.horizon > 0 and 0 < args.step <= 1e-3 * args.horizon):
        raise harness.ConfigError("limit needs --horizon > 0 and --step in "
                                  "(0, horizon / 1000]")
    if args.paths < 1 or args.top_k < 1 or args.keep_paths < 0:
        raise harness.ConfigError("limit needs --paths and --top-k of at "
                                  "least 1 and --keep-paths of at least 0")
    if args.epsilon is not None and not args.epsilon > 0:
        raise harness.ConfigError("--epsilon must be positive")
    out = args.out or "bicrit-limit"
    os.makedirs(out, exist_ok=True)
    seq = np.random.SeedSequence(args.seed)
    exc_path = os.path.join(out, "excursions.csv")
    warning, warned = None, 0
    with open(exc_path, "w") as fh:
        fh.write("path,rank,g,d,length\n")
        for i, child in enumerate(seq.spawn(args.paths)):
            path = simulate_z(params, args.horizon, args.step, child)
            for rank, exc in enumerate(rank_excursions(path)[:args.top_k], 1):
                fh.write(f"{i},{rank},{exc.g!r},{exc.d!r},{exc.length!r}\n")
            if i < args.keep_paths:
                stride = max(1, len(path.times) // 2000)
                height = height_from_z(path, params, epsilon=args.epsilon,
                                       stride=stride if params.regime > 1 else 1)
                if "warning" in height.meta:
                    warning, warned = height.meta["warning"], warned + 1
                table = np.column_stack([path.times[::stride],
                                         path.values[::stride],
                                         height.values[::stride]])
                np.savetxt(os.path.join(out, f"path{i}.csv"), table,
                           delimiter=",", header="t,value,height", comments="")
    if warning:
        print(f"bicrit: warning: {warning} ({warned} of "
              f"{min(args.paths, args.keep_paths)} kept paths)", file=sys.stderr)
    print(f"wrote {exc_path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config, args)
    report = harness.run_discrete(cfg)
    _warn_partial(report)
    params = LimitParams.from_pair(cfg.pair())
    ensemble = harness.simulate_limit_ensemble(
        params, cfg.limit.paths, cfg.limit.horizon, cfg.limit.step,
        cfg.top_k, np.random.SeedSequence([cfg.seed, 1]))
    result = harness.compare_with_limit(report, ensemble,
                                        threshold=args.threshold)
    for k, (ky, kx) in enumerate(zip(result.ks_y, result.ks_x), 1):
        print(f"rank {k}: KS(y-mass)={ky:.4f} KS(x-mass)={kx:.4f}")
    print(f"threshold={result.threshold} passed={result.passed}")
    return 0 if result.passed else 1


def _cmd_check(args) -> int:
    if args.instances < 1 or args.max_side < 1:
        raise harness.ConfigError("check needs --instances and --max-side of "
                                  "at least 1")
    results = checks.identity_suite(args.instances, seed=args.seed,
                                    max_side=args.max_side)
    fails = checks.summarize(results)
    names = sorted({o.name for res in results for o in res.outcomes})
    for name in names:
        bad = fails.get(name, 0)
        print(f"{'FAIL' if bad else 'PASS'} {name}: "
              f"{len(results) - bad}/{len(results)} instances")
    if fails:
        for res in results:
            if not res.ok:
                print(f"first failing instance: seed={res.seed} "
                      f"n={res.n} m={res.m}")
                break
        return 1
    return 0


def _cmd_clustering(args) -> int:
    if args.n < 3:
        raise harness.ConfigError("clustering needs --n of at least 3")
    est = clustering_estimate(point_mass(1.0), point_mass(1.0),
                              args.n, args.m if args.m else args.n,
                              trials=args.trials, seed=args.seed)
    if not est.defined:
        print("conditioning event never observed; estimate undefined")
        return 1
    print(f"CL={est.value:.4f} se={est.std_error:.4f} wedges={est.wedges} "
          f"graphs={est.graphs}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bicrit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replicated discrete runs")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("limit", help="simulate limit ensembles")
    p.add_argument("--regime", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--c-b", type=float, default=1.0)
    p.add_argument("--c-w", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--keep-paths", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("compare", help="discrete run vs limit ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("check", help="pathwise identity suite")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-side", type=int, default=50)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("clustering", help="clustering coefficient estimate")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_clustering)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, InvalidSpecError, CriticalityError) as exc:
        print(f"bicrit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
