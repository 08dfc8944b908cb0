"""The four benchmark workloads.

Each workload defines one kind of job, a CLI-equivalent call into bicrit:

- ``prepare`` writes the job's generated inputs (set-up, untimed);
- ``run`` makes the call exactly as the CLI command does (the timed job);
- ``traced`` makes the same calls with a span around each, then replays the
  calls the CLI makes inside the program into the layer functions on the
  same seeds, with a span around each layer call;
- ``observe`` reads the job's outputs back, applies the checks by law, and
  returns the values compared with the seed-commit references;
- ``compare`` holds those values against one reference entry.

``CLI_SPANS`` names the spans of the CLI-equivalent calls, which partition
the job; their total over the untraced job latency, less 1, is the tracing
overhead.
``LAYER_SPANS`` names the spans of the layer calls that account for the job,
none nested in another; their total over the untraced job latency is the
trace coverage.  A remainder such as ``harness.replicate_rest`` is no span
and does not count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from bicrit import checks, cli, encoding, harness, lifo, limit_sim
from bicrit.graph_core import (clustering_estimate, components_and_distances,
                               intersection_graph, isometry_check,
                               sample_direct)
from bicrit.metric_space import bfs_all_pairs, distortion_certificate
from bicrit.poisson_model import sample_conditioned
from bicrit.weights import (make_critical_pair, point_mass, power_tail,
                            sample_weights, spec_to_dict)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_config(d: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(d, fh, sort_keys=True)
    return path


def _load_config(path: str) -> harness.ExperimentConfig:
    """What ``bicrit simulate/compare --config PATH`` loads."""
    with open(path) as fh:
        return harness.ExperimentConfig.from_dict(json.load(fh))


def replicate_seeds(cfg: harness.ExperimentConfig) -> list[int]:
    """The per-replicate seeds ``run_discrete`` spawns."""
    return [int(s.generate_state(1)[0]) for s in
            np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)]


def _mismatches(observed: dict, ref: dict, keys) -> list[str]:
    return [f"{k}: got {observed.get(k)!r}, reference {ref.get(k)!r}"
            for k in keys if observed.get(k) != ref.get(k)]


def rank_components(x_mass, y_mass, roots, top_k: int) -> tuple[list, list]:
    """A copy of the ranking that ``harness._masses_only_replicate`` does
    inline after ``component_masses``: the top components by x mass with
    their ranks by y mass, and the top y masses."""
    kappa = len(y_mass)
    by_x = np.argsort(-x_mass, kind="stable")
    by_y = np.argsort(-y_mass, kind="stable")
    y_rank_of = np.empty(kappa, dtype=int)
    y_rank_of[by_y] = np.arange(1, kappa + 1)
    tops = [harness.ComponentSummary(float(x_mass[c]), float(y_mass[c]),
                                     int(roots[c]), y_rank=int(y_rank_of[c]))
            for c in by_x[:top_k]]
    y_ranked = sorted((float(v) for v in y_mass), reverse=True)[:top_k]
    return tops, y_ranked


def _trace_simulate_z(tracer, params, horizon, step, seed):
    with tracer.span("limit_sim.simulate_z"):
        path = limit_sim.simulate_z(params, horizon, step, seed)
    kept = path.meta.get("kept_jumps", 0)
    tracer.count("limit_sim.kept_jumps", kept)
    tracer.count("limit_sim.truncation", path.meta.get("truncation", 0.0))
    # computed: kept jumps over the expected proposal count per path
    tracer.count("limit_sim.thinning_accept_ratio",
                 kept / limit_sim.JUMP_BUDGET)
    return path


class FullN50k:
    """``bicrit simulate`` on the desk config with n = 50000, full features
    and one replicate: exploration, encodings, surplus and diameters."""

    name = "full-n50k"
    CLI_SPANS = {"cli.load_config", "harness.run_discrete", "harness.emit"}
    STAGES = ("poisson_model.sample_conditioned", "lifo.explore",
              "encoding.z_process", "encoding.sigma_transfer",
              "harness.poissonized_surplus", "encoding.excursions",
              "harness.release_replicate")
    LAYER_SPANS = set(STAGES) | {"harness.emit"}

    def __init__(self, root: str):
        with open(os.path.join(root, "configs", "desk.json")) as fh:
            self.base = json.load(fh)

    def prepare(self, job_seed: int, workdir: str) -> dict:
        d = dict(self.base, n=50000, features="full", replicates=1,
                 seed=job_seed)
        path = _write_config(d, os.path.join(workdir, "full-n50k.json"))
        return {"config": path, "generated": d,
                "out": os.path.join(workdir, "full-n50k-out")}

    def load(self, inputs: dict):
        """Load the generated config; returns the pair to validate."""
        return _load_config(inputs["config"]).pair()

    def run(self, inputs: dict) -> dict:
        report = harness.run_discrete(_load_config(inputs["config"]))
        harness.emit(report, inputs["out"])
        return {"exit": 0, "report": report}

    def traced(self, inputs: dict, tracer) -> dict:
        with tracer.span("cli.load_config"):
            cfg = _load_config(inputs["config"])
        with tracer.span("harness.run_discrete") as run:
            report = harness.run_discrete(cfg)
        with tracer.span("harness.emit"):
            harness.emit(report, inputs["out"])
        tracer.count("harness.run_report.partial", int(report.partial))
        first = len(tracer.spans)
        with tracer.span("replay"):
            loads, kappas = self.replay(cfg, tracer)
        if kappas != [rep.kappa for rep in report.replicates]:
            raise RuntimeError("the replay of run_discrete found other "
                               "components than the program")
        stage_s = tracer.span_total(self.STAGES, first)
        tracer.add_time("harness.replicate_rest",
                        (run["end"] - run["start"] - stage_s) / cfg.replicates)
        # outside every span: the peak queue is the height functional's max
        for load in loads:
            levels = encoding.height_process(load).levels
            tracer.count("lifo.peak_queue",
                         int(levels.max()) if len(levels) else 0)
        return {"exit": 0, "report": report}

    def replay(self, cfg, tracer) -> tuple[list, list]:
        """The stages of each full replicate on the same seeds; returns the
        replicates' load paths and component counts."""
        pair = cfg.pair()
        loads, kappas = [], []
        for seed in replicate_seeds(cfg):
            with tracer.span("poisson_model.sample_conditioned"):
                coupling = sample_conditioned(pair, seed)
            x = coupling.black_weights
            clocks = lifo.ClockSet(coupling.black_clocks,
                                   coupling.white_clocks)
            with tracer.span("lifo.explore"):
                record = lifo.explore(x, coupling.white_weights, pair.z, clocks)
            with tracer.span("encoding.z_process"):
                zpaths = encoding.z_process(record)
            with tracer.span("encoding.sigma_transfer"):
                sigma = encoding.sigma_transfer(record)
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            with tracer.span("harness.poissonized_surplus"):
                marks, edges = harness.poissonized_surplus(record, sigma, rng)
            with tracer.span("encoding.excursions"):
                exc = encoding.excursions(zpaths.queue_load,
                                          x_by_jump=x[record.order])
            tracer.count("lifo.explore.steps", record.steps)
            tracer.count("lifo.explore.candidate_entries",
                         sum(len(c[2]) for c in record.candidates))
            tracer.count("encoding.kappa", len(exc))
            atoms = len(marks.pairs)
            tracer.count("harness.surplus_atoms", atoms)
            tracer.count("harness.surplus_edges", len(edges))
            if atoms:
                tracer.count("harness.surplus_edge_ratio", len(edges) / atoms)
            loads.append(zpaths.queue_load)
            kappas.append(len(exc))
            # freeing the exploration record's Python objects, which the
            # program does when a replicate returns
            with tracer.span("harness.release_replicate"):
                del coupling, x, clocks, record, zpaths, sigma, marks, edges
                del exc
        return loads, kappas

    def observe(self, inputs: dict, output: dict) -> tuple[dict, list[str]]:
        path = os.path.join(inputs["out"], "report.json")
        problems = ["report is partial"] if output["report"].partial else []
        return {"exit": output["exit"],
                "report_sha256": sha256_file(path)}, problems

    def compare(self, observed: dict, ref: dict) -> list[str]:
        return _mismatches(observed, ref, ("exit", "report_sha256"))


class MassesHeavy:
    """``bicrit compare`` on a heavy-tailed config: component masses only,
    100 replicates at n = 1e5 against 100 regime-2 limit paths."""

    name = "masses-heavy"
    CLI_SPANS = {"cli.load_config", "harness.run_discrete",
                 "harness.simulate_limit_ensemble", "harness.compare_with_limit"}
    THRESHOLD = 0.1                 # the CLI default
    STAGES = ("poisson_model.sample_conditioned", "lifo.component_masses",
              "harness.rank_components")
    LAYER_SPANS = set(STAGES) | {"limit_sim.simulate_z",
                                 "harness.top_excursion_lengths",
                                 "harness.compare_with_limit"}

    def prepare(self, job_seed: int, workdir: str) -> dict:
        pair = make_critical_pair(power_tail(1.5, 0.5, 1.0),
                                  point_mass(1.0, "w"), 1.0, 100_000)
        d = {"spec_b": spec_to_dict(pair.spec_b),
             "spec_w": spec_to_dict(pair.spec_w),
             "theta": 1.0, "n": 100_000, "replicates": 100, "seed": job_seed,
             "top_k": 2, "features": "masses", "workers": 1,
             "limit": {"horizon": 10.0, "step": 1e-3, "paths": 100,
                       "epsilon": None}}
        path = _write_config(d, os.path.join(workdir, "masses-heavy.json"))
        return {"config": path, "generated": d}

    def load(self, inputs: dict):
        """Load the generated config; returns the pair to validate."""
        return _load_config(inputs["config"]).pair()

    def _ensemble(self, cfg, params):
        return harness.simulate_limit_ensemble(
            params, cfg.limit.paths, cfg.limit.horizon, cfg.limit.step,
            cfg.top_k, np.random.SeedSequence([cfg.seed, 1]))

    def run(self, inputs: dict) -> dict:
        cfg = _load_config(inputs["config"])
        report = harness.run_discrete(cfg)
        params = limit_sim.LimitParams.from_pair(cfg.pair())
        ensemble = self._ensemble(cfg, params)
        result = harness.compare_with_limit(report, ensemble,
                                            threshold=self.THRESHOLD)
        return {"exit": 0 if result.passed else 1, "report": report,
                "result": result}

    def traced(self, inputs: dict, tracer) -> dict:
        with tracer.span("cli.load_config"):
            cfg = _load_config(inputs["config"])
        with tracer.span("harness.run_discrete") as run:
            report = harness.run_discrete(cfg)
        tracer.count("harness.run_report.partial", int(report.partial))
        params = limit_sim.LimitParams.from_pair(cfg.pair())
        with tracer.span("harness.simulate_limit_ensemble",
                         calls=cfg.limit.paths):
            ensemble = self._ensemble(cfg, params)
        with tracer.span("harness.compare_with_limit"):
            result = harness.compare_with_limit(report, ensemble,
                                                threshold=self.THRESHOLD)
        with tracer.span("replay"):
            pair = cfg.pair()
            first = len(tracer.spans)
            for seed, rep in zip(replicate_seeds(cfg), report.replicates):
                with tracer.span("poisson_model.sample_conditioned"):
                    coupling = sample_conditioned(pair, seed)
                clocks = lifo.ClockSet(coupling.black_clocks,
                                       coupling.white_clocks)
                with tracer.span("lifo.component_masses"):
                    y_mass, x_mass, roots = lifo.component_masses(
                        coupling.black_weights, coupling.white_weights,
                        pair.z, clocks)
                with tracer.span("harness.rank_components"):
                    tops, y_ranked = rank_components(x_mass, y_mass, roots,
                                                     cfg.top_k)
                if (tops, y_ranked) != (rep.top_by_x, rep.y_ranked_masses):
                    raise RuntimeError("the replay of run_discrete ranked "
                                       "other components than the program")
            stage_s = tracer.span_total(self.STAGES, first)
            tracer.add_time("harness.replicate_rest",
                            (run["end"] - run["start"] - stage_s)
                            / cfg.replicates)
            seq = np.random.SeedSequence([cfg.seed, 1])
            for child in seq.spawn(cfg.limit.paths):
                path = _trace_simulate_z(tracer, params, cfg.limit.horizon,
                                         cfg.limit.step, child)
                with tracer.span("harness.top_excursion_lengths"):
                    harness.top_excursion_lengths(path.values, cfg.limit.step,
                                                  cfg.top_k)
        return {"exit": 0 if result.passed else 1, "report": report,
                "result": result}

    def observe(self, inputs: dict, output: dict) -> tuple[dict, list[str]]:
        problems = ["report is partial"] if output["report"].partial else []
        res = output["result"]
        return {"exit": output["exit"],
                "report_sha256": output["report"].content_hash(),
                "ks_y": list(res.ks_y), "ks_x": list(res.ks_x)}, problems

    def compare(self, observed: dict, ref: dict) -> list[str]:
        return _mismatches(observed, ref,
                           ("exit", "report_sha256", "ks_y", "ks_x"))


class LimitHeight:
    """``bicrit limit --regime 2 --alpha 1.5 --paths 20 --keep-paths 20``:
    the occupation height estimator and excursion ranking."""

    name = "limit-height"
    CLI_SPANS = {"cli.limit"}
    LAYER_SPANS = {"limit_sim.simulate_z", "limit_sim.rank_excursions",
                   "limit_sim.height_from_z", "cli.write_paths"}
    PATHS = 20
    KEEP = 20
    HORIZON = 10.0                  # the CLI defaults
    STEP = 1e-3
    TOP_K = 2

    def prepare(self, job_seed: int, workdir: str) -> dict:
        out = os.path.join(workdir, "limit-height-out")
        argv = ["limit", "--regime", "2", "--alpha", "1.5",
                "--paths", str(self.PATHS), "--keep-paths", str(self.KEEP),
                "--seed", str(job_seed), "--out", out]
        return {"argv": argv, "seed": job_seed, "out": out,
                "generated": argv[:-2]}

    def params(self) -> limit_sim.LimitParams:
        """The parameters ``bicrit limit`` builds from the job's flags."""
        return limit_sim.LimitParams(regime=2, theta=1.0, alpha=1.5,
                                     c_b=1.0, c_w=0.0)

    def load(self, inputs: dict):
        self.params()
        return None                 # ``bicrit limit`` takes no weight laws

    def run(self, inputs: dict) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(inputs["argv"])
        return {"exit": status}

    def traced(self, inputs: dict, tracer) -> dict:
        """The body of ``bicrit limit`` with a span around each layer call."""
        out = inputs["out"]
        warnings = 0
        with tracer.span("cli.limit"):
            params = self.params()
            os.makedirs(out, exist_ok=True)
            seq = np.random.SeedSequence(inputs["seed"])
            with open(os.path.join(out, "excursions.csv"), "w") as fh:
                fh.write("path,rank,g,d,length\n")
                for i, child in enumerate(seq.spawn(self.PATHS)):
                    path = _trace_simulate_z(tracer, params, self.HORIZON,
                                             self.STEP, child)
                    with tracer.span("limit_sim.rank_excursions"):
                        ranked = limit_sim.rank_excursions(path)
                    for rank, exc in enumerate(ranked[:self.TOP_K], 1):
                        fh.write(f"{i},{rank},{exc.g!r},{exc.d!r},"
                                 f"{exc.length!r}\n")
                    if i >= self.KEEP:
                        continue
                    stride = max(1, len(path.times) // 2000)
                    with tracer.span("limit_sim.height_from_z"):
                        height = limit_sim.height_from_z(path, params,
                                                         stride=stride)
                    tracer.count("limit_sim.height_points",
                                 len(range(1, len(path.times), stride)))
                    warnings += "warning" in height.meta
                    with tracer.span("cli.write_paths"):
                        table = np.column_stack([path.times[::stride],
                                                 path.values[::stride],
                                                 height.values[::stride]])
                        np.savetxt(os.path.join(out, f"path{i}.csv"), table,
                                   delimiter=",", header="t,value,height",
                                   comments="")
        tracer.count("limit_sim.height_warnings", warnings)
        return {"exit": 0}

    def observe(self, inputs: dict, output: dict) -> tuple[dict, list[str]]:
        """Path CSVs are checked by law: ``t`` and ``value`` equal
        ``simulate_z`` at the written rows, ``height`` is finite and >= 0."""
        out = inputs["out"]
        params = self.params()
        problems = []
        seq = np.random.SeedSequence(inputs["seed"])
        for i, child in enumerate(seq.spawn(self.PATHS)[:self.KEEP]):
            name = f"path{i}.csv"
            table = np.loadtxt(os.path.join(out, name), delimiter=",",
                               skiprows=1, ndmin=2)
            path = limit_sim.simulate_z(params, self.HORIZON, self.STEP, child)
            rows = np.rint(table[:, 0] / self.STEP).astype(int)
            if (len(rows) == 0 or rows[0] != 0 or np.any(np.diff(rows) <= 0)
                    or rows[-1] >= len(path.times)):
                problems.append(f"{name}: rows are not an increasing subset "
                                "of the grid")
                continue
            if not np.array_equal(table[:, 0], path.times[rows]):
                problems.append(f"{name}: t differs from simulate_z")
            if not np.array_equal(table[:, 1], path.values[rows]):
                problems.append(f"{name}: value differs from simulate_z")
            h = table[:, 2]
            if not (np.all(np.isfinite(h)) and np.all(h >= 0.0)):
                problems.append(f"{name}: height not finite and >= 0")
        exc = os.path.join(out, "excursions.csv")
        return {"exit": output["exit"],
                "excursions_sha256": sha256_file(exc)}, problems

    def compare(self, observed: dict, ref: dict) -> list[str]:
        return _mismatches(observed, ref, ("exit", "excursions_sha256"))


class GraphSmall:
    """``bicrit check --instances 20 --max-side 50`` then
    ``bicrit clustering --n 2000 --trials 5000`` with the same seed."""

    name = "graph-small"
    CLI_SPANS = {"checks.check_instance", "checks.summarize",
                 "graph_core.clustering_estimate"}
    LAYER_SPANS = {"checks.random_instance", "lifo.explore",
                   "encoding.z_process", "lifo.lifo_genealogy",
                   "lifo.black_forest", "encoding.height_process",
                   "encoding.literal_height", "encoding.vertex_heights",
                   "lifo.forest_heights", "checks.tree_distances",
                   "lifo.sample_surplus_direct", "lifo.assemble_graph",
                   "graph_core.components_and_distances",
                   "encoding.excursions", "encoding.sigma_transfer",
                   "encoding.serving_sets", "encoding.image_length",
                   "graph_core.intersection_graph",
                   "graph_core.isometry_check", "metric_space.bfs_all_pairs",
                   "metric_space.distortion_certificate",
                   "weights.sample_weights", "graph_core.sample_direct",
                   "graph_core.wedge_loop"}
    INSTANCES = 20
    MAX_SIDE = 50
    N = 2000
    TRIALS = 5000
    SPEC = point_mass(1.0)          # what ``bicrit clustering`` uses

    def prepare(self, job_seed: int, workdir: str) -> dict:
        return {"seed": job_seed,
                "generated": [["check", "--instances", str(self.INSTANCES),
                               "--max-side", str(self.MAX_SIDE),
                               "--seed", str(job_seed)],
                              ["clustering", "--n", str(self.N),
                               "--trials", str(self.TRIALS),
                               "--seed", str(job_seed)]]}

    def load(self, inputs: dict):
        return None                 # neither command takes a weight config

    def _clustering(self, seed):
        return clustering_estimate(self.SPEC, self.SPEC, self.N, self.N,
                                   trials=self.TRIALS, seed=seed)

    def _exits(self, fails: dict, est) -> list[int]:
        return [1 if fails else 0, 0 if est.defined else 1]

    def run(self, inputs: dict) -> dict:
        results = checks.identity_suite(self.INSTANCES, seed=inputs["seed"],
                                        max_side=self.MAX_SIDE)
        fails = checks.summarize(results)
        est = self._clustering(inputs["seed"])
        return {"exit": self._exits(fails, est), "fails": fails, "est": est}

    def _instance_seeds(self, seed: int) -> list[int]:
        """The instance seeds ``identity_suite`` spawns."""
        return [int(c.generate_state(1)[0]) for c in
                np.random.SeedSequence(seed).spawn(self.INSTANCES)]

    def traced(self, inputs: dict, tracer) -> dict:
        seeds = self._instance_seeds(inputs["seed"])
        results = []
        for s in seeds:
            with tracer.span("checks.check_instance"):
                results.append(checks.check_instance(s, max_side=self.MAX_SIDE))
        with tracer.span("checks.summarize"):
            fails = checks.summarize(results)
        tracer.count("checks.violations", sum(fails.values()))
        with tracer.span("graph_core.clustering_estimate"):
            est = self._clustering(inputs["seed"])
        tracer.count("graph_core.wedges", est.wedges)
        with tracer.span("replay"):
            for s in seeds:
                self._replay_instance(s, tracer)
            wedges, closed = self._replay_clustering(inputs["seed"], tracer)
        if (wedges, closed) != (est.wedges, est.closed):
            raise RuntimeError("the replay of clustering_estimate counted "
                               "other wedges than the program")
        return {"exit": self._exits(fails, est), "fails": fails, "est": est}

    def _replay_instance(self, seed: int, tracer) -> None:
        """The layer calls of ``check_instance`` in its order and on its
        random stream, with a span around each.  The checks' comparisons
        and the distortion check's adjacency lists are left unspanned."""
        with tracer.span("checks.random_instance"):
            x, y, z, clocks, rng = checks.random_instance(seed, self.MAX_SIDE)
        n, m = len(x), len(y)
        with tracer.span("lifo.explore"):
            record = lifo.explore(x, y, z, clocks)
        tracer.count("lifo.explore.steps", record.steps)
        tracer.count("lifo.explore.candidate_entries",
                     sum(len(c[2]) for c in record.candidates))
        with tracer.span("encoding.z_process"):
            zpath = encoding.z_process(record).queue_load
        with tracer.span("lifo.lifo_genealogy"):
            lifo.lifo_genealogy(clocks.black[record.order],
                                record.delta[record.order])
        with tracer.span("lifo.black_forest"):
            lifo.black_forest(record)
        with tracer.span("encoding.height_process"):
            height = encoding.height_process(zpath)
        tracer.count("lifo.peak_queue",
                     int(height.levels.max()) if len(height.levels) else 0)
        probes = rng.uniform(0.0, float(clocks.black.max()) + 1.0, size=4)
        with tracer.span("encoding.literal_height", calls=len(probes)):
            for t in probes:
                encoding.literal_height(zpath, float(t))
        with tracer.span("encoding.vertex_heights"):
            encoding.vertex_heights(record, height)
        with tracer.span("lifo.forest_heights"):
            lifo.forest_heights(record)
        with tracer.span("checks.tree_distances"):
            checks._check_tree_distances(record, height, zpath, rng)
        with tracer.span("lifo.sample_surplus_direct"):
            surplus = lifo.sample_surplus_direct(record, z, rng)
        with tracer.span("lifo.assemble_graph"):
            graph = lifo.assemble_graph(record, surplus)
        with tracer.span("graph_core.components_and_distances"):
            gd = components_and_distances(graph)
        with tracer.span("encoding.excursions"):
            encoding.excursions(zpath, x_by_jump=x[record.order])
        with tracer.span("encoding.sigma_transfer"):
            sigma = encoding.sigma_transfer(record)
        with tracer.span("encoding.serving_sets"):
            serving = [ab for spans in encoding.serving_sets(record).values()
                       for ab in spans]
        with tracer.span("encoding.image_length", calls=max(1, len(serving))):
            for a, b in serving:
                sigma.image_length(a, b)
        with tracer.span("graph_core.intersection_graph"):
            ig = intersection_graph(graph)
        with tracer.span("graph_core.isometry_check"):
            isometry_check(graph, ig)
        # the two adjacency lists the surplus-distortion check builds
        adj_orig: list[list[int]] = [[] for _ in range(n + m)]
        for i, j in graph.edges:
            adj_orig[i].append(n + j)
            adj_orig[n + j].append(i)
        adj_mod: list[list[int]] = [[] for _ in range(n + m)]
        for i, j in record.forest_edges():
            adj_mod[i].append(n + j)
            adj_mod[n + j].append(i)
        for b, b2 in lifo.project_surplus(record, surplus):
            if b != b2:
                adj_mod[b].append(b2)
                adj_mod[b2].append(b)
        with tracer.span("metric_space.bfs_all_pairs"):
            d_orig = bfs_all_pairs(adj_orig)
        with tracer.span("metric_space.bfs_all_pairs"):
            d_mod = bfs_all_pairs(adj_mod)
        for comp in gd.components:
            if not comp.nontrivial:
                continue
            verts = comp.black_members + [n + j for j in comp.white_members]
            sub = np.ix_(verts, verts)
            with tracer.span("metric_space.distortion_certificate"):
                distortion_certificate(d_orig[sub], d_mod[sub], len(surplus))

    def _replay_clustering(self, seed: int, tracer) -> tuple[int, int]:
        """The sampling loop of ``clustering_estimate`` on the same stream,
        with its wedge loop copied under a span of its own; returns the
        wedge and closed-wedge counts, which must equal the program's."""
        rng = np.random.default_rng(seed)
        z = math.sqrt(self.N * self.N)
        wedges = closed = graphs = 0
        while wedges < self.TRIALS and graphs < 10_000:
            with tracer.span("weights.sample_weights"):
                x = sample_weights(self.SPEC, self.N, rng)
            with tracer.span("weights.sample_weights"):
                y = sample_weights(self.SPEC, self.N, rng)
            with tracer.span("graph_core.sample_direct"):
                g = sample_direct(x, y, z, rng)
            cells = self.N * self.N
            tracer.count("graph_core.dense_cells", cells)
            tracer.count("graph_core.edges", len(g.edges))
            tracer.count("graph_core.edge_yield", len(g.edges) / cells)
            with tracer.span("graph_core.intersection_graph"):
                ig = intersection_graph(g)
            with tracer.span("graph_core.wedge_loop"):
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
        return wedges, closed

    def observe(self, inputs: dict, output: dict) -> tuple[dict, list[str]]:
        violations = sum(output["fails"].values())
        problems = [f"check reports {violations} violations"] if violations else []
        est = output["est"]
        return {"exit": output["exit"], "violations": violations,
                "clustering": est.value, "clustering_se": est.std_error,
                "wedges": est.wedges}, problems

    def compare(self, observed: dict, ref: dict) -> list[str]:
        """The clustering estimate is held to 4 standard errors of the
        reference, since its random stream may change."""
        problems = _mismatches(observed, ref, ("exit",))
        value = observed["clustering"]
        if not abs(value - ref["clustering"]) <= 4.0 * ref["clustering_se"]:
            problems.append(f"clustering {value!r} is more than 4 se from "
                            f"{ref['clustering']!r}")
        return problems


WORKLOADS = {w.name: w for w in (FullN50k, MassesHeavy, LimitHeight,
                                 GraphSmall)}


def make(name: str, root: str):
    cls = WORKLOADS[name]
    return cls(root) if cls is FullN50k else cls()
