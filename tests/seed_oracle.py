"""Object-based reference implementations of the exploration record, the
sigma transfer, the Poissonised surplus sampler, the component ranking of a
replicate, the excursion ranking and occupation height of a limit path, the
dense direct sampler of the bipartite graph (``sample_direct``) and the
scalar record-condition loop of the height oracle (``literal_height``).

These are the straightforward event-by-event versions the array-native code
in ``bicrit.lifo``, ``bicrit.encoding``, ``bicrit.harness`` and
``bicrit.limit_sim`` replaced.  The oracle tests require the fast paths to
reproduce them bit for bit.  Only the point-atom lookup differs from the
first version: it uses the piece index carried from the exploration instead
of an equality match on the piece start time, which picks the same piece
unless that piece has zero length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bicrit import encoding
from bicrit.graph_core import BipartiteGraph
from bicrit.lifo import ClockSet
from bicrit.limit_sim import GridPath, MarkSet, RankedExcursion


@dataclass
class ServingPiece:
    """Maximal interval on which one black client is served; ``load0`` is
    the total remaining service at ``t0``."""

    t0: float
    t1: float
    black: int
    load0: float


@dataclass
class PointService:
    """Zero-service arrival: time, black, load just after, and the number of
    serving pieces closed before it."""

    t: float
    black: int
    load: float
    pieces_before: int


@dataclass
class SeedRecord:
    x: np.ndarray
    y: np.ndarray
    z: float
    clocks: ClockSet
    order: np.ndarray
    intervals: np.ndarray
    offspring: list[np.ndarray]
    delta: np.ndarray
    parent_white: np.ndarray
    parent_black: np.ndarray
    roots: list[int]
    steps: int
    candidates: list[tuple[int, int, list[tuple[int, float]]]]
    serving: list[ServingPiece]
    point_services: list[PointService]


def explore(x, y, z: float, clocks: ClockSet) -> SeedRecord:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    eb, ew = clocks.black, clocks.white

    order = np.argsort(eb, kind="stable")
    worder = np.argsort(ew, kind="stable")
    ew_sorted = ew[worder]
    cuts = np.concatenate([[0.0], np.cumsum(x[order])])
    lo = np.searchsorted(ew_sorted, cuts[:-1], side="right")
    hi = np.searchsorted(ew_sorted, cuts[1:], side="right")

    intervals = np.zeros((n, 2))
    offspring: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    delta = np.zeros(n)
    for k in range(n):
        v = order[k]
        intervals[v] = (cuts[k], cuts[k + 1])
        kids = worder[lo[k]:hi[k]]
        offspring[v] = kids
        delta[v] = y[kids].sum()

    parent_white = np.full(n, -1, dtype=int)
    parent_black = np.full(m, -1, dtype=int)
    roots: list[int] = []
    candidates: list[tuple[int, int, list[tuple[int, float]]]] = []
    serving: list[ServingPiece] = []
    point_services: list[PointService] = []

    queue: list[list] = []          # [white_id, remaining]; end = head
    tau_b = 0.0
    load = 0.0
    steps = 0
    kptr = 0

    def push_offspring(v: int):
        kids = offspring[v]
        for j in kids:
            parent_black[j] = v
        for j in kids[::-1]:
            queue.append([int(j), y[j]])

    while True:
        if not queue:
            if kptr >= n:
                break
            steps += 1
            v = int(order[kptr])
            kptr += 1
            tau_b = eb[v]
            roots.append(v)
            push_offspring(v)
            load += delta[v]
            if delta[v] == 0.0:
                point_services.append(PointService(tau_b, v, load, len(serving)))
            continue

        head = queue[-1]
        t_next = eb[order[kptr]] if kptr < n else math.inf
        finish = tau_b + head[1]
        if t_next < finish:
            steps += 1
            v = int(order[kptr])
            kptr += 1
            serving.append(ServingPiece(tau_b, t_next, int(parent_black[head[0]]),
                                        load))
            elapsed = t_next - tau_b
            head[1] -= elapsed
            load -= elapsed
            parent_white[v] = head[0]
            candidates.append((steps, v,
                               [(int(j), float(r)) for j, r in reversed(queue)]))
            tau_b = t_next
            push_offspring(v)
            load += delta[v]
            if delta[v] == 0.0:
                point_services.append(PointService(tau_b, v, load, len(serving)))
        else:
            steps += 1
            serving.append(ServingPiece(tau_b, finish, int(parent_black[head[0]]),
                                        load))
            load -= head[1]
            tau_b = finish
            queue.pop()

    return SeedRecord(
        x=x, y=y, z=z, clocks=clocks, order=order, intervals=intervals,
        offspring=offspring, delta=delta, parent_white=parent_white,
        parent_black=parent_black, roots=roots, steps=steps,
        candidates=candidates, serving=serving, point_services=point_services)


def sigma_transfer(record: SeedRecord) -> encoding.SigmaTransfer:
    # event priorities at equal times: close piece, then jump, then open
    events: list[tuple[float, int, float]] = []
    x, delta = record.x, record.delta
    for piece in record.serving:
        events.append((piece.t0, 2, x[piece.black] / delta[piece.black]))
        events.append((piece.t1, 0, 0.0))
    for p in record.point_services:
        events.append((p.t, 1, x[p.black]))
    events.sort(key=lambda e: (e[0], e[1]))

    bt = [0.0]
    lv = [0.0]
    rv = [0.0]
    sl = [0.0]
    for t, prio, payload in events:
        val_left = rv[-1] + sl[-1] * (t - bt[-1])
        if bt[-1] != t:
            bt.append(t)
            lv.append(val_left)
            rv.append(val_left)
            sl.append(sl[-1])
        if prio == 0:
            sl[-1] = 0.0
        elif prio == 1:
            rv[-1] += payload
        else:
            sl[-1] = payload
    return encoding.SigmaTransfer(np.asarray(bt), np.asarray(lv),
                                  np.asarray(rv), np.asarray(sl),
                                  total=float(rv[-1]))


@dataclass
class TimelinePiece:
    t0: float
    t1: float
    r0: float                        # reflected load at t0
    slope: float                     # -1 while serving, 0 while idle
    black: int | None

    def r_end(self) -> float:
        return self.r0 + self.slope * (self.t1 - self.t0)


def build_timeline(record: SeedRecord) -> tuple[list[TimelinePiece], list[int]]:
    """Serving pieces with idle pieces filled in, plus the timeline index of
    each serving piece."""
    out: list[TimelinePiece] = []
    position: list[int] = []
    cursor = 0.0
    for p in sorted(record.serving, key=lambda p: p.t0):
        if p.t0 > cursor:
            out.append(TimelinePiece(cursor, p.t0, 0.0, 0.0, None))
        position.append(len(out))
        out.append(TimelinePiece(p.t0, p.t1, p.load0, -1.0, p.black))
        cursor = p.t1
    return out, position


def locate_previous(timeline: list[TimelinePiece], j_atom: int,
                    y: float) -> tuple[float, int | None]:
    for j in range(j_atom - 1, -1, -1):
        piece = timeline[j]
        if piece.r_end() <= y + 1e-12:
            nxt = timeline[j + 1] if j + 1 < len(timeline) else None
            return piece.t1, None if nxt is None else nxt.black
    return 0.0, None


def poissonized_surplus(record: SeedRecord, sigma: encoding.SigmaTransfer,
                        seed) -> tuple[MarkSet, list[tuple[int, int]]]:
    rng = np.random.default_rng(seed)
    z = record.z
    timeline, position = build_timeline(record)
    x, delta = record.x, record.delta

    areas = []
    kinds = []                       # ("piece", timeline index) or ("point", k)
    for j, piece in enumerate(timeline):
        if piece.black is None:
            continue
        length = piece.t1 - piece.t0
        rate = x[piece.black] / delta[piece.black]
        areas.append(rate * (piece.r0 * length - 0.5 * length ** 2))
        kinds.append(("piece", j))
    point_lookup = {}
    for p in record.point_services:
        if p.load > 0.0:
            areas.append(x[p.black] * p.load)
            kinds.append(("point", len(point_lookup)))
            point_lookup[len(point_lookup)] = p
    areas = np.asarray(areas, dtype=float)
    total_area = float(areas.sum())
    count = int(rng.poisson(total_area / z)) if total_area > 0 else 0
    if count == 0:
        return MarkSet(np.empty((0, 2)), np.empty((0, 2))), []

    pairs = np.empty((count, 2))
    atoms = np.empty((count, 2))
    edges: list[tuple[int, int]] = []
    chosen = rng.choice(len(areas), size=count, p=areas / total_area)
    for idx, which in enumerate(chosen):
        kind, ref = kinds[which]
        if kind == "piece":
            piece = timeline[ref]
            length = piece.t1 - piece.t0
            u = rng.random()
            area_t = piece.r0 * length - 0.5 * length ** 2
            tau = piece.r0 - math.sqrt(max(piece.r0 ** 2 - 2.0 * u * area_t, 0.0))
            tau = min(tau, length)
            t = piece.t0 + tau
            refl_t = piece.r0 - tau
            y = rng.uniform(0.0, refl_t)
            s = float(sigma.value(piece.t0)) + (x[piece.black] / delta[piece.black]) * tau
            b = piece.black
            j_atom = ref
        else:
            p = point_lookup[ref]
            t, b = p.t, p.black
            y = rng.uniform(0.0, p.load)
            s = rng.uniform(sigma.left_value(t), float(sigma.value(t)))
            # the timeline piece that follows the last serving piece closed
            # before the arrival
            j_atom = position[p.pieces_before - 1] + 1 if p.pieces_before else 0
        t_prev, b_prev = locate_previous(timeline, j_atom, y)
        pairs[idx] = (t, t_prev)
        atoms[idx] = (s, y)
        if b_prev is not None and b_prev != b:
            edges.append((int(b), int(b_prev)))
    return MarkSet(pairs, atoms), edges


def sample_surplus_direct(record: SeedRecord, z: float,
                          seed) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for _step, v, cand in record.candidates:
        for j, remaining in cand:
            p = -math.expm1(-remaining * record.x[v] / z)
            if rng.random() < p:
                edges.append((v, j))
    return edges


def rank_components(x_mass, y_mass, top_k: int):
    """The ranking block each replicate kind carried inline: stable
    argsorts by x and by y mass, and the top y masses by ``sorted``."""
    kappa = len(y_mass)
    by_x = np.argsort(-x_mass, kind="stable")
    by_y = np.argsort(-y_mass, kind="stable")
    y_rank_of = np.empty(kappa, dtype=int)
    y_rank_of[by_y] = np.arange(1, kappa + 1)
    y_ranked = sorted((float(v) for v in y_mass), reverse=True)[:top_k]
    return by_x[:top_k].tolist(), y_rank_of, y_ranked


def rank_excursions(path: GridPath) -> list[RankedExcursion]:
    """Grid runs of the reflected path found by a scan, one grid point at a
    time, then sorted by (-length, g) and flagged pairwise for near ties."""
    refl = path.reflected()
    pos = refl > 0.0
    out: list[RankedExcursion] = []
    j = 0
    n = len(pos)
    while j < n:
        if pos[j]:
            k = j
            while k + 1 < n and pos[k + 1]:
                k += 1
            g = float(path.times[j] - path.step)
            d = float(path.times[k])
            out.append(RankedExcursion(g, d, d - g, j, k))
            j = k + 1
        else:
            j += 1
    out.sort(key=lambda e: (-e.length, e.g))
    for i in range(len(out) - 1):
        if abs(out[i].length - out[i + 1].length) <= path.step:
            out[i].near_tie = True
            out[i + 1].near_tie = True
    return out


def occupation_height(path: GridPath, epsilon: float, stride: int) -> np.ndarray:
    """The quadratic occupation sweep: at every stride-th grid point j, one
    running minimum of the path back from j, then a count of the past
    points within epsilon of it, held over the stride - 1 points after j."""
    z = path.values
    n = len(z)
    out = np.zeros(n)
    for j in range(1, n, stride):
        future_min = np.minimum.accumulate(z[j::-1])[::-1]
        out[j] = path.step / epsilon * np.count_nonzero(
            z[:j + 1] <= future_min + epsilon)
        if stride > 1:
            out[j:min(j + stride, n)] = out[j]
    return out


def sample_direct(x, y, z: float, seed) -> BipartiteGraph:
    """The dense direct sampler: one n x m matrix of edge probabilities and
    one (n, m) draw of uniforms, hits listed by ``np.nonzero``."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = -np.expm1(-np.outer(x, y) / z)
    hit = rng.random((len(x), len(y))) < p
    ii, jj = np.nonzero(hit)
    return BipartiteGraph(x, y, list(zip(ii.tolist(), jj.tolist())), z)


def literal_height(z: encoding.StepPath, t: float) -> int:
    """The record condition one jump at a time, with one scalar
    ``left_limit`` call per pair of jumps up to t."""
    times = z.jump_times
    count = 0
    for i in range(len(times)):
        s = times[i]
        if s > t:
            break
        pre = float(z.left_limit(s))
        inf_val = float(z.value(t))
        for j in range(i + 1, len(times)):
            u = times[j]
            if u > t:
                break
            inf_val = min(inf_val, float(z.left_limit(u)))
        if pre < inf_val:
            count += 1
    return count
