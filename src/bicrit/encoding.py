"""Path encodings of the exploration and their exact identities.

The load path carries drift -1 and an upward jump at each black clock equal
to the total weight of the whites that black discovers.  Its excursions
above the running minimum are the nontrivial components; the height
functional counts, at time t, the past jumps whose pre-jump level has not
been undercut on [s, t] -- that number is the queue length, and twice it
(with a leaf correction) gives the forest height of the client in service.

The record condition uses a strict inequality on the pre-jump level.  With
continuous clock laws the strict and non-strict variants agree at almost
every t; they differ exactly at zero-size jumps evaluated at their own
arrival time and at exact departure instants, and the strict form is the
one under which the per-vertex height identity and the tree-distance
identity hold pointwise, which the identity suite checks at tolerance 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lifo import LEVEL_TOL, ExplorationRecord, excursion_components


class QueueIdleError(ValueError):
    """Raised when a time with no client in service is queried."""


@dataclass
class StepPath:
    """Right-continuous path  t -> drift*t + sum of jumps at times <= t."""

    jump_times: np.ndarray
    jump_sizes: np.ndarray
    drift: float = 0.0
    t_end: float = math.inf

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.jump_sizes, dtype=float)
        order = np.argsort(t, kind="stable")
        self.jump_times = t[order]
        self.jump_sizes = s[order]
        self._cum = np.concatenate([[0.0], np.cumsum(self.jump_sizes)])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        out = self.drift * t + self._cum[idx]
        return out if out.ndim else float(out)

    def left_limit(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="left")
        out = self.drift * t + self._cum[idx]
        return out if out.ndim else float(out)

    def final_value(self) -> float:
        if not len(self.jump_times):
            return 0.0
        return float(self.drift * self.jump_times[-1] + self._cum[-1])

    def sample_table(self, times) -> np.ndarray:
        """(t, value) pairs for export at caller-chosen resolution."""
        times = np.asarray(times, dtype=float)
        return np.column_stack([times, self.value(times)])

    def to_csv(self, path, times) -> None:
        np.savetxt(path, self.sample_table(times), delimiter=",",
                   header="t,value", comments="")


def running_infimum(z: StepPath, t: float) -> float:
    """inf over [0, t]: the candidates are the pre-jump troughs and the
    current value (the path decreases between jumps)."""
    idx = np.searchsorted(z.jump_times, t, side="right")
    cur = float(z.value(t))
    if idx == 0:
        return min(0.0, cur)
    pre = z.drift * z.jump_times[:idx] + z._cum[:idx]
    return float(min(pre.min(), cur, 0.0))


@dataclass
class ExcursionInterval:
    g: float
    d: float
    y_mass: float
    x_mass: float
    component_id: int
    root_jump: int                   # jump index (exploration order position)
    member_jumps: list[int] = field(default_factory=list)


def lambda_paths(record: ExplorationRecord) -> tuple[StepPath, StepPath]:
    """Cumulative arrived weight per colour: jump times are the clocks,
    jump sizes the vertex weights."""
    lam_x = StepPath(record.clocks.black, record.x)
    lam_y = StepPath(record.clocks.white, record.y)
    return lam_x, lam_y


@dataclass
class ZPaths:
    queue_load: StepPath
    composed: StepPath


def z_process(record: ExplorationRecord, tol: float = 1e-9) -> ZPaths:
    """The load path built two ways: from the queue's service requests and
    as -t + Lambda_y(Lambda_x(t)).  The jump structures must agree; a
    mismatch indicates an implementation bug and raises immediately."""
    eb = record.clocks.black[record.order]
    queue_load = StepPath(eb, record.delta[record.order], drift=-1.0)

    lam_x, lam_y = lambda_paths(record)
    cuts = np.concatenate([[0.0], np.cumsum(record.x[record.order])])
    sizes = np.asarray(lam_y.value(cuts[1:])) - np.asarray(lam_y.value(cuts[:-1]))
    composed = StepPath(eb, sizes, drift=-1.0)

    if len(queue_load.jump_times) != len(composed.jump_times) or np.any(
            queue_load.jump_times != composed.jump_times):
        raise AssertionError("load-path jump times disagree between constructions")
    if np.max(np.abs(queue_load.jump_sizes - composed.jump_sizes),
              initial=0.0) > tol:
        raise AssertionError("load-path jump sizes disagree between constructions")
    return ZPaths(queue_load, composed)


@dataclass
class HeightPath:
    """Integer-valued piecewise-constant path plus the serving timetable.

    ``times``/``levels`` give the cadlag level after each event.  The
    timetable records which jump index holds the server over maximal
    intervals; zero-size jumps hold it for a null duration at their own
    arrival time, recorded as point entries.
    """

    times: np.ndarray
    levels: np.ndarray
    changes: list[tuple[float, int | None]]       # server from this time on
    points: dict[float, int]                      # instantaneous services

    def value(self, t: float) -> int:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 0 if idx < 0 else int(self.levels[idx])

    def min_on(self, s: float, t: float) -> int:
        if t < s:
            s, t = t, s
        lo = np.searchsorted(self.times, s, side="right") - 1
        hi = np.searchsorted(self.times, t, side="right") - 1
        best = self.value(s)
        if hi >= lo + 1:
            seg = self.levels[max(lo + 1, 0):hi + 1]
            if len(seg):
                best = min(best, int(seg.min()))
        return best

    def client_at(self, t: float) -> int | None:
        if t in self.points:
            return self.points[t]
        lo, hi = 0, len(self.changes)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.changes[mid][0] <= t:
                lo = mid + 1
            else:
                hi = mid
        return self.changes[lo - 1][1] if lo else None


def height_process(z: StepPath) -> HeightPath:
    """Queue length over time, via a monotone stack over the jump skeleton.

    A client arriving at time s with a positive jump stays counted until
    the first moment the path returns to its pre-jump level; zero-size
    jumps are served instantaneously and never counted.  O(K log K).
    """
    if z.drift != -1.0:
        raise ValueError("height functional expects unit downward drift")
    times = z.jump_times
    sizes = z.jump_sizes
    events: list[tuple[float, int]] = []
    changes: list[tuple[float, int | None]] = [(-math.inf, None)]
    points: dict[float, int] = {}
    stack: list[tuple[float, int]] = []           # (pre-jump level, jump index)
    cur_t, cur_v = 0.0, 0.0

    def set_server(t: float, who: int | None):
        if changes[-1][0] == t:
            changes[-1] = (t, who)
        else:
            changes.append((t, who))

    def pop_until(level: float):
        # clients whose baseline is at or above `level` depart before the
        # path can reach it
        nonlocal cur_t, cur_v
        while stack and stack[-1][0] >= level:
            base, _who = stack.pop()
            hit = cur_t + (cur_v - base)
            events.append((hit, -1))
            set_server(hit, stack[-1][1] if stack else None)
            cur_t, cur_v = hit, base

    for i in range(len(times)):
        t, s = float(times[i]), float(sizes[i])
        pop_until(cur_v - (t - cur_t))
        cur_t, cur_v = t, cur_v - (t - cur_t)
        if s > 0.0:
            stack.append((cur_v, i))
            events.append((t, +1))
            set_server(t, i)
            cur_v += s
        else:
            points[t] = i
    pop_until(-math.inf)

    events.sort(key=lambda e: (e[0], e[1]))       # departures first at ties
    ts: list[float] = []
    lv: list[int] = []
    level = 0
    for t, step in events:
        level += step
        if ts and ts[-1] == t:
            lv[-1] = level
        else:
            ts.append(t)
            lv.append(level)
    return HeightPath(np.asarray(ts), np.asarray(lv, dtype=int), changes, points)


def literal_height(z: StepPath, t: float) -> int:
    """Quadratic transcription of the record condition, used as an oracle:
    count jump times s <= t whose pre-jump level lies strictly below the
    path minimum over [s, t]."""
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


def vertex_heights(record: ExplorationRecord, height: HeightPath) -> np.ndarray:
    """Forest height of each black vertex from the height path: twice the
    queue length at its clock, minus one, plus two for childless vertices
    (whose zero-size arrival the record condition does not count)."""
    out = np.zeros(record.n, dtype=int)
    for i in range(record.n):
        h = height.value(float(record.clocks.black[i]))
        out[i] = 2 * h - 1 + (2 if record.delta[i] == 0.0 else 0)
    return out


def tree_distance_via_height(height: HeightPath, z: StepPath, s: float,
                             t: float) -> float:
    """Forest distance between the clients served at s and t:
    H_s + H_t - 2 min H over [s, t] when the running infima agree (same
    tree), +inf across trees.  Raises QueueIdleError on idle times.

    A zero-size jump holds the server for a null duration at its own
    arrival instant; the record condition never counts it, so its level is
    corrected by one to make the identity hold at those instants too."""
    if height.client_at(s) is None or height.client_at(t) is None:
        raise QueueIdleError("no client in service at the queried time")
    hs = height.value(s) + (1 if s in height.points else 0)
    ht = height.value(t) + (1 if t in height.points else 0)
    if s == t:
        return 0.0
    if abs(running_infimum(z, s) - running_infimum(z, t)) > LEVEL_TOL:
        return math.inf
    return float(hs + ht - 2 * height.min_on(s, t))


@dataclass
class ExcursionTable:
    """The nontrivial excursions of a load path as arrays, in jump order.

    Excursion ``c`` is made of jumps ``root_jump[c]`` to ``end_jump[c] - 1``,
    starts at ``g[c]`` and ends at ``d[c]``.  ``component[i]`` is the
    excursion of jump ``i``, -1 for a childless root."""

    g: np.ndarray
    d: np.ndarray
    y_mass: np.ndarray
    x_mass: np.ndarray
    root_jump: np.ndarray
    end_jump: np.ndarray              # one past the last member jump
    component: np.ndarray

    def __len__(self) -> int:
        return len(self.g)


def excursion_table(z: StepPath, x_by_jump=None) -> ExcursionTable:
    """Maximal intervals on which the path exceeds its running infimum.

    Each excursion is one nontrivial component: its length is the total
    service (white weight) of the component, and summing ``x_by_jump`` over
    its jumps gives the black weight.  Jump indices refer to positions in
    the sorted jump order (exploration order)."""
    times = z.jump_times
    sizes = z.jump_sizes
    if x_by_jump is None:
        x_by_jump = np.zeros(len(times))
    x_by_jump = np.asarray(x_by_jump, dtype=float)
    is_root, comp = excursion_components(times, sizes)
    roots = np.flatnonzero(is_root)
    nontrivial = sizes[roots] > 0.0          # childless roots are isolated
    if not np.all(nontrivial[comp[~is_root]]):
        raise AssertionError("non-root jump outside any excursion")
    # bincount adds each component's terms in jump order, from the root on
    d = np.bincount(comp, weights=np.where(is_root, times + sizes, sizes))
    y_mass = np.bincount(comp, weights=sizes)
    x_mass = np.bincount(comp, weights=x_by_jump)
    bounds = np.append(roots, len(times))
    renumber = np.where(nontrivial, np.cumsum(nontrivial) - 1, -1)
    return ExcursionTable(
        g=times[roots[nontrivial]], d=d[nontrivial], y_mass=y_mass[nontrivial],
        x_mass=x_mass[nontrivial], root_jump=roots[nontrivial],
        end_jump=bounds[1:][nontrivial], component=renumber[comp])


def excursions(z: StepPath, x_by_jump=None) -> list[ExcursionInterval]:
    """``excursion_table`` as one ``ExcursionInterval`` per excursion."""
    tab = excursion_table(z, x_by_jump)
    return [ExcursionInterval(g=g, d=d, y_mass=ym, x_mass=xm, component_id=c,
                              root_jump=a, member_jumps=list(range(a, b)))
            for c, (g, d, ym, xm, a, b) in enumerate(zip(
                tab.g.tolist(), tab.d.tolist(), tab.y_mass.tolist(),
                tab.x_mass.tolist(), tab.root_jump.tolist(),
                tab.end_jump.tolist()))]


@dataclass
class SigmaTransfer:
    """Monotone reparameterisation sending elapsed service time to explored
    black weight: slope x_k / delta_k while black client k is served, a
    jump of x_k at the clock of a childless client k, flat when idle."""

    break_times: np.ndarray      # piece boundaries, increasing, starts at 0
    left_values: np.ndarray      # value just before each boundary
    right_values: np.ndarray     # value at each boundary (jumps included)
    slopes: np.ndarray           # slope on [break_times[i], break_times[i+1])
    total: float

    def value(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.break_times, t, side="right") - 1,
                      0, len(self.slopes) - 1)
        out = self.right_values[idx] + self.slopes[idx] * (t - self.break_times[idx])
        out = np.where(t < self.break_times[0], 0.0, out)
        return out if out.ndim else float(out)

    def left_value(self, t: float) -> float:
        k = np.searchsorted(self.break_times, t, side="left")
        if k < len(self.break_times) and self.break_times[k] == t:
            return float(self.left_values[k])
        return float(self.value(t))

    def inverse(self, s: float) -> float:
        """Right-continuous generalised inverse inf{t : value(t) > s}."""
        rv = self.right_values
        j = int(np.searchsorted(rv, s, side="right"))    # first rv > s
        if j == 0:
            return float(self.break_times[0])
        if j >= len(rv):
            return float(self.break_times[-1])
        i = j - 1
        if self.slopes[i] > 0 and s >= rv[i]:
            t = self.break_times[i] + (s - rv[i]) / self.slopes[i]
            if t < self.break_times[j]:
                return float(t)
        # the level is crossed by the jump (or flat stretch) ending the piece
        return float(self.break_times[j])

    def image_length(self, t0: float, t1: float) -> float:
        """Lebesgue measure of the image of a service span: the open
        interval (t0, t1) when t0 < t1, else the single point t0.  Jumps
        sitting on the endpoints of an open span belong to the clients
        served instantaneously there and are excluded."""
        if t0 == t1:
            return float(self.value(t0)) - self.left_value(t0)
        return self.left_value(t1) - float(self.value(t0))


def sigma_transfer(record: ExplorationRecord) -> SigmaTransfer:
    """The transfer built from the serving pieces and zero-service arrivals.

    Each piece closes (slope 0) at its end and opens (slope x/delta of its
    black) at its start; each zero-service arrival jumps by x.  At equal
    times closings act first, then jumps, then openings.
    """
    x, delta = record.x, record.delta
    black = record.piece_black
    n_p, n_q = len(black), len(record.point_t)
    # each block is sorted by time, so a stable sort merges them and keeps
    # the block order (closings, jumps, openings) at equal times
    times = np.concatenate([record.piece_t1, record.point_t, record.piece_t0])
    payload = np.concatenate([np.zeros(n_p), x[record.point_black],
                              x[black] / delta[black]])
    ev = np.argsort(times, kind="stable")
    t = times[ev]
    v = payload[ev]
    is_jump = (ev >= n_p) & (ev < n_p + n_q)

    # events at one time form a group; group 0 holds those at time 0
    new = np.empty(len(t), dtype=bool)
    new[:1] = t[:1] != 0.0
    new[1:] = t[1:] != t[:-1]
    group = np.cumsum(new)
    bt = np.concatenate([[0.0], t[new]])
    n_g = len(bt)

    # slope after each group: set by its last closing or opening, else kept
    setters = np.flatnonzero(~is_jump)
    last = setters[np.diff(group[setters], append=n_g) != 0]
    slope = np.zeros(n_g)
    slope[group[last]] = v[last]
    has = np.zeros(n_g, dtype=bool)
    has[group[last]] = True
    slope = slope[np.maximum.accumulate(np.where(has, np.arange(n_g), 0))]

    # the value advances by slope * elapsed at each new time, then by each
    # jump; a cumulative sum over that interleaving repeats the sequential
    # recurrence exactly (the zeros in between change nothing)
    steps = np.zeros(2 * len(t))
    steps[0::2][new] = slope[:-1] * np.diff(bt)
    steps[1::2] = np.where(is_jump, v, 0.0)
    value = np.cumsum(steps)
    left = np.concatenate([[0.0], value[0::2][new]])
    right = np.zeros(n_g)
    ends = np.flatnonzero(np.diff(group, append=n_g))
    right[group[ends]] = value[1::2][ends]
    return SigmaTransfer(bt, left, right, slope, total=float(right[-1]))


def serving_sets(record: ExplorationRecord) -> dict[int, list[tuple[float, float]]]:
    """J_k: times at which black client k is served; a degenerate (t, t)
    marker when its service request is zero."""
    out: dict[int, list[tuple[float, float]]] = {}
    for k, a, b in zip(record.piece_black.tolist(), record.piece_t0.tolist(),
                       record.piece_t1.tolist()):
        out.setdefault(k, []).append((a, b))
    for k, t in zip(record.point_black.tolist(), record.point_t.tolist()):
        out.setdefault(k, []).append((t, t))
    return out
