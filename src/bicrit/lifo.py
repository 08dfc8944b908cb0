"""Queue-based sequential construction of the weighted bipartite graph.

Black vertices carry exponential arrival clocks of rate x_i/z, white
vertices clocks of rate y_j/z.  A single-server last-in-first-out queue of
white vertices drives the construction: the black vertex arriving next
either roots a new tree (empty queue) or interrupts the white currently in
service and becomes its child.  Each appointed black vertex V_k claims the
interval with white-dial width x_{V_k}; the whites whose clocks fall inside
become its children, queued head-first in arrival order with service
requests equal to their weights.

The output spanning forest plus independently sampled surplus edges is
distributed exactly as the directly sampled graph, which is what the
equivalence tests in this package verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import BipartiteGraph

#: comparisons between accumulated float levels absorb association error
LEVEL_TOL = 1e-12


@dataclass(frozen=True)
class ClockSet:
    black: np.ndarray
    white: np.ndarray


def sample_clocks(x, y, z: float, seed) -> ClockSet:
    """Exponential clocks of rates x_i/z and y_j/z.

    Exact ties between any two clocks are a null event of the model; the
    colliding draw is redrawn so downstream code can assume distinctness.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eb = rng.exponential(z / x)
    ew = rng.exponential(z / y)
    both = np.concatenate([eb, ew])
    while not _strictly_increasing(np.sort(both)):
        # redraw every clock involved in a collision
        vals, counts = np.unique(both, return_counts=True)
        for v in vals[counts > 1]:
            for k in np.nonzero(both == v)[0][1:]:
                if k < len(eb):
                    eb[k] = rng.exponential(z / x[k])
                else:
                    ew[k - len(eb)] = rng.exponential(z / y[k - len(eb)])
        both = np.concatenate([eb, ew])
    return ClockSet(eb, ew)


@dataclass
class ExplorationRecord:
    """Outcome of the queue construction, held as flat arrays.

    Per black label ``v``: its white-dial interval ``intervals[v]``, its
    total child service ``delta[v]``, its parent white ``parent_white[v]``
    (-1 for roots) and its offspring ``worder[offspring_lo[v]:offspring_hi[v]]``
    in arrival order, ``worder`` being the whites sorted by clock.  Per
    white: its parent black ``parent_black[j]`` (-1 if never queued).

    Serving pieces, in time order: piece ``i`` serves black
    ``piece_black[i]`` on ``[piece_t0[i], piece_t1[i])``, starting from the
    total remaining service ``piece_load0[i]``, which then falls with unit
    slope.  Zero-service arrivals, in time order: black ``point_black[q]``
    arrives at ``point_t[q]`` with total load ``point_load[q]`` just after,
    when ``point_piece[q]`` serving pieces have closed.

    Candidates: at the ``k``-th interruption, exploration step
    ``cand_step[k]`` brings black ``cand_black[k]`` while the queue, read
    from its head, holds ``cand_white[s:e]`` with remaining services
    ``cand_remaining[s:e]``, where ``s, e = cand_ptr[k], cand_ptr[k + 1]``.
    """

    x: np.ndarray
    y: np.ndarray
    z: float
    clocks: ClockSet
    order: np.ndarray                 # blacks in exploration (clock) order
    worder: np.ndarray                # whites in clock order
    intervals: np.ndarray             # (n, 2): white-dial interval per black
    offspring_lo: np.ndarray
    offspring_hi: np.ndarray
    delta: np.ndarray
    parent_white: np.ndarray
    parent_black: np.ndarray
    steps: int
    piece_t0: np.ndarray
    piece_t1: np.ndarray
    piece_black: np.ndarray
    piece_load0: np.ndarray
    point_t: np.ndarray
    point_black: np.ndarray
    point_load: np.ndarray
    point_piece: np.ndarray
    cand_step: np.ndarray
    cand_black: np.ndarray
    cand_ptr: np.ndarray
    cand_white: np.ndarray
    cand_remaining: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def m(self) -> int:
        return len(self.y)

    @property
    def roots(self) -> list[int]:
        """Tree roots in exploration order."""
        return self.order[self.parent_white[self.order] < 0].tolist()

    @property
    def candidates(self) -> list[tuple[int, int, list[tuple[int, float]]]]:
        """(step, black, [(white, remaining), ...] from the queue head) per
        interruption."""
        ptr = self.cand_ptr.tolist()
        white = self.cand_white.tolist()
        remaining = self.cand_remaining.tolist()
        return [(s, v, list(zip(white[a:b], remaining[a:b])))
                for s, v, a, b in zip(self.cand_step.tolist(),
                                      self.cand_black.tolist(),
                                      ptr[:-1], ptr[1:])]

    def forest_edges(self) -> list[tuple[int, int]]:
        whites = np.flatnonzero(self.parent_black >= 0)
        blacks = np.flatnonzero(self.parent_white >= 0)
        edges = list(zip(self.parent_black[whites].tolist(), whites.tolist()))
        edges += zip(blacks.tolist(), self.parent_white[blacks].tolist())
        return sorted(set(edges))


def _strictly_increasing(a: np.ndarray) -> bool:
    return bool((a[1:] > a[:-1]).all())


def clock_order(a: np.ndarray) -> np.ndarray:
    """``np.argsort(a, kind="stable")``, at the cost of a default argsort
    when ``a`` holds no exact tie.

    Without ties every sorting permutation is the stable one, so the
    default sort's permutation is kept when its sorted keys strictly
    increase.  Clocks tie with probability zero, but conditioned samples
    are not redrawn on a tie, so a tie falls back to the stable sort.
    """
    order = np.argsort(a)
    if _strictly_increasing(a[order]):
        return order
    return np.argsort(a, kind="stable")


def _clock_dial(x: np.ndarray, clocks: ClockSet):
    """The blacks in clock order, the whites under the dial in clock order,
    the cuts ``0, x_{V_1}, x_{V_1} + x_{V_2}, ...`` of the white dial, and
    for each black in clock order the range ``[lo, hi)`` of the sorted
    whites whose clocks fall in its interval.

    Only the whites with clock at most ``cuts[-1]`` are sorted: no interval
    reaches past that cut, and those whites, taken in label order and
    sorted stably, are exactly the head of the stable order of all whites.
    """
    order = clock_order(clocks.black)
    cuts = np.concatenate([[0.0], np.cumsum(x[order])])
    under = np.flatnonzero(clocks.white <= cuts[-1])
    worder = under[clock_order(clocks.white[under])]
    idx = np.searchsorted(clocks.white[worder], cuts, side="right")
    return order, worder, cuts, idx[:-1], idx[1:]


def _offspring_service(ys: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> np.ndarray:
    """``ys[lo[k]:hi[k]].sum()`` for every k.  Rows of equal length are
    summed as one (rows, length) block, which adds in the order a 1-D sum
    does; cumulative-sum differences would not."""
    counts = hi - lo
    out = np.zeros(len(lo))
    for length in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == length)
        out[rows] = ys[lo[rows, None] + np.arange(length)].sum(axis=1)
    return out


def explore(x, y, z: float, clocks: ClockSet) -> ExplorationRecord:
    """Run the queue construction to completion.

    Deterministic given its inputs.  Implements both branches of the step
    rule: an empty queue starts a new component at the next black clock; a
    nonempty queue serves its head until either the service completes or
    the next black clock interrupts it, whichever comes first (exact ties
    count as completion).  Stops once the queue is empty and no black clock
    remains beyond the black dial.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    order, worder, cuts, lo, hi = _clock_dial(x, clocks)
    ys = y[worder]
    delta_k = _offspring_service(ys, lo, hi)     # by exploration position
    wl, yl = worder.tolist(), ys.tolist()
    # the whites beyond the dial, sorted after those under it, complete
    # the stable clock order of every white
    rest = np.flatnonzero(clocks.white > cuts[-1])
    worder = np.concatenate([worder, rest[clock_order(clocks.white[rest])]])
    del rest

    intervals = np.empty((n, 2))
    intervals[order, 0] = cuts[:-1]
    intervals[order, 1] = cuts[1:]
    delta = np.empty(n)
    delta[order] = delta_k
    offspring_lo = np.empty(n, dtype=int)
    offspring_hi = np.empty(n, dtype=int)
    offspring_lo[order] = lo
    offspring_hi[order] = hi
    # every black is explored, so every white inside the dial is queued by
    # the black whose interval holds its clock
    parent_black = np.full(m, -1, dtype=int)
    if n:
        parent_black[worder[lo[0]:hi[-1]]] = np.repeat(order, hi - lo)

    # python scalars in the loop: same IEEE arithmetic, less overhead
    tb = clocks.black[order].tolist()
    dk = delta_k.tolist()
    lo_l, hi_l = lo.tolist(), hi.tolist()

    p_t0: list[float] = []
    p_t1: list[float] = []
    p_white: list[int] = []           # white in service; its parent is served
    p_load: list[float] = []
    q_t: list[float] = []
    q_k: list[int] = []
    q_load: list[float] = []
    q_piece: list[int] = []
    c_step: list[int] = []
    c_k: list[int] = []
    c_head: list[int] = []
    c_len: list[int] = []
    c_white: list[int] = []
    c_rem: list[float] = []

    # queue as two parallel stacks: list end = queue head (served first)
    qw: list[int] = []
    qr: list[float] = []
    tau_b = 0.0
    load = 0.0
    steps = 0
    k = 0                           # next unexplored black, in clock order
    while qw or k < n:              # stop rule: idle and no clock beyond the dial
        steps += 1
        arrival = True
        if qw:
            rem = qr[-1]
            finish = tau_b + rem
            p_t0.append(tau_b)
            p_white.append(qw[-1])
            p_load.append(load)
            if k < n and tb[k] < finish:
                # interruption: the next black becomes a child of the
                # serving white
                t_next = tb[k]
                p_t1.append(t_next)
                elapsed = t_next - tau_b
                qr[-1] = rem - elapsed
                load -= elapsed
                c_step.append(steps)
                c_k.append(k)
                c_head.append(qw[-1])
                c_len.append(len(qw))
                c_white.extend(reversed(qw))
                c_rem.extend(reversed(qr))
                tau_b = t_next
            else:
                # the head white is served out in full (exact ties count
                # as completion)
                p_t1.append(finish)
                load -= rem
                tau_b = finish
                qw.pop()
                qr.pop()
                arrival = False
        else:
            tau_b = tb[k]           # empty queue: the next black roots a tree
        if arrival:
            a, b = lo_l[k], hi_l[k]
            qw.extend(reversed(wl[a:b]))    # earliest arrival ends on top
            qr.extend(reversed(yl[a:b]))
            load += dk[k]
            if dk[k] == 0.0:
                q_t.append(tau_b)
                q_k.append(k)
                q_load.append(load)
                q_piece.append(len(p_t0))
            k += 1

    parent_white = np.full(n, -1, dtype=int)
    cand_black = order[np.asarray(c_k, dtype=int)]
    parent_white[cand_black] = c_head
    return ExplorationRecord(
        x=x, y=y, z=z, clocks=clocks, order=order, worder=worder,
        intervals=intervals, offspring_lo=offspring_lo,
        offspring_hi=offspring_hi, delta=delta, parent_white=parent_white,
        parent_black=parent_black, steps=steps,
        piece_t0=np.asarray(p_t0, dtype=float),
        piece_t1=np.asarray(p_t1, dtype=float),
        piece_black=parent_black[np.asarray(p_white, dtype=int)],
        piece_load0=np.asarray(p_load, dtype=float),
        point_t=np.asarray(q_t, dtype=float),
        point_black=order[np.asarray(q_k, dtype=int)],
        point_load=np.asarray(q_load, dtype=float),
        point_piece=np.asarray(q_piece, dtype=int),
        cand_step=np.asarray(c_step, dtype=int), cand_black=cand_black,
        cand_ptr=np.concatenate([[0], np.cumsum(c_len, dtype=int)]),
        cand_white=np.asarray(c_white, dtype=int),
        cand_remaining=np.asarray(c_rem, dtype=float))


def lifo_genealogy(arrivals, services) -> tuple[np.ndarray, list[int]]:
    """Genealogy of a generic single-server LIFO queue.

    Client i is a child of client j iff the arrival of i interrupts the
    service of j; arrival order equals depth-first order of the forest.
    Returns (parents, roots) with parents[i] = -1 for roots.  A client whose
    service completes exactly at another's arrival is not interrupted.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    nc = len(arrivals)
    if nc and np.any(np.diff(arrivals) <= 0):
        raise ValueError("arrivals must be strictly increasing")
    parents = np.full(nc, -1, dtype=int)
    roots: list[int] = []
    stack: list[list] = []          # [client, remaining]
    tau = 0.0
    for i in range(nc):
        t = arrivals[i]
        while stack and tau + stack[-1][1] <= t:
            tau += stack[-1][1]
            stack.pop()
        if stack:
            stack[-1][1] -= t - tau
            parents[i] = stack[-1][0]
        else:
            roots.append(i)
        tau = t
        stack.append([i, float(services[i])])
    return parents, roots


def black_forest(record: ExplorationRecord) -> tuple[np.ndarray, list[int]]:
    """Forest on the black vertices: b is the parent of b' iff b is the
    grandparent of b' in the bipartite forest."""
    parents = np.full(record.n, -1, dtype=int)
    for i in range(record.n):
        pw = record.parent_white[i]
        if pw >= 0:
            parents[i] = record.parent_black[pw]
    return parents, list(record.roots)


def forest_heights(record: ExplorationRecord) -> np.ndarray:
    """Height of every black vertex in the bipartite forest (roots at 1)."""
    heights = np.zeros(record.n, dtype=int)
    for v in record.order:            # parents always explored first
        pw = record.parent_white[v]
        if pw < 0:
            heights[v] = 1
        else:
            heights[v] = heights[record.parent_black[pw]] + 2
    return heights


def sample_surplus_direct(record: ExplorationRecord, z: float,
                          seed) -> list[tuple[int, int]]:
    """Bernoulli surplus edges over the recorded candidates.

    A candidate (V_k, w_j) with remaining service r is kept with probability
    1 - exp(-r * x_{V_k} / z), independently.  The pair joining V_k to the
    white it interrupted may be drawn; it collapses onto an existing forest
    edge once the simple graph is assembled.
    """
    rng = np.random.default_rng(seed)
    blacks = np.repeat(record.cand_black, np.diff(record.cand_ptr))
    exponent = -record.cand_remaining * record.x[blacks] / z
    # math.expm1, not np.expm1: the two differ in the last bit
    p = np.array([-math.expm1(e) for e in exponent.tolist()])
    keep = rng.random(len(p)) < p
    return list(zip(blacks[keep].tolist(), record.cand_white[keep].tolist()))


def assemble_graph(record: ExplorationRecord,
                   surplus: list[tuple[int, int]]) -> BipartiteGraph:
    """Forest plus surplus edges, roots and orders forgotten; the graph
    deduplicates."""
    return BipartiteGraph(record.x, record.y, record.forest_edges() + list(surplus),
                          record.z)


def project_surplus(record: ExplorationRecord,
                    surplus: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Replace the white endpoint of each surplus edge by its parent black,
    yielding black-to-black shortcut pairs (the distance-modified graph)."""
    out = set()
    for i, j in surplus:
        pb = int(record.parent_black[j])
        if pb < 0:
            raise ValueError("surplus edge endpoint never joined the queue")
        out.add((i, pb))
    return out


def excursion_components(times, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Excursions above the running minimum of a load path with drift -1
    and jumps ``sizes`` at increasing ``times``.

    A jump opens a new excursion when its pre-jump level is at or below
    every earlier pre-jump level, up to ``LEVEL_TOL``.  Returns the root
    flag of each jump and the index of its excursion among all of them,
    zero-length ones (childless roots) included.
    """
    post = np.cumsum(sizes) - times         # path value right after each jump
    pre = post - sizes                      # and just before
    prior_min = np.minimum.accumulate(np.concatenate([[np.inf], pre]))[:-1]
    is_root = pre <= prior_min + LEVEL_TOL
    return is_root, np.cumsum(is_root) - 1


def component_masses(x, y, z: float, clocks: ClockSet):
    """Vectorised per-component weight totals, without simulating the queue.

    Components correspond to excursions of the load path above its running
    minimum; a new component starts exactly at the jumps that touch the
    running minimum.  Returns (y_masses, x_masses, root_blacks) over the
    nontrivial components in exploration order.  Cross-checked against the
    full queue construction in the test suite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order, worder, _cuts, lo, hi = _clock_dial(x, clocks)
    cum_y = np.concatenate([[0.0], np.cumsum(y[worder])])
    del worder, _cuts
    delta = cum_y[hi] - cum_y[lo]
    del cum_y, lo, hi

    is_root, comp = excursion_components(clocks.black[order], delta)
    ncomp = int(comp[-1]) + 1 if len(comp) else 0
    y_mass = np.bincount(comp, weights=delta, minlength=ncomp)
    x_mass = np.bincount(comp, weights=x[order], minlength=ncomp)
    root_blacks = order[is_root]
    keep = y_mass > 0.0                     # nontrivial components only
    return y_mass[keep], x_mass[keep], root_blacks[keep]
