"""Assigning commodities to volume classes at minimum stationary cost.

Each commodity must join exactly one class; a class accepts a bounded number
of members; joining class ell caps the commodity's interval so that its
average space fits the class slab, with the cheapest compliant interval given
in closed form. This is bipartite b-matching with degree bounds between n
unit-supply commodities and only c classes. One class takes every
commodity. Two or more are solved by successive shortest paths on the
contracted class graph (c + 3 nodes), the "few sinks" transportation
scheme: commodities appear only as the heap entries that price the arcs
between classes, so one augmentation costs about O(c^2 + path * c * log n)
rather than a Dijkstra over all n * c commodity-class edges.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import InfeasibleMatching

INF_CLASS: float = math.inf  # label of the below-resolution tail class


@dataclass(frozen=True)
class MatchingInstance:
    commodity_side: tuple[int, ...]
    class_side: tuple[Hashable, ...]
    weights: Mapping[tuple[int, Hashable], float]
    degree_bounds: Mapping[Hashable, tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "commodity_side", tuple(self.commodity_side))
        object.__setattr__(self, "class_side", tuple(self.class_side))
        for (i, ell), w in self.weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight of edge ({i}, {ell}) must be finite and > 0")
        lo_sum = hi_sum = 0
        for ell in self.class_side:
            lo, hi = self.degree_bounds[ell]
            if not (0 <= lo <= hi):
                raise ValueError(f"class {ell}: need 0 <= lower <= upper, got ({lo}, {hi})")
            lo_sum += lo
            hi_sum += hi
        n = len(self.commodity_side)
        if not (lo_sum <= n <= hi_sum):
            raise InfeasibleMatching(
                f"degree bounds cannot host {n} commodities (lowers {lo_sum}, uppers {hi_sum})"
            )


@dataclass(frozen=True)
class MimickingPartition:
    assignment: Mapping[int, Hashable]
    total_weight: float


def class_interval_cap(ell: Hashable, eps: float, V: float, n: int) -> float:
    """Largest stationary interval whose average space fits the slab of ell."""
    if ell == INF_CLASS:
        return 2.0 * eps * V / n
    level = int(ell)
    if level < 1:
        raise ValueError(f"class label must be >= 1 or the tail class, got {ell!r}")
    return 2.0 * V / (1.0 + eps) ** (level - 1)


def edge_weight(
    K: np.ndarray, H: np.ndarray, gamma: np.ndarray, ell: Hashable, eps: float, V: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(capped interval, its stationary cost) for assigning the commodities
    with parameter columns K, H and gamma to ell: the EOQ interval
    sqrt(K/H), clipped to the slab cap / gamma, at cost K/T + H*T.

    np.sqrt and the array divisions and products round as math's scalar ones
    do, so every entry equals eoq.constrained_interval's. A cap / gamma that
    is not finite and > 0 raises that function's ValueError.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        cap = class_interval_cap(ell, eps, V, n) / np.asarray(gamma, dtype=float)
        bad = ~(np.isfinite(cap) & (cap > 0))
        if bad.any():
            raise ValueError(f"T_max must be finite and > 0, got {cap[bad].flat[0].item()!r}")
        T_star = np.sqrt(K / H)
        T = np.where(cap < T_star, cap, T_star)
        return T, K / T + H * T


def solve_b_matching(mi: MatchingInstance) -> MimickingPartition:
    """Minimum-weight degree-feasible assignment.

    With one class the answer is forced: MatchingInstance has checked that
    its degree bounds admit all n commodities, so each joins it, and a
    commodity without an edge to it makes the instance infeasible. With two
    or more classes it is found by successive shortest paths on the
    contracted class graph (`_shortest_path_placement`). The total weight is
    summed in commodity order either way.
    """
    commodities, classes = mi.commodity_side, mi.class_side
    weight = [[mi.weights.get((cid, ell)) for ell in classes] for cid in commodities]
    if len(classes) == 1:
        if any(row[0] is None for row in weight):
            raise InfeasibleMatching("no assignment satisfies the degree bounds")
        where = [0] * len(commodities)
    else:
        where = _shortest_path_placement(weight, [mi.degree_bounds[ell] for ell in classes])
    assignment: dict[int, Hashable] = {}
    total = 0.0
    for k, cid in enumerate(commodities):
        assignment[cid] = classes[where[k]]
        total += weight[k][where[k]]
    return MimickingPartition(assignment=assignment, total_weight=total)


def _shortest_path_placement(weight: list[list[float | None]], bounds: list[tuple[int, int]]) -> list[int]:
    """Class index of each commodity in a minimum-weight degree-feasible
    assignment, by successive shortest paths on the contracted class graph;
    `weight[k][l]` is None when commodity k has no edge to class l.

    Nodes: source, one per class, slack, sink. source -> ell is the cheapest
    unassigned commodity for ell; ell -> ell' is the cheapest move
    w(i, ell') - w(i, ell) of a current member i of ell; ell -> sink carries
    the lo mandatory units, ell -> slack the hi - lo optional ones, and
    slack -> sink the n - sum(lo) units left over. The sink capacities add up
    to n, so a flow of value n meets every lower bound. Each augmentation is
    a dense Dijkstra over the c + 3 nodes with Johnson potentials; the arc
    minima come from heaps with lazy deletion (an entry of commodity k in a
    heap of class ell is live while k sits in ell, or is unassigned for the
    source heaps).
    """
    n, c = len(weight), len(bounds)
    SLACK, SINK, SRC = c, c + 1, c + 2
    where: list[int | None] = [None] * n
    entering = [[(row[l], k) for k, row in enumerate(weight) if row[l] is not None] for l in range(c)]
    for heap in entering:
        heapq.heapify(heap)
    moves = [[[] for _ in range(c)] for _ in range(c)]
    lo = [low for low, _ in bounds]
    spare = [high - low for low, high in bounds]
    to_sink, to_slack = [0] * c, [0] * c  # flow on ell -> sink and ell -> slack
    slack_left = n - sum(lo)
    potential = [0.0] * (c + 3)

    def top(heap: list, home: int | None) -> tuple[float, int] | None:
        while heap and where[heap[0][1]] != home:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def place(k: int, l: int) -> None:
        where[k] = l
        row = weight[k]
        for m in range(c):
            if m != l and row[m] is not None:
                heapq.heappush(moves[l][m], (row[m] - row[l], k))

    def arcs(u: int):
        if u == SRC:
            for l in range(c):
                entry = top(entering[l], None)
                if entry is not None:
                    yield l, entry[0]
        elif u == SLACK:
            if slack_left:
                yield SINK, 0.0
            for l in range(c):
                if to_slack[l]:
                    yield l, 0.0
        else:
            if to_sink[u] < lo[u]:
                yield SINK, 0.0
            if to_slack[u] < spare[u]:
                yield SLACK, 0.0
            for m in range(c):
                if m != u:
                    entry = top(moves[u][m], u)
                    if entry is not None:
                        yield m, entry[0]

    for _ in range(n):
        dist = [math.inf] * (c + 3)
        parent = [-1] * (c + 3)
        done = [False] * (c + 3)
        dist[SRC] = 0.0
        while True:
            u = min((v for v in range(c + 3) if not done[v]), key=dist.__getitem__, default=None)
            if u is None or dist[u] == math.inf or u == SINK:
                break
            done[u] = True
            for v, cost in arcs(u):
                nd = dist[u] + max(0.0, cost + potential[u] - potential[v])
                if nd < dist[v]:
                    dist[v], parent[v] = nd, u
        if u != SINK:
            raise InfeasibleMatching("no assignment satisfies the degree bounds")
        for v in range(c + 3):
            potential[v] += min(dist[v], dist[SINK])
        # walk back from the sink: a commodity placed in v pushes entries only
        # into v's heaps, which no earlier arc of the path pops from
        v = SINK
        while v != SRC:
            u = parent[v]
            if v == SINK:
                if u == SLACK:
                    slack_left -= 1
                else:
                    to_sink[u] += 1
            elif v == SLACK:
                to_slack[u] += 1
            elif u == SLACK:
                to_slack[v] -= 1
            elif u == SRC:
                place(heapq.heappop(entering[v])[1], v)
            else:
                place(heapq.heappop(moves[u][v])[1], v)
            v = u
    return where


def brute_force_b_matching(mi: MatchingInstance) -> float:
    """Exhaustive optimum over all class assignments; test oracle for tiny inputs."""
    import itertools

    best = math.inf
    commodities = mi.commodity_side
    classes = mi.class_side
    for combo in itertools.product(classes, repeat=len(commodities)):
        if any((cid, ell) not in mi.weights for cid, ell in zip(commodities, combo)):
            continue
        counts = {ell: 0 for ell in classes}
        for ell in combo:
            counts[ell] += 1
        if any(not (mi.degree_bounds[ell][0] <= counts[ell] <= mi.degree_bounds[ell][1]) for ell in classes):
            continue
        weight = sum(mi.weights[(cid, ell)] for cid, ell in zip(commodities, combo))
        best = min(best, weight)
    if not math.isfinite(best):
        raise InfeasibleMatching("no assignment satisfies the degree bounds")
    return best
