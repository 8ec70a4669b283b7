"""Assigning commodities to volume classes at minimum stationary cost.

Each commodity must join exactly one class; a class accepts a bounded number
of members; joining class ell caps the commodity's interval so that its
average space fits the class slab, with the cheapest compliant interval given
in closed form. This is bipartite b-matching with degree bounds, solved here
as min-cost flow: a circulation with lower bounds reduced to plain min-cost
max-flow through the standard excess/deficit transformation, then successive
shortest paths with Johnson potentials.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

from .eoq import constrained_interval
from .errors import InfeasibleMatching
from .model import Commodity

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
    if ell == INF_CLASS or ell == "inf":
        return 2.0 * eps * V / n
    level = int(ell)
    if level < 1:
        raise ValueError(f"class label must be >= 1 or the tail class, got {ell!r}")
    return 2.0 * V / (1.0 + eps) ** (level - 1)


def edge_weight(commodity: Commodity, ell: Hashable, eps: float, V: float, n: int) -> tuple[float, float]:
    """(capped interval, its stationary cost) for assigning commodity to ell."""
    cap = class_interval_cap(ell, eps, V, n) / commodity.gamma
    sol = constrained_interval(commodity.K, commodity.H, cap)
    return sol.interval_T, sol.cost_rate


class _MinCostFlow:
    """Successive shortest paths with potentials on a small dense network."""

    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list]] = [[] for _ in range(n)]  # [to, cap, cost, rev_index]

    def add_edge(self, u: int, v: int, cap: int, cost: float) -> tuple[int, int]:
        self.graph[u].append([v, cap, cost, len(self.graph[v])])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1])
        return u, len(self.graph[u]) - 1

    def flow(self, s: int, t: int, want: int) -> tuple[int, float]:
        total_flow = 0
        total_cost = 0.0
        potential = [0.0] * self.n
        while total_flow < want:
            dist = [math.inf] * self.n
            dist[s] = 0.0
            parent: list[tuple[int, int] | None] = [None] * self.n
            heap = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + 1e-15:
                    continue
                for ei, edge in enumerate(self.graph[u]):
                    v, cap, cost, _ = edge
                    if cap <= 0:
                        continue
                    nd = d + cost + potential[u] - potential[v]
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        parent[v] = (u, ei)
                        heapq.heappush(heap, (nd, v))
            if parent[t] is None:
                break
            for v in range(self.n):
                if math.isfinite(dist[v]):
                    potential[v] += dist[v]
            push = want - total_flow
            v = t
            while v != s:
                u, ei = parent[v]
                push = min(push, self.graph[u][ei][1])
                v = u
            v = t
            while v != s:
                u, ei = parent[v]
                edge = self.graph[u][ei]
                edge[1] -= push
                self.graph[v][edge[3]][1] += push
                total_cost += push * edge[2]
                v = u
            total_flow += push
        return total_flow, total_cost


def solve_b_matching(mi: MatchingInstance) -> MimickingPartition:
    """Minimum-weight degree-feasible assignment via min-cost flow.

    Network: source -> commodity (exactly 1), commodity -> class (cost w),
    class -> sink (bounds [lo, hi]). Lower bounds become node excesses served
    by a super source/sink; the source->sink demand equals the commodity
    count, so a saturating min-cost flow is exactly an optimal b-matching.
    """
    commodities = mi.commodity_side
    classes = mi.class_side
    n_nodes = 2 + len(commodities) + len(classes) + 2
    SRC, SNK = 0, 1
    SS, TT = n_nodes - 2, n_nodes - 1
    c_index = {cid: 2 + k for k, cid in enumerate(commodities)}
    l_index = {ell: 2 + len(commodities) + k for k, ell in enumerate(classes)}

    net = _MinCostFlow(n_nodes)
    excess = [0] * n_nodes

    # source -> commodity with lower = upper = 1
    for cid in commodities:
        excess[c_index[cid]] += 1
        excess[SRC] -= 1
    # commodity -> class, weighted
    edge_refs: dict[tuple[int, Hashable], tuple[int, int]] = {}
    for cid in commodities:
        for ell in classes:
            if (cid, ell) in mi.weights:
                edge_refs[(cid, ell)] = net.add_edge(
                    c_index[cid], l_index[ell], 1, mi.weights[(cid, ell)]
                )
    # class -> sink with bounds [lo, hi]
    for ell in classes:
        lo, hi = mi.degree_bounds[ell]
        if hi > lo:
            net.add_edge(l_index[ell], SNK, hi - lo, 0.0)
        excess[SNK] += lo
        excess[l_index[ell]] -= lo
    # close the circulation: total assignment is |U|
    excess[SRC] += len(commodities)
    excess[SNK] -= len(commodities)

    demand = 0
    for v in range(n_nodes):
        if excess[v] > 0:
            net.add_edge(SS, v, excess[v], 0.0)
            demand += excess[v]
        elif excess[v] < 0:
            net.add_edge(v, TT, -excess[v], 0.0)

    sent, _ = net.flow(SS, TT, demand)
    if sent < demand:
        raise InfeasibleMatching("no assignment satisfies the degree bounds")

    assignment: dict[int, Hashable] = {}
    total = 0.0
    for (cid, ell), (u, ei) in edge_refs.items():
        if net.graph[u][ei][1] == 0:  # saturated unit edge
            assignment[cid] = ell
            total += mi.weights[(cid, ell)]
    if len(assignment) != len(commodities):
        raise InfeasibleMatching("flow did not assign every commodity")
    return MimickingPartition(assignment=assignment, total_weight=total)


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
