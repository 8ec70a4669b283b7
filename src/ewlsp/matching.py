"""Assigning commodities to volume classes at minimum stationary cost.

Each commodity must join exactly one class; a class accepts a bounded number
of members; joining class ell caps the commodity's interval so that its
average space fits the class slab, with the cheapest compliant interval given
in closed form. This is bipartite b-matching with degree bounds between n
unit-supply commodities and only c classes, and the placement is chosen by c.
One class takes every commodity. Two classes are placed by one stable sort
of each commodity's weight difference between them (`_two_class_placement`).
Three or more are solved by successive shortest paths on the contracted
class graph (c + 3 nodes), the "few sinks" transportation scheme:
commodities appear only as the heap entries that price the arcs between
classes, so one augmentation costs about O(c^2 + path * c * log n) rather
than a Dijkstra over all n * c commodity-class edges. The partition holds
the placement as a column of class indexes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

import numpy as np

from .errors import InfeasibleMatching

INF_CLASS: float = math.inf  # label of the below-resolution tail class


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Commodities, classes, edge weights and degree bounds.

    `table[r, l]` is the weight of the edge between commodity_side[r] and
    class_side[l], NaN where there is none. A mapping {(i, ell): w} may be
    passed in its place: it is read into the table (pairs naming a commodity
    or class of neither side are left out) and kept as `weights`. For an
    instance built from a table, `weights` is built on first read, its edges
    in row-major order. Every edge's weight must be finite and > 0; the first
    that is not, in row-major order, is named.
    """

    commodity_side: tuple[int, ...]
    class_side: tuple[Hashable, ...]
    table: np.ndarray  # or a {(i, ell): w} mapping, read into one
    degree_bounds: Mapping[Hashable, tuple[int, int]]

    def __post_init__(self):
        commodities, classes = tuple(self.commodity_side), tuple(self.class_side)
        object.__setattr__(self, "commodity_side", commodities)
        object.__setattr__(self, "class_side", classes)
        if isinstance(self.table, Mapping):
            self.__dict__["weights"] = self.table
            row = {i: r for r, i in enumerate(commodities)}
            column = {ell: l for l, ell in enumerate(classes)}
            table = np.full((len(commodities), len(classes)), np.nan)
            present = np.zeros(table.shape, dtype=bool)
            for (i, ell), w in self.table.items():
                if i in row and ell in column:
                    table[row[i], column[ell]] = w
                    present[row[i], column[ell]] = True
        else:
            table = np.array(self.table, dtype=float)
            present = ~np.isnan(table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        bad = np.argwhere(present & ~(np.isfinite(table) & (table > 0)))
        if len(bad):
            r, l = bad[0].tolist()
            raise ValueError(f"weight of edge ({commodities[r]}, {classes[l]}) must be finite and > 0")
        lo_sum = hi_sum = 0
        for ell in classes:
            lo, hi = self.degree_bounds[ell]
            if not (0 <= lo <= hi):
                raise ValueError(f"class {ell}: need 0 <= lower <= upper, got ({lo}, {hi})")
            lo_sum += lo
            hi_sum += hi
        n = len(commodities)
        if not (lo_sum <= n <= hi_sum):
            raise InfeasibleMatching(
                f"degree bounds cannot host {n} commodities (lowers {lo_sum}, uppers {hi_sum})"
            )

    @cached_property
    def weights(self) -> Mapping[tuple[int, Hashable], float]:
        """{(i, ell): w} over the edges, in row-major order of the table."""
        rows, columns = np.nonzero(~np.isnan(self.table))
        commodities, classes = self.commodity_side, self.class_side
        return {
            (commodities[r], classes[l]): w
            for r, l, w in zip(rows.tolist(), columns.tolist(), self.table[rows, columns].tolist())
        }


@dataclass(frozen=True, eq=False)
class MimickingPartition:
    """A degree-feasible assignment held as columns: commodity_side[r] joins
    class_side[where[r]]. `where` is kept as a read-only intp array."""

    commodity_side: tuple[int, ...]
    class_side: tuple[Hashable, ...]
    where: np.ndarray
    total_weight: float

    def __post_init__(self):
        where = np.array(self.where, dtype=np.intp)
        if where.shape != (len(self.commodity_side),):
            raise ValueError(f"expected a class index per commodity, got shape {where.shape}")
        where.flags.writeable = False
        object.__setattr__(self, "where", where)


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
    """Minimum-weight degree-feasible assignment, placed by the class count.

    With one class the answer is forced: MatchingInstance has checked that
    its degree bounds admit all n commodities, so each joins it, and a
    commodity without an edge to it makes the instance infeasible. Two
    classes are placed by one stable sort (`_two_class_placement`); three or
    more by successive shortest paths on the contracted class graph
    (`_shortest_path_placement`), which reads its rows straight from the
    instance's table. Where several assignments tie at the optimum, the two
    paths may pick different ones. The total weight is summed in commodity
    order either way (np.cumsum adds left to right, as a loop would).
    """
    commodities, classes, table = mi.commodity_side, mi.class_side, mi.table
    missing = np.isnan(table)
    bounds = [mi.degree_bounds[ell] for ell in classes]
    if len(classes) == 1:
        if missing.any():
            raise InfeasibleMatching("no assignment satisfies the degree bounds")
        where = np.zeros(len(commodities), dtype=np.intp)
    elif len(classes) == 2:
        where = _two_class_placement(table, missing, bounds)
    else:
        # the placement reads a missing edge as None
        rows = np.where(missing, None, table.astype(object)) if missing.any() else table
        where = np.array(_shortest_path_placement(rows.tolist(), bounds), dtype=np.intp)
    weights = table[np.arange(len(commodities)), where]
    total = float(np.cumsum(weights)[-1]) if len(weights) else 0.0
    return MimickingPartition(commodities, classes, where, total)


def _two_class_placement(table: np.ndarray, missing: np.ndarray, bounds: list[tuple[int, int]]) -> np.ndarray:
    """Class index (0 or 1) of each row of a two-column weight table in a
    minimum-weight degree-feasible assignment, by one stable sort;
    `missing` marks the absent edges.

    A row with one edge is forced into that class, and the bounds shrink to
    match: with f_1 and f_2 rows forced into the first and second class, k of
    the m free rows (those with both edges) join the first class, where
    max(lo_1 - f_1, m - (hi_2 - f_2), 0) <= k <= min(hi_1 - f_1, m - (lo_2 - f_2), m).
    A row with no edge, or an empty k range, raises InfeasibleMatching.

    Why the sort is optimal: let d_i = w(i, first) - w(i, second). Putting a
    set S of k free rows first costs the sum of w(., second) over the free
    rows plus the sum of d over S, which for a fixed k is least when S holds
    the k least d. That least cost grows from k - 1 to k by the k-th least d,
    and these steps never decrease, so it is convex in k: its minimum over
    the k range lies at the count of negative d, clipped into the range.

    Ties: the sort is stable, so where d ties across the cut the lower row
    goes first, and a d of exactly 0 counts as not negative. Any other choice
    among tied rows costs the same; successive shortest paths may make one.
    """
    (lo_1, hi_1), (lo_2, hi_2) = bounds
    first, second = ~missing[:, 0], ~missing[:, 1]
    if missing.any():
        if not (first | second).all():
            raise InfeasibleMatching("no assignment satisfies the degree bounds")
        free = np.flatnonzero(first & second)
        forced_first = int((first & ~second).sum())
    else:
        free = np.arange(len(table))
        forced_first = 0
    m = len(free)
    forced_second = len(table) - m - forced_first
    k_lo = max(lo_1 - forced_first, m - (hi_2 - forced_second), 0)
    k_hi = min(hi_1 - forced_first, m - (lo_2 - forced_second), m)
    if k_lo > k_hi:
        raise InfeasibleMatching("no assignment satisfies the degree bounds")
    d = table[free, 0] - table[free, 1]
    k = min(max(int((d < 0).sum()), k_lo), k_hi)
    where = second.astype(np.intp)  # forced rows are final; free rows start in the second class
    where[free[np.argsort(d, kind="stable")[:k]]] = 0
    return where


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
