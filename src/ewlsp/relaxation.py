"""The stationary-policy relaxation with an average-space budget.

Minimizing sum C_i(T_i) subject to sum gamma_i*T_i <= rhs is convex and
separable; the KKT point is T_i(lam) = sqrt(K_i/(H_i + lam*gamma_i)), where
the multiplier lam is zero when the unconstrained optimum fits the budget and
otherwise solves sum gamma_i*T_i(lam) = rhs, a strictly decreasing continuous
map amenable to bisection. The optimal value lower-bounds the cost of every
capacity-feasible dynamic policy, which is what all approximation ratios in
this package are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .eoq import constrained_interval, cost
from .errors import InfeasiblePolicy
from .model import Instance

_BISECT_RTOL = 1e-13


@dataclass(frozen=True)
class RelaxationSolution:
    intervals_T: Mapping[int, float]
    multiplier_lambda: float
    objective: float
    budget_used: float
    budget_cap: float
    # the intervals in the key order of `intervals_T` (instance order), read-only
    column: np.ndarray = field(repr=False, compare=False)


def _arrays(instance: Instance, ids: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, Sequence[int]]:
    """K, H, gamma and the ids of the relaxed commodities, in instance order."""
    cols = instance.columns
    if ids is None:
        return cols.K, cols.H, cols.gamma, cols.ids
    pos = np.unique(instance.positions(ids))
    if not pos.size:
        raise ValueError("the relaxation needs at least one commodity")
    return cols.K[pos], cols.H[pos], cols.gamma[pos], [cols.ids[k] for k in pos.tolist()]


def solve_sosi_relaxation(
    instance: Instance, rhs: float | None = None, ids: Sequence[int] | None = None
) -> RelaxationSolution:
    """Exact KKT solution over the commodities `ids` (all by default, an id
    the instance lacks raises KeyError); rhs defaults to twice the warehouse
    capacity.

    The budget map and the intervals are array expressions over the
    instance's parameter columns, taken in instance order whatever the order
    of `ids`: the dot products and the objective's `np.sum` are sums over that
    order, and `intervals_T` is keyed in it.
    """
    if rhs is None:
        rhs = 2.0 * instance.V
    if rhs <= 0:
        raise ValueError("budget must be > 0")
    K, H, g, ids = _arrays(instance, ids)

    def budget(lam: float) -> float:
        return float(g @ np.sqrt(K / (H + lam * g)))

    # An overflow of lam*gamma shows as a budget overrun, checked below.
    with np.errstate(over="ignore"):
        lam = 0.0
        if budget(0.0) > rhs:
            hi = 1.0
            while budget(hi) >= rhs:
                hi *= 2.0
            lo = 0.0
            # The budget map is strictly decreasing and continuous in lam.
            while hi - lo > _BISECT_RTOL * max(hi, 1.0):
                mid = 0.5 * (lo + hi)
                if budget(mid) > rhs:
                    lo = mid
                else:
                    hi = mid
            lam = 0.5 * (lo + hi)

        T = np.sqrt(K / (H + lam * g))
        used = float(g @ T)
    T.flags.writeable = False
    if used > rhs * (1.0 + 1e-9):
        raise InfeasiblePolicy(
            f"no multiplier in float range meets the budget: the intervals use {used!r} of {rhs!r}"
        )
    return RelaxationSolution(
        intervals_T=dict(zip(ids, T.tolist())),
        multiplier_lambda=lam,
        objective=float(np.sum(K / T + H * T)),
        budget_used=used,
        budget_cap=rhs,
        column=T,
    )


def solve_sosi_dp(instance: Instance, eps: float, rhs: float | None = None) -> RelaxationSolution:
    """Knapsack-style (1+eps)-approximation of the relaxation.

    The budget is discretized into granules of eps*rhs/(2n); each commodity
    receives an integer number of granules and solves its capped
    single-variable subproblem in closed form. Rounding the exact solution's
    allocations up costs at most n extra granules, so the table carries that
    slack and the winning intervals are rescaled back inside the budget at a
    further (1+eps/2) factor; together the objective stays within (1+eps) of
    the exact optimum while the budget constraint holds.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if rhs is None:
        rhs = 2.0 * instance.V
    if rhs <= 0:
        raise ValueError("budget must be > 0")

    n = instance.n
    granule = eps * rhs / (2.0 * n)
    cells = math.ceil(rhs / granule) + n  # slack for per-commodity round-up

    INF = float("inf")
    best = np.full(cells + 1, INF)
    best[0] = 0.0
    picks: list[np.ndarray] = []
    for c in instance.commodities:
        # Allocations beyond the unconstrained optimum buy nothing.
        a_star = min(cells, math.ceil(c.gamma * math.sqrt(c.K / c.H) / granule))
        caps = np.arange(1, a_star + 1) * (granule / c.gamma)
        t_opt = math.sqrt(c.K / c.H)
        T = np.minimum(caps, t_opt)
        w = c.K / T + c.H * T
        new = np.full(cells + 1, INF)
        pick = np.zeros(cells + 1, dtype=np.int64)
        for a in range(1, a_star + 1):
            cand = best[: cells + 1 - a] + w[a - 1]
            window = new[a:]
            better = cand < window
            window[better] = cand[better]
            pick[a:][better] = a
        best = new
        picks.append(pick)

    b = int(np.argmin(best))
    if not math.isfinite(best[b]):  # every allocation's cost rate overflows a float
        raise InfeasiblePolicy("no allocation of the budget has a finite cost rate")
    allocations: dict[int, int] = {}
    for c, pick in zip(reversed(instance.commodities), reversed(picks)):
        a = int(pick[b])
        allocations[c.id] = a
        b -= a

    T = {
        c.id: constrained_interval(c.K, c.H, allocations[c.id] * granule / c.gamma).interval_T
        for c in instance.commodities
    }
    used = math.fsum(c.gamma * T[c.id] for c in instance.commodities)
    if used > rhs:
        shrink = rhs / used
        T = {cid: t * shrink for cid, t in T.items()}
        used = math.fsum(c.gamma * T[c.id] for c in instance.commodities)
    objective = math.fsum(cost(c.K, c.H, T[c.id]) for c in instance.commodities)
    column = np.array(list(T.values()))
    column.flags.writeable = False
    return RelaxationSolution(
        intervals_T=T,
        multiplier_lambda=float("nan"),
        objective=objective,
        budget_used=used,
        budget_cap=rhs,
        column=column,
    )
