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
from dataclasses import dataclass
from typing import Mapping

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


def _arrays(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    ids = instance.ids()
    K = np.array([c.K for c in instance.commodities])
    H = np.array([c.H for c in instance.commodities])
    g = np.array([c.gamma for c in instance.commodities])
    return K, H, g, ids


def solve_sosi_relaxation(instance: Instance, rhs: float | None = None) -> RelaxationSolution:
    """Exact KKT solution; rhs defaults to twice the warehouse capacity."""
    if rhs is None:
        rhs = 2.0 * instance.V
    if rhs <= 0:
        raise ValueError("budget must be > 0")
    K, H, g, ids = _arrays(instance)

    def budget(lam: float) -> float:
        return float(g @ np.sqrt(K / (H + lam * g)))

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
    return RelaxationSolution(
        intervals_T=dict(zip(ids, T.tolist())),
        multiplier_lambda=lam,
        objective=float(np.sum(K / T + H * T)),
        budget_used=float(g @ T),
        budget_cap=rhs,
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
    return RelaxationSolution(
        intervals_T=T,
        multiplier_lambda=float("nan"),
        objective=objective,
        budget_used=used,
        budget_cap=rhs,
    )
