"""The stationary-policy relaxation with an average-space budget.

Minimizing sum C_i(T_i) subject to sum gamma_i*T_i <= rhs is convex and
separable; the KKT point is T_i(lam) = sqrt(K_i/(H_i + lam*gamma_i)), where
the multiplier lam is zero when the unconstrained optimum fits the budget and
otherwise solves budget(lam) = sum gamma_i*T_i(lam) = rhs. The optimal value
lower-bounds the cost of every capacity-feasible dynamic policy, which is
what all approximation ratios in this package are measured against.

The multiplier is the one a plain bisection returns: double hi from 1 while
budget(hi) >= rhs, halve [0, hi] on budget(mid) > rhs down to a width of
1e-13 * max(hi, 1), and take the midpoint, or the last bracket's upper end
where the midpoint overshoots the budget by more than the 1e-9 slack (a
steep budget below lam = 1). It is found with far fewer
evaluations of the budget map (4 to 9 rather than ~47 on generated
instances), bit for bit:
- the budget map, as computed in floats, is non-increasing in lam: every
  operation in it is monotone and its dot product sums in a fixed order, so
  one evaluated value decides every comparison on its side of the crossing;
- Newton steps on budget**-2 bracket the crossing. That map is concave in
  lam (a power mean, of exponent -1/2, of the H_i/gamma_i + lam; linear for
  one commodity or with H = 0), so the steps approach the crossing from
  below; one probe past where they stop, widened by doubling until it lands
  on the other side, closes a bracket far narrower than the bisection's last
  interval;
- the doubling and halving are replayed on the known values, and only the
  probes those leave undecided are evaluated. Newton only chooses where to
  evaluate, so a poor step costs evaluations and never changes lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eoq import constrained_interval, cost
from .errors import InfeasiblePolicy, StateSpaceExceeded
from .model import IdColumn, Instance

_BISECT_RTOL = 1e-13
_NEWTON_STEPS = 12
_BRACKET_ROUNDS = 8
# Cells of the knapsack DP's budget table. Its time grows with the square of
# the cell count, and it keeps one row of picks per commodity.
DP_CELL_CAP = 20_000


@dataclass(frozen=True)
class RelaxationSolution:
    """The relaxed commodities' intervals, an IdColumn in instance order
    whose column is read-only and whose dict is built on first item access,
    and the relaxation's multiplier, objective and budget."""

    intervals_T: IdColumn
    multiplier_lambda: float | None  # None from the knapsack DP, which has no multiplier
    objective: float
    budget_used: float
    budget_cap: float


def _arrays(instance: Instance, ids: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """K, H, gamma and the ids of the relaxed commodities, in instance order."""
    cols = instance.columns
    if ids is None:
        return cols.K, cols.H, cols.gamma, cols.ids
    pos = np.unique(instance.positions(ids))
    if not pos.size:
        raise ValueError("the relaxation needs at least one commodity")
    return cols.K[pos], cols.H[pos], cols.gamma[pos], tuple(cols.ids[k] for k in pos.tolist())


def _budget(lam: float, K: np.ndarray, H: np.ndarray, g: np.ndarray) -> float:
    """sum gamma_i * T_i(lam), non-increasing in lam as computed: every
    operation is monotone and the dot product sums in a fixed order."""
    return float(g @ np.sqrt(K / (H + lam * g)))


def _multiplier(K: np.ndarray, H: np.ndarray, g: np.ndarray, rhs: float, used0: float) -> tuple[float, float]:
    """The lam of the bisection below, for used0 = _budget(0) > rhs (see the
    module docstring), and the upper end of its last bracket, whose budget
    is at most rhs. Every comparison is decided by a value of `_budget`:
    a probe at or below the largest lam seen with a budget above rhs, or at
    or beyond the smallest seen with one at most (or below) rhs, needs no
    evaluation of its own."""
    # _budget(inf) is 0, below every rhs
    above, at_most, below = 0.0, math.inf, math.inf

    def probe(lam: float) -> float:
        nonlocal above, at_most, below
        used = _budget(lam, K, H, g)
        if used > rhs:
            above = max(above, lam)
        else:
            at_most = min(at_most, lam)
            if used < rhs:
                below = min(below, lam)
        return used

    lam, used, g2 = 0.0, used0, g * g
    for _ in range(_NEWTON_STEPS):
        x = H + lam * g
        slope = float(g2 @ (np.sqrt(K / x) / x))  # -2 d budget / d lam
        # (rhs**-2 - used**-2) / (d used**-2 / d lam), in factors that keep
        # clear of the cancellation in the difference and of overflow
        step = (used - rhs) / rhs * ((used + rhs) / rhs * (used / slope)) if slope > 0.0 else math.inf
        if not lam < lam + step < math.inf:
            break
        lam += step
        if step <= _BISECT_RTOL * max(lam, 1.0) / 64.0:
            break
        used = probe(lam)
        if used <= rhs:
            break
    if lam > 0.0:
        # One side of lam is known close by; gallop out on the other, which
        # leaves a bracket too narrow to hold a bisection midpoint but by chance.
        gap = max(_BISECT_RTOL * max(lam, 1.0) / 256.0, math.ulp(lam))
        for _ in range(_BRACKET_ROUNDS):
            if at_most > lam:
                if probe(lam + gap) <= rhs:
                    break
            elif probe(lam - gap) > rhs:
                break
            gap *= 2.0

    # the doubling and the bisection, as plain loops would run them
    hi = 1.0
    while hi <= above or (hi < below and probe(hi) >= rhs):
        hi *= 2.0
    lo = 0.0
    while hi - lo > _BISECT_RTOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if mid <= above or (mid < at_most and probe(mid) > rhs):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi


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

    # An overflow of lam*gamma shows as a budget overrun, checked below; a
    # Newton slope of inf * 0 only ends the Newton steps.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = hi = 0.0
        used0 = _budget(0.0, K, H, g)
        if used0 > rhs:
            lam, hi = _multiplier(K, H, g, rhs, used0)
        T = np.sqrt(K / (H + lam * g))
        used = float(g @ T)
        if used > rhs * (1.0 + 1e-9):
            # Below lam = 1 the last bracket is 1e-13 wide in absolute terms,
            # so on a steep budget its midpoint can overshoot the slack; its
            # upper end meets the budget, unless lam * gamma overflowed there.
            T_hi = np.sqrt(K / (H + hi * g))
            if (T_hi > 0.0).all():
                lam, T, used = hi, T_hi, float(g @ T_hi)
    T.flags.writeable = False
    if used > rhs * (1.0 + 1e-9):
        raise InfeasiblePolicy(
            f"no multiplier in float range meets the budget: the intervals use {used!r} of {rhs!r}"
        )
    if not (T > 0.0).all():  # lam * gamma overflowed, so K / inf gave 0.0
        raise InfeasiblePolicy(f"no multiplier in float range meets the budget: an interval is {float(T.min())!r}")
    return RelaxationSolution(
        intervals_T=IdColumn(ids, T),
        multiplier_lambda=lam,
        objective=float(np.sum(K / T + H * T)),
        budget_used=used,
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

    The table has ceil(2n/eps) + n + 1 cells; one past DP_CELL_CAP raises
    StateSpaceExceeded before any table is allocated. Each commodity keeps a
    row of picks, granule counts up to the last cell's index, stored in the
    smallest unsigned type that holds that index.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if rhs is None:
        rhs = 2.0 * instance.V
    if rhs <= 0:
        raise ValueError("budget must be > 0")

    n = instance.n
    granule = eps * rhs / (2.0 * n)
    # the budget in granules, 2n/eps up to rounding; inf where the granule underflows
    steps = rhs / granule if granule > 0.0 else math.inf
    cells = math.ceil(steps) + n if math.isfinite(steps) else math.inf  # slack for per-commodity round-up
    if cells + 1 > DP_CELL_CAP:
        raise StateSpaceExceeded(f"the knapsack DP table of {cells + 1} cells exceeds the cap of {DP_CELL_CAP} cells")

    INF = float("inf")
    best = np.full(cells + 1, INF)
    best[0] = 0.0
    # a pick is at most `cells` granules: uint16 under DP_CELL_CAP
    pick_type = np.min_scalar_type(cells)
    picks: list[np.ndarray] = []
    for c in instance.commodities:
        # Allocations beyond the unconstrained optimum buy nothing.
        a_star = min(cells, math.ceil(c.gamma * math.sqrt(c.K / c.H) / granule))
        caps = np.arange(1, a_star + 1) * (granule / c.gamma)
        t_opt = math.sqrt(c.K / c.H)
        T = np.minimum(caps, t_opt)
        w = c.K / T + c.H * T
        new = np.full(cells + 1, INF)
        pick = np.zeros(cells + 1, dtype=pick_type)
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
        intervals_T=IdColumn(instance.columns.ids, list(T.values())),
        multiplier_lambda=None,
        objective=objective,
        budget_used=used,
        budget_cap=rhs,
    )
