"""Brute-force baselines for tiny instances.

Two independent ground truths: an exhaustive search over grid-restricted
cyclic policies (the reference optimum for one or two commodities), and a
trapezoid numeric integrator that re-derives every evaluator quantity from
sampled trajectories instead of closed-form segment integrals.
"""

from __future__ import annotations

import numpy as np

from .errors import SearchSpaceExceeded
from .evaluator import EvalReport, FEASIBILITY_RTOL
from .model import CyclicPolicy, Instance

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Uniform sample points of `oracle_integrate_cost`, on top of the order instants.
INTEGRATION_SAMPLES = 100_000


def _subset_orders(mask: int, grid: np.ndarray, tau: float) -> tuple[tuple[float, float], ...]:
    """Zero-inventory orders on the chosen grid points; quantity spans to the
    next chosen point, wrapping around the cycle."""
    times = [grid[g] for g in range(len(grid)) if mask >> g & 1]
    orders = []
    for j, t in enumerate(times):
        nxt = times[j + 1] if j + 1 < len(times) else times[0] + tau
        orders.append((t, nxt - t))
    return tuple(orders)


def _subset_profile(mask: int, grid: np.ndarray, tau: float, m: int) -> tuple[float, float, np.ndarray]:
    """(cost factors, inventory at each grid point just after jumps) for a subset.

    Returns (order count, sum of squared gaps, levels at grid points).
    """
    pts = [grid[g] for g in range(m) if mask >> g & 1]
    count = len(pts)
    gap_sq = 0.0
    levels = np.empty(m)
    for j, t in enumerate(pts):
        nxt = pts[j + 1] if j + 1 < count else pts[0] + tau
        gap_sq += (nxt - t) ** 2
    # Level at grid point g = time until the next order after grid[g].
    for g in range(m):
        t = grid[g]
        nxt = None
        for p in pts:
            if p > t:
                nxt = p
                break
        if nxt is None:
            nxt = pts[0] + tau
        levels[g] = nxt - t
    return count, gap_sq, levels


def oracle_opt_cyclic(
    instance: Instance,
    tau: float,
    grid_points: int,
    max_orders: int | None = None,
) -> tuple[CyclicPolicy, float]:
    """Exhaustive optimum over per-commodity order subsets of a uniform grid.

    Zero-inventory quantities; the capacity check runs exactly at the grid
    points, where all peaks sit. Ties resolve to the smallest subset-mask
    pair, which makes the result deterministic.
    """
    n = instance.n
    if n > 2:
        raise SearchSpaceExceeded("oracle handles at most 2 commodities")
    if grid_points > 12:
        raise SearchSpaceExceeded("oracle grid is capped at 12 points")
    m = grid_points
    grid = np.arange(m) * (tau / m)
    max_orders = m if max_orders is None else min(max_orders, m)

    per = []
    for c in instance.commodities:
        masks, costs, profiles = [], [], []
        for mask in range(1, 2**m):
            count, gap_sq, levels = _subset_profile(mask, grid, tau, m)
            if count > max_orders:
                continue
            masks.append(mask)
            costs.append(c.K * count / tau + c.H * gap_sq / tau)
            profiles.append(c.gamma * levels)
        per.append((np.array(masks), np.array(costs), np.array(profiles)))

    cap = instance.V * (1.0 + FEASIBILITY_RTOL)
    if n == 1:
        masks, costs, profiles = per[0]
        feasible = profiles.max(axis=1) <= cap
        if not feasible.any():
            raise SearchSpaceExceeded("no feasible grid policy; refine the grid or capacity")
        idx = int(np.flatnonzero(feasible)[np.argmin(costs[feasible])])
        best_masks = (masks[idx],)
        best_cost = float(costs[idx])
    else:
        m1, c1, p1 = per[0]
        m2, c2, p2 = per[1]
        peak = np.full((len(m1), len(m2)), -np.inf)
        for g in range(m):
            np.maximum(peak, p1[:, g, None] + p2[None, :, g], out=peak)
        total = c1[:, None] + c2[None, :]
        total[peak > cap] = np.inf
        if not np.isfinite(total).any():
            raise SearchSpaceExceeded("no feasible grid policy; refine the grid or capacity")
        flat = int(np.argmin(total))  # row-major argmin = smallest mask pair on ties
        i, j = divmod(flat, len(m2))
        best_masks = (m1[i], m2[j])
        best_cost = float(total[i, j])

    schedules = {
        c.id: _subset_orders(mask, grid, tau)
        for c, mask in zip(instance.commodities, best_masks)
    }
    return CyclicPolicy(tau=tau, schedules=schedules), best_cost


def _sample_inventory(orders, tau: float, times: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Trajectory by direct accumulation: I(t) = c0 + orders placed up to t - t,
    with `after` choosing the one-sided value at order instants."""
    order_times = np.array([t for t, _ in orders])
    quantities = np.array([q for _, q in orders])
    cums = np.concatenate([[0.0], np.cumsum(quantities)])
    c0 = float(np.max(order_times - cums[:-1], initial=0.0))
    idx = np.searchsorted(order_times, times, side="right")
    idx_before = np.searchsorted(order_times, times, side="left")
    k = np.where(after, idx, idx_before)
    return c0 + cums[k] - times


def oracle_integrate_cost(policy: CyclicPolicy, instance: Instance) -> EvalReport:
    """Second opinion on the evaluator via trapezoid integration.

    The sample grid is the uniform grid plus every order instant duplicated
    with its before/after values, so the piecewise-linear trajectory is
    integrated without smearing the jumps.
    """
    tau = policy.tau
    uniform = np.linspace(0.0, tau, INTEGRATION_SAMPLES, endpoint=False)
    event_times = sorted({t for orders in policy.schedules.values() for t, _ in orders})
    events = np.array(event_times)
    times = np.concatenate([uniform, events, events, [tau]])
    after = np.concatenate(
        [
            np.ones_like(uniform, dtype=bool),
            np.zeros_like(events, dtype=bool),
            np.ones_like(events, dtype=bool),
            [False],
        ]
    )
    order = np.lexsort((after, times))
    times, after = times[order], after[order]

    ordering = 0.0
    holding = 0.0
    avg_inventory = {}
    space = np.zeros_like(times)
    for c in instance.commodities:
        if c.id not in policy.schedules:
            continue
        orders = policy.schedules[c.id]
        traj = _sample_inventory(orders, tau, times, after)
        avg = float(_trapezoid(traj, times)) / tau
        avg_inventory[c.id] = avg
        ordering += c.K * len(orders) / tau
        holding += 2.0 * c.H * avg
        space += c.gamma * traj
    v_max = float(space.max())
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )
