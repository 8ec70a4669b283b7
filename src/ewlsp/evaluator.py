"""Exact evaluation of cyclic policies.

Inventory trajectories are sawtooths: between orders each commodity's level
falls at unit rate, so occupied space is piecewise linear with negative slope
between jumps. Long-run averages are exact piecewise-linear integrals and the
peak is located exactly at order instants; no sampling is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import CyclicPolicy, Instance, SosiPolicy

# Peak space may exceed capacity by this relative float-safety margin and the
# policy is still ruled feasible.
FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class EvalReport:
    """Cost decomposition, peak space, and capacity verdict of one policy."""

    ordering_cost_rate: float
    holding_cost_rate: float
    v_max: float
    avg_inventory: Mapping[int, float]
    feasible_at: float

    @property
    def total_cost_rate(self) -> float:
        return self.ordering_cost_rate + self.holding_cost_rate

    @property
    def feasible(self) -> bool:
        """Peak space within the capacity, up to FEASIBILITY_RTOL."""
        return self.v_max <= self.feasible_at * (1.0 + FEASIBILITY_RTOL)

    def to_json(self) -> dict:
        return {
            "ordering_cost_rate": self.ordering_cost_rate,
            "holding_cost_rate": self.holding_cost_rate,
            "total_cost_rate": self.total_cost_rate,
            "v_max": self.v_max,
            "avg_inventory": {str(k): v for k, v in sorted(self.avg_inventory.items())},
            "feasible_at": self.feasible_at,
            "feasible": self.feasible,
        }


def _steady_state_baseline(orders: tuple[tuple[float, float], ...]) -> float:
    """Smallest inventory shift c0 >= 0 keeping the periodic trajectory nonnegative.

    With I(t) = c0 + (orders placed up to t) - t, the within-cycle minima sit
    just before order instants, so c0 = max(0, max_k(t_k - sum of earlier q)).
    Zero-inventory-ordering schedules get c0 = 0.
    """
    c0 = 0.0
    cum = 0.0
    for t, q in orders:
        c0 = max(c0, t - cum)
        cum += q
    return c0


def _commodity_stats(orders: tuple[tuple[float, float], ...], tau: float) -> tuple[float, float]:
    """(average inventory, level just after each order is handled by caller).

    Integrates the sawtooth exactly over one period using the wraparound
    segment decomposition [t_k, t_{k+1}) with t_m = t_0 + tau.
    """
    c0 = _steady_state_baseline(orders)
    m = len(orders)
    total = 0.0
    cum = 0.0
    for k, (t, q) in enumerate(orders):
        cum += q
        level = c0 + cum - t
        t_next = orders[k + 1][0] if k + 1 < m else orders[0][0] + tau
        d = t_next - t
        total += level * d - 0.5 * d * d
    return total / tau, c0


def evaluate(policy: CyclicPolicy, instance: Instance) -> EvalReport:
    """Exact cost rates, average inventories, peak space, feasibility verdict."""
    tau = policy.tau
    for cid in policy.schedules:
        if cid not in instance:
            raise KeyError(f"policy references commodity {cid} missing from instance")

    ordering = 0.0
    holding = 0.0
    avg_inventory: dict[int, float] = {}
    # W(t) = sum_i gamma_i * (c0_i + orders_i(t)); occupied space is W(t) - Gamma*t,
    # so the exact peak is max over order instants (just after the jump).
    events: dict[float, float] = {}
    w0 = 0.0
    gamma_total = 0.0
    # instance order, so the float sums do not depend on the policy's key order
    for k in sorted(instance.position(cid) for cid in policy.schedules):
        c = instance.commodities[k]
        orders = policy.schedules[c.id]
        avg_i, c0 = _commodity_stats(orders, tau)
        avg_inventory[c.id] = avg_i
        ordering += c.K * len(orders) / tau
        holding += 2.0 * c.H * avg_i
        w0 += c.gamma * c0
        gamma_total += c.gamma
        for t, q in orders:
            events[t] = events.get(t, 0.0) + c.gamma * q

    v_max = w0  # value at t=0 when no order is placed there
    w = w0
    for t in sorted(events):
        w += events[t]
        v_max = max(v_max, w - gamma_total * t)

    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )


def evaluate_sosi(policy: SosiPolicy, instance: Instance) -> EvalReport:
    """Closed-form report for a stationary policy.

    Peak space is reported as sum(gamma_i * T_i): exact for all-zero phases
    (every sawtooth peaks at t=0 simultaneously) and a supremum bound
    otherwise, which is the conservative direction for feasibility.
    """
    policy.validate_against(instance)
    ordering = 0.0
    holding = 0.0
    v_max = 0.0
    avg_inventory = {}
    for cid, T in policy.intervals_T.items():
        c = instance.commodity(cid)
        ordering += c.K / T
        holding += c.H * T
        v_max += c.gamma * T
        avg_inventory[cid] = T / 2.0
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )


def combine_reports(reports: Iterable[EvalReport], instance: Instance) -> EvalReport:
    """Aggregate reports of policies over disjoint commodity sets.

    Cost rates and average inventories add exactly. The combined peak is
    reported as the sum of per-part peaks: an upper bound on the true joint
    peak (parts need not peak together), hence sound for feasibility checks;
    it is exact when all parts peak at a common instant, e.g. phase-0
    stationary parts.
    """
    ordering = holding = v_max = 0.0
    avg_inventory: dict[int, float] = {}
    for rep in reports:
        ordering += rep.ordering_cost_rate
        holding += rep.holding_cost_rate
        v_max += rep.v_max
        overlap = set(avg_inventory) & set(rep.avg_inventory)
        if overlap:
            raise ValueError(f"reports overlap on commodities {sorted(overlap)}")
        avg_inventory.update(rep.avg_inventory)
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )
