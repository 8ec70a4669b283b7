"""Exact evaluation of cyclic policies and stationary blocks.

Inventory trajectories are sawtooths: between orders each commodity's level
falls at unit rate, so occupied space is piecewise linear with negative slope
between jumps. Long-run averages are exact piecewise-linear integrals and the
peak is located exactly at order instants; no sampling is involved anywhere.

evaluate certifies a stationary block as the union of its commodities' own
one-order cycles, with the sawtooth arithmetic it applies to any schedule;
evaluate_sosi is the solvers' closed form, and the two share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

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


def _commodity_stats(orders: tuple[tuple[float, float], ...], tau: float) -> tuple[float, float]:
    """(average inventory, c0) of one commodity's periodic orders.

    c0 is the smallest inventory shift >= 0 keeping the trajectory
    I(t) = c0 + (orders placed up to t) - t nonnegative. Its within-cycle
    minima sit just before order instants, so c0 = max(0, max_k(t_k - sum of
    earlier q)); zero-inventory-ordering schedules get c0 = 0. The average is
    the exact integral of the sawtooth over one period, on the wraparound
    segments [t_k, t_{k+1}) with t_m = t_0 + tau, divided by tau.
    """
    c0 = cum = 0.0
    for t, q in orders:
        x = t - cum
        if x > c0:  # max(c0, x), with its tie and NaN rules
            c0 = x
        cum += q
    total = cum = 0.0
    t, q = orders[0]
    for t_next, q_next in orders[1:]:
        cum += q
        d = t_next - t
        total += (c0 + cum - t) * d - 0.5 * d * d
        t, q = t_next, q_next
    cum += q
    d = orders[0][0] + tau - t
    total += (c0 + cum - t) * d - 0.5 * d * d
    return total / tau, c0


def evaluate(policy: CyclicPolicy | SosiPolicy, instance: Instance) -> EvalReport:
    """Exact cost rates, average inventories, peak space, feasibility verdict.

    A SosiPolicy is certified as the union of the single-commodity policies
    CyclicPolicy(T, {id: ((phase, T),)}), one per commodity; see
    _evaluate_stationary. A schedule for an id the instance lacks raises
    KeyError.
    """
    if isinstance(policy, SosiPolicy):
        return _evaluate_stationary(policy, instance)
    tau = policy.tau
    schedules = policy.schedules
    commodities = instance.commodities
    stats = _commodity_stats
    ordering = holding = w0 = gamma_total = 0.0
    avg_inventory: dict[int, float] = {}
    # W(t) = sum_i gamma_i * (c0_i + orders_i(t)); occupied space is W(t) - Gamma*t,
    # so the exact peak is max over order instants (just after the jump).
    events: dict[float, float] = {}
    get = events.get
    # instance order, so the float sums do not depend on the policy's key order
    for k in sorted(map(instance.position, schedules)):
        c = commodities[k]
        orders = schedules[c.id]
        avg_i, c0 = stats(orders, tau)
        avg_inventory[c.id] = avg_i
        ordering += c.K * len(orders) / tau
        holding += 2.0 * c.H * avg_i
        gamma = c.gamma
        w0 += gamma * c0
        gamma_total += gamma
        for t, q in orders:
            events[t] = get(t, 0.0) + gamma * q

    v_max = w = w0  # value at t=0 when no order is placed there
    for t in sorted(events):
        w += events[t]
        x = w - gamma_total * t
        if x > v_max:  # max(v_max, x), with its tie and NaN rules
            v_max = x

    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )


def _evaluate_stationary(policy: SosiPolicy, instance: Instance) -> EvalReport:
    """evaluate() of a stationary block, in one array pass over the
    instance's columns, in instance order.

    Commodity i runs its own cycle T_i with one order (phi_i, T_i). Each
    per-commodity term is formed with the arithmetic evaluate applies to that
    one-order schedule: _commodity_stats's c0 = max(0, phi) and wraparound
    segment of length (phi + T) - phi, the ordering rate K * 1 / T, the
    holding rate 2H * avg, and the peak at the order instant,
    max(gamma*c0, (gamma*c0 + gamma*T) - gamma*phi). So each average
    inventory is bit-equal to that single-commodity evaluate. The block's
    rates and peak are the left-to-right sums of those terms in instance
    order; the peak is thus the summed per-commodity peaks, the certificate
    of a union of blocks. An id the instance lacks raises evaluate's
    KeyError.
    """
    pos = instance.positions(policy.intervals_T)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    T = policy.column[order]
    if policy.phases:
        phi = np.array([float(policy.phase(cid)) for cid in policy.intervals_T])[order]
    else:
        phi = np.zeros(len(T))
    cols = instance.columns
    K, H, gamma = cols.K[pos], cols.H[pos], cols.gamma[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = np.where(phi > 0, phi, 0.0)
        d = (phi + T) - phi
        avg = (0.0 + (((c0 + T) - phi) * d - 0.5 * d * d)) / T  # total = 0.0; total += ...; total / tau
        w0 = gamma * c0
        x = (w0 + gamma * T) - gamma * phi
        peak = np.where(x > w0, x, w0)  # max(w0, x), with its tie and NaN rules
        ordering = _running_sum(K * 1 / T)
        holding = _running_sum(2.0 * H * avg)
        v_max = _running_sum(peak)
    ids = cols.ids
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=dict(zip(map(ids.__getitem__, pos.tolist()), avg.tolist())),
        feasible_at=instance.V,
    )


def evaluate_couples(
    templates: Sequence[CyclicPolicy], which: Sequence[int], ids: Sequence[int], instance: Instance
) -> list[EvalReport]:
    """evaluate() of every couple of a batch, in one array pass.

    Couple j runs the two-commodity schedule templates[which[j]], whose first
    schedule goes to ids[2j] and second to ids[2j+1]. Each template's sawtooth
    statistics are taken once with `_commodity_stats`; the cost rates, the
    baseline and the event-ordered peak scan are formed over the instance's
    parameter columns, one couple per row, with evaluate's own arithmetic.
    That is bit-identical to evaluate, because each of its per-couple sums has
    two terms and a two-term float sum does not depend on the order evaluate
    visits the pair in; an instant where only one schedule orders adds the
    other's gamma * 0.0, which leaves the sum as it is. The peak scan keeps
    max's tie and NaN rules, and avg_inventory lists the pair in instance
    order. An id the instance lacks raises evaluate's KeyError, the first in
    `ids` order.
    """
    if not ids:
        return []
    pos = instance.positions(ids).reshape(-1, 2)
    # one row per template: tau, the order counts, (avg, c0) of both
    # schedules, then the order instants, A's and B's quantity at each. Rows
    # are padded to a common width with instants at t = inf where neither
    # orders: that leaves the running sum as it is and offers no larger peak.
    parts = []
    for policy in templates:
        a, b = policy.schedules.values()
        qa, qb = dict(a), dict(b)
        times = sorted(qa.keys() | qb.keys())
        head = [policy.tau, len(a), len(b), *_commodity_stats(a, policy.tau), *_commodity_stats(b, policy.tau)]
        parts.append((head, times, [qa.get(t, 0.0) for t in times], [qb.get(t, 0.0) for t in times]))
    width = max(len(times) for _, times, _, _ in parts)
    rows = []
    for head, times, qa, qb in parts:
        pad = [0.0] * (width - len(times))
        rows.append(head + times + [math.inf] * len(pad) + qa + pad + qb + pad)
    table = np.array(rows)[np.asarray(which, dtype=np.intp)]
    tau, m_a, m_b, avg_a, c0_a, avg_b, c0_b = table[:, :7].T
    t_at, qa_at, qb_at = table[:, 7:].reshape(len(table), 3, width).transpose(1, 0, 2)

    cols = instance.columns
    K, H, gamma = cols.K[pos].T, cols.H[pos].T, cols.gamma[pos].T
    with np.errstate(over="ignore", invalid="ignore"):
        ordering = K[0] * m_a / tau + K[1] * m_b / tau
        holding = 2.0 * H[0] * avg_a + 2.0 * H[1] * avg_b
        gamma_total = gamma[0] + gamma[1]
        v_max = w = gamma[0] * c0_a + gamma[1] * c0_b
        for j in range(width):
            w = w + (gamma[0] * qa_at[:, j] + gamma[1] * qb_at[:, j])
            x = w - gamma_total * t_at[:, j]
            v_max = np.where(x > v_max, x, v_max)  # max(v_max, x), with its tie and NaN rules

    V = instance.V
    reports = []
    couples = zip(
        ids[0::2],
        ids[1::2],
        (pos[:, 0] < pos[:, 1]).tolist(),
        ordering.tolist(),
        holding.tolist(),
        v_max.tolist(),
        avg_a.tolist(),
        avg_b.tolist(),
    )
    for a, b, a_first, o, h, v, avg_a_j, avg_b_j in couples:
        avg_inventory = {a: avg_a_j, b: avg_b_j} if a_first else {b: avg_b_j, a: avg_a_j}
        reports.append(EvalReport(o, h, v, avg_inventory, V))
    return reports


def _running_sum(terms: np.ndarray) -> float:
    """The left-to-right float sum of `terms`, as a `+=` loop forms it."""
    return float(np.add.accumulate(terms)[-1])


def evaluate_sosi(policy: SosiPolicy, instance: Instance) -> EvalReport:
    """Closed-form report for a stationary policy.

    Peak space is reported as sum(gamma_i * T_i): exact for all-zero phases
    (every sawtooth peaks at t=0 simultaneously) and a supremum bound
    otherwise, which is the conservative direction for feasibility. An
    interval for an id the instance lacks raises KeyError.

    The terms are formed on the policy's interval column and the instance's
    parameter columns, and each rate is their left-to-right sum in the key
    order of `intervals_T` (a running `np.add.accumulate`, never a pairwise
    `np.sum`), so the report depends on that order exactly as a scalar loop
    over the intervals would.
    """
    pos = instance.positions(policy.intervals_T)
    cols = instance.columns
    T = policy.column
    with np.errstate(over="ignore"):
        ordering = _running_sum(cols.K[pos] / T)
        holding = _running_sum(cols.H[pos] * T)
        v_max = _running_sum(cols.gamma[pos] * T)
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=dict(zip(policy.intervals_T, (T / 2.0).tolist())),
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
        if not avg_inventory.keys().isdisjoint(rep.avg_inventory):
            overlap = avg_inventory.keys() & rep.avg_inventory.keys()
            raise ValueError(f"reports overlap on commodities {sorted(overlap)}")
        avg_inventory.update(rep.avg_inventory)
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )
