"""Exact evaluation of cyclic policies and stationary blocks.

Inventory trajectories are sawtooths: between orders each commodity's level
falls at unit rate, so occupied space is piecewise linear with negative slope
between jumps. Long-run averages are exact piecewise-linear integrals and the
peak is located exactly at order instants; no sampling is involved anywhere.

evaluate certifies a stationary block as the union of its commodities' own
one-order cycles, with the sawtooth arithmetic it applies to any schedule;
evaluate_sosi is the solvers' closed form, and the two share no code.

A couple block is evaluated by _evaluate_couples in a fixed number of
array passes per group of its templates that share a pair of order counts:
the group's sawtooth statistics at once, its instants in one table, then
the rates and the peak scan of all its couples. A rounded dense class has
one couple block, whose policy couples.couple_policy builds from its near
pairs' columns, holding every pair to the one set of couple rules
(couples.pair_powers), and which is written as one couples entry. A union
of blocks is certified by combine_reports over one report per block, in
order, both in the sub2 solver's report (pipeline.AssembledPolicy.report)
and in `ewlsp eval` of its written entries; a couple block's report there
is evaluate's of its entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable

import numpy as np

from .model import CouplePolicy, CyclicPolicy, IdColumn, Instance, SosiPolicy

# Peak space may exceed capacity by this relative float-safety margin and the
# policy is still ruled feasible.
FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class EvalReport:
    """Cost decomposition, peak space, and capacity verdict of one policy."""

    ordering_cost_rate: float
    holding_cost_rate: float
    v_max: float
    # id -> long-run average inventory, from every evaluator
    avg_inventory: IdColumn
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


def evaluate(policy: CyclicPolicy | SosiPolicy | CouplePolicy, instance: Instance) -> EvalReport:
    """Exact cost rates, average inventories, peak space, feasibility verdict.

    A SosiPolicy is certified as the union of the single-commodity policies
    CyclicPolicy(T, {id: ((phase, T),)}), one per commodity; see
    _evaluate_stationary. A CouplePolicy is certified as the union of its
    couples' two-commodity policies, in one pass (_evaluate_couples): the
    report is bit-equal to combine_reports over evaluate of each couple's
    own policy. A CyclicPolicy is read off the instance's columns.
    A schedule for an id the instance lacks raises KeyError.
    """
    if isinstance(policy, SosiPolicy):
        return _evaluate_stationary(policy, instance)
    if isinstance(policy, CouplePolicy):
        return _evaluate_couples(policy, instance)
    tau = policy.tau
    schedules = policy.schedules
    cols = instance.columns
    stats = _commodity_stats
    ordering = holding = w0 = gamma_total = 0.0
    avg = []
    # W(t) = sum_i gamma_i * (c0_i + orders_i(t)); occupied space is W(t) - Gamma*t,
    # so the exact peak is max over order instants (just after the jump).
    events: dict[float, float] = {}
    get = events.get
    # instance order, so the float sums do not depend on the policy's key order
    rows = sorted(map(instance.position, schedules))
    for k in rows:
        orders = schedules[cols.ids[k]]
        avg_i, c0 = stats(orders, tau)
        avg.append(avg_i)
        ordering += cols.K.item(k) * len(orders) / tau
        holding += 2.0 * cols.H.item(k) * avg_i
        gamma = cols.gamma.item(k)
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
        avg_inventory=IdColumn(map(cols.ids.__getitem__, rows), avg),
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
    of a union of blocks. `avg_inventory` is an IdColumn in instance order.
    An id the instance lacks raises evaluate's KeyError.
    """
    intervals = policy.intervals_T
    pos = instance.positions(intervals.ids)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    T = intervals.column[order]
    if policy.phases:
        phi = np.array([float(policy.phase(cid)) for cid in intervals.ids])[order]
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
        avg_inventory=IdColumn(map(ids.__getitem__, pos.tolist()), avg),
        feasible_at=instance.V,
    )


def _evaluate_couples(policy: CouplePolicy, instance: Instance) -> EvalReport:
    """evaluate() of a couple block, in a fixed number of array passes per
    group of templates that share a pair of order counts.

    Couple j runs the two-commodity schedule templates[which[j]], whose first
    schedule goes to ids[2j] (A) and second to ids[2j+1] (B). The templates
    are grouped by their pair of order counts, in order of first occurrence,
    and each group's orders are read into one array: the group's sawtooth
    statistics are taken at once (_sawtooth_stats, bit-equal to
    `_commodity_stats` of each schedule), and its instants, where either
    schedule orders, are held in one table of the group's width, the two
    counts' sum (_instants). The cost rates, the baseline and the peak scan
    are formed over the instance's parameter columns, one couple per column,
    with evaluate's own arithmetic. Each couple's terms are thus
    bit-identical to evaluate of its own policy, because each of its
    per-couple sums has two terms and a two-term float sum does not depend on
    the order evaluate visits the pair in; an instant where only one
    schedule orders adds the other's gamma * 0.0, which leaves the sum as it
    is. The peak scan (_peaks) takes the couples of one group at a time, so
    a long schedule (a k >= 5 couple) pads no short one. The block's rates
    and peak are 0.0 plus each couple's term in turn, in `which` order, so
    the report is bit-equal to combine_reports over evaluate of each
    couple's own policy; `avg_inventory` is an IdColumn of each couple's two
    ids in instance order. An id the instance lacks raises evaluate's
    KeyError, the first in `ids` order.
    """
    templates, ids = policy.templates, policy.ids
    # each couple's A and B positions, one column per couple
    pos = instance.positions(ids).reshape(-1, 2).T
    n, m = len(policy.which), len(templates)
    which = np.fromiter(policy.which, dtype=np.intp, count=n)
    schedules = [tuple(template.schedules.values()) for template in templates]
    groups = {}
    for t, (a, b) in enumerate(schedules):
        groups.setdefault((len(a), len(b)), []).append(t)
    columns = instance.columns
    # each of shape (2, couples), A's row then B's
    K, H, gamma = columns.K.take(pos), columns.H.take(pos), columns.gamma.take(pos)
    # one column per template, the groups' templates in turn: the order
    # counts, the averages and the baselines c0 of A and B, and tau; and each
    # group's first column and instant table
    head = np.empty((7, m))
    tables, first = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for (count_a, count_b), members in groups.items():
            cols = slice(first, first + len(members))
            head[0, cols], head[1, cols] = count_a, count_b
            head[6, cols] = [templates[t].tau for t in members]
            head[2:6, cols], table = _template_group([schedules[t] for t in members], head[6, cols], count_a)
            tables.append((first, table))
            first += len(members)
        # each couple's column in `head`, where the groups' templates come in turn
        if len(groups) == 1:
            col = which
        else:
            col = np.empty(m, dtype=np.intp)
            col[[t for members in groups.values() for t in members]] = np.arange(m)
            col = col[which]
        head = head.take(col, axis=1)
        pair = np.array((K, 2.0 * H, gamma, gamma))
        pair[:3] *= head[:6].reshape(3, 2, n)  # K*m, 2H*avg, gamma*c0
        pair[0] /= head[6]
        # the ordering and holding rates and the baseline w0 of each couple,
        # then its total gamma
        terms = pair[:, 0] + pair[:, 1]
        for first, table in tables:
            # the couples whose template is in this group, and their columns in its table
            if len(groups) == 1:
                r, at = slice(None), col
            else:
                r = np.flatnonzero((col >= first) & (col < first + table.shape[2]))
                at = col[r] - first
            terms[2, r] = _peaks(table.take(at, axis=2), gamma[:, r], terms[2, r], terms[3, r])
        ordering, holding, v_max = (0.0 + np.add.accumulate(terms[:3], axis=1)[:, -1]).tolist()
    # each pair's keys in instance order: B's first unless A comes first
    order = np.arange(2 * n) ^ (pos[1] <= pos[0]).repeat(2)
    avg = head[2:4].T.take(order)
    avg.flags.writeable = False
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=IdColumn(itemgetter(*order.tolist())(ids), avg),
        feasible_at=instance.V,
    )


def _template_group(pairs: list, tau: np.ndarray, count_a: int) -> tuple[np.ndarray, np.ndarray]:
    """The sawtooth statistics and the instant table of templates that share
    a pair of order counts: pairs[s] is template s's (A's orders, B's
    orders), tau[s] its cycle and count_a A's order count. The orders are
    read into one array, the times and the quantities one row per order (A's,
    then B's) and one column per template. The statistics' rows are A's and
    B's averages, then their baselines c0, one column per template, each
    bit-equal to `_commodity_stats` of that schedule (_sawtooth_stats, A's
    and B's schedules in one pass when their counts agree); the table is
    _instants'. The caller sets numpy's error state: a huge cycle overflows
    as _commodity_stats' float arithmetic does, to inf or NaN."""
    width = len(pairs[0][0]) + len(pairs[0][1])
    flat = chain.from_iterable(chain.from_iterable(chain.from_iterable(pairs)))
    orders = np.fromiter(flat, dtype=float, count=2 * width * len(pairs)).reshape(-1, width, 2)
    times, quantities = orders.T.copy()
    stats = np.empty((4, len(pairs)))
    if 2 * count_a == width:
        sides = (2, count_a, len(pairs))
        both = (times.reshape(sides).transpose(1, 0, 2), quantities.reshape(sides).transpose(1, 0, 2))
        stats[:2], stats[2:] = _sawtooth_stats(*both, tau)
    else:
        stats[0], stats[2] = _sawtooth_stats(times[:count_a], quantities[:count_a], tau)
        stats[1], stats[3] = _sawtooth_stats(times[count_a:], quantities[count_a:], tau)
    return stats, _instants(times, quantities, count_a)


def _sawtooth_stats(times: np.ndarray, quantities: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_commodity_stats` of schedules with one order count, at once: axis 0
    runs over the orders, and each position along the other axes is one
    schedule, with its cycle in tau (broadcast against them). Each
    (average, c0) is formed with `_commodity_stats`' left-to-right
    arithmetic, so it is bit-equal: the running quantity sums are
    np.add.accumulate's (the first is q_0, as 0.0 + q_0 is, every q being
    > 0); c0 is the largest t_k - (earlier quantities) above 0.0, else 0.0,
    NaNs passed over as `x > c0` does; and the average is 0.0 plus each
    wraparound segment's term in turn, divided by tau. One-order schedules
    take that arithmetic without the running sums, as _evaluate_stationary
    does: c0 = max(0, t_0) and one segment of length (t_0 + tau) - t_0."""
    if len(times) == 1:
        t, q = times[0], quantities[0]
        c0 = np.where(t > 0.0, t, 0.0)
        d = (t + tau) - t
        return (0.0 + (((c0 + q) - t) * d - 0.5 * d * d)) / tau, c0
    cum = np.add.accumulate(quantities, axis=0)
    x = times.copy()
    d = np.empty_like(times)
    x[1:] -= cum[:-1]
    np.subtract(times[1:], times[:-1], out=d[:-1])
    c0 = np.fmax.reduce(x, axis=0)
    c0 = np.where(c0 > 0.0, c0, 0.0)
    d[-1] = (times[0] + tau) - times[-1]
    segments = ((c0 + cum) - times) * d - 0.5 * d * d
    return (0.0 + np.add.accumulate(segments, axis=0)[-1]) / tau, c0


def _instants(times: np.ndarray, quantities: np.ndarray, count_a: int) -> np.ndarray:
    """The instant table of templates with one pair of order counts: column
    s of times (quantities) holds template s's order times (quantities),
    A's count_a then B's. The table holds the times in ascending order, A's
    quantity at each and B's, one column per template; columns already in
    order, as every couple_template's are (A orders once, at 0), are not
    sorted again. An instant where both order is held once, in the first of
    its two slots; the second keeps its time with no quantity, which changes
    no level and so no peak. Columns whose times strictly ascend, as those
    of every couple_template with k <= 3 do, have no such instant."""
    width, s = times.shape
    table = np.zeros((3, width, s))
    table[0] = times
    table[1, :count_a] = quantities[:count_a]
    table[2, count_a:] = quantities[count_a:]
    if (times[:-1] < times[1:]).all():
        return table
    if not (times[:-1] <= times[1:]).all():
        # stable, so A's order comes first at an instant where both order
        table = table[:, np.argsort(times, axis=0, kind="stable"), np.arange(s)]
    shared = table[0, 1:] == table[0, :-1]
    if shared.any():
        k, col = np.nonzero(shared)
        table[2, k, col] = table[2, k + 1, col]
        table[2, k + 1, col] = 0.0
    return table


def _peaks(instants: np.ndarray, gamma: np.ndarray, w0: np.ndarray, gamma_total: np.ndarray) -> np.ndarray:
    """evaluate()'s peak of each couple, for couples whose templates share
    one instant table width: column j of instants[0] holds couple j's
    instants, of instants[1] and instants[2] A's and B's quantity at each,
    and column j of gamma its A's and B's gamma. The level after each
    instant is a running sum from the baseline w0, and the peak is the
    largest of the baseline and the candidates, NaNs (inf - inf) passed
    over: evaluate's max(v_max, x) chain, since neither the baseline nor a
    candidate is NaN or -0.0 there."""
    added = gamma[0] * instants[1] + gamma[1] * instants[2]
    added[0] += w0
    level = np.add.accumulate(added, axis=0)
    level -= gamma_total * instants[0]
    return np.fmax(np.fmax.reduce(level, axis=0), w0)


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
    over the intervals would. `avg_inventory` is an IdColumn over the
    policy's ids, the column T / 2: no per-commodity dict is built unless a
    caller reads an item.
    """
    intervals = policy.intervals_T
    pos = instance.positions(intervals.ids)
    cols = instance.columns
    T = intervals.column
    with np.errstate(over="ignore"):
        ordering = _running_sum(cols.K[pos] / T)
        holding = _running_sum(cols.H[pos] * T)
        v_max = _running_sum(cols.gamma[pos] * T)
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=IdColumn(intervals.ids, T / 2.0),
        feasible_at=instance.V,
    )


def combine_reports(reports: Iterable[EvalReport], instance: Instance) -> EvalReport:
    """Aggregate reports of policies over disjoint commodity sets.

    Cost rates and average inventories add exactly: each rate is 0.0 plus
    every report's in turn, left to right. The combined peak is reported as
    the sum of per-part peaks: an upper bound on the true joint peak (parts
    need not peak together), hence sound for feasibility checks; it is exact
    when all parts peak at a common instant, e.g. phase-0 stationary parts.
    `avg_inventory` is an IdColumn of the parts' ids and averages,
    concatenated in order (a lone report's averages are kept as they are),
    and no per-commodity dict is built. The first report, in order, that
    shares a commodity with an earlier one raises a ValueError naming the
    shared ids; a lone report has no earlier one, so its ids are not
    gathered. The ids checked are those each report's policy names, so this
    is the overlap check of the sub2 solver's union of blocks
    (pipeline.AssembledPolicy.report, run on every solve); the policy
    parser checks a file's blocks on its own.
    """
    reports = list(reports)
    ordering = holding = v_max = 0.0
    for rep in reports:
        ordering += rep.ordering_cost_rate
        holding += rep.holding_cost_rate
        v_max += rep.v_max
    if len(reports) == 1:
        avg_inventory = reports[0].avg_inventory
    else:
        ids: list = []
        seen: set = set()
        for rep in reports:
            avg = rep.avg_inventory
            if not seen.isdisjoint(avg):
                raise ValueError(f"reports overlap on commodities {sorted(seen.intersection(avg))}")
            seen.update(avg)
            ids += avg
        avg_inventory = IdColumn(ids, np.concatenate([rep.avg_inventory.column for rep in reports]) if reports else ())
    return EvalReport(
        ordering_cost_rate=ordering,
        holding_cost_rate=holding,
        v_max=v_max,
        avg_inventory=avg_inventory,
        feasible_at=instance.V,
    )
