"""Joint two-commodity schedules for near-equal peak-space pairs.

Two stationary policies whose intervals differ by an exact power of two and
whose peak-space products gamma*T nearly agree admit a joint periodic
schedule that trades a small per-commodity cost blow-up for a strictly
smaller shared peak: the product of the two ratios drops below one, which is
what the randomized pipeline exploits pair by pair.

Construction is dispatched on k = log2(T_A/T_B). The schedule normalized to
T_A = 1 depends on k alone: it is built once per k in exact rational
arithmetic and kept as immutable tuples, and read once per k into a table
of integer (numerator, denominator) pairs. couple_template rescales each
rational p/q of it by T_A = m/d as the integer division (p*m)/(q*d), which
Python rounds correctly, so every float equals float(Fraction(p, q) *
Fraction(T_A)); floats appear only at the CyclicPolicy boundary.

The couple rules exist once, in pair_powers, which checks a column of pairs
in one array pass and gives each its k. A CoupleInput is one pair held to
them, and synthesize_couple builds its template. couple_policy builds a
dense class's CouplePolicy from the columns of its near pairs, one
couple_template per distinct (k, T_A), since a couple depends on (k, T_A)
and its two ids alone, with no CoupleInput per pair; the distinct keys and
each pair's template are found in array passes.

The published per-case guarantee table is kept alongside the slightly
sharper constants that direct evaluation of these schedules yields (they
differ only for k = 4, where the published peak constant 7/4 is attained as
an upper bound while the schedule itself peaks at 55/32).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NotAPowerOfTwo, SpaceMismatch
from .model import Commodity, CouplePolicy, CyclicPolicy

_F = Fraction

# case id -> (published peak ratio over gamma_A*avg_A + gamma_B*avg_B,
#             published per-commodity cost blow-up bound)
CLAIMED_RATIOS: dict[int, tuple[Fraction, Fraction]] = {
    1: (_F(3, 2), _F(1)),
    2: (_F(5, 3), _F(1)),
    3: (_F(27, 16), _F(32, 31)),
    4: (_F(2201, 1280), _F(32, 31)),
    5: (_F(7, 4), _F(32, 31)),
    6: (_F(7, 4), _F(33, 32)),
}

# Peak ratios the constructions below actually attain on exact-equal inputs,
# verified by direct evaluation of every order instant. Only case 5 is
# sharper than its published bound: its first checkpoint carries the
# 31/32-scaled first commodity, giving 31/32 + 3/4 = 55/32.
EXACT_VMAX_RATIOS: dict[int, Fraction] = {
    1: _F(3, 2),
    2: _F(5, 3),
    3: _F(27, 16),
    4: _F(2201, 1280),
    5: _F(55, 32),
    6: _F(7, 4),
}

SUB1_PEAK_FACTOR = _F(7, 8)  # joint peak <= (1+eps) * 7/8 * (gamma_A*T_A + gamma_B*T_B)


def pair_powers(T_A, T_B, gamma_A, gamma_B, eps: float) -> np.ndarray:
    """Each pair's k = log2(T_A/T_B), in one array pass, pair j joining
    commodity A (T_A[j], gamma_A[j]) and commodity B (T_B[j], gamma_B[j]).

    The couple rules, in order: both intervals > 0; T_B a normal float, as
    below it the scaled orders would collide in the subnormal range; T_B <=
    T_A to a relative 1e-12; eps in (0, 1); log2(T_A/T_B), by np.log2,
    within 1e-9 of an integer; gamma_A*T_A / (gamma_B*T_B) in
    [1/(1+eps), 1+eps], widened by 1e-12. A NaN interval breaks the first
    rule, and a NaN, infinite or zero ratio T_A/T_B the power-of-two rule.
    The first pair, in order, that breaks a rule raises the first rule it
    breaks; the rules are told apart only once some pair breaks one."""
    T_A, T_B = np.asarray(T_A, dtype=float), np.asarray(T_B, dtype=float)
    gamma_A, gamma_B = np.asarray(gamma_A, dtype=float), np.asarray(gamma_B, dtype=float)
    eps_ok = 0 < eps < 1
    # with a bad eps every pair breaks the eps rule first, so no space ratio fits
    lo, hi = (1.0 / (1.0 + eps) - 1e-12, 1.0 + eps + 1e-12) if eps_ok else (math.nan, math.nan)
    with np.errstate(all="ignore"):
        ratio = T_A / T_B
        x = np.log2(ratio)
        k = np.rint(x)
        space = (gamma_A * T_A) / (gamma_B * T_B)
        normal = T_B >= sys.float_info.min
        ordered = T_B <= T_A * (1 + 1e-12)
        power = np.abs(x - k) <= 1e-9
        fits = (lo <= space) & (space <= hi)
    # a pair keeping these four keeps every rule: T_A >= T_B > 0, no NaN, eps in (0, 1)
    if not (normal & ordered & power & fits).all():
        rules = (
            (~((T_A > 0) & (T_B > 0)), ValueError, "intervals must be > 0"),
            (~normal, ValueError, "T_B = {T_B!r} is below the smallest normal float"),
            (~ordered, ValueError, "require T_B <= T_A"),
            (np.full(T_A.shape, not eps_ok), ValueError, "epsilon must lie in (0, 1)"),
            (~power, NotAPowerOfTwo, "T_A/T_B = {ratio!r} is not an integer power of two"),
            (~fits, SpaceMismatch, "gamma_A*T_A / (gamma_B*T_B) = {space!r} outside [1/(1+eps), 1+eps]"),
        )
        j = int(np.argmax(np.any([broken for broken, _, _ in rules], axis=0)))
        error, message = next((error, message) for broken, error, message in rules if broken[j])
        raise error(message.format(T_B=T_B[j].item(), ratio=ratio[j].item(), space=space[j].item()))
    return k.astype(np.intp)


@dataclass(frozen=True)
class CoupleInput:
    """One pair held to the couple rules (pair_powers), and its k."""

    commodity_A: Commodity
    commodity_B: Commodity
    T_A: float
    T_B: float
    epsilon: float
    k: int = field(init=False)

    def __post_init__(self):
        a, b = self.commodity_A.gamma, self.commodity_B.gamma
        (k,) = pair_powers([self.T_A], [self.T_B], [a], [b], self.epsilon).tolist()
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class CoupleSchedule:
    case_id: int
    policy: CyclicPolicy
    claimed_vmax_ratio: Fraction
    exact_vmax_ratio: Fraction
    claimed_cost_ratio: Fraction


_Orders = tuple[tuple[Fraction, Fraction], ...]


def _zio_orders(start: Fraction, quantities: Sequence[Fraction]) -> _Orders:
    """Zero-inventory orders: each order lands exactly when the last runs out."""
    orders = []
    t = start
    for q in quantities:
        orders.append((t, q))
        t += q
    return tuple(orders)


@functools.cache
def _normalized_schedules(k: int) -> tuple[Fraction, _Orders, _Orders]:
    """(cycle, A-orders, B-orders) for T_A = 1, T_B = 2**-k, in exact rationals."""
    T_B = _F(1, 2**k)
    if k == 0:
        # Both stationary, half-cycle offset.
        return _F(1), _zio_orders(_F(0), [_F(1)]), _zio_orders(_F(1, 2), [_F(1)])
    if k == 1:
        return _F(1), _zio_orders(_F(0), [_F(1)]), _zio_orders(_F(1, 3), [_F(1, 2), _F(1, 2)])
    if k == 2:
        tau = _F(31, 32)
        b = _zio_orders(_F(5, 32), [_F(7, 32), _F(1, 4), _F(1, 4), _F(1, 4)])
        return tau, _zio_orders(_F(0), [tau]), b
    if k == 3:
        tau = _F(31, 32)
        scales = [_F(27, 32), _F(19, 20), 1, 1, 1, 1, _F(153, 160), 1]
        b = _zio_orders(_F(3, 32), [s * T_B for s in scales])
        return tau, _zio_orders(_F(0), [tau]), b
    if k == 4:
        tau = _F(31, 32)
        quantities = [_F(3, 4) * T_B] * 6 + [T_B] * 7 + [_F(4, 3) * T_B] * 3
        b = _zio_orders(_F(0), quantities)
        return tau, _zio_orders(_F(0), [tau]), b
    # k >= 5: three segments of shrunk / stationary / stretched orders whose
    # counts 2**(k-1), 2**(k-2), 9*2**(k-5) are integral exactly when k >= 5.
    quantities = (
        [_F(3, 4) * T_B] * (2 ** (k - 1))
        + [T_B] * (2 ** (k - 2))
        + [_F(4, 3) * T_B] * (9 * 2 ** (k - 5))
    )
    return _F(1), _zio_orders(_F(0), [_F(1)]), _zio_orders(_F(0), quantities)


def couple_case(k: int) -> int:
    """The construction case of a couple with T_A/T_B = 2**k."""
    return min(k + 1, 6)


@functools.cache
def _integer_schedules(k: int) -> tuple[tuple[int, int], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """_normalized_schedules(k) as integers: the cycle's (numerator,
    denominator), then A's and B's orders, each as the (numerator,
    denominator) of its time followed by that of its quantity."""
    tau, a_orders, b_orders = _normalized_schedules(k)

    def pairs(orders: _Orders) -> tuple[tuple[int, ...], ...]:
        return tuple((t.numerator, t.denominator, q.numerator, q.denominator) for t, q in orders)

    return (tau.numerator, tau.denominator), pairs(a_orders), pairs(b_orders)


# couple_template skips CyclicPolicy's check for these k and T_A, where the
# rescaled schedule is proven to pass it
UNCHECKED_MAX_K = 12
UNCHECKED_T_A = (2.0**-1000, 2.0**1000)


def couple_template(k: int, T_A: float, id_A: int, id_B: int) -> CyclicPolicy:
    """The joint schedule for T_A/T_B = 2**k rescaled to T_A, commodity A's
    orders keyed by id_A and B's by id_B; it depends on nothing else. Each
    normalized value p/q is read from the integer table of k
    (_integer_schedules) and rescaled by T_A = m/d as (p*m)/(q*d).

    For 0 <= k <= UNCHECKED_MAX_K and T_A within UNCHECKED_T_A the policy is
    built without CyclicPolicy's check (CyclicPolicy.unchecked), which it
    passes there. Every normalized value x (the cycle, each order time and
    quantity) is a rational in [0, 1], and the least of the positive ones,
    of the gaps between one schedule's consecutive order times and of the
    cycle minus its last order time is at least 2**-(k+2). The rescale is
    x * T_A correctly rounded, so it keeps order and a zero time at 0.0,
    and here each x * T_A > 0 is at least 2**-1014, a normal float within a
    relative 2**-53. So two values at least 2**-(k+2) apart stay apart
    (their ratio is at least 1 + 2**-14): the cycle is finite and > 0,
    each schedule's order times lie in [0, cycle) and increase strictly,
    and every quantity is > 0. The quantities sum to the cycle exactly, so
    their fsum lies within a relative 4 * 2**-53 of the rescaled cycle, far
    inside CONSERVATION_RTOL. Outside that range the check runs."""
    (p, q), a_orders, b_orders = _integer_schedules(k)
    m, d = T_A.as_integer_ratio()
    tau = (p * m) / (q * d)
    schedules = {
        id_A: tuple([((tp * m) / (tq * d), (qp * m) / (qq * d)) for tp, tq, qp, qq in a_orders]),
        id_B: tuple([((tp * m) / (tq * d), (qp * m) / (qq * d)) for tp, tq, qp, qq in b_orders]),
    }
    if 0 <= k <= UNCHECKED_MAX_K and UNCHECKED_T_A[0] <= T_A <= UNCHECKED_T_A[1]:
        return CyclicPolicy.unchecked(tau, schedules)
    return CyclicPolicy(tau=tau, schedules=schedules)


def synthesize_couple(inp: CoupleInput) -> CoupleSchedule:
    """Build the joint schedule for the pair, rescaled to the true T_A."""
    k = inp.k
    case_id = couple_case(k)
    claimed_vmax, claimed_cost = CLAIMED_RATIOS[case_id]
    return CoupleSchedule(
        case_id=case_id,
        policy=couple_template(k, inp.T_A, inp.commodity_A.id, inp.commodity_B.id),
        claimed_vmax_ratio=claimed_vmax,
        exact_vmax_ratio=EXACT_VMAX_RATIOS[case_id],
        claimed_cost_ratio=claimed_cost,
    )


def couple_policy(ids_A, ids_B, T_A, T_B, gamma_A, gamma_B, eps: float) -> CouplePolicy:
    """The couple policy of one class's oriented near pairs: pair j joins
    commodity A, ids_A[j] with the longer interval T_A[j] and gamma_A[j], and
    commodity B, ids_B[j] with T_B[j] and gamma_B[j]. pair_powers holds every
    pair to the couple rules and gives its k. The distinct (k, T_A) keys are
    found in array passes: a stable sort of the pairs by (T_A, k) starts
    each run of equal keys at its first pair, and the keys are numbered in
    order of their first pairs. couple_template then runs once per key, for
    its first pair, since the schedule depends on nothing else; the
    template, keyed by that pair's ids, is the policy's template as it is,
    and its case couple_case(k)."""
    k = pair_powers(T_A, T_B, gamma_A, gamma_B, eps)
    T_A = np.asarray(T_A, dtype=float)
    pair_ids = np.column_stack((ids_A, ids_B))
    order = np.lexsort((k, T_A))
    sorted_k, sorted_T = k[order], T_A[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_T[1:], sorted_T[:-1], out=starts[1:])
    starts[1:] |= sorted_k[1:] != sorted_k[:-1]
    firsts = order[starts]  # each key's first pair, in sorted key order
    by_first = np.argsort(firsts)
    number = np.empty(len(firsts), dtype=np.intp)  # each sorted key's template
    number[by_first] = np.arange(len(firsts))
    which = np.empty(len(order), dtype=np.intp)
    which[order] = number[np.add.accumulate(starts, dtype=np.intp) - 1]
    key_k, key_T = sorted_k[starts][by_first].tolist(), sorted_T[starts][by_first].tolist()
    templates = list(map(couple_template, key_k, key_T, *pair_ids[firsts[by_first]].T.tolist()))
    return CouplePolicy(templates, list(map(couple_case, key_k)), which.tolist(), pair_ids.ravel().tolist())


def classify_pairs(
    group: Sequence[tuple[int, float, float]], eps: float
) -> tuple[list[tuple[tuple[int, float, float], tuple[int, float, float]]],
           list[tuple[tuple[int, float, float], tuple[int, float, float]]],
           tuple[int, float, float] | None]:
    """Split a rounded group into near pairs, far pairs, and an odd leftover.

    Entries are (id, gamma, T) tuples drawn from one power-of-2 rounding
    outcome. Sorting is by gamma*T descending with ties broken by smaller id;
    consecutive elements pair up, and a pair is far exactly when its leading
    product is at least (1+eps) times its trailing one.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    ordered = sorted(group, key=lambda e: (-e[1] * e[2], e[0]))
    near, far = [], []
    for j in range(0, len(ordered) - 1, 2):
        lead, trail = ordered[j], ordered[j + 1]
        if lead[1] * lead[2] >= (1.0 + eps) * trail[1] * trail[2]:
            far.append((lead, trail))
        else:
            near.append((lead, trail))
    leftover = ordered[-1] if len(ordered) % 2 else None
    return near, far, leftover
