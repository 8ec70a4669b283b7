"""Joint two-commodity schedules for near-equal peak-space pairs.

Two stationary policies whose intervals differ by an exact power of two and
whose peak-space products gamma*T nearly agree admit a joint periodic
schedule that trades a small per-commodity cost blow-up for a strictly
smaller shared peak: the product of the two ratios drops below one, which is
what the randomized pipeline exploits pair by pair.

Construction is dispatched on k = log2(T_A/T_B). The schedule normalized to
T_A = 1 depends on k alone: it is built once per k in exact rational
arithmetic and kept as immutable tuples. couple_template rescales each
rational p/q of it by T_A = m/d as the integer division (p*m)/(q*d), which
Python rounds correctly, so every float equals float(Fraction(p, q) *
Fraction(T_A)); floats appear only at the CyclicPolicy boundary. A couple
depends on (k, T_A) and its two ids alone: synthesize_couple checks a
CoupleInput and builds its template, and the dense branch, which checks its
pairs on arrays, calls couple_template once per distinct (k, T_A) with no
CoupleInput. The published per-case guarantee table is kept alongside the
slightly sharper constants that direct evaluation of these schedules yields
(they differ only for k = 4, where the published peak constant 7/4 is
attained as an upper bound while the schedule itself peaks at 55/32).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotAPowerOfTwo, SpaceMismatch
from .model import Commodity, CyclicPolicy

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


@dataclass(frozen=True)
class CoupleInput:
    commodity_A: Commodity
    commodity_B: Commodity
    T_A: float
    T_B: float
    epsilon: float

    def __post_init__(self):
        if self.T_A <= 0 or self.T_B <= 0:
            raise ValueError("intervals must be > 0")
        if self.T_B < sys.float_info.min:
            # the scaled orders would collide in the subnormal range
            raise ValueError(f"T_B = {self.T_B!r} is below the smallest normal float")
        if self.T_B > self.T_A * (1 + 1e-12):
            raise ValueError("require T_B <= T_A")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        k = self.k
        if abs(math.log2(self.T_A / self.T_B) - k) > 1e-9:
            raise NotAPowerOfTwo(
                f"T_A/T_B = {self.T_A / self.T_B!r} is not an integer power of two"
            )
        ratio = self.space_ratio
        if not (1.0 / (1.0 + self.epsilon) - 1e-12 <= ratio <= 1.0 + self.epsilon + 1e-12):
            raise SpaceMismatch(
                f"gamma_A*T_A / (gamma_B*T_B) = {ratio!r} outside [1/(1+eps), 1+eps]"
            )

    @property
    def k(self) -> int:
        return round(math.log2(self.T_A / self.T_B))

    @property
    def space_ratio(self) -> float:
        return (self.commodity_A.gamma * self.T_A) / (self.commodity_B.gamma * self.T_B)


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


def couple_template(k: int, T_A: float, id_A: int, id_B: int) -> CyclicPolicy:
    """The joint schedule for T_A/T_B = 2**k rescaled to T_A, commodity A's
    orders keyed by id_A and B's by id_B; it depends on nothing else."""
    tau, a_orders, b_orders = _normalized_schedules(k)
    m, d = T_A.as_integer_ratio()

    def scaled(x: Fraction) -> float:
        return (x.numerator * m) / (x.denominator * d)

    return CyclicPolicy(
        tau=scaled(tau),
        schedules={
            id_A: tuple((scaled(t), scaled(q)) for t, q in a_orders),
            id_B: tuple((scaled(t), scaled(q)) for t, q in b_orders),
        },
    )


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
