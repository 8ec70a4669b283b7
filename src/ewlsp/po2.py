"""Dependent power-of-2 rounding of a group of stationary intervals.

Writing each interval as T_i = 2^(alpha_i + beta_i) * T_min with integer
alpha_i >= 0 and beta_i in [0, 1), a single uniform draw theta on [-1/2, 1/2]
maps every interval onto the common geometric grid 2^(k + theta) * T_min:
the exponent rounds down to alpha_i + theta when theta >= beta_i - 1/2 and up
to alpha_i + theta + 1 otherwise. Every pairwise ratio is then an exact
integer power of two, each interval moves by a factor inside
[2^-1/2, 2^1/2], and both T and 1/T keep their expectations up to the
universal constant 1/(sqrt(2) ln 2) ~ 1.020139.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

PO2_MEAN_CONSTANT = 1.0 / (math.sqrt(2.0) * math.log(2.0))
# Simpson panels over theta in [-1/2, 1/2] in `po2_expectation_check`.
SIMPSON_PANELS = 20_000


@dataclass(frozen=True)
class Po2Outcome:
    rounded_T: Mapping[int, float]
    alpha_beta: Mapping[int, tuple[int, float]]
    exponents: Mapping[int, int]  # T_i = 2**(exponents[i] + theta) * (smallest interval)


def _split_exponent(T: float, base: float) -> tuple[int, float]:
    x = math.log2(T / base)
    alpha = math.floor(x)
    beta = x - alpha
    if beta >= 1.0:  # float edge when T/base is a hair under a power of two
        alpha += 1
        beta = 0.0
    return alpha, beta


def po2_round(group: Mapping[int, float], theta: float) -> Po2Outcome:
    """Round one group with an explicit draw; sampling lives with the caller."""
    if not group:
        raise ValueError("group must be nonempty")
    if not all(T > 0 for T in group.values()):
        raise ValueError("all intervals must be > 0")
    if not (-0.5 <= theta <= 0.5):
        raise ValueError(f"theta={theta!r} outside [-1/2, 1/2]")
    base = min(group.values())
    rounded: dict[int, float] = {}
    alpha_beta: dict[int, tuple[int, float]] = {}
    exponents: dict[int, int] = {}
    for cid, T in group.items():
        alpha, beta = _split_exponent(T, base)
        k = alpha if theta >= beta - 0.5 else alpha + 1
        rounded[cid] = 2.0 ** (k + theta) * base
        alpha_beta[cid] = (alpha, beta)
        exponents[cid] = k
    return Po2Outcome(rounded_T=rounded, alpha_beta=alpha_beta, exponents=exponents)


def _simpson(f, a: float, b: float, panels: int) -> float:
    if b <= a:
        return 0.0
    n = max(2, panels + (panels % 2))  # even panel count
    h = (b - a) / n
    total = f(a) + f(b)
    for k in range(1, n):
        total += (4.0 if k % 2 else 2.0) * f(a + k * h)
    return total * h / 3.0


def po2_expectation_check(T_hat: float, base_T_min: float | None = None) -> tuple[float, float]:
    """Deterministic quadrature of E[T^theta] and E[1/T^theta].

    Both must equal PO2_MEAN_CONSTANT * T_hat and PO2_MEAN_CONSTANT / T_hat.
    The rounding rule switches branches at theta = beta - 1/2, so each smooth
    piece is integrated separately; Simpson's rule then converges fast.
    """
    if T_hat <= 0:
        raise ValueError("T_hat must be > 0")
    base = T_hat if base_T_min is None else base_T_min
    if base <= 0 or base > T_hat * (1 + 1e-12):
        raise ValueError("base_T_min must satisfy 0 < base <= T_hat")
    alpha, beta = _split_exponent(T_hat, base)
    cut = beta - 0.5
    left = max(0, round(SIMPSON_PANELS * (cut + 0.5)))

    def piece(k: int, a: float, b: float, n: int, invert: bool) -> float:
        # each branch is a smooth exponential; integrate it on its own piece
        if invert:
            return _simpson(lambda th: 1.0 / (2.0 ** (k + th) * base), a, b, n)
        return _simpson(lambda th: 2.0 ** (k + th) * base, a, b, n)

    right = SIMPSON_PANELS - left
    mean_t = piece(alpha + 1, -0.5, cut, left, False) + piece(alpha, cut, 0.5, right, False)
    mean_inv = piece(alpha + 1, -0.5, cut, left, True) + piece(alpha, cut, 0.5, right, True)
    return mean_t, mean_inv
