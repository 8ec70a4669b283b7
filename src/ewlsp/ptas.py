"""Grid-aligned dynamic program for a handful of commodities.

Commodities are guessed into frequency classes; class q may order only on a
fine uniform grid (its plus-points) and must hit zero inventory on a coarse
uniform grid (its minus-points). Between two successive minus-points of level
q, the policy for classes >= q depends on finer classes only through an exact
inventory profile of class q-1 and a quantized lower bound on the space held
by everything at least two levels up; intervals with identical triples behave
identically, which is what the memoized recursion exploits.

Grid sizes are free parameters: the recursion is correct for any admissible
geometry, only the approximation guarantee depends on the counts. The
published counts are powers of n/eps and explode immediately, so the solver
defaults to a miniature geometry with the same divisibility structure
(level ratio M, refinement S with M | S and S | M^2). Empty guessed classes
between occupied ones are handled by descending directly to the next
occupied level while folding the skipped classes into the lower bound;
identical subintervals collapse in the memo table instead of an explicit
copy representation, which reproduces the same values with sharper bounds.

Each state picks one order pattern per commodity of its level. The patterns
over an interval of S slots depend on S alone, so one integer table per S
(gaps, inventory levels and order counts in slot steps, plus the slot tuples)
is built once and shared by every solver; a solver scales it by its slot
length into gamma*level and K*count + 2H*hold arrays per commodity. A state
folds its commodities in one at a time onto the space the previous level
holds, drops the combinations over the bound, and visits the rest in
ascending interval cost until no later one can win. Equal totals go to the
combination that comes first in product order over the ids, so the chosen
policy does not depend on the visiting order.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .eoq import compute_M
from .errors import ActionSpaceExceeded, BudgetExceeded, StateSpaceExceeded, TooManyCommodities
from .evaluator import EvalReport, evaluate
from .model import CyclicPolicy, Instance

DEFAULT_PTAS_CAP = 3
DEFAULT_STATE_CAP = 10**6
ACTION_CAP = 1 << 22
GUESS_BUDGET = 100_000


@dataclass(frozen=True)
class GridSpec:
    """Per-class grid point counts over the cycle [0, tau).

    minus_counts[q-1] and plus_counts[q-1] subdivide the cycle for class q.
    Admissibility (checked at construction): minus | plus per level, minus
    nesting and plus nesting across levels, each level's minus grid refining
    the previous level's plus grid, and each level's plus grid embedding in
    the minus grids two or more levels deeper.
    """

    tau_cycle: float
    minus_counts: tuple[int, ...]
    plus_counts: tuple[int, ...]

    def __post_init__(self):
        if self.tau_cycle <= 0:
            raise ValueError("cycle length must be > 0")
        m, p = self.minus_counts, self.plus_counts
        if len(m) != len(p) or not m:
            raise ValueError("need matching nonempty count tuples")
        for q in range(len(m)):
            if m[q] < 1 or p[q] < m[q] or p[q] % m[q]:
                raise ValueError(f"level {q + 1}: minus points must be a subset of plus points")
        for q in range(len(m) - 1):
            if m[q + 1] % m[q]:
                raise ValueError(f"levels {q + 1},{q + 2}: minus grids must nest")
            if p[q] % m[q + 1]:
                raise ValueError(f"level {q + 2} minus grid must refine level {q + 1} plus grid")
            if p[q + 1] % p[q]:
                raise ValueError(f"levels {q + 1},{q + 2}: plus grids must nest")
            for deeper in range(q + 2, len(m)):
                if m[deeper] % p[q]:
                    raise ValueError(
                        f"level {q + 1} plus grid must embed in level {deeper + 1} minus grid"
                    )

    @staticmethod
    def desk(tau: float, levels: int, M: int = 4, S: int = 8) -> "GridSpec":
        """Miniature geometry: minus = M^(q-1), plus = S * M^(q-1)."""
        if S % M or (M * M) % S:
            raise ValueError("need M | S and S | M^2")
        return GridSpec(
            tau_cycle=tau,
            minus_counts=tuple(M**q for q in range(levels)),
            plus_counts=tuple(S * M**q for q in range(levels)),
        )

    @staticmethod
    def paper(tau: float, levels: int, n: int, eps: float) -> "GridSpec":
        """Published counts with integer base max(2, round(n/eps))."""
        b = max(2, round(n / eps))
        minus = tuple(max(1, b ** (3 * (q + 1) - 4)) for q in range(levels))
        plus = tuple(b ** (3 * (q + 1) + 1) for q in range(levels))
        return GridSpec(tau_cycle=tau, minus_counts=minus, plus_counts=plus)


@dataclass(frozen=True)
class DpState:
    """Memo key. `profile` holds, per previous-level commodity in id order,
    the position (F units, the deepest plus grid, from the interval entry)
    of its first order strictly after each of the interval's x-points; that
    is everything the finer levels read of it, and being relative to the
    entry, sibling intervals with equal statistics share one entry."""

    level: int
    profile: tuple
    lb_units: int


@dataclass(frozen=True)
class Guess:
    tau: float
    assignment: Mapping[int, int]  # commodity id -> guessed class (1-based)

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


def enumerate_guesses(instance: Instance, eps: float) -> list[Guess]:
    """Geometric cycle-length grid over the constrained-cost range, crossed
    with all class assignments; deterministic ordering throughout. More than
    GUESS_BUDGET guesses raise BudgetExceeded."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    n = instance.n
    M_const = compute_M(instance)
    k_max = max(c.K for c in instance.commodities)
    k_min = min(c.K for c in instance.commodities)
    h_min = min(c.H for c in instance.commodities)
    lo = k_max / (2.0 * eps * n * M_const)
    hi = max(lo, 2.0 * n * M_const / (eps * eps * h_min))
    taus = [lo]
    while taus[-1] < hi:
        taus.append(min(taus[-1] * (1.0 + eps), hi))
    u_count = 4.0 * n * n * M_const * M_const / (eps * eps * k_min * h_min)
    q_levels = max(1, math.ceil(math.log(u_count) / math.log((n / eps) ** 3)))
    total = len(taus) * q_levels**n
    if total > GUESS_BUDGET:
        raise BudgetExceeded(total, GUESS_BUDGET)
    ids = sorted(instance.ids())
    return [
        Guess(tau=tau, assignment=dict(zip(ids, combo)))
        for tau in taus
        for combo in itertools.product(range(1, q_levels + 1), repeat=n)
    ]


@dataclass(frozen=True)
class _Patterns:
    """Every single-commodity order pattern over one interval of S slots, in
    slot steps. Row a orders at slot 0 (the mandatory entry order) and at
    slot s >= 1 when bit s-1 of a is set, so rows run in bitmask order."""

    slots: tuple[tuple[int, ...], ...]  # order slots, ascending
    gaps: np.ndarray  # (A, S): slots between successive orders, in order, zero-padded
    levels: np.ndarray  # (A, S): slots from each slot point to the next order (S closes)
    counts: np.ndarray  # (A,): orders per interval


@functools.cache
def _patterns(S: int) -> _Patterns:
    """The pattern table for S slots, shared by every solver in the process."""
    A = 1 << (S - 1)
    has = np.ones((A, S), dtype=bool)
    has[:, 1:] = (np.arange(A)[:, None] >> np.arange(S - 1)) & 1
    counts = has.sum(axis=1)
    levels = np.empty((A, S), dtype=np.int64)
    nxt = np.full(A, S)
    for s in range(S - 1, -1, -1):
        levels[:, s] = nxt - s
        nxt = np.where(has[:, s], s, nxt)
    # the level at an order slot is the gap to the next order
    first = np.argsort(~has, axis=1, kind="stable")
    gaps = np.where(np.arange(S) < counts[:, None], np.take_along_axis(levels, first, axis=1), 0)
    slots = tuple(tuple([0] + [s for s in range(1, S) if a >> (s - 1) & 1]) for a in range(A))
    for arr in (gaps, levels, counts):
        arr.flags.writeable = False
    return _Patterns(slots=slots, gaps=gaps, levels=levels, counts=counts)


class _DpSolver:
    """One (guess, grid) dynamic program over translation-invariant states."""

    def __init__(self, instance: Instance, guess: Guess, eps: float, grid: GridSpec, state_cap: int):
        self.state_cap = state_cap
        self.tau = grid.tau_cycle
        occupied = sorted(set(guess.assignment.values()))
        if occupied[-1] > len(grid.minus_counts):
            raise ValueError("grid does not cover the deepest guessed class")
        self.levels = occupied
        self.ids_at = [
            sorted(i for i, q in guess.assignment.items() if q == lvl) for lvl in occupied
        ]
        commodities = [[instance.commodity(i) for i in ids] for ids in self.ids_at]
        self.gammas = [[c.gamma for c in level] for level in commodities]
        self.F = grid.plus_counts[occupied[-1] - 1]
        self.unit = self.tau / self.F
        self.minus = [grid.minus_counts[q - 1] for q in occupied]
        self.plus = [grid.plus_counts[q - 1] for q in occupied]
        self.space_bound = (1.0 + eps) * instance.V * (1.0 + 1e-12)
        self.granule = eps * instance.V / instance.n
        self.memo: dict[DpState, tuple[float | None, tuple | None]] = {}
        # Per level and commodity in id order: gamma*level (A x S) and the
        # interval cost K*count + 2H*hold (A), scaled from the shared table.
        self.space_terms: list[list[np.ndarray]] = []
        self.cost_terms: list[list[np.ndarray]] = []
        for j, level in enumerate(commodities):
            S = self.slots(j)
            bits = (S - 1) * len(level)
            if (1 << bits) > ACTION_CAP:
                raise ActionSpaceExceeded(f"action space 2^{bits} at level {j}")
            table = _patterns(S)
            step_t = self.slot_step(j) * self.unit
            hold = np.zeros(len(table.slots))
            for column in table.gaps.T:  # gap by gap in slot order: a float sum depends on its order
                d = column * step_t
                hold += 0.5 * d * d
            levels = table.levels * step_t
            self.space_terms.append([c.gamma * levels for c in level])
            self.cost_terms.append([c.K * table.counts + 2.0 * c.H * hold for c in level])

    # -- geometry -----------------------------------------------------------

    def interval_len(self, j: int) -> int:
        return self.F // self.minus[j]

    def slot_step(self, j: int) -> int:
        return self.F // self.plus[j]

    def slots(self, j: int) -> int:
        return self.plus[j] // self.minus[j]

    # -- previous-level profile ------------------------------------------------

    def _level_before(self, positions: tuple[int, ...], xstep: int, at: int) -> float:
        """Inventory (time units) just before position `at` > 0 (F units)."""
        rr = at // xstep
        if at % xstep == 0:
            if positions[rr - 1] == at:
                return 0.0
            nxt = positions[rr] if rr < len(positions) else positions[-1]
        else:
            nxt = positions[rr]
        return (nxt - at) * self.unit

    # -- recursion ----------------------------------------------------------------

    def solve(self) -> tuple[float, CyclicPolicy] | None:
        top = DpState(level=0, profile=(), lb_units=0)
        cost = self._value(top)
        if cost is None:
            return None
        copies = self.minus[0]
        orders: dict[int, list[tuple[int, int]]] = {i: [] for ids in self.ids_at for i in ids}
        for m in range(copies):
            self._materialize(top, m * self.interval_len(0), orders)
        schedules = {}
        for cid, lst in orders.items():
            lst.sort()
            schedules[cid] = tuple((pos * self.unit, q * self.unit) for pos, q in lst)
        policy = CyclicPolicy(cycle_length_tau=self.tau, schedules=schedules)
        return copies * cost / self.tau, policy

    def _value(self, state: DpState) -> float | None:
        """Cheapest cost of the state's interval and everything below it, or
        None when no combination of patterns fits.

        A combination picks one pattern per commodity of the level; its flat
        index is its position in `itertools.product` order over the ids.
        Commodities are folded in one at a time: the space held at each slot
        point (previous level and bound, then gamma*level per commodity in id
        order) is checked against the bound, and rows already over it are
        dropped, since later terms only add space. The survivors stay in flat
        index order, so their positions compare like flat indices. They are
        then visited in ascending interval cost (a stable sort) and the scan
        stops at the first combination whose (cost, position) exceeds the
        best (total, position): children only add nonnegative cost. Of equal
        totals the lowest flat index wins."""
        known = self.memo.get(state)
        if known is not None:
            return known[0]
        if len(self.memo) >= self.state_cap:
            raise StateSpaceExceeded(f"memo grew past {self.state_cap} states")
        self.memo[state] = (None, None)  # occupy the slot; overwritten below
        j = state.level
        S = self.slots(j)
        space_terms = self.space_terms[j]
        prev_orders = list(zip(self.gammas[j - 1], state.profile))
        lb_space = state.lb_units * self.granule

        # Space held by the previous class at each of this interval's slots.
        prev_space = [lb_space] * S
        if prev_orders:
            xstep = self.slot_step(j - 1)
            my_step = self.slot_step(j)
            for gamma, positions in prev_orders:
                for s in range(S):
                    pos = s * my_step
                    r = pos // xstep
                    prev_space[s] += gamma * (positions[r] - pos) * self.unit

        space = np.array([prev_space])
        picks: list[np.ndarray] = []  # per folded commodity, the pattern of each surviving row
        for k, term in enumerate(space_terms):
            # slot by slot, so the widest temporary holds one value per candidate row
            over = space[:, None, 0] + term[None, :, 0] > self.space_bound
            for s in range(1, S):
                over |= space[:, None, s] + term[None, :, s] > self.space_bound
            rows, pattern = np.nonzero(~over)
            picks = [p[rows] for p in picks] + [pattern]
            if k + 1 < len(space_terms):
                space = space[rows] + term[pattern]
        cost_terms = self.cost_terms[j]
        cost = cost_terms[0][picks[0]]
        for term, p in zip(cost_terms[1:], picks[1:]):
            cost = cost + term[p]

        best: float | None = None
        best_at = -1
        best_combo = None
        for at in np.argsort(cost, kind="stable"):  # read lazily: the scan usually stops early
            c = float(cost[at])
            if best is not None and (c, at) > (best, best_at):
                break
            combo = tuple(int(p[at]) for p in picks)
            child_cost = self._descend(state, j, combo, prev_orders)
            if child_cost is None:
                continue
            total = c + child_cost
            if best is None or (total, at) < (best, best_at):
                best, best_at, best_combo = total, at, combo
        self.memo[state] = (best, best_combo)
        return best

    def _child_states(self, state: DpState, j: int, combo, prev_orders):
        """Child states over the subintervals of the next occupied level."""
        child_len = self.interval_len(j + 1)
        ratio = self.interval_len(j) // child_len
        gap_one = self.levels[j + 1] == self.levels[j] + 1
        my_step = self.slot_step(j)
        S = self.slots(j)
        slots = _patterns(S).slots
        prev_xstep = self.slot_step(j - 1) if prev_orders else 0
        # each commodity's order positions, closed by the next sibling's mandatory entry order
        ends = [[s * my_step for s in slots[a]] + [S * my_step] for a in combo]
        children = []
        for m in range(ratio):
            entry, exit_ = m * child_len, (m + 1) * child_len
            profile = ()
            if gap_one:
                profile = tuple(self._child_profile(e, entry, exit_, my_step) for e in ends)
            fold = 0.0
            for gamma, positions in prev_orders:
                fold += gamma * self._level_before(positions, prev_xstep, exit_)
            if not gap_one:
                # this level's space folds into the bound of the skipped-to level
                for gamma, e in zip(self.gammas[j], ends):
                    fold += gamma * (e[bisect_left(e, exit_)] - exit_) * self.unit
            lb_units = state.lb_units + int(fold / self.granule)
            children.append((entry, DpState(level=j + 1, profile=profile, lb_units=lb_units)))
        return children

    def _descend(self, state: DpState, j: int, combo, prev_orders) -> float | None:
        if j + 1 >= len(self.levels):
            return 0.0
        total = 0.0
        for _, child in self._child_states(state, j, combo, prev_orders):
            value = self._value(child)
            if value is None:
                return None
            total += value
        return total

    @staticmethod
    def _child_profile(ends: list[int], entry: int, exit_: int, step: int) -> tuple[int, ...]:
        """Position, from `entry`, of the first order strictly after each
        x-point of the child interval [entry, exit_)."""
        return tuple(ends[bisect_right(ends, x)] - entry for x in range(entry, exit_, step))

    def _materialize(self, state: DpState, abs_entry: int, orders: dict[int, list[tuple[int, int]]]):
        # the state lies on the chosen chain, so its entry holds a combination
        _, combo = self.memo[state]
        j = state.level
        step = self.slot_step(j)
        S = self.slots(j)
        patterns = _patterns(S).slots
        for i, a in zip(self.ids_at[j], combo):
            slots = patterns[a]
            nxt = list(slots[1:]) + [S]
            for s, e in zip(slots, nxt):
                orders[i].append((abs_entry + s * step, (e - s) * step))
        if j + 1 >= len(self.levels):
            return
        prev_orders = list(zip(self.gammas[j - 1], state.profile))
        for entry, child in self._child_states(state, j, combo, prev_orders):
            self._materialize(child, abs_entry + entry, orders)


def dp_solve(
    instance: Instance,
    guess: Guess,
    eps: float,
    grid: GridSpec,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, CyclicPolicy] | None:
    """Best grid-aligned policy (cost rate, policy) for one guess, or None
    when every action chain violates the space check. A level with more
    pattern combinations than ACTION_CAP raises ActionSpaceExceeded, and a
    memo that reaches `state_cap` entries raises StateSpaceExceeded."""
    solver = _DpSolver(instance, guess, eps, grid, state_cap)
    return solver.solve()


def ptas_solve(
    instance: Instance,
    eps: float,
    grid_M: int = 4,
    grid_S: int = 8,
    state_cap: int = DEFAULT_STATE_CAP,
    details: dict | None = None,
) -> tuple[CyclicPolicy, EvalReport]:
    """Sweep all guesses with the miniature geometry, scale the winner into
    the capacity, and return it with its exact evaluation. A guess whose
    action space exceeds ACTION_CAP is skipped, so with skips the result is
    the best over the remaining guesses only. When a dict is passed as
    `details`, the winning guess, its grid and the number of skipped guesses
    are recorded in it."""
    if instance.n > DEFAULT_PTAS_CAP:
        raise TooManyCommodities(instance.n, DEFAULT_PTAS_CAP)
    best: tuple[CyclicPolicy, EvalReport, Guess, GridSpec] | None = None
    guesses = enumerate_guesses(instance, eps)
    skipped = 0
    for guess in guesses:
        grid = GridSpec.desk(guess.tau, max(guess.assignment.values()), M=grid_M, S=grid_S)
        try:
            result = dp_solve(instance, guess, eps, grid=grid, state_cap=state_cap)
        except ActionSpaceExceeded:
            skipped += 1
            continue
        if result is None:
            continue
        _, policy = result
        report = evaluate(policy, instance)
        if report.v_max > instance.V:
            policy = policy.scaled(instance.V / report.v_max)
            report = evaluate(policy, instance)
        if not report.feasible:
            continue
        if best is None or report.total_cost_rate < best[1].total_cost_rate:
            best = (policy, report, guess, grid)
    if best is None:
        reason = f" ({skipped} of {len(guesses)} guesses skipped over ACTION_CAP)" if skipped else ""
        raise StateSpaceExceeded(f"no guess produced a feasible policy{reason}")
    policy, report, guess, grid = best
    if details is not None:
        details["guess"] = guess
        details["grid"] = grid
        details["skipped_guesses"] = skipped
    return policy, report


def is_b_aligned(
    policy: CyclicPolicy, assignment: Mapping[int, int], grid: GridSpec, rtol: float = 1e-9
) -> bool:
    """Check alignment straight off the schedule: orders only on the class
    plus-grid and an order at every class minus-point (zero-inventory
    arrivals, given zero-inventory quantities)."""
    tau = policy.tau
    for cid, q in assignment.items():
        plus = grid.plus_counts[q - 1]
        minus = grid.minus_counts[q - 1]
        step = tau / plus
        times = [t for t, _ in policy.schedules[cid]]
        for t in times:
            if abs(t / step - round(t / step)) > rtol * plus:
                return False
        order_slots = {round(t / step) for t in times}
        ratio = plus // minus
        for k in range(minus):
            if k * ratio not in order_slots:
                return False
    return True
