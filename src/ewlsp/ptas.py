"""Grid-aligned dynamic program for a handful of commodities.

Commodities are guessed into frequency classes; class q may order only on a
fine uniform grid (its plus-points) and must hit zero inventory on a coarse
uniform grid (its minus-points). Between two successive minus-points of level
q, the policy for classes >= q depends on finer classes only through an exact
inventory profile of class q-1 and a quantized lower bound on the space held
by everything at least two levels up. The recursion memoizes on the plain
tuple (level, profile, lb_units), so intervals with identical triples share
one entry; each entry keeps the value and the chosen combination, from which
the policy is read back down the same child states.

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
length into gamma*level and K*count + 2H*hold arrays per commodity. What a
pattern hands the next level (each child's profile, or across a level gap
its exit inventory) is integer-only too and cached per pattern and
geometry. A state folds its commodities in one at a time onto the space the
previous level holds and drops the combinations over the bound, those of
its last commodity (but for the patterns that fit no row) only as its scan
reaches them. It visits the rest in ascending interval cost until no later
one can win, sorting a head of the cheapest first and 16 times as many at
each further stage, so a scan that stops early neither sorts nor checks the
rest. Equal totals go to the combination that comes first in product order
over the ids, so the chosen policy does not depend on the visiting order.

The sweep over guesses is pruned by a per-guess lower bound on the certified
cost. A class-q commodity orders only on plus-points and at every minus-point,
so it places m in [minus_q, plus_q] zero-inventory orders, its gaps are at
most tau/minus_q, and by Cauchy-Schwarz on the squared gaps its cost is at
least K/g + H*g at the average gap g = tau/m. Each inventory stays under its
largest gap, so the DP policy's peak is at most P = sum gamma_i*tau/minus_qi,
and the scale-down into the capacity multiplies every gap by some
f >= f_lo = min(1, V/P). The bound sums, per commodity, the minimum of
K/g + H*g over g in [f_lo*tau/plus_q, tau/minus_q]: the EOQ interval clipped
into that range. (The DP's (1+eps)V space check does not limit f, since it
runs against a quantized lower bound of the deeper levels' space.) Guesses
are visited in ascending (bound, enumeration index), and the sweep stops at
the first guess whose bound exceeds the incumbent's certified cost; every
later guess then costs more than the incumbent. The winner is the guess with
the least (cost, enumeration index), the policy an unpruned sweep in
enumeration order would return.

Some guesses have no DP value at all, and are ruled out before their bound
is taken or their DP built. At each slot point a state checks the space of
the previous level, then the quantized bound (both nonnegative), then
gamma*level per commodity of its level in id order, and every pattern's
level at every slot is at least one slot length. So when a level is
overfull, the sum in id order of gamma_i times its slot length exceeding the
space bound, no state of it passes the check (float + and * are monotone,
so the checked sum is never below that one), and the DP has no value. Such
a guess could not have won: `ptas_solve` counts it as pruned, and
`dp_solve` returns None for it.

Each DP the sweep runs is also cut by the incumbent. Scaling by f <= 1
divides the ordering cost O and multiplies the holding cost Hh of a DP
policy of rate O + Hh, so it certifies at O/f + f*Hh >= f*(O + Hh) >=
f_lo*rate: a DP whose rate exceeds incumbent/f_lo cannot win, and
`dp_solve` takes that as a cutoff. Inside the DP, every state gets a limit
and, with the best total it has found so far, skips a combination as soon
as its interval cost plus a floor on everything below it exceeds the
smaller of the two; its children get the room that leaves. The floor puts
each commodity below in every interval at its cheapest pattern among those
whose space alone fits the bound, so it rises where the capacity is tight. A
state that could only be shown to exceed its limit is stored as cut, with
the limit, and solved again only under a looser one. Values within the
cutoff are unchanged, so every DP's result and the sweep's winner stay
bit-identical; a DP whose best rate exceeds the cutoff returns None.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .eoq import compute_M, cost
from .errors import ActionSpaceExceeded, BudgetExceeded, StateSpaceExceeded, TooManyCommodities
from .evaluator import EvalReport, evaluate
from .model import CyclicPolicy, Instance

DEFAULT_PTAS_CAP = 3
DEFAULT_STATE_CAP = 10**6
ACTION_CAP = 1 << 22
GUESS_BUDGET = 100_000
# Relative slack, per plus-grid step, for an order time to count as on the grid.
ALIGN_RTOL = 1e-9
# Relative margin by which a lower bound must exceed a cost (a guess's bound
# the incumbent's, a DP candidate's floor its limit) before it prunes or cuts,
# so float rounding in the bound cannot drop a winner.
PRUNE_RTOL = 1e-9
# Candidates of a state sorted by cost before its scan starts; the scan sorts
# 16 times as many each time it gets past them (see `_ascending`).
HEAD_ROWS = 64
# Candidates whose space one vectorized check covers.
CHECK_ROWS = 4096


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


def _scale_floor(instance: Instance, guess: Guess, grid: GridSpec) -> float:
    """f_lo = min(1, V/P): the least factor by which `ptas_solve` can scale the
    guess's DP policy into the capacity, P being the peak bound
    sum gamma_i*tau/minus_qi."""
    tau = grid.tau_cycle
    items = sorted(guess.assignment.items())
    peak = sum(instance.commodity(i).gamma * tau / grid.minus_counts[q - 1] for i, q in items)
    return min(1.0, instance.V / peak)


def guess_lower_bound(instance: Instance, guess: Guess, grid: GridSpec) -> float:
    """Lower bound on the cost rate of the guess's DP policy after
    `ptas_solve` scales it into the capacity; see the module docstring.
    `grid` must cover the deepest guessed class."""
    tau = grid.tau_cycle
    f_lo = _scale_floor(instance, guess, grid)
    total = 0.0
    for i, q in sorted(guess.assignment.items()):
        c = instance.commodity(i)
        lo, hi = f_lo * tau / grid.plus_counts[q - 1], tau / grid.minus_counts[q - 1]
        total += cost(c.K, c.H, min(max(math.sqrt(c.K / c.H), lo), hi))
    return total


def _action_space_excess(guess: Guess, grid: GridSpec) -> str | None:
    """A message naming the first occupied level whose pattern combinations,
    2^((slots - 1) * commodities), exceed ACTION_CAP, or None when none does."""
    sizes = collections.Counter(guess.assignment.values())
    for j, q in enumerate(sorted(sizes)):
        bits = (grid.plus_counts[q - 1] // grid.minus_counts[q - 1] - 1) * sizes[q]
        if (1 << bits) > ACTION_CAP:
            return f"action space 2^{bits} at level {j}"
    return None


def _level_space(
    instance: Instance, guess: Guess, eps: float, grid: GridSpec
) -> tuple[list[list[int]], list[float], float]:
    """Per occupied level, its commodity ids in id order and its slot length
    (F // plus_q) * (tau / F) in time units, F being the deepest occupied
    plus grid; and the space bound (1+eps)V, widened by a relative 1e-12.
    These are the floats the DP's space check is made of, shared by
    `_DpSolver` and `_overfull`."""
    occupied = sorted(set(guess.assignment.values()))
    F = grid.plus_counts[occupied[-1] - 1]
    unit = grid.tau_cycle / F
    ids_at = [sorted(i for i, q in guess.assignment.items() if q == lvl) for lvl in occupied]
    slot_lengths = [(F // grid.plus_counts[q - 1]) * unit for q in occupied]
    return ids_at, slot_lengths, (1.0 + eps) * instance.V * (1.0 + 1e-12)


def _overfull(instance: Instance, guess: Guess, eps: float, grid: GridSpec) -> bool:
    """Whether some occupied level overfills one slot even with every
    commodity of it ordering at every slot: the sum, in id order, of
    gamma_i times the slot length exceeds the space bound. Then no state of
    that level passes the DP's space check (see the module docstring)."""
    ids_at, slot_lengths, bound = _level_space(instance, guess, eps, grid)
    for ids, slot in zip(ids_at, slot_lengths):
        space = 0.0
        for i in ids:
            space += instance.commodity(i).gamma * slot
        if space > bound:
            return True
    return False


@dataclass(frozen=True)
class _Patterns:
    """Every single-commodity order pattern over one interval of S slots, in
    slot steps. Row a orders at slot 0 (the mandatory entry order) and at
    slot s >= 1 when bit s-1 of a is set, so rows run in bitmask order."""

    slots: tuple[tuple[int, ...], ...]  # order slots, ascending
    gaps: np.ndarray  # (A, S): slots between successive orders, in order, zero-padded
    levels: np.ndarray  # (A, S): slots from each slot point to the next order (S closes)
    counts: np.ndarray  # (A,): orders per interval
    narrow: tuple[np.ndarray, ...]  # per w in 0..S, the rows with no gap wider than w slots


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
    widest = gaps.max(axis=1)
    narrow = tuple(np.flatnonzero(widest <= w) for w in range(S + 1))
    for arr in (gaps, levels, counts, *narrow):
        arr.flags.writeable = False
    return _Patterns(slots=slots, gaps=gaps, levels=levels, counts=counts, narrow=narrow)


@functools.cache
def _child_rows(a: int, S: int, step: int, child_len: int) -> tuple[tuple, tuple[int, ...]]:
    """What the subintervals of length `child_len` read of pattern `a` over an
    interval of S slots of `step` F units, per subinterval in order:

    - the child profile: the position, from the subinterval's entry, of the
      first order strictly after each of its x-points (every `step` units);
    - the exit gap: the units from its exit to the first order at or after
      it, the inventory a level gap folds into the skipped-to level's bound.

    Order positions are closed by S*step, the next sibling's mandatory entry
    order. Integer-only, so shared by every solver in the process."""
    ends = [s * step for s in _patterns(S).slots[a]] + [S * step]
    entries = range(0, S * step, child_len)
    profiles = tuple(
        tuple(ends[bisect_right(ends, x)] - entry for x in range(entry, entry + child_len, step))
        for entry in entries
    )
    gaps = tuple(ends[bisect_left(ends, entry + child_len)] - (entry + child_len) for entry in entries)
    return profiles, gaps


def _ascending(cost: np.ndarray, space: np.ndarray, term: np.ndarray, bound: float):
    """(position, cost) of the row-pattern pairs at flat positions
    row * len(term) + pattern whose space, space[row] + term[pattern], stays
    within `bound` at every slot, as Python values in the order of
    np.argsort(cost, kind="stable"). Read lazily: the order is cut into
    stages of the HEAD_ROWS cheapest positions, then 16 times as many, and
    so on (ties of a stage's last cost join it); each stage is sorted and
    checked only when the reader gets to it, in chunks of CHECK_ROWS."""
    lo, k = -math.inf, HEAD_ROWS
    while True:
        last = k >= len(cost)
        cut = math.inf if last else np.partition(cost, k - 1)[k - 1]
        part = np.flatnonzero((cost > lo) & (cost <= cut))
        order = part[np.argsort(cost[part], kind="stable")]
        for first in range(0, len(order), CHECK_ROWS):
            chunk = order[first : first + CHECK_ROWS]
            rows, patterns = np.divmod(chunk, len(term))
            chunk = chunk[~(space[rows] + term[patterns] > bound).any(axis=1)]
            yield from zip(chunk.tolist(), cost[chunk].tolist())
        if last:
            return
        lo, k = cut, 16 * k


class _DpSolver:
    """One (guess, grid) dynamic program over translation-invariant states.

    A state, the memo key, is the tuple `(level, profile, lb_units)`: the
    index of an occupied level, what the finer levels leave behind, and the
    quantized lower bound (in granules of eps*V/n) on the space held by
    every level at least two up. `profile` holds, per previous-level
    commodity in id order, the position (F units, the deepest plus grid,
    from the interval entry) of its first order strictly after each of the
    interval's x-points; that is everything the finer levels read of it,
    and being relative to the entry, sibling intervals with equal
    statistics share one entry. It is empty at level 0 and below a skipped
    level, whose space went into `lb_units` instead.

    A memo entry is `(value, combination, exact)`. An exact entry holds the
    state's value (None when nothing fits) and its chosen combination; a cut
    entry holds only the limit its value was shown to exceed. `dp_solve`
    builds one only for a guess it admits: the grid covers it, no level
    exceeds ACTION_CAP and none is overfull."""

    def __init__(self, instance: Instance, guess: Guess, eps: float, grid: GridSpec, state_cap: int):
        self.state_cap = state_cap
        self.tau = grid.tau_cycle
        occupied = sorted(set(guess.assignment.values()))
        self.ids_at, slot_lengths, self.space_bound = _level_space(instance, guess, eps, grid)
        commodities = [[instance.commodity(i) for i in ids] for ids in self.ids_at]
        self.gammas = [[c.gamma for c in level] for level in commodities]
        # Per occupied level: interval length and slot step in F units (the
        # deepest plus grid), slots per interval, and whether the next
        # occupied level is the adjacent class.
        F = grid.plus_counts[occupied[-1] - 1]
        minus = [grid.minus_counts[q - 1] for q in occupied]
        plus = [grid.plus_counts[q - 1] for q in occupied]
        self.length = [F // m for m in minus]
        self.step = [F // p for p in plus]
        self.S = [p // m for p, m in zip(plus, minus)]
        self.adjacent = [b == a + 1 for a, b in zip(occupied, occupied[1:])]
        self.copies = minus[0]  # level-0 intervals per cycle
        self.unit = self.tau / F
        self.granule = eps * instance.V / instance.n
        self.memo: dict[tuple, tuple] = {}
        # Per level and commodity in id order: gamma*level (A x S) and the
        # interval cost K*count + 2H*hold (A), scaled from the shared table.
        self.space_terms: list[list[np.ndarray]] = []
        self.cost_terms: list[list[np.ndarray]] = []
        least = []  # per level, the sum of its commodities' least fitting interval costs
        for j, (level, step_t) in enumerate(zip(commodities, slot_lengths)):
            table = _patterns(self.S[j])
            d = table.gaps * step_t
            # gap by gap in slot order (accumulate sums sequentially): a float sum depends on its order
            hold = np.add.accumulate(0.5 * d * d, axis=1)[:, -1]
            levels = table.levels * step_t
            self.space_terms.append([c.gamma * levels for c in level])
            self.cost_terms.append([c.K * table.counts + 2.0 * c.H * hold for c in level])
            # A pattern's most space is gamma times its widest gap, so it fits
            # the bound on its own (everything else a slot holds is
            # nonnegative) iff no gap is wider than the w counted here; w >= 1,
            # since `dp_solve` rules out overfull levels first.
            total = 0.0
            for c, cost_term in zip(level, self.cost_terms[-1]):
                w = sum(c.gamma * (g * step_t) <= self.space_bound for g in range(1, self.S[j] + 1))
                total += float(cost_term[table.narrow[w]].min())
            least.append(total)
        # floor[j]: the least value of a level-j state, each commodity of it
        # and of every level below at its cheapest fitting pattern in every
        # interval
        self.floor = [0.0] * (len(occupied) + 1)
        for j in reversed(range(len(occupied))):
            children = self.length[j] // self.length[j + 1] if j + 1 < len(occupied) else 0
            self.floor[j] = least[j] + children * self.floor[j + 1]

    def solve(self, cutoff: float) -> tuple[float, CyclicPolicy] | None:
        top = (0, (), 0)
        limit = cutoff * self.tau / self.copies
        cost = self._value(top, limit)
        if cost is None or cost > limit:
            return None
        orders: dict[int, list[tuple[int, int]]] = {i: [] for ids in self.ids_at for i in ids}
        for m in range(self.copies):
            self._materialize(top, m * self.length[0], orders)
        schedules = {}
        for cid, lst in orders.items():
            lst.sort()
            schedules[cid] = tuple((pos * self.unit, q * self.unit) for pos, q in lst)
        policy = CyclicPolicy(tau=self.tau, schedules=schedules)
        return self.copies * cost / self.tau, policy

    def _value(self, state: tuple, limit: float) -> float | None:
        """Cheapest cost of the state's interval and everything below it;
        None when no combination of patterns fits, and math.inf when the
        state was cut: its value was shown to exceed `limit`.

        A combination picks one pattern per commodity of the level; its flat
        index is its position in `itertools.product` order over the ids.
        All commodities but the last are folded in one at a time: the space
        held at each slot point (previous level and bound, then gamma*level
        per commodity in id order) is checked against the bound, and rows
        already over it are dropped, since later terms only add space. So are
        the rows over it even with the last commodity's all-orders pattern,
        the least space at every slot, and the last commodity's patterns over
        it even on the least space a row holds at each slot. Every remaining
        row with every remaining last pattern is a candidate, in flat index
        order, so candidate positions compare like flat indices. Candidates
        are visited in ascending interval cost by `_ascending`, which skips
        those over the bound, and the scan stops at the first whose (cost,
        position) exceeds the best (total, position): children only add
        nonnegative cost. Of equal totals the lowest flat index wins.

        A combination's total is at least its interval cost plus the floors
        of its children. With `bound` = min(limit, best) * (1 + PRUNE_RTOL),
        the scan also stops once that exceeds the bound, and each child is
        solved under the room the bound leaves it after its earlier
        siblings' values and its later siblings' floors; a child without
        room for its own floor is not solved at all. A combination skipped
        so totals more than the bound. When the limit was the smaller term,
        the state's entry is exact only if it still finds a value within
        the limit, and is cut otherwise: its entry keeps the limit. A cut
        entry answers every limit up to its own and is solved again, in its
        slot, under a looser one; an exact entry answers every limit."""
        known = self.memo.get(state)
        if known is None:
            if len(self.memo) >= self.state_cap:
                raise StateSpaceExceeded(f"memo grew past {self.state_cap} states")
            self.memo[state] = (None, None, True)  # occupy the slot; overwritten below
        elif known[2]:
            return known[0]
        elif limit <= known[0]:
            return math.inf
        j, profile, lb_units = state
        S, step = self.S[j], self.step[j]
        space_terms = self.space_terms[j]

        # Space held by the previous class at each of this interval's slots.
        prev_space = [lb_units * self.granule] * S
        xstep = self.step[j - 1]
        for gamma, positions in zip(self.gammas[j - 1], profile):
            for s in range(S):
                pos = s * step
                prev_space[s] += gamma * (positions[pos // xstep] - pos) * self.unit

        # Fold every commodity but the last in one at a time, dropping the
        # rows over the bound, since later terms only add space; each row
        # keeps its patterns and interval cost.
        space = np.array([prev_space])
        picks: list[np.ndarray] = []
        cost = np.zeros(1)
        for term, cost_term in zip(space_terms[:-1], self.cost_terms[j][:-1]):
            # slot by slot, so the widest temporary holds one value per candidate row
            over = space[:, None, 0] + term[None, :, 0] > self.space_bound
            for s in range(1, S):
                over |= space[:, None, s] + term[None, :, s] > self.space_bound
            rows, pattern = np.nonzero(~over)
            picks = [p[rows] for p in picks] + [pattern]
            space = space[rows] + term[pattern]
            cost = cost[rows] + cost_term[pattern]
        # The last pattern, with an order at every slot, holds the least
        # space at every slot: rows over the bound with it have no pair left.
        last = space_terms[-1]
        rows = np.flatnonzero(~(space + last[-1] > self.space_bound).any(axis=1))
        picks, space, cost = [p[rows] for p in picks], space[rows], cost[rows]
        # Likewise the last patterns over the bound on the least space any
        # row holds at each slot have no pair left.
        keep = np.flatnonzero(~(space.min(axis=0, initial=math.inf) + last > self.space_bound).any(axis=1))
        # every (row, kept pattern) pair, at position row * len(keep) + k,
        # which compares like the flat index as `keep` ascends; `_ascending`
        # checks the space of the pairs the scan reaches
        cost = (cost[:, None] + self.cost_terms[j][-1][keep]).ravel()

        folds = self._folds(j, profile)
        child_floor = self.floor[j + 1]
        floor = len(folds) * child_floor
        best: float | None = None
        best_at = -1
        best_combo = None
        limited = False  # a combination was skipped for exceeding the limit
        for at, c in _ascending(cost, space, last[keep], self.space_bound):
            if best is not None and (c, at) > (best, best_at):
                break
            binding = best is None or limit < best
            bound = (limit if binding else best) * (1.0 + PRUNE_RTOL)
            if c + floor > bound:
                limited = limited or binding
                break
            row, k = divmod(at, len(keep))
            combo = tuple(int(p[row]) for p in picks) + (int(keep[k]),)
            children = self._children(j, lb_units, folds, combo)
            below = 0.0
            for later, (_, child) in zip(range(len(folds) - 1, -1, -1), children):
                room = bound - c - below - later * child_floor
                value = self._value(child, room) if room >= child_floor else math.inf
                if value is None or value == math.inf:
                    limited = limited or (value is not None and binding)
                    break
                below += value
            else:
                total = c + below
                if best is None or (total, at) < (best, best_at):
                    best, best_at, best_combo = total, at, combo
        if limited and (best is None or best > limit):
            self.memo[state] = (limit, None, False)
            return math.inf
        self.memo[state] = (best, best_combo, True)
        return best

    def _folds(self, j: int, profile: tuple) -> list[float]:
        """Per subinterval of the next occupied level under a level-j
        interval, in order, the space (gamma*level) the previous level holds
        just before its exit, summed in id order; empty at the last level."""
        if j + 1 == len(self.S):
            return []
        folds = []
        xstep = self.step[j - 1]
        for exit_ in range(self.length[j + 1], self.length[j] + 1, self.length[j + 1]):
            fold = 0.0
            for gamma, positions in zip(self.gammas[j - 1], profile):
                # it orders only on its slot points: its first order at or after
                # the exit is the first one past x-point (exit - 1) // xstep
                fold += gamma * ((positions[(exit_ - 1) // xstep] - exit_) * self.unit)
            folds.append(fold)
        return folds

    def _children(self, j: int, lb_units: int, folds: list[float], combo):
        """(entry, child state) per subinterval of the next occupied level
        under a level-j interval, in order and built as they are read, with
        `combo` chosen at its level and `folds` from `_folds`; none at the
        last level."""
        if not folds:
            return
        child_len = self.length[j + 1]
        rows = [_child_rows(a, self.S[j], self.step[j], child_len) for a in combo]
        if self.adjacent[j]:
            # per subinterval, one profile per commodity
            profiles = zip(*(profiles for profiles, _ in rows))
            for e, (fold, profile) in enumerate(zip(folds, profiles)):
                yield e * child_len, (j + 1, profile, lb_units + int(fold / self.granule))
            return
        for e, fold in enumerate(folds):
            # this level's space folds into the bound of the skipped-to level
            for gamma, (_, gaps) in zip(self.gammas[j], rows):
                fold += gamma * gaps[e] * self.unit
            yield e * child_len, (j + 1, (), lb_units + int(fold / self.granule))

    def _materialize(self, state: tuple, abs_entry: int, orders: dict[int, list[tuple[int, int]]]):
        # the state lies on the chosen chain, so its entry is exact and holds a combination
        _, combo, _ = self.memo[state]
        j, profile, lb_units = state
        step, S = self.step[j], self.S[j]
        patterns = _patterns(S).slots
        for i, a in zip(self.ids_at[j], combo):
            slots = patterns[a]
            nxt = list(slots[1:]) + [S]
            for s, e in zip(slots, nxt):
                orders[i].append((abs_entry + s * step, (e - s) * step))
        for entry, child in self._children(j, lb_units, self._folds(j, profile), combo):
            self._materialize(child, abs_entry + entry, orders)


def dp_solve(
    instance: Instance,
    guess: Guess,
    eps: float,
    grid: GridSpec,
    state_cap: int = DEFAULT_STATE_CAP,
    cutoff: float = math.inf,
) -> tuple[float, CyclicPolicy] | None:
    """Best grid-aligned policy (cost rate, policy) for one guess, or None
    when every action chain violates the space check or the best cost rate
    exceeds `cutoff`. Below the cutoff the result does not depend on it. A
    level with more pattern combinations than ACTION_CAP raises
    ActionSpaceExceeded, and a memo that reaches `state_cap` distinct states
    raises StateSpaceExceeded. For a guess with an overfull level (see the
    module docstring) None is decided up front, without building the DP."""
    if max(guess.assignment.values()) > len(grid.minus_counts):
        raise ValueError("grid does not cover the deepest guessed class")
    excess = _action_space_excess(guess, grid)
    if excess is not None:
        raise ActionSpaceExceeded(excess)
    if _overfull(instance, guess, eps, grid):
        return None
    return _DpSolver(instance, guess, eps, grid, state_cap).solve(cutoff)


def ptas_solve(
    instance: Instance,
    eps: float,
    grid_M: int = 4,
    grid_S: int = 8,
    state_cap: int = DEFAULT_STATE_CAP,
    details: dict | None = None,
) -> tuple[CyclicPolicy, EvalReport]:
    """Sweep the guesses with the miniature geometry, scale each DP policy
    into the capacity, and return the cheapest with its exact evaluation.

    A guess whose action space exceeds ACTION_CAP is skipped, so with skips
    the result is the best over the remaining guesses only. A guess with an
    overfull level is pruned at once: its DP has no value. The others are
    visited in ascending (guess_lower_bound, enumeration index), and the
    sweep stops at the first whose bound * (1 - PRUNE_RTOL) exceeds the
    incumbent's cost; the rest are pruned without running their DP. Each
    DP runs under the cutoff incumbent / f_lo * (1 + PRUNE_RTOL): a policy
    whose rate exceeds it certifies above the incumbent. The winner has the
    least (cost, enumeration index), as in a full sweep. When a dict is
    passed as `details`, the winning guess, its grid, and the numbers of
    skipped and pruned guesses are recorded; `pruned_guesses` counts the
    overfull guesses and those cut by the bound, none of which could have
    won. When no guess yields a feasible policy, StateSpaceExceeded counts
    the skipped, the overfull and the solved guesses."""
    if instance.n > DEFAULT_PTAS_CAP:
        raise TooManyCommodities(instance.n, DEFAULT_PTAS_CAP)
    guesses = enumerate_guesses(instance, eps)
    queue = []
    skipped = overfull = 0
    for index, guess in enumerate(guesses):
        grid = GridSpec.desk(guess.tau, max(guess.assignment.values()), M=grid_M, S=grid_S)
        if _action_space_excess(guess, grid) is not None:
            skipped += 1
        elif _overfull(instance, guess, eps, grid):
            overfull += 1
        else:
            queue.append((guess_lower_bound(instance, guess, grid), index, guess, grid))
    queue.sort(key=lambda entry: entry[:2])
    best: tuple[float, int, CyclicPolicy, EvalReport, Guess, GridSpec] | None = None
    visited = 0
    for bound, index, guess, grid in queue:
        cutoff = math.inf
        if best is not None:
            if bound * (1.0 - PRUNE_RTOL) > best[0]:
                break
            # the scaled policy certifies at O/f + f*Hh >= f*rate >= f_lo*rate
            cutoff = best[0] / _scale_floor(instance, guess, grid) * (1.0 + PRUNE_RTOL)
        visited += 1
        result = dp_solve(instance, guess, eps, grid=grid, state_cap=state_cap, cutoff=cutoff)
        if result is None:
            continue
        _, policy = result
        report = evaluate(policy, instance)
        if report.v_max > instance.V:
            policy = policy.scaled(instance.V / report.v_max)
            report = evaluate(policy, instance)
        if not report.feasible:
            continue
        if best is None or (report.total_cost_rate, index) < best[:2]:
            best = (report.total_cost_rate, index, policy, report, guess, grid)
    if best is None:
        raise StateSpaceExceeded(
            f"no guess produced a feasible policy ({skipped} of {len(guesses)} guesses skipped over ACTION_CAP,"
            f" {overfull} overfull, {len(queue)} without a feasible DP policy)"
        )
    _, _, policy, report, guess, grid = best
    if details is not None:
        details["guess"] = guess
        details["grid"] = grid
        details["skipped_guesses"] = skipped
        details["pruned_guesses"] = overfull + len(queue) - visited
    return policy, report


def is_b_aligned(policy: CyclicPolicy, assignment: Mapping[int, int], grid: GridSpec) -> bool:
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
            if abs(t / step - round(t / step)) > ALIGN_RTOL * plus:
                return False
        order_slots = {round(t / step) for t in times}
        ratio = plus // minus
        for k in range(minus):
            if k * ratio not in order_slots:
                return False
    return True
