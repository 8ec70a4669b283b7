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
is built once and shared by every solver. Scaled by a slot length, it gives
hold and level arrays per (slot count, slot length), and per commodity
gamma*level and K*count + 2H*hold arrays and the least cost of a pattern
that fits alone per (slot count, slot length, id); the DPs of one sweep
share these through one dict, since many guesses share a cycle length and
with it their slot lengths. What a pattern hands the next level (each
child's profile, or across a level gap its exit inventory) is integer-only
too and cached per pattern and geometry. A state folds its commodities in
one at a time onto the space the previous level holds and drops the
combinations over the bound, those of its last commodity (but for the
patterns that fit no row) only as its scan reaches them. The first
commodity folds onto the one row the previous level holds, in one broadcast
compare. A state visits the rest in ascending interval cost until no later
one can win, sorting a head of the cheapest first and 16 times as many at
each further stage, so a scan that stops early neither sorts nor checks the
rest. Equal totals go to the combination that comes first in product order
over the ids, so the chosen policy does not depend on the visiting order.
At a level with one commodity the combinations are its patterns, whose
interval costs are fixed for the level: they are sorted once (a stable
argsort, the order and tie-break the staged scan gives), and each state
only masks the patterns that fit and walks them in that order.
A state at the last occupied level has no children, so its value is its
cheapest fitting combination, the least flat index on a tie, and it builds
no candidate stream: one commodity takes the first pattern that fits in the
presorted order, and several scan their folded rows and their last
commodity's kept patterns in ascending cost, one row against every pattern
and one pattern against every row in turn, until the next row's and
pattern's costs sum past the best (`_leaf_pick`).

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

The sweep screens its guesses on arrays: per class assignment, the ACTION_CAP
skip once, and the overfull test (below) and the bound over the whole
column of cycle lengths at once. Each value comes from the same float
operations in the same id order as a scalar pass over one guess, so it is
bit-equal to it, and the queue is ordered by (bound, enumeration index).
`enumerate_guesses` returns the guess grid, whose Guess objects are built
only when read, so the sweep builds a Guess only for the guesses it visits.
A GridSpec is counts alone: one desk grid over every guessed class serves
the screen and every DP, which reads the counts of its occupied classes.

Some guesses have no DP value at all, and are ruled out before they are
queued or their DP built. At each slot point a state checks the space of
the previous level, then the quantized bound (both nonnegative), then
gamma*level per commodity of its level in id order, and every pattern's
level at every slot is at least one slot length. So when a level is
overfull, the sum in id order of gamma_i times its slot length exceeding the
space bound, no state of it passes the check (float + and * are monotone,
so the checked sum is never below that one), and the DP has no value. Such
a guess could not have won: `ptas_solve` counts it as pruned, and
`dp_solve` returns None for it.

Inside the DP, a state stops its scan once a combination's interval cost
plus a floor on everything below it exceeds the best total it has found.
The floor puts each commodity below in every interval at its cheapest
pattern among those whose space alone fits the bound, so it rises where the
capacity is tight. Every memo entry holds its state's exact value.

A DP policy is certified only if it can win: when it exceeds the capacity,
O/f + f*Hh at f = V/v_max, read off its unscaled evaluation, is compared
with the incumbent before the policy is scaled and evaluated again (see
`ptas_solve`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
# the incumbent's, a DP candidate's floor its best) before it prunes or cuts,
# so float rounding in the bound cannot drop a winner.
PRUNE_RTOL = 1e-9
# Candidates of a state sorted by cost before its scan starts; the scan sorts
# 16 times as many each time it gets past them (see `_ascending`).
HEAD_ROWS = 64
# Candidates whose space one vectorized check covers.
CHECK_ROWS = 4096


@dataclass(frozen=True)
class GridSpec:
    """Per-class grid point counts over a guess's cycle: minus_counts[q-1]
    and plus_counts[q-1] subdivide it for class q.
    Admissibility (checked at construction): minus | plus per level, minus
    nesting and plus nesting across levels, each level's minus grid refining
    the previous level's plus grid, and each level's plus grid embedding in
    the minus grids two or more levels deeper.
    """

    minus_counts: tuple[int, ...]
    plus_counts: tuple[int, ...]

    def __post_init__(self):
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
            # minus grids that do not nest fail the rule above; nested ones make a
            # plus grid that embeds two levels deeper embed in every deeper one
            if q + 2 < len(m) and m[q + 2] % p[q]:
                raise ValueError(f"level {q + 1} plus grid must embed in level {q + 3} minus grid")

    @staticmethod
    def desk(levels: int, M: int = 4, S: int = 8) -> "GridSpec":
        """Miniature geometry: minus = M^(q-1), plus = S * M^(q-1), for M, S
        >= 1 with M | S and S | M^2. Counts past the float range raise
        StateSpaceExceeded, naming the class count."""
        for name, value in (("M", M), ("S", S)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if S % M or (M * M) % S:
            raise ValueError("need M | S and S | M^2")
        if S * M ** (levels - 1) > sys.float_info.max:
            raise StateSpaceExceeded(f"a desk grid of {levels} classes has counts past the float range")
        return GridSpec(
            minus_counts=tuple(M**q for q in range(levels)),
            plus_counts=tuple(S * M**q for q in range(levels)),
        )

    @staticmethod
    def paper(levels: int, n: int, eps: float) -> "GridSpec":
        """Published counts with integer base max(2, round(n/eps)), for eps
        in (0, 1)."""
        if not (0 < eps < 1):
            raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
        b = max(2, round(n / eps))
        minus = tuple(max(1, b ** (3 * (q + 1) - 4)) for q in range(levels))
        plus = tuple(b ** (3 * (q + 1) + 1) for q in range(levels))
        return GridSpec(minus_counts=minus, plus_counts=plus)


@dataclass(frozen=True)
class Guess:
    tau: float  # the cycle length, finite and > 0
    assignment: Mapping[int, int]  # commodity id -> guessed class, an int >= 1; not empty

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"cycle length must be finite and > 0, got {self.tau!r}")
        if not self.assignment:
            raise ValueError("a guess needs at least one commodity")
        for i, q in self.assignment.items():
            if isinstance(q, bool) or not isinstance(q, int) or q < 1:
                raise ValueError(f"commodity {i!r}: guessed class must be an int >= 1, got {q!r}")
        object.__setattr__(self, "assignment", dict(self.assignment))


@dataclass(frozen=True)
class GuessGrid(Sequence):
    """The guesses of `enumerate_guesses` in enumeration order: every cycle
    length of `taus` crossed with every class assignment of `classes`
    (tuples over `ids`, in `itertools.product` order), so guess k has
    taus[k // len(classes)] and classes[k % len(classes)]. A Guess is built
    only when it is read."""

    taus: tuple[float, ...]
    ids: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.taus) * len(self.classes)

    def __getitem__(self, index: int) -> Guess:
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("guess index out of range")
        t, c = divmod(k, len(self.classes))
        return Guess(tau=self.taus[t], assignment=dict(zip(self.ids, self.classes[c])))


def enumerate_guesses(instance: Instance, eps: float) -> GuessGrid:
    """Geometric cycle-length grid over the constrained-cost range, crossed
    with all class assignments; deterministic ordering throughout. More than
    GUESS_BUDGET guesses raise BudgetExceeded, and a cycle-length or class
    range that overflows a float raises StateSpaceExceeded."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    n = instance.n
    M_const = compute_M(instance)
    k_max = max(c.K for c in instance.commodities)
    k_min = min(c.K for c in instance.commodities)
    h_min = min(c.H for c in instance.commodities)
    lo = k_max / (2.0 * eps * n * M_const)
    hi = max(lo, 2.0 * n * M_const / (eps * eps * h_min))
    u_count = 4.0 * n * n * M_const * M_const / (eps * eps * k_min * h_min)
    if not (math.isfinite(hi) and math.isfinite(u_count)):
        raise StateSpaceExceeded(f"guess range overflows a float: cycle lengths up to {hi!r}, {u_count!r} class units")
    taus = [lo]
    while taus[-1] < hi:
        taus.append(min(taus[-1] * (1.0 + eps), hi))
    q_levels = max(1, math.ceil(math.log(u_count) / math.log((n / eps) ** 3)))
    total = len(taus) * q_levels**n
    if total > GUESS_BUDGET:
        raise BudgetExceeded(total, GUESS_BUDGET)
    classes = tuple(itertools.product(range(1, q_levels + 1), repeat=n))
    return GuessGrid(taus=tuple(taus), ids=tuple(sorted(instance.ids())), classes=classes)


class _Levels(NamedTuple):
    """A guess's occupied levels, laid out as the DP's space check reads
    them (see `_level_space`)."""

    classes: list[int]  # the occupied classes, ascending
    ids: list[list[int]]  # per occupied level, its commodity ids in id order
    slots: list  # per occupied level, its slot length (a float, or a float column)
    bound: float  # the space bound (1+eps)V, widened by a relative 1e-12


def _action_space_excess(levels: _Levels, grid: GridSpec) -> str | None:
    """A message naming the first occupied level whose pattern combinations,
    2^((slots - 1) * commodities), exceed ACTION_CAP, or None when none
    does."""
    for j, (q, ids) in enumerate(zip(levels.classes, levels.ids)):
        bits = (grid.plus_counts[q - 1] // grid.minus_counts[q - 1] - 1) * len(ids)
        if (1 << bits) > ACTION_CAP:
            return f"action space 2^{bits} at level {j}"
    return None


def _level_space(instance: Instance, assignment: Mapping[int, int], eps: float, grid: GridSpec, tau) -> _Levels:
    """The occupied levels of a guess: per level its commodity ids in id
    order and its slot length (F // plus_q) * (tau / F) in time units, F
    being the deepest occupied plus grid; and the space bound. These are the
    floats the DP's space check is made of, shared by its ACTION_CAP and
    overfull checks and by `_DpSolver`. `tau` is a cycle length or a float
    column of them, which gives a column of slot lengths, each entry the
    float the one-tau call gives."""
    occupied = sorted(set(assignment.values()))
    F = grid.plus_counts[occupied[-1] - 1]
    unit = tau / F
    ids_at = [sorted(i for i, q in assignment.items() if q == lvl) for lvl in occupied]
    slot_lengths = [(F // grid.plus_counts[q - 1]) * unit for q in occupied]
    return _Levels(occupied, ids_at, slot_lengths, (1.0 + eps) * instance.V * (1.0 + 1e-12))


def _overfull_levels(instance: Instance, levels: _Levels):
    """Whether some occupied level overfills one slot even with every
    commodity of it ordering at every slot: the sum, in id order, of
    gamma_i times the slot length exceeds the space bound. Then no state of
    that level passes the DP's space check (see the module docstring).
    A bool for one cycle length, a bool column for a column of them."""
    over = False
    for ids, slot in zip(levels.ids, levels.slots):
        space = 0.0
        for i in ids:
            space += instance.commodity(i).gamma * slot
        over = over | (space > levels.bound)
    return over


def _overfull(instance: Instance, assignment: Mapping[int, int], eps: float, grid: GridSpec, tau):
    """`_overfull_levels` of the guess's `_level_space`."""
    return _overfull_levels(instance, _level_space(instance, assignment, eps, grid, tau))


def _guess_bound(instance: Instance, assignment: Mapping[int, int], grid: GridSpec, taus: np.ndarray):
    """Per cycle length of the column `taus`, the lower bound on the cost
    rate of the guess's DP policy once `ptas_solve` scales it into the
    capacity: the sum of each commodity's EOQ interval clipped into
    [f_lo*tau/plus_q, tau/minus_q]. f_lo = min(1, V/P) is the least factor
    the scaling can apply, P being the peak bound sum gamma_i*tau/minus_qi.
    Both sums run in id order, one float operation at a time, so each entry
    is the float a scalar loop over that guess gives."""
    items = sorted(assignment.items())
    peak = 0.0
    for i, q in items:
        peak = peak + instance.commodity(i).gamma * taus / grid.minus_counts[q - 1]
    f_lo = np.minimum(1.0, instance.V / peak)
    total = 0.0
    for i, q in items:
        c = instance.commodity(i)
        lo, hi = f_lo * taus / grid.plus_counts[q - 1], taus / grid.minus_counts[q - 1]
        total = total + cost(c.K, c.H, np.minimum(np.maximum(math.sqrt(c.K / c.H), lo), hi))
    return total


def _screen(
    instance: Instance, guesses: GuessGrid, eps: float, grid: GridSpec
) -> tuple[int, int, list[tuple[float, int]]]:
    """Screen the guesses one class assignment at a time, over its whole
    column of cycle lengths; `grid` covers every class. Returns the numbers
    of guesses skipped over ACTION_CAP and of overfull ones, and the queue:
    the (bound, enumeration index) pairs of every other guess, in ascending
    order."""
    taus = np.array(guesses.taus)
    shape = (len(taus), len(guesses.classes))  # guess t * len(classes) + c at [t, c]
    admitted = np.zeros(shape, dtype=bool)
    bound = np.zeros(shape)
    skipped = overfull = 0
    for c, classes in enumerate(guesses.classes):
        assignment = dict(zip(guesses.ids, classes))
        levels = _level_space(instance, assignment, eps, grid, taus)
        if _action_space_excess(levels, grid) is not None:
            skipped += len(taus)
            continue
        over = _overfull_levels(instance, levels)
        overfull += int(np.count_nonzero(over))
        admitted[:, c] = ~over
        bound[:, c] = _guess_bound(instance, assignment, grid, taus)
    keep = np.flatnonzero(admitted)
    bound = bound.ravel()
    order = keep[np.argsort(bound[keep], kind="stable")]
    return skipped, overfull, list(zip(bound[order].tolist(), order.tolist()))


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


class _ChildRows(dict):
    """Per pattern of one level, the part of its `_child_rows` the next
    occupied level reads: the child profiles when that level is the
    adjacent class (`part` 0), else the exit gaps (`part` 1). Filled as
    patterns are read."""

    def __init__(self, S: int, step: int, child_len: int, part: int):
        super().__init__()
        self.args = (S, step, child_len)
        self.part = part

    def __missing__(self, a: int):
        rows = self[a] = _child_rows(a, *self.args)[self.part]
        return rows


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


def _leaf_pick(
    cost: np.ndarray, space: np.ndarray, last_cost: np.ndarray, last_space: np.ndarray, bound: float
) -> tuple[float, int, int] | None:
    """(cost, row, pattern) of the cheapest row-pattern pair whose space,
    space[row] + last_space[pattern], stays within `bound` at every slot,
    the least (row, pattern) on equal costs, its cost being
    cost[row] + last_cost[pattern]: the first pair `_ascending` gives over
    every pair at row * len(last_cost) + pattern. None when none fits.

    Only the patterns that fit on the least space any row holds at each slot
    can fit a row; they are kept. Rows and kept patterns are scanned in
    ascending cost (stable), a row against every pattern and a pattern
    against every row at once, one of each in turn, and the scan stops
    before the next row and kept pattern whose costs sum past the best:
    float + is monotone, so no pair of an unscanned row and an unscanned
    pattern can reach the best, and every other pair has been checked."""
    fits_least = ~(space.min(axis=0, initial=math.inf) + last_space > bound).any(axis=1)
    columns = np.flatnonzero(fits_least)
    if not len(columns):
        return None
    columns = columns[np.argsort(last_cost[columns], kind="stable")].tolist()
    rows = np.argsort(cost, kind="stable").tolist()
    row_cost, pattern_cost = cost.tolist(), last_cost.tolist()
    best = None
    i = k = 0
    while i < len(rows) and k < len(columns):
        if best is not None and row_cost[rows[i]] + pattern_cost[columns[k]] > best[0]:
            break
        if i <= k:
            row = rows[i]
            i += 1
            fit = ~(space[row] + last_space > bound).any(axis=1)
            totals = np.where(fit, cost[row] + last_cost, math.inf)
            pattern = int(totals.argmin())
            found = (float(totals[pattern]), row, pattern)
        else:
            pattern = columns[k]
            k += 1
            fit = ~(space + last_space[pattern] > bound).any(axis=1)
            totals = np.where(fit, cost + last_cost[pattern], math.inf)
            row = int(totals.argmin())
            found = (float(totals[row]), row, pattern)
        if found[0] != math.inf and (best is None or found < best):
            best = found
    return best


@dataclass(eq=False)
class _Terms:
    """One commodity's pattern table scaled by one slot length, over an
    interval of S slots: gamma*level (A x S), the interval cost
    K*count + 2H*hold (A), and the least interval cost among the patterns
    whose space alone fits the space bound."""

    space: np.ndarray
    cost: np.ndarray
    least: float

    @functools.cached_property
    def ascending(self) -> tuple[np.ndarray, list[int], list[float]]:
        """The patterns in np.argsort(cost, kind="stable") order, as a level
        with this commodity alone scans them: their indices as an array and
        as a list, and their interval costs."""
        order = np.argsort(self.cost, kind="stable")
        return order, order.tolist(), self.cost[order].tolist()


def _scaled_terms(tables: dict, S: int, slot: float, c, space_bound: float) -> _Terms:
    """Commodity c's `_Terms` at S slots of length `slot`, from `tables`:
    the hold and level arrays scaled by `slot` under the key (S, slot), the
    commodity's terms under (S, slot, id). Each is built on first use; the
    least fitting cost depends on the space bound, so one dict serves the
    guesses of one instance and eps."""
    key = (S, slot, c.id)
    terms = tables.get(key)
    if terms is not None:
        return terms
    table = _patterns(S)
    scaled = tables.get((S, slot))
    if scaled is None:
        d = table.gaps * slot
        # gap by gap in slot order (accumulate sums sequentially): a float sum depends on its order
        hold = np.add.accumulate(0.5 * d * d, axis=1)[:, -1]
        scaled = tables[(S, slot)] = (hold, table.levels * slot)
    hold, levels = scaled
    cost_term = c.K * table.counts + 2.0 * c.H * hold
    # A pattern's most space is gamma times its widest gap, so it fits the
    # bound on its own (everything else a slot holds is nonnegative) iff no
    # gap is wider than the w counted here; w >= 1, since `dp_solve` rules
    # out overfull levels first.
    w = sum(c.gamma * (g * slot) <= space_bound for g in range(1, S + 1))
    terms = tables[key] = _Terms(c.gamma * levels, cost_term, float(cost_term[table.narrow[w]].min()))
    return terms


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

    A memo entry is `(value, combination)`: the state's value (None when
    nothing fits) and its chosen combination. `dp_solve` builds a solver
    only for a guess it admits: the grid covers it, no level exceeds
    ACTION_CAP and none is overfull, and hands it the `_level_space` its
    checks read; built without one, the solver lays the levels out itself."""

    def __init__(
        self,
        instance: Instance,
        guess: Guess,
        eps: float,
        grid: GridSpec,
        state_cap: int,
        tables: dict,
        levels: _Levels | None = None,
    ):
        self.state_cap = state_cap
        self.tau = guess.tau
        if levels is None:
            levels = _level_space(instance, guess.assignment, eps, grid, self.tau)
        occupied, self.ids_at, slot_lengths, self.space_bound = levels
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
        self.child_rows = [
            _ChildRows(self.S[j], self.step[j], self.length[j + 1], 0 if adjacent else 1)
            for j, adjacent in enumerate(self.adjacent)
        ]
        self.copies = minus[0]  # level-0 intervals per cycle
        self.unit = self.tau / F
        self.granule = eps * instance.V / instance.n
        self.memo: dict[tuple, tuple] = {}
        # Per level and commodity in id order, its scaled terms (`_Terms`).
        self.terms = [
            [_scaled_terms(tables, S, slot, c, self.space_bound) for c in level]
            for S, slot, level in zip(self.S, slot_lengths, commodities)
        ]
        least = []  # per level, the sum of its commodities' least fitting interval costs
        for level in self.terms:
            total = 0.0
            for t in level:
                total += t.least
            least.append(total)
        # floor[j]: the least value of a level-j state, each commodity of it
        # and of every level below at its cheapest fitting pattern in every
        # interval
        self.floor = [0.0] * (len(occupied) + 1)
        for j in reversed(range(len(occupied))):
            children = self.length[j] // self.length[j + 1] if j + 1 < len(occupied) else 0
            self.floor[j] = least[j] + children * self.floor[j + 1]

    def solve(self) -> tuple[float, CyclicPolicy] | None:
        top = (0, (), 0)
        cost = self._value(top)
        if cost is None:
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

    def _value(self, state: tuple) -> float | None:
        """Cheapest cost of the state's interval and everything below it;
        None when no combination of patterns fits.

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
        nonnegative cost. Of equal totals the lowest flat index wins. At a
        level with one commodity the candidates are its patterns that fit,
        walked in the order of `_Terms.ascending`, which is `_ascending`'s.

        A combination's total is at least its interval cost plus the floors
        of its children, so the scan also stops once that exceeds the best
        total times (1 + PRUNE_RTOL). A child's value is read straight from
        the memo when it is there.

        A state at the last occupied level has no children, so its value is
        the first candidate's cost: the cheapest fitting combination, the
        lowest flat index on a tie. One commodity reads it off the presorted
        order, the first pattern that fits; several take it from
        `_leaf_pick` over the folded rows, and no candidate stream is
        built."""
        known = self.memo.get(state)
        if known is not None:
            return known[0]
        if len(self.memo) >= self.state_cap:
            raise StateSpaceExceeded(f"memo grew past {self.state_cap} states")
        self.memo[state] = (None, None)  # occupy the slot; overwritten below
        j, profile, lb_units = state
        S, step = self.S[j], self.step[j]

        # Space held by the previous class at each of this interval's slots.
        prev_space = [lb_units * self.granule] * S
        xstep = self.step[j - 1]
        for gamma, positions in zip(self.gammas[j - 1], profile):
            for s in range(S):
                pos = s * step
                prev_space[s] += gamma * (positions[pos // xstep] - pos) * self.unit
        prev_space = np.array(prev_space)

        terms = self.terms[j]
        leaf = j + 1 == len(self.S)
        if len(terms) == 1:
            # One commodity: its combinations are its patterns, each at its
            # own flat index, with interval costs fixed for the level; they
            # are visited in the presorted order `_ascending` would give,
            # skipping those over the bound.
            order, patterns, costs = terms[0].ascending
            fits = ~(prev_space + terms[0].space > self.space_bound).any(axis=1)[order]
            if leaf:
                first = int(fits.argmax())
                if fits[first]:
                    self.memo[state] = (costs[first], (patterns[first],))
                return self.memo[state][0]
            candidates = ((patterns[p], costs[p]) for p in np.flatnonzero(fits).tolist())
            keep = None
        else:
            # Fold every commodity but the last in one at a time, dropping
            # the rows over the bound, since later terms only add space;
            # each row keeps its patterns and interval cost. The first folds
            # onto the one row of the previous level's space.
            fit = np.flatnonzero(~(prev_space + terms[0].space > self.space_bound).any(axis=1))
            picks = [fit]
            space = prev_space + terms[0].space[fit]
            cost = terms[0].cost[fit]
            for t in terms[1:-1]:
                term = t.space
                # slot by slot, so the widest temporary holds one value per candidate row
                over = space[:, None, 0] + term[None, :, 0] > self.space_bound
                for s in range(1, S):
                    over |= space[:, None, s] + term[None, :, s] > self.space_bound
                rows, pattern = np.nonzero(~over)
                picks = [p[rows] for p in picks] + [pattern]
                space = space[rows] + term[pattern]
                cost = cost[rows] + t.cost[pattern]
            last = terms[-1]
            if leaf:
                found = _leaf_pick(cost, space, last.cost, last.space, self.space_bound)
                if found is not None:
                    value, row, pattern = found
                    self.memo[state] = (value, tuple(int(p[row]) for p in picks) + (pattern,))
                return self.memo[state][0]
            # The last pattern, with an order at every slot, holds the least
            # space at every slot: rows over the bound with it have no pair left.
            rows = np.flatnonzero(~(space + last.space[-1] > self.space_bound).any(axis=1))
            picks, space, cost = [p[rows] for p in picks], space[rows], cost[rows]
            # Likewise the last patterns over the bound on the least space any
            # row holds at each slot have no pair left.
            keep = np.flatnonzero(~(space.min(axis=0, initial=math.inf) + last.space > self.space_bound).any(axis=1))
            # every (row, kept pattern) pair, at position row * len(keep) + k,
            # which compares like the flat index as `keep` ascends; `_ascending`
            # checks the space of the pairs the scan reaches
            cost = (cost[:, None] + last.cost[keep]).ravel()
            candidates = _ascending(cost, space, last.space[keep], self.space_bound)

        frame = self._frame(j, lb_units, profile)
        floor = len(frame) * self.floor[j + 1]
        memo = self.memo
        best: float | None = None
        best_at = -1
        best_combo = None
        for at, c in candidates:
            if best is not None and ((c, at) > (best, best_at) or c + floor > best * (1.0 + PRUNE_RTOL)):
                break
            if keep is None:
                combo = (at,)
            else:
                row, k = divmod(at, len(keep))
                combo = tuple([int(p[row]) for p in picks]) + (int(keep[k]),)
            below = 0.0
            for child in self._children(j, lb_units, frame, combo):
                known = memo.get(child)
                value = known[0] if known is not None else self._value(child)
                if value is None:
                    break
                below += value
            else:
                total = c + below
                if best is None or (total, at) < (best, best_at):
                    best, best_at, best_combo = total, at, combo
        memo[state] = (best, best_combo)
        return best

    def _frame(self, j: int, lb_units: int, profile: tuple) -> list:
        """Per subinterval of the next occupied level under a level-j
        interval, in order, the space (gamma*level) the previous level holds
        just before its exit, summed in id order; when the next level is
        the adjacent class, that space already folded into the child's bound,
        lb_units + int(fold / granule). Empty at the last level."""
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
        if self.adjacent[j]:
            return [lb_units + int(fold / self.granule) for fold in folds]
        return folds

    def _children(self, j: int, lb_units: int, frame: list, combo) -> Iterable[tuple]:
        """The child states, one per subinterval of the next occupied level
        under a level-j interval, in order, with `combo` chosen at its level
        and `frame` from `_frame`; none at the last level."""
        if not frame:
            return ()
        table = self.child_rows[j]
        rows = [table[a] for a in combo]
        if self.adjacent[j]:
            # per subinterval, one profile per commodity
            return zip(itertools.repeat(j + 1), zip(*rows), frame)
        children = []
        for e, fold in enumerate(frame):
            # this level's space folds into the bound of the skipped-to level
            for gamma, gaps in zip(self.gammas[j], rows):
                fold += gamma * gaps[e] * self.unit
            children.append((j + 1, (), lb_units + int(fold / self.granule)))
        return children

    def _materialize(self, state: tuple, abs_entry: int, orders: dict[int, list[tuple[int, int]]]):
        # the state lies on the chosen chain, so its entry holds a combination
        _, combo = self.memo[state]
        j, profile, lb_units = state
        step, S = self.step[j], self.S[j]
        patterns = _patterns(S).slots
        for i, a in zip(self.ids_at[j], combo):
            slots = patterns[a]
            nxt = list(slots[1:]) + [S]
            for s, e in zip(slots, nxt):
                orders[i].append((abs_entry + s * step, (e - s) * step))
        children = self._children(j, lb_units, self._frame(j, lb_units, profile), combo)
        for e, child in enumerate(children):
            self._materialize(child, abs_entry + e * self.length[j + 1], orders)


def dp_solve(
    instance: Instance,
    guess: Guess,
    eps: float,
    grid: GridSpec,
    state_cap: int = DEFAULT_STATE_CAP,
    *,
    tables: dict | None = None,
) -> tuple[float, CyclicPolicy] | None:
    """Best grid-aligned policy (cost rate, policy) over the cycle
    `guess.tau`, or None when every action chain violates the space check;
    `grid` must cover the deepest guessed class. The guess's levels are laid
    out once (`_level_space`), and that one layout feeds the checks, in this
    order, and the solver: a level with more pattern combinations than
    ACTION_CAP raises ActionSpaceExceeded, and for a guess with an overfull
    level (see the module docstring) None is decided up front, without
    building the DP. A memo that reaches `state_cap` distinct states raises
    StateSpaceExceeded. `tables` holds the scaled pattern tables (see
    `_scaled_terms`) that the DPs of one instance and eps share; without it
    the DP builds its own."""
    if max(guess.assignment.values()) > len(grid.minus_counts):
        raise ValueError("grid does not cover the deepest guessed class")
    levels = _level_space(instance, guess.assignment, eps, grid, guess.tau)
    excess = _action_space_excess(levels, grid)
    if excess is not None:
        raise ActionSpaceExceeded(excess)
    if _overfull_levels(instance, levels):
        return None
    tables = {} if tables is None else tables
    return _DpSolver(instance, guess, eps, grid, state_cap, tables, levels).solve()


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
    visited in ascending (lower bound, enumeration index), and the sweep
    stops at the first whose bound * (1 - PRUNE_RTOL) exceeds the
    incumbent's cost; the rest are pruned without running their DP. The
    winner has the least (cost, enumeration index), as in a full sweep.
    When a dict is passed as `details`, the winning guess, the sweep's one
    grid (`details["grid"]`, desk counts over every guessed class) and the
    numbers of skipped and pruned guesses are recorded; `pruned_guesses`
    counts the overfull guesses and those cut by the bound, none of which
    could have won. When no guess yields a feasible policy,
    StateSpaceExceeded counts the skipped, the overfull and the solved guesses.

    A DP policy over the capacity is scaled by f = V / v_max, which divides
    its ordering cost O and multiplies its holding cost Hh. The scaled
    policy is built and evaluated only when O/f + f*Hh, taken from the
    unscaled evaluation, times (1 - PRUNE_RTOL) is within the incumbent's
    cost. The estimate and the scaled evaluation are the same exact sums,
    rounded in different steps: they differ by a relative 2.2e-14 at most
    over the sweeps the tests run, which hold it within 1e-12, far inside
    the 1e-9 margin. So a policy skipped this way certifies above the
    incumbent and could neither win nor tie."""
    if instance.n > DEFAULT_PTAS_CAP:
        raise TooManyCommodities(instance.n, DEFAULT_PTAS_CAP)
    guesses = enumerate_guesses(instance, eps)
    grid = GridSpec.desk(max(guesses.classes[-1]), M=grid_M, S=grid_S)
    skipped, overfull, queue = _screen(instance, guesses, eps, grid)
    tables: dict = {}
    best: tuple[float, int, CyclicPolicy, EvalReport, Guess] | None = None
    visited = 0
    for bound, index in queue:
        if best is not None and bound * (1.0 - PRUNE_RTOL) > best[0]:
            break
        visited += 1
        guess = guesses[index]
        result = dp_solve(instance, guess, eps, grid=grid, state_cap=state_cap, tables=tables)
        if result is None:
            continue
        _, policy = result
        report = evaluate(policy, instance)
        if report.v_max > instance.V:
            f = instance.V / report.v_max
            estimate = report.ordering_cost_rate / f + f * report.holding_cost_rate
            if best is not None and estimate * (1.0 - PRUNE_RTOL) > best[0]:
                continue
            policy = policy.scaled(f)
            report = evaluate(policy, instance)
        if not report.feasible:
            continue
        if best is None or (report.total_cost_rate, index) < best[:2]:
            best = (report.total_cost_rate, index, policy, report, guess)
    if best is None:
        raise StateSpaceExceeded(
            f"no guess produced a feasible policy ({skipped} of {len(guesses)} guesses skipped over ACTION_CAP,"
            f" {overfull} overfull, {len(queue)} without a feasible DP policy)"
        )
    _, _, policy, report, guess = best
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
