"""Domain types and canonical serialized formats.

The model is the multi-commodity EOQ under a shared warehouse: each commodity
has unit demand rate, a fixed ordering cost K, a physical holding coefficient
2H (so a stationary policy with interval T costs K/T + H*T per unit of time),
and a space coefficient gamma. All solvers exchange policies through the
types below; `CyclicPolicy` is the universal representation.

An `Instance` is its columns: the ids, read-only float64 K, H and gamma in
instance order, and the capacity V. `Instance.from_columns` checks them in
one array pass; the generator and the instance parser build through it,
and the solvers read `Instance.columns`. A `Commodity` is made only for a
scalar reader: `Instance.commodities` makes every row's on its first read
and keeps them, and `Instance.commodity` reads one of them.

A `SosiPolicy` holds its intervals as an `IdColumn`: a tuple of ids and a
read-only float64 column, whose id -> value dict is built only when an item
is read. The solvers build their stationary policies from columns, and the
evaluator keys a stationary report's average inventories the same way.

Each type owns its rules. `CyclicPolicy` checks the cycle length and each
commodity's orders (in [0, tau), strictly increasing, positive, summing to
tau); `SosiPolicy` checks that it has intervals, over distinct ids, each
finite and > 0, and that each phase lies in [0, T) of an interval it holds;
`CouplePolicy` holds its templates as CyclicPolicy objects, valid when
built, and checks that each holds exactly two schedules, that it has one
case per template, each an integer in COUPLE_CASES (1..6), that it has
couples and each names a template it holds, and that its ids are distinct,
two per couple. A broken rule raises a PolicyPartError naming the part,
from which the JSON parsers build the SchemaError's field path; the parsers
themselves check only JSON types and id keys, and `parse_policies` checks
ids against the instance.

`policy_entry` writes the one wire-format entry of each policy type and
`parse_policy` reads it back; no other module names an entry's keys.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .errors import IncommensurateIntervals, PolicyPartError, SchemaError

# Relative tolerance for the per-commodity demand-conservation invariant
# (sum of order quantities over one cycle equals the cycle length).
CONSERVATION_RTOL = 1e-9

# The construction cases of a couple template (couples.CLAIMED_RATIOS' keys).
COUPLE_CASES = frozenset(range(1, 7))


@dataclass(frozen=True)
class Commodity:
    """Per-item economics under unit demand rate.

    K is the cost of one order, 2H the cost of holding one unit for one unit
    of time (so an interval T costs K/T + H*T per unit of time), and gamma
    the warehouse space one unit of inventory takes.
    """

    id: int
    K: float
    H: float
    gamma: float

    def __post_init__(self):
        problem = _commodity_problem(self.id, self.K, self.H, self.gamma)
        if problem:
            raise ValueError(problem)


def _commodity_problem(cid, K, H, gamma) -> str | None:
    """The message Commodity(cid, K, H, gamma) raises, or None when it is valid."""
    if not isinstance(cid, int):
        return f"commodity id must be an integer, got {cid!r}"
    for name, value in (("K", K), ("H", H), ("gamma", gamma)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            return f"commodity {cid}: {name} must be finite and > 0, got {value!r}"
    return None


def _read_only(values) -> np.ndarray:
    column = np.array(values, dtype=float)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Columns:
    """An instance's ids and per-commodity parameters, in instance order.
    The arrays are float64 and read-only."""

    ids: tuple[int, ...]
    K: np.ndarray
    H: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class Instance:
    """A commodity list plus the shared warehouse capacity, held as its
    columns: the ids, read-only float64 K, H and gamma in instance order,
    and `capacity_V`.

    `Instance.from_columns(ids, K, H, gamma, capacity_V)` checks the columns
    in one array pass; `Instance(commodities, capacity_V)` takes Commodity
    objects, valid when built. Either way an invalid input raises the
    ValueError that building it one Commodity at a time would: the first
    row, in instance order, whose id is not an integer or whose K, H or
    gamma is not finite and > 0, then an empty instance, repeated ids and a
    capacity that is not finite and > 0, in that order.

    `n`, `ids()`, `in`, `columns`, `positions()` of ids in instance order
    and `==` read the columns and the id set alone: the ids as a range when
    they are 0..n-1 in order, as the generator and most files have them,
    else as a frozenset. The Commodity objects (`commodities`,
    `commodity(cid)`) and the id -> position dict are built on their first
    read and kept; `position()` needs no dict when the ids are a range, nor
    does `positions()` of integer ids in it.
    """

    columns: Columns
    capacity_V: float
    # the id set, checked distinct: range(n) when the ids are 0..n-1 in order
    _members: range | frozenset = field(repr=False)

    def __init__(self, commodities: Iterable[Commodity], capacity_V: float):
        commodities = tuple(commodities)
        self._set(
            Columns(
                ids=tuple(c.id for c in commodities),
                K=_read_only([c.K for c in commodities]),
                H=_read_only([c.H for c in commodities]),
                gamma=_read_only([c.gamma for c in commodities]),
            ),
            capacity_V,
        )
        object.__setattr__(self, "commodities", commodities)

    @classmethod
    def from_columns(cls, ids: Iterable[int], K, H, gamma, capacity_V: float) -> "Instance":
        """The instance of commodities ids[k], with parameters K[k], H[k] and
        gamma[k]. The columns are copied into read-only float64 arrays; an id
        array is read as its Python ints."""
        ids = tuple(ids.tolist() if isinstance(ids, np.ndarray) else ids)
        given = (K, H, gamma)
        if any(len(values) != len(ids) for values in given):
            raise ValueError(f"expected columns of {len(ids)} values, got {[len(values) for values in given]}")
        columns = [_positive_column(values) for values in given]
        if not set(map(type, ids)) <= {int} or any(column is None for column in columns):
            rows = [values.tolist() if isinstance(values, np.ndarray) else values for values in given]
            for row in zip(ids, *rows):
                problem = _commodity_problem(*row)
                if problem:
                    raise ValueError(problem)
            # valid values numpy does not store natively, such as ints past int64
            columns = [_read_only(values) if column is None else column for column, values in zip(columns, rows)]
        for column in columns:
            column.flags.writeable = False
        instance = cls.__new__(cls)
        instance._set(Columns(ids, *columns), capacity_V)
        return instance

    def _set(self, columns: Columns, capacity_V: float) -> None:
        """Keep the checked columns; the instance-wide rules are checked here."""
        ids = columns.ids
        if not ids:
            raise ValueError("instance needs at least one commodity")
        members = range(len(ids))
        if ids != tuple(members):
            members = frozenset(ids)
            if len(members) != len(ids):
                raise ValueError(f"duplicate commodity ids: {sorted(ids)}")
        v = capacity_V
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"capacity must be finite and > 0, got {v!r}")
        for name, value in (("columns", columns), ("capacity_V", v), ("_members", members)):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        a, b = self.columns, other.columns
        return (
            self.capacity_V == other.capacity_V
            and a.ids == b.ids
            and all(np.array_equal(x, y) for x, y in ((a.K, b.K), (a.H, b.H), (a.gamma, b.gamma)))
        )

    def __hash__(self) -> int:
        return hash((self.columns.ids, self.capacity_V))

    @property
    def n(self) -> int:
        return len(self.columns.ids)

    @property
    def V(self) -> float:
        return self.capacity_V

    @cached_property
    def commodities(self) -> tuple[Commodity, ...]:
        """The Commodity of each row, in instance order; built on first read."""
        cols = self.columns
        return tuple(map(Commodity, cols.ids, cols.K.tolist(), cols.H.tolist(), cols.gamma.tolist()))

    @cached_property
    def _position(self) -> dict[int, int]:
        """id -> position, built on first use."""
        return {cid: k for k, cid in enumerate(self.columns.ids)}

    def __contains__(self, cid: int) -> bool:
        return cid in self._members

    def position(self, cid: int) -> int:
        """Index of commodity `cid` in `commodities`."""
        try:
            if isinstance(self._members, range):
                return self._members.index(cid)
            return self._position[cid]
        except (KeyError, ValueError):
            raise KeyError(f"no commodity with id {cid}") from None

    def positions(self, cids: Iterable[int]) -> np.ndarray:
        """Indices into `commodities` of `cids`, in the order given; the first
        id the instance lacks raises the KeyError of `position`. Ids in
        instance order are recognized without a lookup per id. When the ids
        are a range, integer ids are their own positions: they are read as
        one integer array and checked against the range at once; ids of any
        other type, or any outside the range, are looked up one by one."""
        cids = tuple(cids)
        ids = self.columns.ids
        if cids is ids or cids == ids:
            return np.arange(len(cids))
        if isinstance(self._members, range):
            given = np.asarray(cids)
            if given.dtype.kind == "i" and given.ndim == 1 and 0 <= given.min() and given.max() < len(ids):
                return given.astype(np.intp, copy=False)
        try:
            return np.fromiter(map(self._position.__getitem__, cids), dtype=np.intp, count=len(cids))
        except KeyError as exc:
            raise KeyError(f"no commodity with id {exc.args[0]}") from None

    def commodity(self, cid: int) -> Commodity:
        """The Commodity of `cid`, from `commodities`."""
        return self.commodities[self.position(cid)]

    def ids(self) -> list[int]:
        return list(self.columns.ids)


def _positive_column(values: list) -> np.ndarray | None:
    """`values` as a float64 array when each is a finite number > 0 of a
    type numpy stores natively (bool, int, float); None otherwise."""
    try:
        column = np.array(values)
    except (TypeError, ValueError, OverflowError):  # e.g. ragged sequences among the values
        return None
    if column.shape != (len(values),) or column.dtype.kind not in "biuf":
        return None
    if not (np.isfinite(column) & (column > 0)).all():
        return None
    return column.astype(float, copy=False)


class IdColumn(Mapping):
    """A read-only id -> float mapping held as a tuple of ids and a
    read-only float64 column of their values, in the same order.

    Iteration, `len` and the `ids` and `column` attributes read no dict; the
    id -> value dict is built on the first item access (a lookup, `in`,
    `items()` or `values()`) and kept. A column that is not already a
    read-only float64 array is copied into one. The ids are taken to be
    distinct: SosiPolicy checks its intervals' ids, and the reports keyed on
    them inherit that."""

    __slots__ = ("ids", "column", "_dict")

    def __init__(self, ids: Sequence, column) -> None:
        ids = tuple(ids)
        if not (isinstance(column, np.ndarray) and column.dtype == np.float64 and not column.flags.writeable):
            column = np.array(column, dtype=float)
            column.flags.writeable = False
        if column.shape != (len(ids),):
            raise ValueError(f"expected a column of {len(ids)} values, got shape {column.shape}")
        self.ids = ids
        self.column = column
        self._dict = None

    def _mapping(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(self.ids, self.column.tolist()))
        return self._dict

    def __getitem__(self, key):
        return self._mapping()[key]

    def __contains__(self, key) -> bool:
        return key in self._mapping()

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def items(self):
        return self._mapping().items()

    def values(self):
        return self._mapping().values()

    def __repr__(self) -> str:
        return f"IdColumn({self._mapping()!r})"


def _interval_column(ids: Sequence, values: Sequence) -> np.ndarray:
    """The scalar check of a policy's intervals: the first id in key order
    that repeats an earlier one, or whose interval is not finite and > 0,
    raises a PolicyPartError naming it. It passes exact numbers that numpy
    keeps as objects (Fraction, big int), which are read as floats."""
    seen = set()
    for cid, T in zip(ids, values):
        if cid in seen:
            raise PolicyPartError(("intervals", cid), f"commodity {cid} has two intervals")
        seen.add(cid)
        if not (math.isfinite(T) and T > 0):
            raise PolicyPartError(("intervals", cid), f"interval for commodity {cid} must be > 0, got {T!r}")
    return np.array([float(T) for T in values])


@dataclass(frozen=True)
class SosiPolicy:
    """Stationary order sizes and stationary intervals: orders of size T_i every T_i.

    `intervals_T` is always an IdColumn, its ids in the key order given. One
    passed in is checked in one array pass (distinct ids, every interval
    finite and > 0) and kept as it is; any other mapping is read into one,
    its values as floats. A check that fails falls back to the scalar check,
    which names the first bad id in key order.
    """

    intervals_T: Mapping[int, float]
    phases: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        intervals = self.intervals_T
        if isinstance(intervals, IdColumn):
            ids, column = intervals.ids, intervals.column
            bad = len(set(ids)) != len(ids) or not (np.isfinite(column) & (column > 0)).all()
            values = column.tolist() if bad else None
        else:
            ids, values = tuple(intervals), list(intervals.values())
            column = _positive_column(values)
            bad = column is None
        if not ids:
            raise PolicyPartError(("intervals",), "SOSI policy needs at least one commodity")
        if bad:
            column = _interval_column(ids, values)
        if not isinstance(intervals, IdColumn):
            column.flags.writeable = False
            object.__setattr__(self, "intervals_T", IdColumn(ids, column))
        object.__setattr__(self, "phases", dict(self.phases))
        for cid, phi in self.phases.items():
            if cid not in self.intervals_T:
                raise PolicyPartError(("phases", cid), f"phase given for commodity {cid}, which has no interval")
            if not (0 <= phi < self.intervals_T[cid]):
                raise PolicyPartError(("phases", cid), f"phase for commodity {cid} must lie in [0, T), got {phi!r}")

    def phase(self, cid: int) -> float:
        return self.phases.get(cid, 0.0)

    @cached_property
    def schedules(self) -> Mapping[int, tuple[tuple[float, float], ...]]:
        """id -> ((phase, T),), in the key order of `intervals_T`: the
        one-order sawtooth each commodity runs on its own cycle T, as the
        single-commodity CyclicPolicy(T, {id: ((phase, T),)}) holds it.
        Read-only, built on first access."""
        phases = self.phases
        intervals = self.intervals_T
        return MappingProxyType(
            {cid: ((phases.get(cid, 0.0), T),) for cid, T in zip(intervals.ids, intervals.column.tolist())}
        )

    def scaled(self, factor: float) -> "SosiPolicy":
        """Scale every interval and phase; peak space scales by `factor`.
        The intervals are scaled as one column, each bit-equal to T * factor."""
        intervals = self.intervals_T
        with np.errstate(over="ignore", invalid="ignore"):
            column = intervals.column * factor
        return SosiPolicy(
            intervals_T=IdColumn(intervals.ids, column),
            phases={cid: phi * factor for cid, phi in self.phases.items()},
        )


@dataclass(frozen=True)
class CyclicPolicy:
    """Periodic schedule: per commodity, sorted (time, quantity) orders on [0, tau)."""

    tau: float
    schedules: Mapping[int, tuple[tuple[float, float], ...]]

    def __post_init__(self):
        tau = self.tau
        if not (math.isfinite(tau) and tau > 0):
            raise PolicyPartError(("tau",), f"cycle length must be > 0, got {tau!r}")
        tolerance = CONSERVATION_RTOL * max(abs(tau), 1.0)
        normalized = {}
        for cid, orders in self.schedules.items():
            # one pass that notes every violation; they are raised below in a fixed priority
            parsed = []
            in_range = increasing = positive = True
            prev = -math.inf
            for t, q in orders:
                t, q = float(t), float(q)
                in_range = in_range and 0 <= t < tau
                increasing = increasing and t > prev
                positive = positive and q > 0
                prev = t
                parsed.append((t, q))
            problem = ""
            if not parsed:
                problem = "at least one order per cycle required"
            elif not in_range:
                problem = "order times must lie in [0, tau)"
            elif not increasing:
                problem = "order times must be strictly increasing"
            elif not positive:
                problem = "order quantities must be > 0"
            else:
                try:
                    total = math.fsum(q for _, q in parsed)
                except OverflowError:
                    total = math.inf
                if abs(total - tau) > tolerance:
                    problem = f"quantities sum to {total!r}, expected cycle length {tau!r}"
            if problem:
                raise PolicyPartError(("schedules", cid), f"commodity {cid}: {problem}")
            normalized[cid] = tuple(parsed)
        object.__setattr__(self, "schedules", normalized)

    @classmethod
    def unchecked(cls, tau: float, schedules: dict) -> "CyclicPolicy":
        """The policy of `tau` and `schedules` as given, without the check
        of __post_init__: only for a caller that has proven they pass it,
        `schedules` a dict of tuples of (float, float) orders, as the check
        would leave them (couples.couple_template)."""
        policy = cls.__new__(cls)
        object.__setattr__(policy, "tau", tau)
        object.__setattr__(policy, "schedules", schedules)
        return policy

    def scaled(self, factor: float) -> "CyclicPolicy":
        """Uniformly scale all times and quantities; peak space scales by `factor`."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return CyclicPolicy(
            tau=self.tau * factor,
            schedules={
                cid: tuple((t * factor, q * factor) for t, q in orders)
                for cid, orders in self.schedules.items()
            },
        )

    def restricted_to(self, ids: Sequence[int]) -> "CyclicPolicy":
        keep = {cid: self.schedules[cid] for cid in ids}
        return CyclicPolicy(self.tau, keep)


@dataclass(frozen=True)
class CouplePolicy:
    """The paired two-commodity schedules of one couple block.

    Couple j runs templates[which[j]]: the template's first schedule, in key
    order, goes to ids[2j] (commodity A), its second to ids[2j+1] (commodity
    B). A template names no commodity: the parser and couples.couple_template
    key A's schedule 0 and B's 1, and the policy reads only the order of the
    keys, not their values. cases[t] is template t's
    construction case, an integer in COUPLE_CASES, for the wire format. A
    template is a CyclicPolicy, so it is valid when it is built; the policy
    checks only that it holds two schedules.
    """

    templates: tuple[CyclicPolicy, ...]
    cases: tuple[int, ...]
    which: tuple[int, ...]
    ids: tuple[int, ...]

    def __post_init__(self):
        for name in ("templates", "cases", "which", "ids"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        templates, cases, which, ids = self.templates, self.cases, self.which, self.ids
        for t, template in enumerate(templates):
            _two_schedules(t, len(template.schedules))
        m = len(templates)
        if len(cases) != m:
            raise PolicyPartError(("cases",), f"expected {m} cases, one per template, got {len(cases)}")
        for t, case in enumerate(cases):
            if type(case) is not int or case not in COUPLE_CASES:
                raise PolicyPartError((f"templates[{t}]", "case"), f"case must be an integer in 1..6, got {case!r}")
        if not which:
            raise PolicyPartError(("which",), "couple policy needs at least one couple")
        if min(which) < 0 or max(which) >= m:
            j = next(j for j, k in enumerate(which) if not 0 <= k < m)
            raise PolicyPartError((f"which[{j}]",), f"template index must lie in [0, {m}), got {which[j]!r}")
        if len(ids) != 2 * len(which):
            raise PolicyPartError(("ids",), f"expected {2 * len(which)} ids, two per couple, got {len(ids)}")
        if len(set(ids)) != len(ids):
            first: dict[int, int] = {}
            for j, cid in enumerate(ids):
                if cid in first:
                    raise PolicyPartError((f"ids[{j}]",), f"commodity {cid} is also ids[{first[cid]}]")
                first[cid] = j

    @cached_property
    def schedules(self) -> Mapping[int, tuple[tuple[float, float], ...]]:
        """id -> orders, in the order of `ids`: the schedule each commodity
        runs in its couple. Read-only, built on first access."""
        pairs = [tuple(t.schedules.values()) for t in self.templates]
        return MappingProxyType(dict(zip(self.ids, itertools.chain.from_iterable(map(pairs.__getitem__, self.which)))))

    def scaled(self, factor: float) -> "CouplePolicy":
        """Scale every template; peak space scales by `factor`."""
        return CouplePolicy(tuple(t.scaled(factor) for t in self.templates), self.cases, self.which, self.ids)


def _two_schedules(t: int, count: int) -> None:
    if count != 2:
        raise PolicyPartError((f"templates[{t}]", "schedules"), f"a couple template needs exactly two schedules, got {count}")


def _couple_template(t: int, tau: float, schedules: Sequence) -> CyclicPolicy:
    """Template t of a couples entry as the CyclicPolicy keyed 0 (A) and 1
    (B); a broken rule is named below `templates[t]`."""
    _two_schedules(t, len(schedules))
    try:
        return CyclicPolicy(tau, dict(enumerate(schedules)))
    except PolicyPartError as exc:
        part = exc.part if exc.part == ("tau",) else (f"schedules[{exc.part[1]}]",)
        raise PolicyPartError((f"templates[{t}]", *part), str(exc)) from exc


# Largest denominator `_as_fraction` tries when snapping a float.
MAX_SNAP_DENOMINATOR = 10**12


def _as_fraction(x: float) -> Fraction | None:
    """Rational snap of a float; None when no denominator <= MAX_SNAP_DENOMINATOR reproduces it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    frac = Fraction(x).limit_denominator(MAX_SNAP_DENOMINATOR)
    if abs(float(frac) - x) <= 1e-12 * max(abs(x), 1.0):
        return frac
    return None


def _joint_cycle(fracs: dict[int, Fraction]) -> tuple[Fraction, int]:
    tau = Fraction(0)
    for f in fracs.values():
        tau = f if tau == 0 else _lcm_fraction(tau, f)
    return tau, sum(int(tau / f) for f in fracs.values())


def sosi_to_cyclic(policy: SosiPolicy, max_orders: int = 2_000_000) -> CyclicPolicy:
    """Expand a SOSI policy into its exact joint cyclic schedule.

    The cycle is the least common integer multiple of all intervals, found
    through rational snapping; raises IncommensurateIntervals when none
    exists below `max_orders` total orders.
    """
    items = sorted(policy.intervals_T.items())
    # Two rationalizations are tried whole-policy: denominator-limited
    # snapping (canonicalizes decimal-entered values like 1/3) and the
    # exact binary expansion (keeps shared-mantissa families, e.g.
    # power-of-two grids, commensurable). Either must fit the order cap.
    candidates: list[dict[int, Fraction]] = []
    snapped = {cid: _as_fraction(T) for cid, T in items}
    if all(f is not None and f > 0 for f in snapped.values()):
        candidates.append(snapped)
    candidates.append({cid: Fraction(float(T)) for cid, T in items})
    fracs = None
    tau = Fraction(0)
    total_orders = 0
    for cand in candidates:
        tau, total_orders = _joint_cycle(cand)
        if total_orders <= max_orders:
            fracs = cand
            break
    if fracs is None:
        raise IncommensurateIntervals(f"joint cycle needs {total_orders} orders (> {max_orders})")
    schedules = {}
    for cid, f in fracs.items():
        m = int(tau / f)
        phi = _as_fraction(policy.phase(cid)) or Fraction(policy.phase(cid))
        times = sorted((phi + k * f) % tau for k in range(m))
        schedules[cid] = tuple((float(t), float(f)) for t in times)
    return CyclicPolicy(float(tau), schedules)


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.lcm(a.numerator, b.numerator), math.gcd(a.denominator, b.denominator)
    )


# ---------------------------------------------------------------------------
# Canonical JSON formats
# ---------------------------------------------------------------------------


def _load_object(text: bytes | str) -> dict:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"$: not UTF-8 ({exc})") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError("$: expected an object")
    return raw


def _number(value, path: str) -> float:
    """A JSON number (booleans excluded) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{path}: number out of range") from exc


def _checked(path: str, build, *args):
    """`build(*args)`, with its domain ValueError re-raised as a SchemaError
    at `path`, extended by the part a PolicyPartError names."""
    try:
        return build(*args)
    except ValueError as exc:
        if isinstance(exc, PolicyPartError):
            path = ".".join((path, *map(str, exc.part)))
        raise SchemaError(f"{path}: {exc}") from exc


def parse_instance(text: bytes | str) -> Instance:
    """Parse the canonical instance JSON; SchemaError carries the field path.

    The commodities are checked entry by entry into columns, so the error
    raised is the first one in entry order, and within an entry its
    structure (keys, an integer id not seen before, numbers) comes before
    its values. The capacity's value is checked last."""
    raw = _load_object(text)
    if "capacity" not in raw:
        raise SchemaError("$.capacity: missing")
    capacity = _number(raw["capacity"], "$.capacity")
    entries = raw.get("commodities")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("$.commodities: expected a nonempty array")
    # the entries are valid, so only the capacity can fail
    return _checked("$.capacity", Instance.from_columns, *_checked_entries(entries), capacity)


def _checked_entries(entries: list) -> tuple[tuple, ...]:
    """The ids and the K, H and gamma values of `entries`, checked entry by
    entry; the first entry that breaks a rule raises its SchemaError."""
    rows = []
    seen: set[int] = set()
    for k, entry in enumerate(entries):
        path = f"$.commodities[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: expected an object")
        for key in ("id", "K", "H", "gamma"):
            if key not in entry:
                raise SchemaError(f"{path}.{key}: missing")
        cid = entry["id"]
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise SchemaError(f"{path}.id: expected an integer")
        if cid in seen:
            raise SchemaError(f"{path}.id: duplicate commodity id {cid}")
        seen.add(cid)
        row = (cid, *(_number(entry[key], f"{path}.{key}") for key in ("K", "H", "gamma")))
        problem = _commodity_problem(*row)
        if problem:
            raise SchemaError(f"{path}: {problem}")
        rows.append(row)
    return tuple(zip(*rows))


def serialize_instance(instance: Instance) -> bytes:
    cols = instance.columns
    payload = {
        "capacity": instance.capacity_V,
        "commodities": [
            {"id": cid, "K": K, "H": H, "gamma": gamma}
            for cid, K, H, gamma in zip(cols.ids, cols.K.tolist(), cols.H.tolist(), cols.gamma.tolist())
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


Policy = CyclicPolicy | SosiPolicy | CouplePolicy


def parse_policy(text: bytes | str) -> Policy:
    """Parse one policy entry: the canonical cyclic-policy JSON, a
    stationary block's `{"sosi": {...}}` (a SosiPolicy) or a couple block's
    `{"couples": {...}}` (a CouplePolicy). SchemaError carries the field
    path."""
    return _policy_from(_load_object(text), "$")


def parse_policies(text: bytes | str, instance: Instance) -> list[Policy]:
    """Parse one policy entry, or the `{"blocks": [...]}` union of entries
    over disjoint ids that every solver writes, into its parts: a
    CyclicPolicy per `{"tau", "schedules"}` entry, a SosiPolicy per
    `{"sosi": {"intervals", "phases"}}` entry and a CouplePolicy per
    `{"couples": {"templates", "which", "ids"}}` entry. Keys other than
    `tau`, `schedules`, `sosi`, `couples` and `blocks` (`provenance`,
    `diagnostics`, `summary`) are ignored. An id the `instance` lacks, or
    one that two entries both name, is a SchemaError at that id's path."""
    raw = _load_object(text)
    if "blocks" not in raw:
        parts = [("$", raw)]
    elif isinstance(raw["blocks"], list):
        parts = [(f"$.blocks[{k}]", block) for k, block in enumerate(raw["blocks"])]
    else:
        raise SchemaError("$.blocks: expected an array")
    policies = []
    owner: dict[int, str] = {}
    for path, block in parts:
        if not isinstance(block, dict):
            raise SchemaError(f"{path}: expected an object")
        policy = _policy_from(block, path)
        if isinstance(policy, SosiPolicy):
            ids, where = policy.intervals_T, f"{path}.sosi.intervals.{{cid}}"
        elif isinstance(policy, CouplePolicy):
            ids, where = policy.ids, f"{path}.couples.ids[{{j}}]"
        else:
            ids, where = policy.schedules, f"{path}.schedules.{{cid}}"
        for j, cid in enumerate(ids):
            if cid not in instance:
                raise SchemaError(f"{where.format(j=j, cid=cid)}: the instance has no commodity {cid}")
            if cid in owner:
                raise SchemaError(f"{where.format(j=j, cid=cid)}: commodity {cid} is also in {owner[cid]}")
            owner[cid] = path
        policies.append(policy)
    return policies


def _id_key(key: str, path: str) -> int:
    """An object key that writes an integer id in canonical decimal form."""
    try:
        cid = int(key)
    except ValueError:
        cid = None
    if cid is None or str(cid) != key:
        raise SchemaError(f"{path}.{key}: key must be an integer id")
    return cid


def _policy_from(raw: dict, root: str) -> Policy:
    if "couples" in raw:
        if "sosi" in raw or "tau" in raw or "schedules" in raw:
            raise SchemaError(f"{root}: expected a couples entry alone, without sosi, tau or schedules")
        return _couples_from(raw["couples"], f"{root}.couples")
    if "sosi" in raw:
        if "tau" in raw or "schedules" in raw:
            raise SchemaError(f"{root}: expected either a sosi entry or tau and schedules, not both")
        return _sosi_from(raw["sosi"], f"{root}.sosi")
    tau = _tau(raw, root)
    if not isinstance(raw.get("schedules"), dict):
        raise SchemaError(f"{root}.schedules: expected an object")
    schedules = {}
    for key, orders in raw["schedules"].items():
        schedules[_id_key(key, f"{root}.schedules")] = _orders(orders, f"{root}.schedules.{key}")
    return _checked(root, CyclicPolicy, tau, schedules)


def _tau(raw: dict, root: str) -> float:
    # Field paths are built only on the way to a SchemaError: a float needs no check.
    tau = raw.get("tau")
    return tau if type(tau) is float else _number(tau, f"{root}.tau")


def _orders(raw, path: str) -> tuple[tuple[float, float], ...]:
    """A JSON array of `[t, q]` pairs of numbers as float pairs."""
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected an array of [t, q] pairs")
    parsed = []
    for k, pair in enumerate(raw):
        if isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is float and type(pair[1]) is float:
            parsed.append((pair[0], pair[1]))
        else:
            parsed.append(_pair(pair, f"{path}[{k}]"))
    return tuple(parsed)


def _couples_from(raw, root: str) -> CouplePolicy:
    """The CouplePolicy of a `{"templates": [{"tau", "schedules": [A's
    orders, B's orders], "case"}], "which": [...], "ids": [...]}` object."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{root}: expected an object")
    if not isinstance(raw.get("templates"), list):
        raise SchemaError(f"{root}.templates: expected an array")
    parsed = []
    for t, template in enumerate(raw["templates"]):
        path = f"{root}.templates[{t}]"
        if not isinstance(template, dict):
            raise SchemaError(f"{path}: expected an object")
        tau = _tau(template, path)
        schedules = template.get("schedules")
        if not isinstance(schedules, list):
            raise SchemaError(f"{path}.schedules: expected an array of two order arrays")
        case = template.get("case")
        if type(case) is not int:
            raise SchemaError(f"{path}.case: expected an integer")
        parsed.append((tau, [_orders(orders, f"{path}.schedules[{j}]") for j, orders in enumerate(schedules)], case))
    which = _integers(raw.get("which"), f"{root}.which")
    ids = _integers(raw.get("ids"), f"{root}.ids")
    templates = [_checked(root, _couple_template, t, tau, schedules) for t, (tau, schedules, _) in enumerate(parsed)]
    return _checked(root, CouplePolicy, templates, [case for _, _, case in parsed], which, ids)


def _integers(raw, path: str) -> list[int]:
    """A JSON array of integers (booleans excluded), checked whole."""
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected an array of integers")
    if not set(map(type, raw)) <= {int}:
        j = next(j for j, value in enumerate(raw) if type(value) is not int)
        raise SchemaError(f"{path}[{j}]: expected an integer")
    return raw


def _sosi_from(raw, root: str) -> SosiPolicy:
    """The SosiPolicy of a `{"intervals": {"<id>": T}, "phases": {"<id>": phi}}`
    object; `phases` may be left out, and every phase it omits is 0."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{root}: expected an object")
    intervals = _id_numbers(raw.get("intervals"), f"{root}.intervals")
    phases = _id_numbers(raw.get("phases", {}), f"{root}.phases")
    return _checked(root, SosiPolicy, intervals, phases)


def _id_numbers(raw, path: str) -> dict[int, float]:
    """A JSON object from integer ids to numbers, as {id: float}. Keys and
    values are checked a whole object at a time; a failed check looks for
    the entry to name."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    keys = list(raw)
    try:
        cids = list(map(int, keys))
    except ValueError:
        cids = None
    if cids is None or list(map(str, cids)) != keys:
        cids = [_id_key(key, path) for key in keys]
    values = list(raw.values())
    if not set(map(type, values)) <= {float}:
        values = [_number(value, f"{path}.{key}") for key, value in raw.items()]
    return dict(zip(cids, values))


def _pair(pair, path: str) -> tuple[float, float]:
    """A `[t, q]` JSON pair of numbers as floats."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise SchemaError(f"{path}: expected a [t, q] pair")
    return _number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]")


def policy_entry(policy: Policy) -> dict:
    """The wire-format entry of `policy`, the inverse of parse_policy: the
    canonical `{"tau", "schedules"}` object of a CyclicPolicy;
    `{"sosi": {"intervals", "phases"}}` of a SosiPolicy, both in ascending id
    order, `phases` listing only the phases the policy holds;
    `{"couples": {"templates", "which", "ids"}}` of a CouplePolicy, each
    template's cycle, its two schedules in key order (A's, then B's) and its
    case, then `which` and `ids` as held."""
    if isinstance(policy, SosiPolicy):
        return {
            "sosi": {
                "intervals": {str(cid): T for cid, T in sorted(policy.intervals_T.items())},
                "phases": {str(cid): phi for cid, phi in sorted(policy.phases.items())},
            }
        }
    if isinstance(policy, CouplePolicy):
        templates = [
            {"tau": p.tau, "schedules": [[[t, q] for t, q in orders] for orders in p.schedules.values()], "case": case}
            for p, case in zip(policy.templates, policy.cases)
        ]
        return {"couples": {"templates": templates, "which": list(policy.which), "ids": list(policy.ids)}}
    return {
        "tau": policy.tau,
        "schedules": {str(cid): [[t, q] for t, q in orders] for cid, orders in sorted(policy.schedules.items())},
    }


def serialize_policy(policy: CyclicPolicy) -> bytes:
    return json.dumps(policy_entry(policy), sort_keys=True).encode("utf-8")
