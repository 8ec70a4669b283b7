"""Domain types and canonical serialized formats.

The model is the multi-commodity EOQ under a shared warehouse: each commodity
has unit demand rate, a fixed ordering cost K, a physical holding coefficient
2H (so a stationary policy with interval T costs K/T + H*T per unit of time),
and a space coefficient gamma. All solvers exchange policies through the
types below; `CyclicPolicy` is the universal representation.

Each type owns its rules. `CyclicPolicy` checks the cycle length and each
commodity's orders (in [0, tau), strictly increasing, positive, summing to
tau); `SosiPolicy` checks that it has intervals, each finite and > 0, and
that each phase lies in [0, T) of an interval it holds. A broken rule raises
a PolicyPartError naming the part, from which the JSON parsers build the
SchemaError's field path; the parsers themselves check only JSON types and
id keys, and `parse_policies` checks ids against the instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IncommensurateIntervals, PolicyPartError, SchemaError

# Relative tolerance for the per-commodity demand-conservation invariant
# (sum of order quantities over one cycle equals the cycle length).
CONSERVATION_RTOL = 1e-9


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
        if not isinstance(self.id, int):
            raise ValueError(f"commodity id must be an integer, got {self.id!r}")
        for name, value in (("K", self.K), ("H", self.H), ("gamma", self.gamma)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"commodity {self.id}: {name} must be finite and > 0, got {value!r}")


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


@dataclass(frozen=True)
class Instance:
    """A commodity list plus the shared warehouse capacity."""

    commodities: tuple[Commodity, ...]
    capacity_V: float
    # id -> index into `commodities`: O(1) lookup that also recovers instance order
    _position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.commodities:
            raise ValueError("instance needs at least one commodity")
        object.__setattr__(self, "commodities", tuple(self.commodities))
        position = {c.id: k for k, c in enumerate(self.commodities)}
        if len(position) != len(self.commodities):
            raise ValueError(f"duplicate commodity ids: {sorted(c.id for c in self.commodities)}")
        object.__setattr__(self, "_position", position)
        v = self.capacity_V
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"capacity must be finite and > 0, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.commodities)

    @property
    def V(self) -> float:
        return self.capacity_V

    def __contains__(self, cid: int) -> bool:
        return cid in self._position

    def position(self, cid: int) -> int:
        """Index of commodity `cid` in `commodities`."""
        try:
            return self._position[cid]
        except KeyError:
            raise KeyError(f"no commodity with id {cid}") from None

    def positions(self, cids: Iterable[int]) -> np.ndarray:
        """Indices into `commodities` of `cids`, in the order given; the first
        id the instance lacks raises the KeyError of `position`. Ids in
        instance order are recognized without a lookup per id."""
        cids = tuple(cids)
        if cids == self.columns.ids:
            return np.arange(len(cids))
        try:
            return np.fromiter(map(self._position.__getitem__, cids), dtype=np.intp, count=len(cids))
        except KeyError as exc:
            raise KeyError(f"no commodity with id {exc.args[0]}") from None

    @cached_property
    def columns(self) -> Columns:
        cs = self.commodities
        return Columns(
            ids=tuple(c.id for c in cs),
            K=_read_only([c.K for c in cs]),
            H=_read_only([c.H for c in cs]),
            gamma=_read_only([c.gamma for c in cs]),
        )

    def commodity(self, cid: int) -> Commodity:
        return self.commodities[self.position(cid)]

    def ids(self) -> list[int]:
        return [c.id for c in self.commodities]


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


@dataclass(frozen=True)
class SosiPolicy:
    """Stationary order sizes and stationary intervals: orders of size T_i every T_i."""

    intervals_T: Mapping[int, float]
    phases: Mapping[int, float] = field(default_factory=dict)
    # the intervals in key order as a read-only float64 array
    column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "intervals_T", dict(self.intervals_T))
        object.__setattr__(self, "phases", dict(self.phases))
        if not self.intervals_T:
            raise PolicyPartError(("intervals",), "SOSI policy needs at least one commodity")
        values = list(self.intervals_T.values())
        column = _positive_column(values)
        if column is None:
            # the scalar check names the first offending id in key order; it
            # passes exact numbers that numpy keeps as objects (Fraction, big int)
            for cid, T in self.intervals_T.items():
                if not (math.isfinite(T) and T > 0):
                    raise PolicyPartError(("intervals", cid), f"interval for commodity {cid} must be > 0, got {T!r}")
            column = np.array([float(T) for T in values])
        column.flags.writeable = False
        object.__setattr__(self, "column", column)
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
        return MappingProxyType({cid: ((phases.get(cid, 0.0), T),) for cid, T in self.intervals_T.items()})

    def scaled(self, factor: float) -> "SosiPolicy":
        """Scale every interval and phase; peak space scales by `factor`."""
        return SosiPolicy(
            intervals_T={cid: T * factor for cid, T in self.intervals_T.items()},
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
    """Parse the canonical instance JSON; SchemaError carries the field path."""
    raw = _load_object(text)
    if "capacity" not in raw:
        raise SchemaError("$.capacity: missing")
    capacity = _number(raw["capacity"], "$.capacity")
    entries = raw.get("commodities")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("$.commodities: expected a nonempty array")
    commodities = []
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
        K, H, gamma = (_number(entry[key], f"{path}.{key}") for key in ("K", "H", "gamma"))
        commodities.append(_checked(path, Commodity, cid, K, H, gamma))
    # the list is nonempty and the ids distinct, so only the capacity can fail
    return _checked("$.capacity", Instance, tuple(commodities), capacity)


def serialize_instance(instance: Instance) -> bytes:
    payload = {
        "capacity": instance.capacity_V,
        "commodities": [
            {"id": c.id, "K": c.K, "H": c.H, "gamma": c.gamma}
            for c in instance.commodities
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def parse_policy(text: bytes | str) -> CyclicPolicy | SosiPolicy:
    """Parse one policy entry: the canonical cyclic-policy JSON, or a
    stationary block's `{"sosi": {...}}` (a SosiPolicy). SchemaError carries
    the field path."""
    return _policy_from(_load_object(text), "$")


def parse_policies(text: bytes | str, instance: Instance) -> list[CyclicPolicy | SosiPolicy]:
    """Parse one policy entry, or the `{"blocks": [...]}` union of entries
    over disjoint ids that every solver writes, into its parts: a
    CyclicPolicy per `{"tau", "schedules"}` entry and a SosiPolicy per
    `{"sosi": {"intervals", "phases"}}` entry. Keys other than `tau`,
    `schedules`, `sosi` and `blocks` (`provenance`, `diagnostics`,
    `summary`) are ignored. An id the `instance` lacks, or one that two
    entries both name, is a SchemaError at that id's path."""
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
            ids, field_path = policy.intervals_T, f"{path}.sosi.intervals"
        else:
            ids, field_path = policy.schedules, f"{path}.schedules"
        for cid in ids:
            if cid not in instance:
                raise SchemaError(f"{field_path}.{cid}: the instance has no commodity {cid}")
            if cid in owner:
                raise SchemaError(f"{field_path}.{cid}: commodity {cid} is also in {owner[cid]}")
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


def _policy_from(raw: dict, root: str) -> CyclicPolicy | SosiPolicy:
    if "sosi" in raw:
        if "tau" in raw or "schedules" in raw:
            raise SchemaError(f"{root}: expected either a sosi entry or tau and schedules, not both")
        return _sosi_from(raw["sosi"], f"{root}.sosi")
    # Field paths are built only on the way to a SchemaError: a float needs no check.
    tau = raw.get("tau")
    if type(tau) is not float:
        tau = _number(tau, f"{root}.tau")
    if not isinstance(raw.get("schedules"), dict):
        raise SchemaError(f"{root}.schedules: expected an object")
    schedules = {}
    for key, orders in raw["schedules"].items():
        cid = _id_key(key, f"{root}.schedules")
        if not isinstance(orders, list):
            raise SchemaError(f"{root}.schedules.{key}: expected an array of [t, q] pairs")
        parsed = []
        for k, pair in enumerate(orders):
            if isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is float and type(pair[1]) is float:
                parsed.append((pair[0], pair[1]))
            else:
                parsed.append(_pair(pair, f"{root}.schedules.{key}[{k}]"))
        schedules[cid] = tuple(parsed)
    return _checked(root, CyclicPolicy, tau, schedules)


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


def policy_to_json(policy: CyclicPolicy) -> dict:
    """The canonical `{"tau", "schedules"}` object, schedules in ascending id order."""
    return cyclic_json(policy.tau, policy.schedules)


def cyclic_json(tau: float, schedules: Mapping[int, Sequence[tuple[float, float]]]) -> dict:
    """policy_to_json of the cyclic policy with this cycle and these
    schedules, which are taken to be valid."""
    return {
        "tau": tau,
        "schedules": {str(cid): [[t, q] for t, q in orders] for cid, orders in sorted(schedules.items())},
    }


def sosi_to_json(policy: SosiPolicy) -> dict:
    """The `{"intervals", "phases"}` object of a stationary block, both in
    ascending id order; `phases` lists only the phases the policy holds."""
    return {
        "intervals": {str(cid): T for cid, T in sorted(policy.intervals_T.items())},
        "phases": {str(cid): phi for cid, phi in sorted(policy.phases.items())},
    }


def serialize_policy(policy: CyclicPolicy) -> bytes:
    return json.dumps(policy_to_json(policy), sort_keys=True).encode("utf-8")
