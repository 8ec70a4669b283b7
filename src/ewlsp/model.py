"""Domain types and canonical serialized formats.

The model is the multi-commodity EOQ under a shared warehouse: each commodity
has unit demand rate, a fixed ordering cost K, a physical holding coefficient
2H (so a stationary policy with interval T costs K/T + H*T per unit of time),
and a space coefficient gamma. All solvers exchange policies through the
types below; `CyclicPolicy` is the universal representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IncommensurateIntervals, SchemaError

# Relative tolerance for the per-commodity demand-conservation invariant
# (sum of order quantities over one cycle equals the cycle length).
CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class Commodity:
    """Per-item economics under unit demand rate."""

    id: int
    ordering_cost_K: float
    holding_rate_H: float
    space_per_unit_gamma: float

    def __post_init__(self):
        if not isinstance(self.id, int):
            raise ValueError(f"commodity id must be an integer, got {self.id!r}")
        for name, value in (
            ("K", self.ordering_cost_K),
            ("H", self.holding_rate_H),
            ("gamma", self.space_per_unit_gamma),
        ):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"commodity {self.id}: {name} must be finite and > 0, got {value!r}")

    # Short aliases; the long field names document the units once,
    # formulas elsewhere read better with K/H/gamma.
    @property
    def K(self) -> float:
        return self.ordering_cost_K

    @property
    def H(self) -> float:
        return self.holding_rate_H

    @property
    def gamma(self) -> float:
        return self.space_per_unit_gamma


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

    def commodity(self, cid: int) -> Commodity:
        return self.commodities[self.position(cid)]

    def ids(self) -> list[int]:
        return [c.id for c in self.commodities]


@dataclass(frozen=True)
class SosiPolicy:
    """Stationary order sizes and stationary intervals: orders of size T_i every T_i."""

    intervals_T: Mapping[int, float]
    phases: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "intervals_T", dict(self.intervals_T))
        object.__setattr__(self, "phases", dict(self.phases))
        if not self.intervals_T:
            raise ValueError("SOSI policy needs at least one commodity")
        for cid, T in self.intervals_T.items():
            if not (math.isfinite(T) and T > 0):
                raise ValueError(f"interval for commodity {cid} must be > 0, got {T!r}")
        for cid, phi in self.phases.items():
            if cid not in self.intervals_T:
                raise ValueError(f"phase given for unknown commodity {cid}")
            if not (0 <= phi < self.intervals_T[cid]):
                raise ValueError(f"phase for commodity {cid} must lie in [0, T), got {phi!r}")

    def phase(self, cid: int) -> float:
        return self.phases.get(cid, 0.0)

    def validate_against(self, instance: Instance) -> None:
        missing = [cid for cid in self.intervals_T if cid not in instance]
        if missing:
            raise ValueError(f"SOSI policy references unknown commodities {sorted(missing)}")


@dataclass(frozen=True)
class CyclicPolicy:
    """Periodic schedule: per commodity, sorted (time, quantity) orders on [0, tau)."""

    cycle_length_tau: float
    schedules: Mapping[int, tuple[tuple[float, float], ...]]

    def __post_init__(self):
        tau = self.cycle_length_tau
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"cycle length must be > 0, got {tau!r}")
        normalized = {}
        for cid, orders in self.schedules.items():
            orders = tuple((float(t), float(q)) for t, q in orders)
            if not orders:
                raise ValueError(f"commodity {cid}: at least one order per cycle required")
            times = [t for t, _ in orders]
            if any(not (0 <= t < tau) for t in times):
                raise ValueError(f"commodity {cid}: order times must lie in [0, tau)")
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise ValueError(f"commodity {cid}: order times must be strictly increasing")
            if any(not (q > 0) for _, q in orders):
                raise ValueError(f"commodity {cid}: order quantities must be > 0")
            try:
                total = math.fsum(q for _, q in orders)
            except OverflowError:
                total = math.inf
            if abs(total - tau) > CONSERVATION_RTOL * max(abs(tau), 1.0):
                raise ValueError(
                    f"commodity {cid}: quantities sum to {total!r}, expected cycle length {tau!r}"
                )
            normalized[cid] = orders
        object.__setattr__(self, "schedules", normalized)

    @property
    def tau(self) -> float:
        return self.cycle_length_tau

    def order_count(self, cid: int) -> int:
        return len(self.schedules[cid])

    def scaled(self, factor: float) -> "CyclicPolicy":
        """Uniformly scale all times and quantities; peak space scales by `factor`."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return CyclicPolicy(
            cycle_length_tau=self.tau * factor,
            schedules={
                cid: tuple((t * factor, q * factor) for t, q in orders)
                for cid, orders in self.schedules.items()
            },
        )

    def restricted_to(self, ids: Sequence[int]) -> "CyclicPolicy":
        keep = {cid: self.schedules[cid] for cid in ids}
        return CyclicPolicy(self.tau, keep)


def _as_fraction(x: float, max_denominator: int = 10**12) -> Fraction | None:
    """Rational snap of a float; None when no denominator <= bound reproduces it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(float(frac) - x) <= 1e-12 * max(abs(x), 1.0):
        return frac
    return None


def _joint_cycle(fracs: dict[int, Fraction]) -> tuple[Fraction, int]:
    tau = Fraction(0)
    for f in fracs.values():
        tau = f if tau == 0 else _lcm_fraction(tau, f)
    return tau, sum(int(tau / f) for f in fracs.values())


def sosi_to_cyclic(policy: SosiPolicy, instance: Instance, max_orders: int = 2_000_000) -> CyclicPolicy:
    """Expand a SOSI policy into its exact joint cyclic schedule.

    The cycle is the least common integer multiple of all intervals, found
    through rational snapping; raises IncommensurateIntervals when none
    exists below `max_orders` total orders.
    """
    policy.validate_against(instance)
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
    """`build(*args)`, with its domain ValueError re-raised as a SchemaError at `path`."""
    try:
        return build(*args)
    except ValueError as exc:
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
            {"id": c.id, "K": c.ordering_cost_K, "H": c.holding_rate_H, "gamma": c.space_per_unit_gamma}
            for c in instance.commodities
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def parse_policy(text: bytes | str) -> CyclicPolicy:
    """Parse the canonical cyclic-policy JSON; SchemaError carries the field path."""
    return _policy_from(_load_object(text), "$")


def parse_policies(text: bytes | str, instance: Instance) -> list[CyclicPolicy]:
    """Parse a cyclic policy, or the `{"blocks": [...]}` union of cyclic
    policies over disjoint ids that the sub2 and two-approx solvers write,
    into its parts. Keys other than `tau`, `schedules` and `blocks`
    (`provenance`, `diagnostics`, `summary`) are ignored. A schedule for an
    id the `instance` lacks is a SchemaError."""
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
        for cid in policy.schedules:
            if cid not in instance:
                raise SchemaError(f"{path}.schedules.{cid}: the instance has no commodity {cid}")
            if cid in owner:
                raise SchemaError(f"{path}.schedules.{cid}: commodity {cid} is also in {owner[cid]}")
            owner[cid] = path
        policies.append(policy)
    return policies


def _policy_from(raw: dict, root: str) -> CyclicPolicy:
    tau = _number(raw.get("tau"), f"{root}.tau")
    if not isinstance(raw.get("schedules"), dict):
        raise SchemaError(f"{root}.schedules: expected an object")
    schedules = {}
    for key, orders in raw["schedules"].items():
        path = f"{root}.schedules.{key}"
        try:
            cid = int(key)
        except ValueError:
            cid = None
        if cid is None or str(cid) != key:
            raise SchemaError(f"{path}: key must be an integer id")
        if not isinstance(orders, list):
            raise SchemaError(f"{path}: expected an array of [t, q] pairs")
        parsed = []
        for k, pair in enumerate(orders):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{path}[{k}]: expected a [t, q] pair")
            parsed.append((_number(pair[0], f"{path}[{k}][0]"), _number(pair[1], f"{path}[{k}][1]")))
        schedules[cid] = tuple(parsed)
    try:
        return CyclicPolicy(cycle_length_tau=tau, schedules=schedules)
    except ValueError as exc:
        raise SchemaError(f"{_rejected_part(root, tau, schedules)}: {exc}") from exc


def _rejected_part(root: str, tau: float, schedules: dict[int, tuple]) -> str:
    """Path of the first policy part that CyclicPolicy rejects on its own."""
    parts = [(f"{root}.tau", {})] + [(f"{root}.schedules.{cid}", {cid: orders}) for cid, orders in schedules.items()]
    for path, part in parts:
        try:
            CyclicPolicy(tau, part)
        except ValueError:
            return path
    return root


def policy_to_json(policy: CyclicPolicy) -> dict:
    """The canonical `{"tau", "schedules"}` object, schedules in ascending id order."""
    return {
        "tau": policy.tau,
        "schedules": {
            str(cid): [[t, q] for t, q in orders] for cid, orders in sorted(policy.schedules.items())
        },
    }


def serialize_policy(policy: CyclicPolicy) -> bytes:
    return json.dumps(policy_to_json(policy), sort_keys=True).encode("utf-8")
