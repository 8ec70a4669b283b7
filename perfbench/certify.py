"""Independent re-certification of solver outputs from their JSON alone.

This is the `ewlsp eval` path done by the benchmark itself, because `ewlsp
eval` neither reads the sub2 `{"blocks": [...]}` format nor checks that a
policy covers the instance. Every block is parsed with `parse_policy` and
evaluated with `evaluate` on its own; the certified peak is the sum of block
peaks (the sound certificate sub2 reports) and the certified cost the sum of
block costs. A miss is returned as a list of problems, never raised, so the
caller can count it against the solves attempted.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from ewlsp.evaluator import FEASIBILITY_RTOL, evaluate
from ewlsp.model import Instance, parse_policy

COST_RTOL = 1e-9


@dataclass
class Verdict:
    cost_rate: float = 0.0
    v_max: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def certify(text: str, instance: Instance, reported_cost: float) -> Verdict:
    """Re-certify a cyclic policy or a union of blocks against `instance`.

    Checks that every commodity id is covered exactly once, that the summed
    block peak fits the capacity, and that the certified cost rate matches
    `reported_cost` to COST_RTOL relative.
    """
    verdict = Verdict()
    try:
        raw = json.loads(text)
        blocks = raw["blocks"] if isinstance(raw, dict) and "blocks" in raw else [raw]
        seen: list[int] = []
        for block in blocks:
            policy = parse_policy(json.dumps(block))
            report = evaluate(policy, instance)
            verdict.cost_rate += report.total_cost_rate
            verdict.v_max += report.v_max
            seen.extend(policy.schedules)
    except (ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"unreadable policy: {type(exc).__name__}: {exc}")
        return verdict

    counts = Counter(seen)
    missing = set(instance.ids()) - set(counts)
    duplicated = [cid for cid, k in counts.items() if k > 1]
    if missing:
        verdict.problems.append(f"commodities not covered: {sorted(missing)[:10]}")
    if duplicated:
        verdict.problems.append(f"commodities covered twice: {sorted(duplicated)[:10]}")
    if verdict.v_max > instance.V * (1.0 + FEASIBILITY_RTOL):
        verdict.problems.append(f"infeasible: summed peak {verdict.v_max!r} > capacity {instance.V!r}")
    if not math.isclose(verdict.cost_rate, reported_cost, rel_tol=COST_RTOL, abs_tol=0.0):
        verdict.problems.append(
            f"cost mismatch: certified {verdict.cost_rate!r}, reported {reported_cost!r}"
        )
    return verdict
