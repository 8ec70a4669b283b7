"""Solvers and verification tools for the economic warehouse lot scheduling
problem: exact policy evaluation, the classic 2-approximation, a randomized
sub-2 pipeline built on power-of-2 rounding and paired schedules, a small-n
grid-aligned dynamic program, and brute-force oracles."""

from .errors import (
    ActionSpaceExceeded,
    BudgetExceeded,
    IncommensurateIntervals,
    InfeasibleMatching,
    InfeasiblePolicy,
    NotAPowerOfTwo,
    SchemaError,
    SearchSpaceExceeded,
    SpaceMismatch,
    StateSpaceExceeded,
    TooManyCommodities,
)
from .evaluator import EvalReport, evaluate, evaluate_sosi
from .model import (
    Commodity,
    CyclicPolicy,
    Instance,
    SosiPolicy,
    parse_instance,
    parse_policies,
    parse_policy,
    policy_entry,
    serialize_instance,
    serialize_policy,
    sosi_to_cyclic,
)

__all__ = [
    "ActionSpaceExceeded",
    "BudgetExceeded",
    "Commodity",
    "CyclicPolicy",
    "EvalReport",
    "IncommensurateIntervals",
    "InfeasibleMatching",
    "InfeasiblePolicy",
    "Instance",
    "NotAPowerOfTwo",
    "SchemaError",
    "SearchSpaceExceeded",
    "SosiPolicy",
    "SpaceMismatch",
    "StateSpaceExceeded",
    "TooManyCommodities",
    "evaluate",
    "evaluate_sosi",
    "parse_instance",
    "parse_policies",
    "parse_policy",
    "policy_entry",
    "serialize_instance",
    "serialize_policy",
    "sosi_to_cyclic",
]
