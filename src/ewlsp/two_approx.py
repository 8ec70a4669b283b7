"""Classic scale-down 2-approximation.

Solve the average-space relaxation with budget 2V, then halve every interval:
peak space sum(gamma_i*T_i/2) fits the capacity by the budget constraint, and
halving an interval at most doubles its stationary cost, so the result costs
at most twice the relaxation optimum, itself a lower bound on the best
dynamic policy.
"""

from __future__ import annotations

import numpy as np

from .evaluator import EvalReport, evaluate_sosi
from .model import IdColumn, Instance, SosiPolicy
from .relaxation import solve_sosi_relaxation


def halved_relaxation(instance: Instance) -> tuple[np.ndarray, float]:
    """The budget-2V relaxation's intervals halved, as an array in instance
    order, and the relaxation's objective."""
    relaxed = solve_sosi_relaxation(instance, rhs=2.0 * instance.V)
    return relaxed.intervals_T.column / 2.0, relaxed.objective


def solve_two_approx(instance: Instance) -> tuple[SosiPolicy, EvalReport, float]:
    """Returns (policy, exact report, relaxation lower bound).

    All phases are zero, so the reported peak sum(gamma_i*T_i) is exact.
    """
    halved, lower_bound = halved_relaxation(instance)
    policy = SosiPolicy(intervals_T=IdColumn(instance.columns.ids, halved))
    report = evaluate_sosi(policy, instance)
    return policy, report, lower_bound
