import math

import numpy as np
import pytest

from ewlsp.errors import InfeasiblePolicy
from ewlsp.oracle import oracle_opt_cyclic
from ewlsp.relaxation import solve_sosi_dp, solve_sosi_relaxation

from conftest import make_instance, random_instance


class TestExactSolver:
    def test_symmetric_pair(self):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.0)
        sol = solve_sosi_relaxation(inst, rhs=1.0)
        assert sol.intervals_T[0] == pytest.approx(0.5, rel=1e-9)
        assert sol.intervals_T[1] == pytest.approx(0.5, rel=1e-9)
        assert sol.multiplier_lambda == pytest.approx(3.0, rel=1e-6)
        assert sol.objective == pytest.approx(5.0, rel=1e-9)

    def test_unbinding(self):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.0)
        sol = solve_sosi_relaxation(inst, rhs=4.0)
        assert sol.multiplier_lambda == 0.0
        assert sol.objective == pytest.approx(4.0)

    def test_single_reduces_to_constrained(self):
        inst = make_instance([(4, 1, 1)], 1.0)
        sol = solve_sosi_relaxation(inst, rhs=1.0)
        assert sol.intervals_T[0] == pytest.approx(1.0, rel=1e-9)
        assert sol.objective == pytest.approx(5.0, rel=1e-9)

    def test_multiplier_beyond_float_range_is_a_named_error(self):
        # the multiplier that meets this budget is ~1e1200; lam*gamma overflows
        # first and the last finite bracket used 7.5e295 of a 2e-300 budget
        inst = make_instance([(1e300, 1e-300, 1e300)], 1e-300)
        with pytest.raises(InfeasiblePolicy, match="no multiplier in float range"):
            solve_sosi_relaxation(inst)

    def test_complementary_slackness(self, rng):
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 6)))
            rhs = float(rng.uniform(0.2, 3.0)) * inst.V
            sol = solve_sosi_relaxation(inst, rhs=rhs)
            if sol.multiplier_lambda == 0.0:
                assert sol.budget_used <= rhs * (1 + 1e-12)
            else:
                assert abs(sol.budget_used - rhs) <= 1e-8 * rhs

    def test_monotone_in_budget(self, rng):
        inst = random_instance(rng, 4)
        objectives = [
            solve_sosi_relaxation(inst, rhs=r * inst.V).objective for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_matches_dense_grid_n1(self, rng):
        for _ in range(5):
            K = float(rng.uniform(0.3, 4.0))
            H = float(rng.uniform(0.3, 4.0))
            g = float(rng.uniform(0.3, 4.0))
            rhs = float(rng.uniform(0.2, 2.0))
            inst = make_instance([(K, H, g)], 1.0)
            sol = solve_sosi_relaxation(inst, rhs=rhs)
            grid = np.append(np.arange(1e-5, rhs / g, 1e-5), rhs / g)
            best = float(np.min(K / grid + H * grid))
            assert sol.objective == pytest.approx(best, rel=1e-5)

    def test_matches_dense_grid_n2(self, rng):
        for _ in range(3):
            params = [
                (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
                for _ in range(2)
            ]
            inst = make_instance(params, 1.0)
            rhs = 0.5 * sum(g * math.sqrt(K / H) for K, H, g in params)
            sol = solve_sosi_relaxation(inst, rhs=rhs)
            (K1, H1, g1), (K2, H2, g2) = params
            t1 = np.linspace(1e-4, rhs / g1 - 1e-5, 200_000)
            t2 = (rhs - g1 * t1) / g2
            objective = K1 / t1 + H1 * t1 + K2 / t2 + H2 * t2
            best = float(np.min(objective))
            assert sol.objective <= best + 1e-5 * best
            assert sol.objective >= best - 1e-5 * best - 1e-7


class TestKnapsackDp:
    def test_close_to_exact(self):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.0)
        dp = solve_sosi_dp(inst, 0.01, rhs=1.0)
        assert 5.0 - 1e-9 <= dp.objective <= 5.0 * 1.01

    def test_coarse_still_bounded(self):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.0)
        dp = solve_sosi_dp(inst, 0.5, rhs=1.0)
        assert dp.objective <= 1.5 * 5.0 + 1e-9

    def test_single_commodity_one_row(self):
        inst = make_instance([(4, 1, 1)], 1.0)
        dp = solve_sosi_dp(inst, 0.1, rhs=1.0)
        exact = solve_sosi_relaxation(inst, rhs=1.0)
        assert exact.objective - 1e-12 <= dp.objective <= (1 + 0.1) * exact.objective

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_cost_is_a_named_error(self):
        # K * gamma / V overflows a float, so no allocation has a finite cost
        inst = make_instance([(1e200, 1, 1e200)], 1.0)
        with pytest.raises(InfeasiblePolicy, match="finite cost rate"):
            solve_sosi_dp(inst, 0.1)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_sandwich_random(self, rng, eps):
        for _ in range(6):
            inst = random_instance(rng, int(rng.integers(1, 8)))
            exact = solve_sosi_relaxation(inst)
            dp = solve_sosi_dp(inst, eps)
            assert dp.budget_used <= dp.budget_cap * (1 + 1e-12)
            assert exact.objective - 1e-9 <= dp.objective <= (1 + eps) * exact.objective + 1e-9


def test_lower_bounds_oracle_optimum(rng):
    # the relaxation value must sit below the best grid-restricted policy
    for seed in range(4):
        inst = random_instance(np.random.default_rng(seed), 2, regime="loose")
        relax = solve_sosi_relaxation(inst)
        _, oracle_cost = oracle_opt_cyclic(inst, tau=2.0, grid_points=8)
        assert relax.objective <= oracle_cost + 1e-6


def test_solutions_carry_their_interval_column(rng):
    # the column is the intervals in the dict's key order, read-only, and
    # the halving reads it in place of a conversion of the dict
    from ewlsp.two_approx import halved_relaxation

    inst = random_instance(rng, 30)
    for sol in (
        solve_sosi_relaxation(inst),
        solve_sosi_relaxation(inst, ids=[17, 3, 9]),
        solve_sosi_dp(random_instance(rng, 4), 0.5),
    ):
        assert sol.column.tolist() == list(sol.intervals_T.values())
        assert not sol.column.flags.writeable
    halved, lower_bound = halved_relaxation(inst)
    full = solve_sosi_relaxation(inst)
    assert halved.tolist() == [T / 2.0 for T in full.intervals_T.values()]
    assert lower_bound == full.objective
