import numpy as np
import pytest

from ewlsp import oracle
from ewlsp.errors import SearchSpaceExceeded
from ewlsp.evaluator import evaluate
from ewlsp.model import CyclicPolicy, IdColumn
from ewlsp.oracle import oracle_integrate_cost, oracle_opt_cyclic

from conftest import make_instance, random_instance


class TestBruteForce:
    def test_n1_matches_eoq(self):
        inst = make_instance([(1, 1, 1)], 10.0)
        policy, cost = oracle_opt_cyclic(inst, tau=2.0, grid_points=8)
        assert cost == pytest.approx(2.0)
        assert len(policy.schedules[0]) == 2  # two equal orders reproduce T=1

    def test_tight_capacity_forces_small_orders(self):
        inst = make_instance([(1, 1, 1)], 0.5)
        _, cost8 = oracle_opt_cyclic(inst, tau=2.0, grid_points=8)
        # constrained optimum C(T^V) = C(0.5) = 2.5; the grid approaches it
        assert cost8 >= 2.5 - 1e-9
        assert cost8 <= 2.5 * 1.2

    def test_interleaving_beats_alignment(self):
        # two identical commodities on a tight warehouse: the best joint
        # schedule phase-shifts the orders rather than aligning them
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.3)
        policy, _ = oracle_opt_cyclic(inst, tau=2.0, grid_points=8)
        t0 = {t for t, _ in policy.schedules[0]}
        t1 = {t for t, _ in policy.schedules[1]}
        assert t0 != t1

    def test_monotone_in_nested_grid(self):
        inst = make_instance([(1, 1, 1)], 0.7)
        _, c4 = oracle_opt_cyclic(inst, tau=2.0, grid_points=4)
        _, c8 = oracle_opt_cyclic(inst, tau=2.0, grid_points=8)
        assert c8 <= c4 + 1e-12

    def test_monotone_in_capacity(self):
        inst_small = make_instance([(1, 1, 1)], 0.4)
        inst_big = make_instance([(1, 1, 1)], 0.8)
        _, c_small = oracle_opt_cyclic(inst_small, tau=2.0, grid_points=8)
        _, c_big = oracle_opt_cyclic(inst_big, tau=2.0, grid_points=8)
        assert c_big <= c_small + 1e-12

    def test_search_space_guards(self):
        inst3 = make_instance([(1, 1, 1)] * 3, 1.0)
        with pytest.raises(SearchSpaceExceeded):
            oracle_opt_cyclic(inst3, tau=1.0, grid_points=4)
        inst1 = make_instance([(1, 1, 1)], 1.0)
        with pytest.raises(SearchSpaceExceeded):
            oracle_opt_cyclic(inst1, tau=1.0, grid_points=13)

    @pytest.mark.parametrize("grid_points", [0, -2])
    def test_grid_of_no_points_is_refused(self, grid_points):
        # zero points used to divide by zero when the grid was laid out
        inst = make_instance([(1, 1, 1)], 1.0)
        with pytest.raises(ValueError, match=f"^grid_points must be >= 1, got {grid_points}$"):
            oracle_opt_cyclic(inst, 1.0, grid_points)

    @pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf"), -1.0])
    def test_cycle_length_not_finite_and_positive_is_refused(self, monkeypatch, tau):
        # 0 used to divide by zero, NaN and inf to report no feasible grid
        # policy, and -1 to fail inside the policy's own check
        monkeypatch.setattr(oracle, "_subset_profile", None)  # no grid is laid out
        inst = make_instance([(1, 1, 1)], 1.0)
        with pytest.raises(ValueError, match=rf"^tau must be finite and > 0, got {tau!r}$"):
            oracle_opt_cyclic(inst, tau, 4)

    def test_feasibility_of_winner(self):
        inst = make_instance([(1, 1, 2), (3, 0.5, 1)], 1.1)
        policy, cost = oracle_opt_cyclic(inst, tau=1.5, grid_points=6)
        report = evaluate(policy, inst)
        assert report.feasible
        assert report.total_cost_rate == pytest.approx(cost, rel=1e-9)


class TestIntegrator:
    def test_unit_sosi(self):
        inst = make_instance([(1, 1, 1)], 1.0)
        p = CyclicPolicy(1.0, {0: ((0.0, 1.0),)})
        rep = oracle_integrate_cost(p, inst)
        assert rep.total_cost_rate == pytest.approx(2.0, rel=1e-6)

    def test_agrees_with_evaluator_on_random_policies(self, rng):
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 4)), regime="loose")
            tau = float(rng.uniform(0.5, 3.0))
            schedules = {}
            for c in inst.commodities:
                m = int(rng.integers(1, 6))
                times = np.sort(rng.uniform(0, tau, size=m))
                gaps = np.diff(np.concatenate([times, [times[0] + tau]]))
                schedules[c.id] = tuple((float(t), float(q)) for t, q in zip(times, gaps))
            p = CyclicPolicy(tau, schedules)
            exact = evaluate(p, inst)
            approx = oracle_integrate_cost(p, inst)
            assert approx.total_cost_rate == pytest.approx(exact.total_cost_rate, rel=1e-6)
            assert approx.v_max == pytest.approx(exact.v_max, rel=1e-6)
            assert isinstance(approx.avg_inventory, IdColumn) and list(approx.avg_inventory) == list(exact.avg_inventory)
            for cid in exact.avg_inventory:
                assert approx.avg_inventory[cid] == pytest.approx(
                    exact.avg_inventory[cid], rel=1e-6, abs=1e-9
                )
