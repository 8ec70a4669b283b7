
import time

import numpy as np
import pytest

from ewlsp.couples import CoupleInput, synthesize_couple
from ewlsp.evaluator import EvalReport, combine_reports, evaluate, evaluate_sosi
from ewlsp.model import Commodity, CyclicPolicy, IdColumn, Instance, SosiPolicy, sosi_to_cyclic

from conftest import make_instance, random_instance


def couple_policy(k, K=1.0, H=1.0):
    A = Commodity(0, K, H, 1.0)
    B = Commodity(1, K, H, float(2**k))
    schedule = synthesize_couple(CoupleInput(A, B, 1.0, 2.0**-k, 0.05))
    return schedule, Instance((A, B), capacity_V=10.0)


def average_space(report, instance):
    return sum(instance.commodity(cid).gamma * avg for cid, avg in report.avg_inventory.items())


class TestInventory:
    def test_minimal_shift_baseline(self):
        # the one order sits mid-cycle, so the stock runs out just before it
        # and peaks right after it
        inst = make_instance([(1, 1, 1)], 1.0)
        rep = evaluate(CyclicPolicy(1.0, {0: ((0.5, 1.0),)}), inst)
        assert rep.v_max == pytest.approx(1.0)
        assert rep.avg_inventory[0] == pytest.approx(0.5)


class TestEvaluate:
    def test_unit_sosi(self):
        inst = make_instance([(1, 1, 1)], 1.0)
        rep = evaluate(sosi_to_cyclic(SosiPolicy({0: 1.0})), inst)
        assert rep.total_cost_rate == pytest.approx(2.0)
        assert rep.avg_inventory[0] == pytest.approx(0.5)
        assert rep.v_max == pytest.approx(1.0)
        assert rep.feasible

    def test_case1_couple_vmax(self):
        schedule, inst = couple_policy(0)
        rep = evaluate(schedule.policy, inst)
        assert rep.v_max == pytest.approx(1.5, rel=1e-12)

    def test_case4_couple_vmax_ratio(self):
        schedule, inst = couple_policy(3)
        rep = evaluate(schedule.policy, inst)
        denom = sum(inst.commodity(c).gamma * v for c, v in {0: 0.5, 1: 2.0**-4}.items())
        assert rep.v_max / denom == pytest.approx(2201.0 / 1280.0, rel=1e-12)

    def test_average_space(self):
        inst = make_instance([(1, 1, 1)], 1.0)
        p = sosi_to_cyclic(SosiPolicy({0: 1.0}))
        assert average_space(evaluate(p, inst), inst) == pytest.approx(0.5)
        schedule, inst2 = couple_policy(0)
        assert average_space(evaluate(schedule.policy, inst2), inst2) == pytest.approx(1.0)

    def test_average_below_peak(self, rng):
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 4)))
            T = {c.id: float(rng.uniform(0.2, 3.0)) for c in inst.commodities}
            tau = 4.0
            schedules = {}
            for cid in T:
                m = int(rng.integers(1, 5))
                times = np.sort(rng.uniform(0, tau, size=m))
                gaps = np.diff(np.concatenate([times, [times[0] + tau]]))
                schedules[cid] = tuple((float(t), float(q)) for t, q in zip(times, gaps))
            p = CyclicPolicy(tau, schedules)
            rep = evaluate(p, inst)
            assert average_space(rep, inst) <= rep.v_max + 1e-9


class TestProperties:
    def test_closed_form_agreement(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            inst = random_instance(rng, n, regime="loose")
            T = {c.id: int(rng.integers(1, 9)) / int(rng.integers(1, 5)) for c in inst.commodities}
            p = sosi_to_cyclic(SosiPolicy(T), max_orders=200_000)
            rep = evaluate(p, inst)
            expected = sum(c.K / T[c.id] + c.H * T[c.id] for c in inst.commodities)
            assert rep.total_cost_rate == pytest.approx(expected, rel=1e-9)

    def test_feasible_implies_average_space_bound(self, rng):
        for _ in range(40):
            inst = random_instance(rng, 2, regime="loose")
            T = {c.id: float(rng.uniform(0.1, 2.0)) for c in inst.commodities}
            rep = evaluate_sosi(SosiPolicy(T), inst)
            if rep.feasible:
                avg = sum(inst.commodity(c).gamma * v for c, v in rep.avg_inventory.items())
                assert avg <= inst.V * (1 + 1e-9)

    def test_scaling_law(self, rng):
        inst = make_instance([(2.0, 0.5, 1.0), (1.0, 3.0, 0.7)], 1e9)
        base = {0: 0.8, 1: 1.7}
        c0 = evaluate_sosi(SosiPolicy(base), inst).total_cost_rate
        for alpha in [0.25, 0.5, 0.9, 1.3, 2.0, 4.0]:
            scaled = evaluate_sosi(SosiPolicy({k: alpha * v for k, v in base.items()}), inst)
            assert scaled.total_cost_rate <= max(alpha, 1 / alpha) * c0 + 1e-12
            assert scaled.v_max == pytest.approx(
                alpha * evaluate_sosi(SosiPolicy(base), inst).v_max
            )

    def test_equal_spacing_dominates(self, rng):
        # among m-order zero-inventory schedules, uniform gaps minimize the mean
        tau = 3.0
        for _ in range(200):
            m = int(rng.integers(1, 9))
            times = np.sort(rng.uniform(0, tau, size=m))
            gaps = np.diff(np.concatenate([times, [times[0] + tau]]))
            avg_random = float(np.sum(gaps**2)) / (2 * tau)
            avg_equal = tau / (2 * m)
            assert avg_equal <= avg_random + 1e-12


def test_evaluate_sosi_matches_cyclic_phase_zero(rng):
    inst = make_instance([(1.5, 0.7, 1.2), (0.8, 1.1, 0.4)], 10.0)
    T = {0: 0.75, 1: 1.5}
    direct = evaluate_sosi(SosiPolicy(T), inst)
    expanded = evaluate(sosi_to_cyclic(SosiPolicy(T)), inst)
    assert direct.total_cost_rate == pytest.approx(expanded.total_cost_rate, rel=1e-12)
    assert direct.v_max == pytest.approx(expanded.v_max, rel=1e-12)


def test_report_independent_of_schedule_key_order(rng):
    inst = random_instance(rng, 6, regime="loose")
    tau = 2.0
    schedules = {}
    for c in inst.commodities:
        times = np.sort(rng.uniform(0, tau, size=3))
        gaps = np.diff(np.concatenate([times, [times[0] + tau]]))
        schedules[c.id] = tuple((float(t), float(q)) for t, q in zip(times, gaps))
    forward = CyclicPolicy(tau, schedules)
    backward = CyclicPolicy(tau, dict(reversed(list(schedules.items()))))
    assert evaluate(backward, inst) == evaluate(forward, inst)


@pytest.mark.parametrize(
    "evaluator, policy",
    [
        (evaluate, CyclicPolicy(1.0, {0: ((0.0, 1.0),), 9: ((0.0, 1.0),)})),
        (evaluate_sosi, SosiPolicy({0: 1.0, 9: 1.0})),
        (lambda policy, inst: evaluate(sosi_to_cyclic(policy), inst), SosiPolicy({0: 1.0, 9: 1.0})),
    ],
    ids=["cyclic", "sosi", "expanded-sosi"],
)
def test_unknown_id_is_a_key_error_naming_it(evaluator, policy):
    inst = make_instance([(1, 1, 1)], 10.0)
    with pytest.raises(KeyError, match="no commodity with id 9"):
        evaluator(policy, inst)


def test_overlapping_reports_are_refused():
    inst = make_instance([(1, 1, 1)] * 4, 10.0)
    first = evaluate_sosi(SosiPolicy({0: 1.0, 1: 1.0, 2: 1.0}), inst)
    second = evaluate_sosi(SosiPolicy({3: 1.0, 2: 1.0, 1: 1.0}), inst)
    with pytest.raises(ValueError, match=r"reports overlap on commodities \[1, 2\]"):
        combine_reports([first, second], inst)


@pytest.mark.parametrize("rates", [(1.5, 0.25, 2.0), (-0.0, -0.0, -0.0)], ids=["positive", "negative-zero"])
def test_a_lone_report_combines_as_the_general_path(rates):
    # a lone report gathers no ids; its rates and peak come out as 0.0 plus
    # the report's, as the general path sums them, and its averages as they are
    inst = make_instance([(1, 1, 1)] * 3, 10.0)
    part = EvalReport(*rates, IdColumn((2, 0), (0.5, 0.25)), 7.0)
    empty = EvalReport(0.0, 0.0, 0.0, IdColumn((), ()), 7.0)

    def bits(report):
        figures = (report.ordering_cost_rate, report.holding_cost_rate, report.v_max, report.feasible_at)
        return [repr(x) for x in figures] + [report.avg_inventory.ids, report.avg_inventory.column.tolist()]

    want = [repr(0.0 + x) for x in rates] + [repr(10.0), (2, 0), [0.5, 0.25]]
    for lone in (combine_reports([part], inst), combine_reports(iter([part]), inst)):
        assert bits(lone) == bits(combine_reports([part, empty], inst)) == bits(combine_reports([empty, part], inst)) == want
        assert lone.avg_inventory is part.avg_inventory


def test_combining_many_reports_is_linear():
    # one report per block, as a solve with thousands of blocks certifies
    inst = make_instance([(1, 1, 1)], 10.0)
    reports = [EvalReport(1.0, 1.0, 1.0, IdColumn((cid,), (0.5,)), 10.0) for cid in range(10_000)]
    start = time.perf_counter()
    combined = combine_reports(reports, inst)
    assert time.perf_counter() - start < 0.5
    assert len(combined.avg_inventory) == 10_000
    assert combined.v_max == 10_000.0
