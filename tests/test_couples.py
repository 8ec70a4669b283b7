import math
import sys
from fractions import Fraction

import pytest

from ewlsp.couples import (
    SUB1_PEAK_FACTOR,
    CoupleInput,
    _normalized_schedules,
    classify_pairs,
    synthesize_couple,
)
from ewlsp.errors import NotAPowerOfTwo, SpaceMismatch
from ewlsp.evaluator import evaluate
from ewlsp.model import Commodity, CyclicPolicy, Instance
from ewlsp.po2 import po2_round


def equal_space_pair(k, K=(1.0, 1.0), H=(1.0, 1.0), T_A=1.0):
    """gamma_B chosen so gamma_A*T_A == gamma_B*T_B exactly."""
    A = Commodity(0, K[0], H[0], 1.0)
    B = Commodity(1, K[1], H[1], float(2**k) / T_A * T_A)
    return A, B, T_A, T_A * 2.0**-k


def measure(inp):
    schedule = synthesize_couple(inp)
    inst = Instance((inp.commodity_A, inp.commodity_B), capacity_V=1e9)
    rep = evaluate(schedule.policy, inst)
    denom = (
        inp.commodity_A.gamma * inp.T_A / 2.0 + inp.commodity_B.gamma * inp.T_B / 2.0
    )
    cost_ratios = {}
    for c, T in ((inp.commodity_A, inp.T_A), (inp.commodity_B, inp.T_B)):
        sub = schedule.policy.restricted_to([c.id])
        sub_rep = evaluate(sub, Instance((c,), 1e9))
        cost_ratios[c.id] = sub_rep.total_cost_rate / (c.K / T + c.H * T)
    return schedule, rep, rep.v_max / denom, cost_ratios


class TestExactEqualInputs:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6, 8])
    def test_vmax_matches_direct_evaluation(self, k):
        A, B, T_A, T_B = equal_space_pair(k)
        schedule, _, ratio, _ = measure(CoupleInput(A, B, T_A, T_B, 0.05))
        assert ratio == pytest.approx(float(schedule.exact_vmax_ratio), rel=1e-12)
        assert ratio <= float(schedule.claimed_vmax_ratio) + 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 7])
    @pytest.mark.parametrize("KH", [(1.0, 1.0), (1.0, 1e-6), (1e-6, 1.0), (3.0, 0.2)])
    def test_cost_blowups(self, k, KH):
        A, B, T_A, T_B = equal_space_pair(k, K=(KH[0], KH[0]), H=(KH[1], KH[1]))
        schedule, _, _, cost_ratios = measure(CoupleInput(A, B, T_A, T_B, 0.05))
        bound = float(schedule.claimed_cost_ratio)
        assert max(cost_ratios.values()) <= bound + 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_rescaling_invariance(self, k):
        A, B, _, _ = equal_space_pair(k)
        for T_A in (0.125, 3.0, 17.5):
            inp = CoupleInput(A, B, T_A, T_A * 2.0**-k, 0.05)
            schedule, _, ratio, _ = measure(inp)
            assert ratio == pytest.approx(float(schedule.exact_vmax_ratio), rel=1e-9)

    def test_case6_cost_identity_exact(self):
        # the shrink/stretch pairing cancels K and H exactly: ratio is 33/32
        A, B, T_A, T_B = equal_space_pair(6, K=(2.7, 0.3), H=(0.9, 4.1))
        _, _, _, cost_ratios = measure(CoupleInput(A, B, T_A, T_B, 0.05))
        assert cost_ratios[1] == pytest.approx(33.0 / 32.0, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_sub1_peak_bound(self, k):
        A, B, T_A, T_B = equal_space_pair(k)
        _, rep, _, _ = measure(CoupleInput(A, B, T_A, T_B, 0.05))
        joint = A.gamma * T_A + B.gamma * T_B
        assert rep.v_max <= (1 + 0.05) * float(SUB1_PEAK_FACTOR) * joint + 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6, 9])
    def test_demand_conservation_exact(self, k):
        A, B, T_A, T_B = equal_space_pair(k)
        schedule = synthesize_couple(CoupleInput(A, B, T_A, T_B, 0.05))
        for cid in (0, 1):
            total = math.fsum(q for _, q in schedule.policy.schedules[cid])
            assert total == pytest.approx(schedule.policy.tau, rel=1e-12)


class TestNearInputs:
    @pytest.mark.parametrize("k", [0, 2, 5])
    @pytest.mark.parametrize("skew", [1.04, 1 / 1.04])
    def test_vmax_within_eps_slack(self, k, skew):
        eps = 0.05
        A = Commodity(0, 1.0, 1.0, 1.0 * skew)  # gamma_A*T_A = skew * gamma_B*T_B
        B = Commodity(1, 1.0, 1.0, float(2**k))
        inp = CoupleInput(A, B, 1.0, 2.0**-k, eps)
        schedule, rep, _, cost_ratios = measure(inp)
        denom = A.gamma * 0.5 + B.gamma * 2.0**-k / 2.0
        assert rep.v_max <= (1 + eps) * float(schedule.claimed_vmax_ratio) * denom + 1e-12
        assert max(cost_ratios.values()) <= float(schedule.claimed_cost_ratio) + 1e-9

    def test_space_mismatch_rejected(self):
        A = Commodity(0, 1, 1, 2.0)
        B = Commodity(1, 1, 1, 1.0)
        with pytest.raises(SpaceMismatch):
            CoupleInput(A, B, 1.0, 1.0, 0.05)

    def test_non_power_rejected(self):
        A = Commodity(0, 1, 1, 1.0)
        B = Commodity(1, 1, 1, 3.0)
        with pytest.raises(NotAPowerOfTwo):
            CoupleInput(A, B, 1.0, 1.0 / 3.0, 0.05)

    def test_subnormal_T_B_rejected(self):
        # k = 1; it used to validate, then synthesize_couple failed in
        # CyclicPolicy on colliding order times
        A = Commodity(0, 1, 1, 1.0)
        B = Commodity(1, 1, 1, 2.0)
        with pytest.raises(ValueError, match=r"^T_B = 5e-324 is below the smallest normal float$"):
            CoupleInput(A, B, 1e-323, 5e-324, 0.05)


class TestClassifyPairs:
    def test_example(self):
        group = [(0, 1.0, 4.0), (1, 1.0, 2.0), (2, 1.0, 1.05), (3, 1.0, 1.0)]
        near, far, leftover = classify_pairs(group, 0.1)
        assert far == [((0, 1.0, 4.0), (1, 1.0, 2.0))]
        assert near == [((2, 1.0, 1.05), (3, 1.0, 1.0))]
        assert leftover is None

    def test_all_equal_near(self):
        group = [(i, 1.0, 2.0) for i in range(6)]
        near, far, leftover = classify_pairs(group, 0.1)
        assert len(near) == 3 and not far and leftover is None

    def test_ties_break_by_id(self):
        group = [(3, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0)]
        near, far, leftover = classify_pairs(group, 0.1)
        assert near[0][0][0] == 1 and near[0][1][0] == 2
        assert leftover[0] == 3

    def test_far_pair_bound_on_heavy_slab(self, rng):
        # rounded values of heavy commodities span at most a factor 8/3, so
        # at most log_{1+eps}(8/3) pairs can be far
        eps = 0.1
        bound = 11.0 / (10.0 * eps)
        for _ in range(300):
            size = int(rng.integers(2, 40))
            slab = float(rng.uniform(0.5, 5.0))
            t_hat, gammas = {}, {}
            for i in range(size):
                gammas[i] = float(rng.uniform(0.2, 5.0))
                # heavy band: gamma*T/2 in (3/4, 1] * slab
                t_hat[i] = 2.0 * slab * float(rng.uniform(0.75 + 1e-9, 1.0)) / gammas[i]
            out = po2_round(t_hat, float(rng.uniform(-0.5, 0.5)))
            group = [(i, gammas[i], out.rounded_T[i]) for i in range(size)]
            _, far, _ = classify_pairs(group, eps)
            assert len(far) <= bound


from hypothesis import assume, given, settings
from hypothesis import strategies as st


@given(
    k=st.integers(0, 10),
    scale=st.floats(0.05, 20.0),
    kh=st.tuples(st.floats(0.05, 10.0), st.floats(0.05, 10.0)),
    skew=st.floats(-0.045, 0.045),
)
@settings(max_examples=120, deadline=None)
def test_couple_properties_random(k, scale, kh, skew):
    eps = 0.05
    K, H = kh
    A = Commodity(0, K, H, (1.0 + skew))
    B = Commodity(1, K, H, float(2**k))
    T_A, T_B = scale, scale * 2.0**-k
    schedule = synthesize_couple(CoupleInput(A, B, T_A, T_B, eps))
    inst = Instance((A, B), capacity_V=1e12)
    rep = evaluate(schedule.policy, inst)
    # peak within the claimed ratio (plus skew slack) of the stationary average
    denom = A.gamma * T_A / 2.0 + B.gamma * T_B / 2.0
    assert rep.v_max <= (1 + eps) * float(schedule.claimed_vmax_ratio) * denom * (1 + 1e-9)
    # joint sub-1 peak bound
    joint = A.gamma * T_A + B.gamma * T_B
    assert rep.v_max <= (1 + eps) * float(SUB1_PEAK_FACTOR) * joint * (1 + 1e-9)
    # per-commodity cost blow-ups
    for c, T in ((A, T_A), (B, T_B)):
        sub_rep = evaluate(schedule.policy.restricted_to([c.id]), Instance((c,), 1e12))
        assert sub_rep.total_cost_rate <= float(schedule.claimed_cost_ratio) * (c.K / T + c.H * T) * (1 + 1e-9)
    # conservation
    for cid in (0, 1):
        total = math.fsum(q for _, q in schedule.policy.schedules[cid])
        assert total == pytest.approx(schedule.policy.tau, rel=1e-9)


@given(
    k=st.integers(0, 8),
    T_A=st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_template_rescaling_matches_exact_fractions(k, T_A):
    """Every float of a couple is its normalized rational times T_A, rounded
    once; a subnormal T_B, where orders would collide, is refused up front."""
    T_B = T_A * 2.0**-k
    assume(T_B > 0 and T_A / T_B == 2.0**k)
    A, B = Commodity(0, 1.0, 1.0, 1.0), Commodity(1, 1.0, 1.0, float(2**k))
    if T_B < sys.float_info.min:
        with pytest.raises(ValueError, match="T_B"):
            CoupleInput(A, B, T_A, T_B, 0.05)
        return
    tau, a_orders, b_orders = _normalized_schedules(k)
    scale = Fraction(T_A)
    orders = {
        cid: tuple((float(t * scale), float(q * scale)) for t, q in normalized)
        for cid, normalized in ((0, a_orders), (1, b_orders))
    }
    expected = CyclicPolicy(float(tau * scale), orders)
    schedule = synthesize_couple(CoupleInput(A, B, T_A, T_B, 0.05))
    assert schedule.policy.tau == expected.tau
    assert schedule.policy.schedules == expected.schedules


@pytest.mark.parametrize("k", range(9))
def test_normalized_schedules_are_immutable(k):
    tau, a_orders, b_orders = _normalized_schedules(k)
    assert isinstance(tau, Fraction)
    for orders in (a_orders, b_orders):
        assert isinstance(orders, tuple)
        assert all(isinstance(order, tuple) and len(order) == 2 for order in orders)
    assert _normalized_schedules(k) is _normalized_schedules(k)
