import math
import sys
from fractions import Fraction

import pytest

from ewlsp.couples import (
    SUB1_PEAK_FACTOR,
    UNCHECKED_MAX_K,
    UNCHECKED_T_A,
    CoupleInput,
    _normalized_schedules,
    classify_pairs,
    couple_template,
    synthesize_couple,
)
from ewlsp.errors import NotAPowerOfTwo, PolicyPartError, SpaceMismatch
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

    @pytest.mark.parametrize(
        "T_A, T_B, eps, message",
        [
            (0.0, 1.0, 0.05, "intervals must be > 0"),
            (1.0, -1.0, 0.05, "intervals must be > 0"),
            (1.0, 2.0, 0.05, "require T_B <= T_A"),
            (1.0, 1.0, 0.0, r"epsilon must lie in \(0, 1\)"),
            (1.0, 1.0, 1.0, r"epsilon must lie in \(0, 1\)"),
            # these once failed taking k itself: a NaN with a bare ValueError
            # ("cannot convert float NaN to integer"), an infinite ratio with
            # an OverflowError and a zero ratio with "math domain error"
            (math.nan, 1.0, 0.05, "intervals must be > 0"),
            (1.0, math.nan, 0.05, "intervals must be > 0"),
            (math.nan, math.nan, 0.5, "intervals must be > 0"),
            (math.inf, 1.0, 0.05, "T_A/T_B = inf is not an integer power of two"),
            (1e308, 1e-300, 0.05, "T_A/T_B = inf is not an integer power of two"),
            (sys.float_info.max, math.inf, 0.05, r"T_A/T_B = 0\.0 is not an integer power of two"),
        ],
    )
    def test_bad_intervals_and_eps_rejected(self, T_A, T_B, eps, message):
        A = Commodity(0, 1, 1, 1.0)
        B = Commodity(1, 1, 1, 1.0)
        with pytest.raises(ValueError, match=f"^{message}$") as got:
            CoupleInput(A, B, T_A, T_B, eps)
        assert type(got.value) is (NotAPowerOfTwo if "power of two" in message else ValueError)

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


def bits(policy):
    return policy.tau.hex(), [(cid, [(t.hex(), q.hex()) for t, q in orders]) for cid, orders in policy.schedules.items()]


@given(
    k=st.integers(0, 8),
    mantissa=st.floats(1.0, 2.0, exclude_max=True),
    binade=st.integers(-1000, 1000),
    ids=st.lists(st.integers(0, 10**9), min_size=2, max_size=2, unique=True),
)
@settings(max_examples=300, deadline=None)
def test_couple_template_is_the_synthesized_policy(k, mantissa, binade, ids):
    """The template the dense branch builds from (k, T_A) and a pair's ids is
    synthesize_couple's policy for that pair, bit for bit: tau, the keys in
    order, and every (t, q)."""
    T_A = math.ldexp(mantissa, binade)
    T_B = T_A / 2**k
    assume(T_B >= sys.float_info.min)
    A, B = Commodity(ids[0], 1.0, 1.0, 1.0), Commodity(ids[1], 1.0, 1.0, float(2**k))
    want = synthesize_couple(CoupleInput(A, B, T_A, T_B, 0.05))
    assert bits(couple_template(k, T_A, *ids)) == bits(want.policy)


@pytest.mark.parametrize("k", range(UNCHECKED_MAX_K + 1))
def test_normalized_schedule_keeps_the_floor_of_the_unchecked_range(k):
    # couple_template's proof: every value lies in [0, 1], and the least of
    # the positive values, of the gaps between one schedule's consecutive
    # order times and of the cycle minus its last order time is at least
    # 2**-(k+2); the quantities sum to the cycle
    tau, a_orders, b_orders = _normalized_schedules(k)
    values = [tau]
    for orders in (a_orders, b_orders):
        times = [t for t, _ in orders]
        assert times[0] >= 0 and sum(q for _, q in orders) == tau
        values += [q for _, q in orders] + [t for t in times if t > 0]
        values += [later - t for t, later in zip(times, times[1:])] + [tau - times[-1]]
    assert all(0 < x <= 1 for x in values)
    assert min(values) >= Fraction(1, 2 ** (k + 2))


class counted_checks:
    """Count CyclicPolicy's checks run inside the block."""

    def __enter__(self):
        self.calls = 0
        self.patch = pytest.MonkeyPatch()
        check = CyclicPolicy.__post_init__

        def counting(policy):
            self.calls += 1
            check(policy)

        self.patch.setattr(CyclicPolicy, "__post_init__", counting)
        return self

    def __exit__(self, *exc):
        self.patch.undo()


@given(
    k=st.integers(0, UNCHECKED_MAX_K),
    T_A=st.one_of(
        st.sampled_from(UNCHECKED_T_A),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-999, 1000)),
    ),
    ids=st.lists(st.integers(0, 10**9), min_size=2, max_size=2, unique=True),
)
@settings(deadline=None)
def test_template_inside_the_range_skips_a_check_it_passes(k, T_A, ids):
    # down to both ends of the range, the template is built with no check,
    # and the checked policy of its cycle and schedules is the same bit for bit
    with counted_checks() as checks:
        template = couple_template(k, T_A, *ids)
    assert checks.calls == 0
    assert bits(CyclicPolicy(template.tau, template.schedules)) == bits(template)


@pytest.mark.parametrize(
    "k, T_A",
    [
        (0, math.nextafter(UNCHECKED_T_A[0], 0.0)),
        (UNCHECKED_MAX_K, math.nextafter(UNCHECKED_T_A[0], 0.0)),
        (0, math.nextafter(UNCHECKED_T_A[1], math.inf)),
        (UNCHECKED_MAX_K, sys.float_info.max),
        (UNCHECKED_MAX_K + 1, 1.0),
    ],
)
def test_template_outside_the_range_runs_the_check(k, T_A):
    with counted_checks() as checks:
        template = couple_template(k, T_A, 7, 3)
    assert checks.calls == 1
    assert list(template.schedules) == [7, 3]


def test_check_refuses_a_template_rescaled_into_the_subnormal_range():
    # far below the range the rescaled orders collide, which the check that
    # runs there refuses
    with pytest.raises(PolicyPartError, match=r"commodity 1: order times must lie in \[0, tau\)"):
        couple_template(2, 5e-324, 0, 1)
    with pytest.raises(PolicyPartError, match="commodity 1: order times must be strictly increasing"):
        couple_template(4, 2.0**-1070, 0, 1)


@pytest.mark.parametrize("k", range(9))
def test_normalized_schedules_are_immutable(k):
    tau, a_orders, b_orders = _normalized_schedules(k)
    assert isinstance(tau, Fraction)
    for orders in (a_orders, b_orders):
        assert isinstance(orders, tuple)
        assert all(isinstance(order, tuple) and len(order) == 2 for order in orders)
    assert _normalized_schedules(k) is _normalized_schedules(k)
