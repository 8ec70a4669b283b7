import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp import relaxation, two_approx
from ewlsp.cli import generate_instance
from ewlsp.errors import InfeasiblePolicy, StateSpaceExceeded
from ewlsp.model import Commodity, Instance
from ewlsp.oracle import oracle_opt_cyclic
from ewlsp.pipeline import PipelineConfig, build_reference_policy, solve_sub2
from ewlsp.relaxation import solve_sosi_dp, solve_sosi_relaxation

from conftest import make_instance, random_instance
from test_stationary_columns import exact, plain_bisection, scalar_relaxation


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

    @pytest.mark.parametrize(
        "solve",
        [solve_sosi_relaxation, two_approx.solve_two_approx, build_reference_policy, lambda inst: solve_sub2(inst, PipelineConfig(), seed=0)],
        ids=["relaxation", "two-approx", "reference", "sub2"],
    )
    def test_multiplier_overflow_to_zero_intervals_is_a_named_error(self, solve):
        # a budget of 2e-160 sends lam * gamma to inf, so every K / (H + inf)
        # is 0.0; no solver may build on those intervals
        inst = Instance.from_columns(range(2), [1, 2], [1, 1], [1, 3], 1e-160)
        with pytest.raises(InfeasiblePolicy, match=r"^no multiplier in float range meets the budget: an interval is 0\.0$"):
            solve(inst)

    def test_steep_budget_below_one_takes_the_bracket_upper_end(self):
        # lam ~7.6e-6, where the bisection's last bracket is 1e-13 wide: its
        # midpoint leaves the intervals at 38119.520161229615, over the 1e-9
        # slack, so the bracket's upper end, which meets the budget, is taken
        H = [0.04454316403308543, 0.001209699050392171, 0.18219620470507972, 0.04115569496215322,
             0.00975427846123096, 0.23189218369806533, 0.008120532108251914, 0.022934731937701524]
        gamma = [3.436899152393396, 40.96867759099019, 6.513598165269565, 11.200911395398846,
                 1003.3644059987763, 13.232290658008061, 87.24969103465251, 8374.305481129224]
        inst = make_instance([(1.0, h, g) for h, g in zip(H, gamma)], 1.0)
        rhs = 38119.52011551472
        K, H, g = (np.array(column) for column in ([1.0] * 8, H, gamma))
        mid, hi = plain_bisection(K, H, g, rhs)
        assert budget_of(inst.commodities, mid) > rhs * (1.0 + 1e-9)
        sol = solve_sosi_relaxation(inst, rhs=rhs)
        assert sol.multiplier_lambda == hi == pytest.approx(7.6e-6, rel=1e-2)
        assert sol.budget_used == budget_of(inst.commodities, hi) <= rhs
        assert exact((sol.intervals_T, sol.objective, hi)) == exact(scalar_relaxation(inst.commodities, rhs))

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

    @pytest.mark.parametrize(
        "eps, rhs, cells",
        [(1e-9, None, "6000000004"), (1e-300, 1e-30, "inf")],
        ids=["6e9-cells", "granule-underflows"],
    )
    def test_table_past_the_cap_is_refused_before_allocation(self, monkeypatch, eps, rhs, cells):
        # at eps = 1e-9 each float64 row of the table would take 48 GB; where
        # eps * rhs underflows, the granule is 0 and no table size is finite
        def no_table(*args, **kwargs):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(np, "full", no_table)
        message = f"^the knapsack DP table of {cells} cells exceeds the cap of {relaxation.DP_CELL_CAP} cells$"
        with pytest.raises(StateSpaceExceeded, match=message):
            solve_sosi_dp(make_instance([(1, 1, 1)] * 3, 1.0), eps, rhs=rhs)

    def test_cap_admits_a_table_of_its_size(self, monkeypatch):
        # n = 2 and eps = 0.5 give 2n/eps = 8 granules exactly, plus 2 cells of
        # slack and the empty allocation: 11 cells
        inst = make_instance([(1, 1, 1), (2, 1, 1)], 1.0)
        want = solve_sosi_dp(inst, 0.5)
        monkeypatch.setattr(relaxation, "DP_CELL_CAP", 11)
        got = solve_sosi_dp(inst, 0.5)
        assert exact((got.intervals_T, got.objective)) == exact((want.intervals_T, want.objective))
        monkeypatch.setattr(relaxation, "DP_CELL_CAP", 10)
        with pytest.raises(StateSpaceExceeded, match="^the knapsack DP table of 11 cells exceeds the cap of 10 cells$"):
            solve_sosi_dp(inst, 0.5)

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
        assert sol.intervals_T.column.tolist() == list(sol.intervals_T.values())
        assert not sol.intervals_T.column.flags.writeable
    halved, lower_bound = halved_relaxation(inst)
    full = solve_sosi_relaxation(inst)
    assert halved.tolist() == [T / 2.0 for T in full.intervals_T.values()]
    assert lower_bound == full.objective


# ---------------------------------------------------------------------------
# The multiplier search against plain bisection
# ---------------------------------------------------------------------------


def budget_of(commodities, lam):
    """The relaxation's budget map over `commodities` (instance order) at lam."""
    K, H, g = (np.array([getattr(c, name) for c in commodities]) for name in ("K", "H", "gamma"))
    with np.errstate(over="ignore"):
        return float(g @ np.sqrt(K / (H + lam * g)))


@st.composite
def relaxation_cases(draw):
    """(instance, rhs, ids, the relaxed commodities): n from 1 to 300, each
    of K, H and gamma drawn log-uniformly over its own range inside
    10^-6..10^6, all ids or a subset of them in any order, and a budget that
    - binds, from a hair below the unconstrained use to 10^-4 of it;
    - does not bind, or equals the unconstrained use;
    - equals the budget map at a power of two, so that a doubling or
      bisection probe meets rhs exactly, where `>=` and `>` part ways."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(3):
        lo, hi = sorted(draw(st.tuples(st.integers(-60, 60), st.integers(-60, 60))))
        columns.append((10.0 ** rng.uniform(lo / 10.0, hi / 10.0, size=n)).tolist())
    inst = Instance(tuple(Commodity(i, K, H, g) for i, (K, H, g) in enumerate(zip(*columns))), capacity_V=1.0)
    ids = None
    if draw(st.booleans()):
        ids = rng.permutation(n)[: draw(st.integers(1, n))].tolist()
    keep = set(inst.ids() if ids is None else ids)
    sub = [c for c in inst.commodities if c.id in keep]
    free = budget_of(sub, 0.0)
    kind = draw(st.sampled_from(["binding", "slack", "power of two"]))
    if kind == "binding":
        rhs = free * 10.0 ** draw(st.floats(-4.0, -1e-9))
    elif kind == "slack":
        rhs = free * draw(st.sampled_from([1.0, 1.5, 100.0]))
    else:
        rhs = budget_of(sub, 2.0 ** draw(st.integers(-45, 45)))
    return inst, rhs, ids, sub


@settings(deadline=None)
@given(case=relaxation_cases())
def test_multiplier_matches_plain_bisection_bit_for_bit(case):
    inst, rhs, ids, sub = case
    if not rhs > 0.0:  # the budget map underflowed
        return
    intervals, objective, lam = scalar_relaxation(sub, rhs)
    if budget_of(sub, lam) > rhs * (1.0 + 1e-9):  # lam * gamma overflows at the bracket's upper end
        with pytest.raises(InfeasiblePolicy, match="no multiplier in float range"):
            solve_sosi_relaxation(inst, rhs=rhs, ids=ids)
        return
    sol = solve_sosi_relaxation(inst, rhs=rhs, ids=ids)
    got = (sol.multiplier_lambda, sol.intervals_T.column.tolist(), sol.objective, sol.intervals_T)
    assert exact(got) == exact((lam, list(intervals.values()), objective, intervals))
    K, H, g = (np.array([getattr(c, name) for c in sub]) for name in ("K", "H", "gamma"))
    mid, hi = plain_bisection(K, H, g, rhs)
    if budget_of(sub, mid) > rhs * (1.0 + 1e-9):
        # the bisection's last bracket is 1e-13 wide in absolute terms below
        # lam = 1, which can leave its midpoint short of meeting a steep
        # budget; the bracket's upper end meets it
        assert sol.multiplier_lambda == hi
        assert sol.budget_used <= rhs
    else:
        assert sol.multiplier_lambda == mid


@pytest.fixture
def budget_calls(monkeypatch):
    """The multipliers at which `relaxation._budget` is evaluated."""
    calls = []
    budget = relaxation._budget

    def counting(lam, *columns):
        calls.append(lam)
        return budget(lam, *columns)

    monkeypatch.setattr(relaxation, "_budget", counting)
    return calls


@pytest.mark.parametrize("n", [40, 400, 2000])
@pytest.mark.parametrize("regime", ["tight", "loose", "dense-heavy"])
def test_binding_relaxation_takes_at_most_16_evaluations(budget_calls, regime, n):
    # plain bisection takes about 47; loose budgets never bind and take one
    binding = 0
    for seed in range(3):
        for spread in (0.0, 1.0, 3.0):
            inst = generate_instance(seed, n, spread, regime)
            for rhs in (2.0 * inst.V, 1.2 * inst.V):
                budget_calls.clear()
                sol = solve_sosi_relaxation(inst, rhs=rhs)
                assert sol.multiplier_lambda == scalar_relaxation(inst.commodities, rhs)[2]
                if sol.multiplier_lambda > 0.0:
                    binding += 1
                    assert len(budget_calls) <= 16
                else:
                    assert budget_calls == [0.0]
    assert binding == (0 if regime == "loose" else 18)


def test_multiplier_with_a_slope_that_underflows(budget_calls):
    # the budget map's slope at lam = 0, gamma^2 * T / H = 1e-400, underflows
    # to 0, so no Newton step is taken: the doubling climbs to ~3e300 by itself
    K, H, g = 1e200, 1e200, 1e-100
    assert g * (math.sqrt(K / H) * (g / H)) == 0.0
    inst = make_instance([(K, H, g)], 1.0)
    sol = solve_sosi_relaxation(inst, rhs=0.5e-100)
    assert sol.multiplier_lambda == scalar_relaxation(inst.commodities, 0.5e-100)[2]
    assert sol.multiplier_lambda == pytest.approx(3e300, rel=1e-12)
    assert len(budget_calls) > 1000


def test_multiplier_with_a_newton_step_that_overflows(budget_calls):
    # the step's factor budget / slope at lam = 0 is H / gamma = 1e310, so the
    # step is inf although the multiplier, ~2e300, is finite
    K, H, g = 1e300, 1e300, 1e-10
    used = g * math.sqrt(K / H)
    assert used / (g * g * math.sqrt(K / H) / H) == math.inf
    inst = make_instance([(K, H, g)], 1.0)
    rhs = used * (1.0 - 1e-10)
    sol = solve_sosi_relaxation(inst, rhs=rhs)
    assert sol.multiplier_lambda == scalar_relaxation(inst.commodities, rhs)[2]
    assert sol.multiplier_lambda == pytest.approx(2e300, rel=1e-5)
    assert len(budget_calls) > 1000


def test_multiplier_from_an_infinite_budget(budget_calls):
    # K/H overflows at lam = 0, so the budget there is inf and the Newton step
    # from it is not a number; the multiplier ~1e300 is still reached
    inst = make_instance([(1e300, 1e-10, 1.0)], 1.0)
    assert budget_of(inst.commodities, 0.0) == math.inf
    sol = solve_sosi_relaxation(inst, rhs=1.0)
    assert sol.multiplier_lambda == scalar_relaxation(inst.commodities, 1.0)[2]
    assert sol.multiplier_lambda == pytest.approx(1e300, rel=1e-12)
    assert sol.budget_used == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Interval dicts built on demand
# ---------------------------------------------------------------------------


def test_interval_dicts_are_built_on_first_read(rng):
    inst = random_instance(rng, 30)
    cases = [
        (solve_sosi_relaxation(inst), inst.commodities),
        (solve_sosi_relaxation(inst, rhs=0.3 * inst.V, ids=[17, 3, 9]), [inst.commodity(i) for i in (3, 9, 17)]),
    ]
    for sol, sub in cases:
        assert sol.intervals_T._dict is None
        intervals, _, _ = scalar_relaxation(sub, sol.budget_cap)
        assert exact(sol.intervals_T) == exact(intervals)
        assert sol.intervals_T._dict is not None
    small = random_instance(rng, 5)
    dp = solve_sosi_dp(small, 0.5)
    assert dp.intervals_T._dict is None
    assert list(dp.intervals_T) == small.ids() == list(dp.intervals_T.ids)
    assert dp.budget_used == math.fsum(c.gamma * dp.intervals_T[c.id] for c in small.commodities)


def test_halving_reads_the_column_and_builds_no_dict(rng, monkeypatch):
    solved = []

    def recording(*args, **kwargs):
        solved.append(relaxation.solve_sosi_relaxation(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(two_approx, "solve_sosi_relaxation", recording)
    inst = random_instance(rng, 30)
    two_approx.halved_relaxation(inst)
    two_approx.solve_two_approx(inst)
    assert len(solved) == 2
    assert all(sol.intervals_T._dict is None for sol in solved)
