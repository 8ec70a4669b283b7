"""Couple blocks, the columnar edge table and evaluate against exact references.

A dense class's near pairs become one couple block per heavy subgroup: pairs
that agree on (k, T_A) share one synthesize_couple schedule and the block
reports every couple in one array pass. Each couple must come out exactly as
evaluate(synthesize_couple(...).policy) and policy_to_json would give it, float
reprs and dict key order included. The matching's edge table and evaluate are
compared with plain-Python copies of the loops they replaced.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.couples import CoupleInput, synthesize_couple
from ewlsp.eoq import constrained_interval
from ewlsp.errors import NotAPowerOfTwo, SpaceMismatch
from ewlsp.evaluator import EvalReport, combine_reports, evaluate, evaluate_couples, evaluate_sosi
from ewlsp.matching import INF_CLASS, class_interval_cap, edge_weight
from ewlsp.model import Commodity, CyclicPolicy, Instance, SosiPolicy, policy_to_json
from ewlsp.pipeline import (
    AssembledPolicy,
    Block,
    PipelineConfig,
    _couple_block,
    build_matching_instance,
    build_reference_policy,
    decompose_classes,
    split_heavy_light,
)

EPS = 0.05


# ---------------------------------------------------------------------------
# Scalar copies
# ---------------------------------------------------------------------------


def scalar_evaluate(policy, instance):
    """evaluate as it was written before its per-call overhead was cut."""

    def baseline(orders):
        c0 = 0.0
        cum = 0.0
        for t, q in orders:
            c0 = max(c0, t - cum)
            cum += q
        return c0

    def stats(orders, tau):
        c0 = baseline(orders)
        m = len(orders)
        total = 0.0
        cum = 0.0
        for k, (t, q) in enumerate(orders):
            cum += q
            level = c0 + cum - t
            t_next = orders[k + 1][0] if k + 1 < m else orders[0][0] + tau
            d = t_next - t
            total += level * d - 0.5 * d * d
        return total / tau, c0

    tau = policy.tau
    ordering = 0.0
    holding = 0.0
    avg_inventory = {}
    events = {}
    w0 = 0.0
    gamma_total = 0.0
    for k in sorted(instance.position(cid) for cid in policy.schedules):
        c = instance.commodities[k]
        orders = policy.schedules[c.id]
        avg_i, c0 = stats(orders, tau)
        avg_inventory[c.id] = avg_i
        ordering += c.K * len(orders) / tau
        holding += 2.0 * c.H * avg_i
        w0 += c.gamma * c0
        gamma_total += c.gamma
        for t, q in orders:
            events[t] = events.get(t, 0.0) + c.gamma * q
    v_max = w0
    w = w0
    for t in sorted(events):
        w += events[t]
        v_max = max(v_max, w - gamma_total * t)
    return EvalReport(ordering, holding, v_max, avg_inventory, instance.V)


def scalar_edge_table(instance, ids, class_side, eps):
    """build_matching_instance's weights and intervals, one commodity at a time."""
    weights, intervals = {}, {}
    for i in ids:
        c = instance.commodity(i)
        for ell in class_side:
            sol = constrained_interval(c.K, c.H, class_interval_cap(ell, eps, instance.V, instance.n) / c.gamma)
            weights[(i, ell)] = sol.cost_rate
            intervals[(i, ell)] = sol.interval_T
    return weights, intervals


def exact(value):
    """A comparable form that tells floats apart by repr and dicts by key order."""
    if isinstance(value, dict):
        return [(repr(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    if isinstance(value, EvalReport):
        return exact((value.ordering_cost_rate, value.holding_cost_rate, value.v_max, value.avg_inventory))
    return repr(value)


# ---------------------------------------------------------------------------
# Couples
# ---------------------------------------------------------------------------


@st.composite
def couple_cases(draw):
    """Near pairs over k = 0..6 drawn from a few (k, T_A) keys so that some
    share a schedule and some share T_A but not k, T_B a few ulps off
    T_A / 2^k, space ratios across
    [1/(1+eps), 1+eps], the pair's lead either A or B, and the commodities
    shuffled into an instance with extra ids, so A comes before or after B.
    A share of the cases puts gamma near the float maximum, where the peak
    scan meets inf - inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = [
        (int(rng.integers(0, 7)), float(rng.choice([1.0, 3.0]) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3, 3)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    huge = draw(st.booleans()) and draw(st.booleans())
    pairs, commodities = [], []
    for j in range(draw(st.integers(1, 12))):
        k, T_A = keys[int(rng.integers(0, len(keys)))]
        T_B = T_A * 2.0**-k
        for _ in range(int(rng.integers(0, 3))):
            T_B = math.nextafter(T_B, math.inf if rng.random() < 0.5 else 0.0)
        g_A = 1e308 / (2**k * 1.06 * max(1.0, T_A)) if huge else float(10.0 ** rng.uniform(-1, 1))
        ratio = float(rng.uniform(1.0 / (1.0 + EPS), 1.0 + EPS))
        g_B = g_A * (T_A / T_B) / ratio
        a, b = 2 * j, 2 * j + 1
        commodities += [
            Commodity(a, float(10.0 ** rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-2, 2)), g_A),
            Commodity(b, float(10.0 ** rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-2, 2)), g_B),
        ]
        entry_a, entry_b = (a, g_A, T_A), (b, g_B, T_B)
        pairs.append((entry_a, entry_b) if rng.random() < 0.5 else (entry_b, entry_a))
    commodities += [Commodity(1000 + k, 1.0, 1.0, 1.0) for k in range(int(rng.integers(0, 3)))]
    order = rng.permutation(len(commodities))
    return pairs, Instance(tuple(commodities[k] for k in order), capacity_V=1.0)


def couple_inputs(pairs, instance):
    """Each pair's CoupleInput, A the member with the longer interval."""
    out = []
    for lead, trail in pairs:
        a, b = (lead, trail) if lead[2] >= trail[2] else (trail, lead)
        out.append(CoupleInput(instance.commodity(a[0]), instance.commodity(b[0]), a[2], b[2], EPS))
    return out


@settings(max_examples=150, deadline=None)
@given(case=couple_cases(), factor=st.sampled_from([1.0, 0.5, 0.9999999, 1 / 3, 19 / 160, 1.7]))
def test_couple_block_matches_one_policy_per_couple(case, factor):
    pairs, inst = case
    block = _couple_block(pairs, inst, EPS, "class3").scaled(factor)
    inputs = couple_inputs(pairs, inst)
    couples = [synthesize_couple(inp) for inp in inputs]
    policies = [c.policy.scaled(factor) if factor != 1.0 else c.policy for c in couples]
    expected = [scalar_evaluate(p, inst) for p in policies]
    assert exact(block.reports(inst)) == exact(expected)
    assert exact([evaluate(p, inst) for p in policies]) == exact(expected)
    assert exact(block.report(inst)) == exact(combine_reports(expected, inst))
    entries = [{**policy_to_json(p), "provenance": f"class3:couple-case{c.case_id}"} for p, c in zip(policies, couples)]
    assert json.dumps(block.entries()) == json.dumps(entries)
    assert len(block.templates) == len({(inp.k, inp.T_A) for inp in inputs})


@settings(max_examples=40, deadline=None)
@given(case=couple_cases())
def test_assembled_report_adds_each_couple_in_emission_order(case):
    pairs, inst = case
    block = _couple_block(pairs, inst, EPS, "class3")
    extra = [c.id for c in inst.commodities if c.id not in block.ids]
    blocks = [block] + ([Block(ids=tuple(extra), sosi=SosiPolicy({i: 0.5 for i in extra}))] if extra else [])
    assembled = AssembledPolicy(tuple(blocks))
    parts = [scalar_evaluate(synthesize_couple(inp).policy, inst) for inp in couple_inputs(pairs, inst)]
    parts += [b.report(inst) for b in blocks[1:]]
    assert exact(assembled.report(inst)) == exact(combine_reports(parts, inst))


def test_couple_cases_cover_every_k_and_both_instance_orders():
    # the benchmark's couples are all k = 0, so the strategy must reach the
    # non-dyadic k = 2..6 schedules and both orders of A and B
    seen = set()

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=couple_cases())
    def collect(case):
        pairs, inst = case
        block = _couple_block(pairs, inst, EPS, "class3")
        for j, k in enumerate(block.which):
            a, b = block.ids[2 * j], block.ids[2 * j + 1]
            seen.add((block.templates[k].case_id, inst.position(a) < inst.position(b)))

    collect()
    assert seen == {(c, first) for c in range(1, 7) for first in (True, False)}


def test_unknown_id_raises_the_key_error_of_evaluate():
    commodities = tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(4))
    pairs = [((0, 1.0, 1.0), (1, 1.0, 1.0)), ((3, 1.0, 1.0), (2, 1.0, 1.0))]
    block = _couple_block(pairs, Instance(commodities, 1.0), EPS, "c")
    policies = [synthesize_couple(inp).policy for inp in couple_inputs(pairs, Instance(commodities, 1.0))]
    for missing in ((3,), (2,), (2, 3), (1, 3), (0,)):
        inst = Instance(tuple(c for c in commodities if c.id not in missing), 1.0)
        with pytest.raises(KeyError) as expected:
            for policy in policies:
                evaluate(policy, inst)
        with pytest.raises(KeyError, match="no commodity with id") as got:
            block.reports(inst)
        assert got.value.args == expected.value.args


@pytest.mark.parametrize(
    "bad, error, match",
    [
        ((5, 2.0, 0.5 * (1.0 + 1e-6)), NotAPowerOfTwo, "not an integer power of two"),
        ((5, 3.0, 0.5), SpaceMismatch, "outside"),
        ((5, 1.0, 0.5), SpaceMismatch, "outside"),
    ],
    ids=["not-a-power-of-two", "space-mismatch-heavy-B", "space-mismatch-light-B"],
)
def test_each_pair_is_checked_even_when_its_key_is_shared(bad, error, match):
    # the third pair's (k, T_A) is the (1, 1.0) of the first two, so it
    # would reuse their schedule; its own CoupleInput check must still fire
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 2.0 if i % 2 else 1.0) for i in range(6)), 1.0)
    inst = Instance(inst.commodities[:5] + (Commodity(5, 1.0, 1.0, bad[1]),), 1.0)
    good = [((0, 1.0, 1.0), (1, 2.0, 0.5)), ((2, 1.0, 1.0), (3, 2.0, 0.5))]
    with pytest.raises(error, match=match):
        _couple_block(good + [((4, 1.0, 1.0), bad)], inst, EPS, "c")


def test_subnormal_T_B_is_refused_for_a_later_pair():
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 2.0 if i % 2 else 1.0) for i in range(4)), 1.0)
    pairs = [((0, 1.0, 1.0), (1, 2.0, 0.5)), ((2, 1.0, 1e-323), (3, 2.0, 5e-324))]
    with pytest.raises(ValueError, match=r"^T_B = 5e-324 is below the smallest normal float$"):
        _couple_block(pairs, inst, EPS, "c")


def test_shared_schedule_is_built_once_per_key():
    # T_A = 1.0 with k = 0 three times, T_A = 2.0 with k = 0, T_A = 1.0 with k = 1
    gamma = [1.0] * 8 + [1.0, 2.0]
    inst = Instance(tuple(Commodity(i, 1.0 + i, 1.0, g) for i, g in enumerate(gamma)), 1.0)
    T = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 0.5)]
    pairs = [((2 * j, gamma[2 * j], T_A), (2 * j + 1, gamma[2 * j + 1], T_B)) for j, (T_A, T_B) in enumerate(T)]
    block = _couple_block(pairs, inst, EPS, "class7")
    assert block.which == (0, 1, 0, 0, 2)
    assert len(block.templates) == 3
    assert [e["provenance"] for e in block.entries()] == ["class7:couple-case1"] * 4 + ["class7:couple-case2"]
    assert block.ids == tuple(range(10))


def test_heavy_split_is_strict_at_three_quarters_of_the_slab():
    # at ell = 1 the slab is V; gamma * T / 2 equals 0.75 V exactly for
    # commodity 0, which stays light, and exceeds it by an ulp for commodity 1
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.5) for i in range(3)), capacity_V=1.0)
    intervals = {0: 1.0, 1: math.nextafter(1.0, 2.0), 2: 0.5}
    split = split_heavy_light([2, 1, 0], intervals, inst, ell=1, eps=EPS, Q=1)
    assert (split.heavy, split.light) == ((1,), (0, 2))


def test_evaluate_couples_of_nothing():
    assert evaluate_couples([], [], (), Instance((Commodity(0, 1.0, 1.0, 1.0),), 1.0)) == []


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@st.composite
def cyclic_cases(draw):
    """Policies on a coarse time grid, so instants coincide across
    commodities and candidate peaks tie, in shuffled key order; some gammas
    are near the float maximum, so sums overflow and inf - inf gives NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    huge = draw(st.booleans()) and draw(st.booleans())
    gamma = [1.5e308 if huge and rng.random() < 0.7 else float(rng.choice([0.5, 1.0, 3.0])) for _ in range(n)]
    commodities = tuple(Commodity(i, float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)), gamma[i]) for i in range(n))
    tau = float(rng.choice([1.0, 3.0, 0.1]))
    schedules = {}
    for i in rng.permutation(n).tolist()[: draw(st.integers(1, n))]:
        cuts = np.sort(rng.choice(8, size=int(rng.integers(1, 5)), replace=False)) * (tau / 8)
        quantities = np.diff(np.append(cuts, cuts[0] + tau))
        if rng.random() < 0.5:  # shift the stock so the baseline c0 is not zero
            quantities = np.roll(quantities, 1)
        schedules[i] = tuple(zip(cuts.tolist(), quantities.tolist()))
    return CyclicPolicy(tau, schedules), Instance(commodities, capacity_V=1.0)


@settings(max_examples=300, deadline=None)
@given(case=cyclic_cases())
def test_evaluate_matches_scalar_loop(case):
    policy, inst = case
    assert exact(evaluate(policy, inst)) == exact(scalar_evaluate(policy, inst))


def test_evaluate_keeps_max_on_a_nan_candidate():
    # gamma_total overflows, so both candidates are NaN (1.5e308 - inf * 0,
    # then inf - inf); max keeps the baseline gamma_1 * c0_1 = 1e308 * 0.5
    inst = Instance((Commodity(0, 1.0, 1.0, 1e308), Commodity(1, 1.0, 1.0, 1e308)), 1.0)
    policy = CyclicPolicy(1.0, {0: ((0.0, 1.0),), 1: ((0.5, 1.0),)})
    report = evaluate(policy, inst)
    assert report.v_max == 5e307
    assert exact(report) == exact(scalar_evaluate(policy, inst))
    block = _couple_block([((0, 1e308, 1.0), (1, 1e308, 1.0))], inst, EPS, "c")
    assert exact(block.reports(inst)) == exact([report])


# ---------------------------------------------------------------------------
# Edge table
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 17, 300]), eps=st.sampled_from([0.05, 0.0999]))
def test_edge_table_matches_scalar_closed_form(seed, n, eps):
    rng = np.random.default_rng(seed)
    params = (10.0 ** rng.uniform(-3, 3, size=(n, 3))).tolist()
    inst = Instance(tuple(Commodity(i, *params[i]) for i in range(n)), capacity_V=float(rng.uniform(0.1, 10)))
    cfg = PipelineConfig(eps=eps, sparsity_threshold=0, Q=10)
    decomp = decompose_classes(evaluate_sosi(build_reference_policy(inst), inst), inst, cfg)
    # every class on the matching side, the tail class too when there is one
    decomp = dataclasses.replace(decomp, labels={ell: "dense" for ell in decomp.classes})
    mi, intervals = build_matching_instance(inst, cfg, decomp)
    weights, scalar_intervals = scalar_edge_table(inst, mi.commodity_side, mi.class_side, eps)
    assert exact(dict(mi.weights)) == exact(weights)
    table = {
        (i, ell): intervals[r, l].item() for r, i in enumerate(mi.commodity_side) for l, ell in enumerate(mi.class_side)
    }
    assert exact(table) == exact(scalar_intervals)


@pytest.mark.parametrize("gamma, V, value", [(1e-320, 1e300, "inf"), (1e308, 1e-16, "0.0")])
def test_edge_weight_refuses_a_cap_out_of_range(gamma, V, value):
    c = Commodity(0, 1.0, 1.0, gamma)
    message = f"^T_max must be finite and > 0, got {value}$"
    with pytest.raises(ValueError, match=message):
        constrained_interval(c.K, c.H, class_interval_cap(INF_CLASS, 0.1, V, 10) / c.gamma)
    cols = Instance((Commodity(1, 1.0, 1.0, 1.0), c), 1.0).columns
    with pytest.raises(ValueError, match=message):
        edge_weight(cols.K, cols.H, cols.gamma, INF_CLASS, 0.1, V, 10)
