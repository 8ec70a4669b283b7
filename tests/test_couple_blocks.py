"""Couple blocks, the columnar edge table and evaluate against exact references.

A dense class's near pairs become one couple block, its policy built in one
array pass (couple_policy): pairs of the class that agree on (k, T_A) share
one synthesize_couple schedule, and every pair is held to the couple rules
(pair_powers), which must raise as the old per-pair CoupleInput checks did. A couple block is evaluated in one pass, and
AssembledPolicy.report adds one report per block. Each couple must come out
exactly as evaluate(synthesize_couple(...).policy) and policy_entry would
give it, float reprs and dict key order included, the latter once the
block's one couples entry is flattened (conftest.flatten), and each block's
report must be combine_reports over its couples' own reports.
The couple rules, the matching's edge table and evaluate are compared with
plain-Python copies of the code they replaced.
"""

import dataclasses
import json
import math
import sys
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ewlsp.couples import CoupleInput, couple_policy, pair_powers, synthesize_couple
from ewlsp.eoq import constrained_interval
from ewlsp.errors import NotAPowerOfTwo, SpaceMismatch
from ewlsp.evaluator import EvalReport, combine_reports, evaluate, evaluate_sosi
from ewlsp.matching import INF_CLASS, class_interval_cap, edge_weight
from ewlsp import pipeline
from ewlsp.model import Commodity, CouplePolicy, CyclicPolicy, IdColumn, Instance, SosiPolicy, parse_policy, policy_entry
from ewlsp.pipeline import (
    AssembledPolicy,
    Block,
    PipelineConfig,
    build_matching_instance,
    build_reference_policy,
    decompose_classes,
    split_heavy_light,
)

from conftest import flatten

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
    return EvalReport(ordering, holding, v_max, IdColumn(avg_inventory, list(avg_inventory.values())), instance.V)


def scalar_pair_rules(T_A, T_B, gamma_A, gamma_B, eps):
    """One pair's k, or the exception of the first rule it breaks, as the
    per-pair CoupleInput checks were written before the rules moved onto
    arrays (pair_powers). A NaN or infinite ratio T_A/T_B fails here in
    round() itself, with a bare ValueError or an OverflowError."""
    if T_A <= 0 or T_B <= 0:
        raise ValueError("intervals must be > 0")
    if T_B < sys.float_info.min:
        raise ValueError(f"T_B = {T_B!r} is below the smallest normal float")
    if T_B > T_A * (1 + 1e-12):
        raise ValueError("require T_B <= T_A")
    if not (0 < eps < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    k = round(math.log2(T_A / T_B))
    if abs(math.log2(T_A / T_B) - k) > 1e-9:
        raise NotAPowerOfTwo(f"T_A/T_B = {T_A / T_B!r} is not an integer power of two")
    ratio = (gamma_A * T_A) / (gamma_B * T_B)
    if not (1.0 / (1.0 + eps) - 1e-12 <= ratio <= 1.0 + eps + 1e-12):
        raise SpaceMismatch(f"gamma_A*T_A / (gamma_B*T_B) = {ratio!r} outside [1/(1+eps), 1+eps]")
    return k


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
    """A comparable form that tells floats apart by repr and mappings by key order."""
    if isinstance(value, Mapping):
        return [(repr(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    if isinstance(value, EvalReport):
        return exact((value.ordering_cost_rate, value.holding_cost_rate, value.v_max, value.avg_inventory))
    return repr(value)


# ---------------------------------------------------------------------------
# Couples
# ---------------------------------------------------------------------------


class HypothesisDraws:
    """A case builder's draws, made by hypothesis: integers in [lo, hi],
    one of `values`, and floats in [lo, hi)."""

    def __init__(self, draw):
        self.draw = draw

    def integer(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    def choice(self, values):
        return self.draw(st.sampled_from(values))

    def real(self, lo, hi):
        return self.draw(st.floats(lo, hi, exclude_max=True))


class SeededDraws:
    """The same draws from a numpy Generator of a fixed seed, so a coverage
    test reads the same cases in every pytest run and in any test order
    (hypothesis mixes constants of the loaded modules into its draws)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integer(self, lo, hi):
        return int(self.rng.integers(lo, hi + 1))

    def choice(self, values):
        return values[int(self.rng.integers(len(values)))]

    def real(self, lo, hi):
        return float(self.rng.uniform(lo, hi))


def draw_pairs(pick, rng, first_id):
    """Near pairs over k = 0..6 drawn from a few (k, T_A) keys so that some
    share a schedule and some share T_A but not k, T_B a few ulps off
    T_A / 2^k, space ratios across [1/(1+eps), 1+eps] and the pair's lead
    either A or B, with ids from first_id on; and their commodities. A share
    of the draws puts gamma near the float maximum, where the peak scan meets
    inf - inf."""
    keys = [
        (int(rng.integers(0, 7)), float(rng.choice([1.0, 3.0]) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3, 3)))
        for _ in range(pick.integer(1, 4))
    ]
    huge = pick.choice([False, True]) and pick.choice([False, True])
    pairs, commodities = [], []
    for j in range(pick.integer(1, 12)):
        k, T_A = keys[int(rng.integers(0, len(keys)))]
        T_B = T_A * 2.0**-k
        for _ in range(int(rng.integers(0, 3))):
            T_B = math.nextafter(T_B, math.inf if rng.random() < 0.5 else 0.0)
        g_A = 1e308 / (2**k * 1.06 * max(1.0, T_A)) if huge else float(10.0 ** rng.uniform(-1, 1))
        ratio = float(rng.uniform(1.0 / (1.0 + EPS), 1.0 + EPS))
        g_B = g_A * (T_A / T_B) / ratio
        a, b = first_id + 2 * j, first_id + 2 * j + 1
        commodities += [
            Commodity(a, float(10.0 ** rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-2, 2)), g_A),
            Commodity(b, float(10.0 ** rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-2, 2)), g_B),
        ]
        entry_a, entry_b = (a, g_A, T_A), (b, g_B, T_B)
        pairs.append((entry_a, entry_b) if rng.random() < 0.5 else (entry_b, entry_a))
    return pairs, commodities


def couple_case(pick):
    """The near pairs of one subgroup (draw_pairs), their commodities
    shuffled into an instance with extra ids, so A comes before or after B."""
    rng = np.random.default_rng(pick.integer(0, 2**32 - 1))
    pairs, commodities = draw_pairs(pick, rng, 0)
    commodities += [Commodity(1000 + k, 1.0, 1.0, 1.0) for k in range(int(rng.integers(0, 3)))]
    order = rng.permutation(len(commodities))
    return pairs, Instance(tuple(commodities[k] for k in order), capacity_V=1.0)


def class_case(pick):
    """The near pairs of two to four groups (draw_pairs, so k from 0 to 6 and
    both instance orders), and one to three stationary or cyclic blocks over
    further commodities, in a shuffled instance. The groups are the subgroups
    of one class, or each a class of its own; `slots` places the couple
    blocks of the latter in a random emission order: they keep their group
    order among themselves, the other blocks fall between and around them."""
    rng = np.random.default_rng(pick.integer(0, 2**32 - 1))
    groups, commodities = [], []
    for g in range(pick.integer(2, 4)):
        pairs, cs = draw_pairs(pick, rng, 100 * g)
        groups.append(pairs)
        commodities += cs
    others = []
    for b in range(pick.integer(1, 3)):
        ids = tuple(range(1000 + 10 * b, 1000 + 10 * b + int(rng.integers(1, 4))))
        commodities += [Commodity(i, *(10.0 ** rng.uniform(-1, 1, size=3)).tolist()) for i in ids]
        if rng.random() < 0.5:
            others.append(Block(ids=ids, sosi=SosiPolicy({i: float(rng.uniform(0.1, 3)) for i in ids})))
        else:
            tau = float(rng.choice([1.0, 0.7]))
            two_orders, one_order = ((0.0, tau / 4), (tau / 4, 3 * tau / 4)), ((tau / 3, tau),)
            schedules = {i: two_orders if rng.random() < 0.5 else one_order for i in ids}
            others.append(Block(ids=ids, cyclic=CyclicPolicy(tau, schedules)))
    slots = sorted(rng.choice(len(groups) + len(others), size=len(groups), replace=False).tolist())
    order = rng.permutation(len(commodities))
    return groups, others, slots, Instance(tuple(commodities[k] for k in order), capacity_V=1.0)


@st.composite
def couple_cases(draw):
    return couple_case(HypothesisDraws(draw))


@st.composite
def class_cases(draw):
    return class_case(HypothesisDraws(draw))


def couple_inputs(pairs, instance):
    """Each pair's CoupleInput, A the member with the longer interval."""
    out = []
    for lead, trail in pairs:
        a, b = (lead, trail) if lead[2] >= trail[2] else (trail, lead)
        out.append(CoupleInput(instance.commodity(a[0]), instance.commodity(b[0]), a[2], b[2], EPS))
    return out


def near_columns(pairs, instance):
    """couple_policy's columns for a class's near pairs: ids A and B, T_A and
    T_B, and gamma A and B read from the instance; A is the member with the
    longer interval (the lead on a tie), as round_and_pair orients them."""
    oriented = [(lead, trail) if lead[2] >= trail[2] else (trail, lead) for lead, trail in pairs]
    ids_A, ids_B = [a[0] for a, _ in oriented], [b[0] for _, b in oriented]
    return (
        ids_A,
        ids_B,
        np.array([a[2] for a, _ in oriented], dtype=float),
        np.array([b[2] for _, b in oriented], dtype=float),
        instance.columns.gamma[instance.positions(ids_A)],
        instance.columns.gamma[instance.positions(ids_B)],
    )


def one_block(pairs, instance, provenance="class3"):
    """The couple block of one class's near pairs, as the dense branch
    builds it."""
    policy = couple_policy(*near_columns(pairs, instance), EPS)
    return Block(policy.ids, couples=policy, provenance=provenance)


def couple_schedules(blocks):
    """Each couple of the blocks as its ids, case, cycle and A's and B's
    orders, in emission order."""
    out = []
    for b in blocks:
        c = b.couples
        for j, w in enumerate(c.which):
            t = c.templates[w]
            out.append((c.ids[2 * j], c.ids[2 * j + 1], c.cases[w], t.tau, list(t.schedules.values())))
    return out


def couple_reports(block, instance):
    """Each couple of the block as a one-couple CouplePolicy, evaluated."""
    c = block.couples
    return [
        evaluate(CouplePolicy((c.templates[w],), (c.cases[w],), (0,), c.ids[2 * j : 2 * j + 2]), instance)
        for j, w in enumerate(c.which)
    ]


@settings(max_examples=150, deadline=None)
@given(case=couple_cases(), factor=st.sampled_from([1.0, 0.5, 0.9999999, 1 / 3, 19 / 160, 1.7]))
def test_couple_block_matches_one_policy_per_couple(case, factor):
    pairs, inst = case
    block = one_block(pairs, inst).scaled(factor)
    inputs = couple_inputs(pairs, inst)
    couples = [synthesize_couple(inp) for inp in inputs]
    policies = [c.policy.scaled(factor) if factor != 1.0 else c.policy for c in couples]
    expected = [scalar_evaluate(p, inst) for p in policies]
    assert exact(couple_reports(block, inst)) == exact(expected)
    assert exact([evaluate(p, inst) for p in policies]) == exact(expected)
    assert exact(evaluate(block.couples, inst)) == exact(combine_reports(expected, inst))
    assert exact(AssembledPolicy((block,)).report(inst)) == exact(combine_reports(expected, inst))
    # the block's one couples entry, flattened, is the old per-couple list
    entries = [{**policy_entry(p), "provenance": f"class3:couple-case{c.case_id}"} for p, c in zip(policies, couples)]
    assert json.dumps(flatten([block.to_json()])) == json.dumps(entries)
    assert len(block.couples.templates) == len({(inp.k, inp.T_A) for inp in inputs})


@settings(max_examples=150, deadline=None)
@given(case=couple_cases(), factor=st.sampled_from([1.0, 0.5, 0.9999999, 1 / 3, 19 / 160, 1.7]))
def test_couple_policy_evaluates_as_the_union_of_its_couples(case, factor):
    # the block's entry, parsed back, is certified in one report that is
    # bit-equal to combine_reports of evaluate on each couple's own policy
    pairs, inst = case
    block = one_block(pairs, inst).scaled(factor)
    entry = block.to_json()
    policy = parse_policy(json.dumps(entry))
    assert isinstance(policy, CouplePolicy)
    couples = [CyclicPolicy(p["tau"], {int(k): tuple(map(tuple, o)) for k, o in p["schedules"].items()}) for p in flatten([entry])]
    expected = combine_reports([evaluate(p, inst) for p in couples], inst)
    assert exact(evaluate(policy, inst)) == exact(expected)
    assert exact(AssembledPolicy((block,)).report(inst)) == exact(expected)
    assert evaluate(policy, inst).feasible_at == inst.V
    assert dict(policy.schedules) == {cid: orders for p in couples for cid, orders in p.schedules.items()}


@settings(max_examples=40, deadline=None)
@given(case=couple_cases())
def test_assembled_report_adds_each_block_in_emission_order(case):
    # the couple block counts once, as the union of its couples
    pairs, inst = case
    block = one_block(pairs, inst)
    extra = [c.id for c in inst.commodities if c.id not in block.ids]
    blocks = [block] + ([Block(ids=tuple(extra), sosi=SosiPolicy({i: 0.5 for i in extra}))] if extra else [])
    assembled = AssembledPolicy(tuple(blocks))
    couples = [scalar_evaluate(synthesize_couple(inp).policy, inst) for inp in couple_inputs(pairs, inst)]
    parts = [combine_reports(couples, inst)] + [b.report(inst) for b in blocks[1:]]
    assert exact(assembled.report(inst)) == exact(combine_reports(parts, inst))


@settings(deadline=None)
@given(case=class_cases(), factor=st.sampled_from([1.0, 0.5, 1 / 3, 1.7]))
def test_report_adds_one_report_per_block_in_emission_order(case, factor):
    # a class's couple block comes from one couple_policy pass over all its
    # subgroups' pairs, and the solve's report adds one report per block,
    # a couple block's being the union of its couples; both must agree with
    # building and evaluating every couple on its own
    groups, others, slots, inst = case

    def couple_parts(pairs):
        policies = [synthesize_couple(inp).policy for inp in couple_inputs(pairs, inst)]
        return [scalar_evaluate(p.scaled(factor) if factor != 1.0 else p, inst) for p in policies]

    whole = one_block([pair for pairs in groups for pair in pairs], inst)
    alone = [one_block(pairs, inst) for pairs in groups]
    assert exact(couple_schedules([whole])) == exact(couple_schedules(alone))
    every_couple = [part for pairs in groups for part in couple_parts(pairs)]
    assert exact(AssembledPolicy((whole,)).scaled(factor).report(inst)) == exact(combine_reports(every_couple, inst))
    blocks, parts = [], []
    pending, rest = iter(zip(groups, alone)), iter(others)
    for slot in range(len(groups) + len(others)):
        if slot in slots:
            pairs, block = next(pending)
            parts.append(combine_reports(couple_parts(pairs), inst))
        else:
            block = next(rest)
            scaled = block.scaled(factor)
            parts.append(scaled.report(inst) if scaled.sosi is not None else scalar_evaluate(scaled.cyclic, inst))
        blocks.append(block)
    assembled = AssembledPolicy(tuple(blocks)).scaled(factor)
    assert exact(assembled.report(inst)) == exact(combine_reports(parts, inst))


def test_class_cases_reach_every_k_and_both_instance_orders():
    # the class strategy must reach k >= 5 and both orders of A and B
    seen = set()
    for seed in range(60):
        groups, _, _, inst = class_case(SeededDraws(seed))
        block = one_block([pair for pairs in groups for pair in pairs], inst)
        for j, k in enumerate(block.couples.which):
            a, b = block.ids[2 * j], block.ids[2 * j + 1]
            seen.add((block.couples.cases[k], inst.position(a) < inst.position(b)))
    assert seen == {(c, first) for c in range(1, 7) for first in (True, False)}


def test_couple_cases_cover_every_k_and_both_instance_orders():
    # the benchmark's couples are all k = 0, so the strategy must reach the
    # non-dyadic k = 2..6 schedules and both orders of A and B
    seen = set()
    for seed in range(150):
        pairs, inst = couple_case(SeededDraws(seed))
        block = one_block(pairs, inst)
        for j, k in enumerate(block.couples.which):
            a, b = block.ids[2 * j], block.ids[2 * j + 1]
            seen.add((block.couples.cases[k], inst.position(a) < inst.position(b)))
    assert seen == {(c, first) for c in range(1, 7) for first in (True, False)}


def test_unknown_id_raises_the_key_error_of_evaluate():
    commodities = tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(4))
    pairs = [((0, 1.0, 1.0), (1, 1.0, 1.0)), ((3, 1.0, 1.0), (2, 1.0, 1.0))]
    block = one_block(pairs, Instance(commodities, 1.0), "c")
    policies = [synthesize_couple(inp).policy for inp in couple_inputs(pairs, Instance(commodities, 1.0))]
    for missing in ((3,), (2,), (2, 3), (1, 3), (0,)):
        inst = Instance(tuple(c for c in commodities if c.id not in missing), 1.0)
        with pytest.raises(KeyError) as expected:
            for policy in policies:
                evaluate(policy, inst)
        with pytest.raises(KeyError, match="no commodity with id") as got:
            AssembledPolicy((block,)).report(inst)
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
        one_block(good + [((4, 1.0, 1.0), bad)], inst, "c")


def test_subnormal_T_B_is_refused_for_a_later_pair():
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 2.0 if i % 2 else 1.0) for i in range(4)), 1.0)
    pairs = [((0, 1.0, 1.0), (1, 2.0, 0.5)), ((2, 1.0, 1e-323), (3, 2.0, 5e-324))]
    with pytest.raises(ValueError, match=r"^T_B = 5e-324 is below the smallest normal float$"):
        one_block(pairs, inst, "c")


# One bad pair of each kind, as (A's gamma, T_A, B's gamma, T_B): the ratio
# 2 * (1 + 1e-6) is no power of two, the space ratio 1.5 is outside
# [1/(1+eps), 1+eps], and T_B = 5e-324 is subnormal.
BAD_PAIRS = {
    "not-a-power-of-two": (1.0, 1.0, 2.0, 0.5 / (1.0 + 1e-6)),
    "space-mismatch": (3.0, 1.0, 4.0, 0.5),
    "subnormal-T_B": (1.0, 1e-323, 2.0, 5e-324),
}


@pytest.mark.parametrize("second", sorted(BAD_PAIRS))
@pytest.mark.parametrize("first", sorted(BAD_PAIRS))
@pytest.mark.parametrize("shared", [False, True], ids=["own-key", "shared-key"])
def test_first_bad_pair_of_a_class_raises_its_own_error(first, second, shared):
    # pairs 1 and 2 of a class's four are bad; the earlier bad pair's own
    # CoupleInput exception is raised, type and message. With `shared` every
    # good pair has the (1, 1.0) key of the first bad pair, so a bad pair
    # whose key is shared is checked all the same
    good = (1.0, 1.0, 2.0, 0.5)
    rows = [good, BAD_PAIRS[first], BAD_PAIRS[second], good if shared else (1.0, 2.0, 2.0, 1.0)]
    commodities, pairs = [], []
    for j, (g_A, T_A, g_B, T_B) in enumerate(rows):
        commodities += [Commodity(2 * j, 1.0, 1.0, g_A), Commodity(2 * j + 1, 1.0, 1.0, g_B)]
        pairs.append(((2 * j + 1, g_B, T_B), (2 * j, g_A, T_A)))  # the lead is B, so A is found by its interval
    inst = Instance(tuple(reversed(commodities)), 1.0)
    with pytest.raises(Exception) as expected:
        CoupleInput(inst.commodity(2), inst.commodity(3), rows[1][1], rows[1][3], EPS)
    with pytest.raises(type(expected.value)) as got:
        one_block(pairs, inst, "c")
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_pair_near_the_power_of_two_limit_takes_its_k_from_math_log2():
    # log2(T_A/T_B) lies about 7e-10 above 1, inside the rules' 1e-9 band:
    # the pair is accepted with k = 1, the k math.log2 gives, although the
    # band is now decided by np.log2 for every pair
    T_B = 0.5 / (1.0 + 5e-10)
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 2.0 if i % 2 else 1.0) for i in range(4)), 1.0)
    pairs = [((0, 1.0, 1.0), (1, 2.0, T_B)), ((2, 1.0, 1.0), (3, 2.0, 0.5))]
    assert 5e-10 < math.log2(1.0 / T_B) - 1 <= 1e-9
    block = one_block(pairs, inst, "c")
    assert block.couples.which == (0, 0)
    assert block.couples.cases == (2,)
    assert exact(block.couples.templates[0]) == exact(synthesize_couple(couple_inputs(pairs, inst)[0]).policy)


def test_shared_schedule_is_built_once_per_key():
    # T_A = 1.0 with k = 0 three times, T_A = 2.0 with k = 0, T_A = 1.0 with k = 1
    gamma = [1.0] * 8 + [1.0, 2.0]
    inst = Instance(tuple(Commodity(i, 1.0 + i, 1.0, g) for i, g in enumerate(gamma)), 1.0)
    T = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 0.5)]
    pairs = [((2 * j, gamma[2 * j], T_A), (2 * j + 1, gamma[2 * j + 1], T_B)) for j, (T_A, T_B) in enumerate(T)]
    block = one_block(pairs, inst, "class7")
    assert block.couples.which == (0, 1, 0, 0, 2)
    assert len(block.couples.templates) == 3
    entry = block.to_json()
    assert entry["provenance"] == "class7"
    assert [e["provenance"] for e in flatten([entry])] == ["class7:couple-case1"] * 4 + ["class7:couple-case2"]
    assert block.ids == tuple(range(10))


@pytest.mark.parametrize("stray_first", [False, True])
def test_parts_sharing_a_commodity_raise_the_error_of_combine_reports(stray_first, monkeypatch):
    # the stray block's ids say (4,), but its policy names 0 and 2 as well:
    # the overlap is found on the ids the policies name, by combine_reports,
    # whose error names the ids the first block to overlap shares with the
    # earlier ones
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(5)), 1.0)
    couples = one_block([((0, 1.0, 1.0), (1, 1.0, 1.0)), ((2, 1.0, 1.0), (3, 1.0, 1.0))], inst, "c")
    stray = Block(ids=(4,), sosi=SosiPolicy({4: 1.0, 2: 1.0, 0: 0.5}))
    blocks = (stray, couples) if stray_first else (couples, stray)
    with pytest.raises(ValueError) as expected:
        combine_reports([b.report(inst) for b in blocks], inst)
    with pytest.raises(ValueError) as got:
        AssembledPolicy(blocks).report(inst)
    assert str(got.value) == str(expected.value) == "reports overlap on commodities [0, 2]"
    # a solve whose scenario emits such blocks is refused with the same error
    monkeypatch.setattr(pipeline, "_dispatch", lambda *args: ("difficult", list(blocks), None))
    with pytest.raises(ValueError, match=r"^reports overlap on commodities \[0, 2\]$"):
        pipeline.solve_sub2(inst, PipelineConfig())


def test_a_recurring_key_reuses_the_class_template():
    # the (0, 1.0) and (0, 2.0) keys recur in the class's second subgroup,
    # whose pairs run the templates the first subgroup's pairs built
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(8)), 1.0)
    T = [(1.0, 1.0), (2.0, 2.0), (2.0, 2.0), (1.0, 1.0)]
    pairs = [((2 * j, 1.0, T_A), (2 * j + 1, 1.0, T_B)) for j, (T_A, T_B) in enumerate(T)]
    block = one_block(pairs, inst, "class7")
    assert block.couples.which == (0, 1, 1, 0)
    assert [t.tau for t in block.couples.templates] == [1.0, 2.0]
    assert [list(t.schedules) for t in block.couples.templates] == [[0, 1], [0, 1]]
    assert block.ids == tuple(range(8))


def test_heavy_split_is_strict_at_three_quarters_of_the_slab():
    # at ell = 1 the slab is V; gamma * T / 2 equals 0.75 V exactly for the
    # last column, which stays light, and exceeds it by an ulp for the middle
    T = [0.5, math.nextafter(1.0, 2.0), 1.0]
    heavy, sizes = split_heavy_light(T, [1.5] * 3, 1.0, ell=1, eps=EPS, Q=1)
    assert (heavy.tolist(), sizes) == ([False, True, False], [1])


# ---------------------------------------------------------------------------
# Couple rules
# ---------------------------------------------------------------------------

# NaN, infinities, zero, a negative, subnormals, the smallest normal float,
# and values near the float extremes
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e308, sys.float_info.max)
# (T_A, T_B) pairs whose ratio is NaN, infinite or zero with no rule before
# the power-of-two rule broken (but for a NaN interval): T_A near the float
# maximum over an infinite T_B clears T_B <= T_A, as T_A * (1 + 1e-12)
# overflows too
EDGE_PAIRS = (
    (math.nan, 1.0),
    (1.0, math.nan),
    (math.inf, 1.0),
    (1e308, 1e-300),
    (math.inf, math.inf),
    (sys.float_info.max, math.inf),
)


def rule_column_case(pick):
    """Columns T_A, T_B, gamma_A, gamma_B of one to eight pairs, and an eps,
    mostly valid. T_A is moderate, of any binade (subnormal included) or
    special; T_B is T_A / 2^(k + off) for k in -1..7, or special; or the
    pair is one of EDGE_PAIRS. off is 0,
    a few ulps, large, or near the power-of-two band's edge 1e-9 (no closer
    than a relative 1e-5, some ten ulps: np.log2 and math.log2 may differ by
    one ulp, which moves only a ratio within one ulp of the edge). gamma_B
    puts the space ratio inside, at the edges of or outside
    [1/(1+eps), 1+eps]; a huge gamma_A overflows gamma*T."""
    eps = pick.choice([0.05, 0.05, 0.05, 0.0999, 0.5, 0.0, 1.0, -0.5, math.nan])
    tol = eps if 0 < eps < 1 else 0.05

    def moderate():
        return pick.real(1e-3, 1e3)

    def offset():
        kind = pick.integer(0, 3)
        if kind == 0:
            return 0.0
        if kind == 1:
            return pick.choice([-4e-16, -2e-16, 2e-16, 4e-16])
        if kind == 2:
            return pick.choice([-1e-9, 1e-9]) * (1.0 + pick.choice([-1, 1]) * pick.real(1e-5, 1e-2))
        return pick.real(-0.5, 0.5)

    columns = []
    for _ in range(pick.integer(1, 8)):
        kind = pick.choice(["moderate", "moderate", "any binade", "special"])
        if kind == "moderate":
            T_A = moderate()
        elif kind == "any binade":
            T_A = math.ldexp(pick.real(0.5, 1.0), pick.integer(-1075, 1023))
        else:
            T_A = pick.choice(SPECIAL)
        with np.errstate(all="ignore"):
            T_B = (np.float64(T_A) / 2.0 ** pick.integer(-1, 7) / 2.0 ** offset()).item()
            kind = pick.integer(0, 7)
            if kind == 0:
                T_B = pick.choice(SPECIAL)
            elif kind == 1:
                T_A, T_B = pick.choice(EDGE_PAIRS)
            gamma_A = moderate() if pick.integer(0, 3) else pick.choice([1e300, 1.5e308])
            kind = pick.integer(0, 2)
            if kind == 0:
                ratio = pick.real(1.0 / (1.0 + tol), 1.0 + tol)
            elif kind == 1:
                ratio = pick.choice([1.0 / (1.0 + tol), 1.0 + tol, 1.0 / (1.0 + tol) - 1e-12, 1.0 + tol + 1e-12])
            else:
                ratio = pick.choice([0.5, 1.5, 1.0 / (1.0 + tol) - 1e-9, 1.0 + tol + 1e-9])
            gamma_B = (np.float64(gamma_A) * T_A / T_B / ratio).item()
        columns.append((T_A, T_B, gamma_A, gamma_B))
    return *map(list, zip(*columns)), eps


@st.composite
def rule_columns(draw):
    return rule_column_case(HypothesisDraws(draw))


def rule_outcome(T_A, T_B, gamma_A, gamma_B, eps):
    """The reference's k per pair, or the exception that pair_powers must
    raise: the reference's own for its first bad pair, except where the
    reference failed taking k of a NaN, infinite or zero ratio (is_stray).
    There a NaN interval breaks the first rule, and any other such ratio
    T_A/T_B the power-of-two rule."""
    ks = []
    for T_A_j, T_B_j, gamma_A_j, gamma_B_j in zip(T_A, T_B, gamma_A, gamma_B):
        try:
            ks.append(scalar_pair_rules(T_A_j, T_B_j, gamma_A_j, gamma_B_j, eps))
        except (ValueError, OverflowError) as error:
            if math.isnan(T_A_j) or math.isnan(T_B_j):
                return ValueError("intervals must be > 0")
            if is_stray(error):
                return NotAPowerOfTwo(f"T_A/T_B = {T_A_j / T_B_j!r} is not an integer power of two")
            return error
    return ks


def is_stray(error):
    """Whether the reference failed taking k of a NaN, infinite or zero
    ratio (T_A near the float maximum over an infinite T_B clears the rule
    T_B <= T_A, as T_A * (1 + 1e-12) overflows too)."""
    return isinstance(error, OverflowError) or str(error) in ("cannot convert float NaN to integer", "math domain error")


@settings(deadline=None)
@given(case=rule_columns())
def test_pair_powers_match_the_scalar_rules(case):
    # every pair's k, or the first bad pair's exception, type and message
    want = rule_outcome(*case)
    if isinstance(want, list):
        assert pair_powers(*case).tolist() == want
        return
    with pytest.raises(type(want)) as got:
        pair_powers(*case)
    assert type(got.value) is type(want) and str(got.value) == str(want)


def test_rule_columns_reach_every_rule_and_both_sides_of_the_band():
    # the strategy's pairs must each break one of the six rules first, reach
    # the three stray errors of the reference, pass, and accept and refuse
    # ratios beyond 5e-10 of a power of two on both sides of the 1e-9 band
    seen = set()
    for seed in range(300):
        *columns, eps = rule_column_case(SeededDraws(seed))
        for T_A, T_B, gamma_A, gamma_B in zip(*columns):
            try:
                scalar_pair_rules(T_A, T_B, gamma_A, gamma_B, eps)
                seen.add("accepted")
            except OverflowError:
                seen.add("OverflowError")
            except ValueError as error:
                seen.add(str(error) if is_stray(error) else str(error).split(" ")[0])
            if 0 < T_B <= T_A and math.isfinite(T_A / T_B):
                off = abs(math.log2(T_A / T_B) - round(math.log2(T_A / T_B)))
                if off > 5e-10:
                    seen.add("inside the band" if off <= 1e-9 else "outside the band")
    rules = {"intervals", "T_B", "require", "epsilon", "T_A/T_B", "gamma_A*T_A"}
    strays = {"cannot convert float NaN to integer", "OverflowError", "math domain error"}
    assert seen == rules | strays | {"accepted", "inside the band", "outside the band"}


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
    block = one_block([((0, 1e308, 1.0), (1, 1e308, 1.0))], inst, "c")
    assert exact(couple_reports(block, inst)) == exact([report])


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
    decomp = dataclasses.replace(decomp, labels={ell: "dense" for ell in decomp.bounds})
    mi, intervals, gamma = build_matching_instance(inst, cfg, decomp)
    assert gamma.tolist() == [inst.commodity(i).gamma for i in mi.commodity_side]
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
