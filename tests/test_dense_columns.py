"""The dense branch on columns, against the scalar chain it replaced.

round_and_pair rounds and pairs every heavy subgroup of a class in one array
pass; it must equal, bit for bit, the chain po2_round -> classify_pairs ->
orientation run one subgroup at a time. Each subgroup's theta, drawn in
integer arithmetic (subgroup_thetas), must equal bit for bit the first
uniform(-0.5, 0.5) of the numpy stream it reproduces (numpy_theta). Ladder
instances (dense-heavy rows with gamma and H times 2^j and K times 2^-j) put
heavy subgroups over several powers of two, so their solves build k >= 1
couples end to end.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.cli import generate_instance
from ewlsp.couples import CoupleInput, classify_pairs, synthesize_couple
from ewlsp.evaluator import combine_reports, evaluate, evaluate_sosi
from ewlsp.matching import solve_b_matching
from ewlsp.model import Instance, parse_policy
from ewlsp.po2 import _split_exponent, po2_round
from ewlsp.pipeline import (
    PipelineConfig,
    build_matching_instance,
    build_reference_policy,
    decompose_classes,
    round_and_pair,
    solve_sub2,
    split_heavy_light,
    subgroup_thetas,
    theta_pool,
)

from conftest import assignment_of, flat_content
from test_stationary_columns import exact


def numpy_theta(seed, ell: int, q: int) -> float:
    """Subgroup q of class ell's theta as numpy draws it: the documented
    stream split, one child stream per (class index, subgroup index)."""
    stream = np.random.SeedSequence(entropy=seed, spawn_key=(ell, q))
    return float(np.random.Generator(np.random.PCG64(stream)).uniform(-0.5, 0.5))


def theta(seed, ell: int, q: int) -> float:
    return subgroup_thetas(theta_pool(seed), ell, q + 1)[q]


def scalar_chain(ids, T, gamma, sizes, thetas, eps):
    """Per subgroup: po2_round, classify_pairs and the orientation of its
    near pairs, as run_dense_branch ran them before the class pass. Returns
    the rounded intervals by id and, per subgroup, the oriented near pairs,
    the far pair count and the singles (far pairs' members, then the
    leftover), entries as (id, rounded T)."""
    rounded, groups, start = {}, [], 0
    for size, theta in zip(sizes, thetas):
        group = ids[start : start + size]
        out = po2_round({i: t for i, t in zip(group, T[start : start + size])}, theta).rounded_T
        rounded.update(out)
        entries = [(i, g, out[i]) for i, g in zip(group, gamma[start : start + size])]
        near, far, leftover = classify_pairs(entries, eps)
        oriented = [(lead, trail) if lead[2] >= trail[2] else (trail, lead) for lead, trail in near]
        singles = [e for pair in far for e in pair] + ([leftover] if leftover is not None else [])
        groups.append(
            (
                [((a[0], a[2]), (b[0], b[2])) for a, b in oriented],
                len(far),
                [(e[0], e[2]) for e in singles],
            )
        )
        start += size
    return rounded, groups


def hexes(values):
    return [float(v).hex() for v in values]


def class_pass_columns(paired):
    """round_and_pair's oriented near pairs, far pair counts and singles."""
    A, B = zip(paired.A.tolist(), paired.T_A.tolist()), zip(paired.B.tolist(), paired.T_B.tolist())
    return list(zip(A, B)), paired.far.tolist(), list(zip(paired.single_ids.tolist(), paired.single_T.tolist()))


def scalar_columns(groups):
    """scalar_chain's per-subgroup near pairs and singles, each run together
    in subgroup order as the class emits them, and its far pair counts."""
    couples = [pair for pairs, _, _ in groups for pair in pairs]
    return couples, [far for _, far, _ in groups], [single for _, _, singles in groups for single in singles]


def exact_columns(couples, far, singles):
    return [((a, t_a.hex()), (b, t_b.hex())) for (a, t_a), (b, t_b) in couples], far, [(i, t.hex()) for i, t in singles]


@st.composite
def class_passes(draw):
    """One class's heavy subgroups: intervals over several powers of two of a
    common base (so k >= 1), some within 1e-12 of a power of two times the
    base, repeated intervals with the same gamma (a gamma*T tie) or (1 + eps)
    times it (the far test's boundary), unsorted ids, and per
    subgroup a theta from numpy_theta, +-1/2 or beta - 1/2 of one member.
    Returns the pass's arguments and the set of edge cases it holds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    m = sum(sizes)
    eps = draw(st.sampled_from([0.05, 0.01, 0.0999, 1e-9]))
    base = float(10.0 ** rng.uniform(-3, 3))
    T, gamma, seen = [], [], set()
    for _ in range(m):
        if T and rng.random() < 0.3:
            # a repeated interval with the same gamma (a gamma*T tie) or
            # with (1 + eps) times it (the far test's boundary)
            j = int(rng.integers(len(T)))
            boundary = rng.random() < 0.5
            T.append(T[j])
            gamma.append((1.0 + eps) * gamma[j] if boundary else gamma[j])
            seen.add("boundary" if boundary else "tie")
            continue
        e = int(rng.integers(0, 6))
        kind = rng.random()
        if kind < 0.2:
            t = base * 2.0**e * (1.0 + float(rng.uniform(-1e-12, 1e-12)))
            seen.add("near-power")
        elif kind < 0.3:
            t = base * 2.0**e
        else:
            t = base * 2.0 ** (e + float(rng.uniform(0, 1)))
        if e:
            seen.add("spread")
        T.append(t)
        gamma.append(float(10.0 ** rng.uniform(-1, 1)) / t if rng.random() < 0.5 else float(rng.choice([1.0, 2.0])))
    ids = rng.permutation(10 * m)[:m].tolist()
    thetas, start = [], 0
    seed, ell = int(rng.integers(0, 2**31)), int(rng.integers(1, 200))
    for q, size in enumerate(sizes):
        mode = draw(st.sampled_from(["stream", "stream", "+1/2", "-1/2", "beta"]))
        if mode == "stream":
            thetas.append(numpy_theta(seed, ell, q))
        elif mode == "beta":
            group = T[start : start + size]
            _, beta = _split_exponent(group[int(rng.integers(size))], min(group))
            thetas.append(beta - 0.5)
        else:
            thetas.append(0.5 if mode == "+1/2" else -0.5)
        seen.add(mode)
        start += size
    return (ids, T, gamma, sizes, thetas, eps), seen


@settings(deadline=None)
@given(case=class_passes())
def test_class_pass_matches_the_scalar_chain_bit_for_bit(case):
    (ids, T, gamma, sizes, thetas, eps), _ = case
    paired = round_and_pair(ids, np.array(T), np.array(gamma), sizes, thetas, eps)
    rounded, groups = scalar_chain(ids, T, gamma, sizes, thetas, eps)
    assert hexes(paired.rounded) == hexes(rounded[i] for i in ids)
    assert exact_columns(*class_pass_columns(paired)) == exact_columns(*scalar_columns(groups))


def test_class_passes_reach_every_edge_case():
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(case=class_passes())
    def collect(case):
        args, flags = case
        seen.update(flags)
        paired = round_and_pair(args[0], np.array(args[1]), np.array(args[2]), *args[3:])
        if (paired.T_A > paired.T_B).any():
            seen.add("k>=1 couple")

    collect()
    assert seen == {"tie", "boundary", "near-power", "spread", "stream", "+1/2", "-1/2", "beta", "k>=1 couple"}


def test_theta_at_beta_minus_half_follows_math_log2():
    # 20,000 two-member subgroups, each rounded with theta = beta - 1/2 of
    # its longer member, beta from math.log2; np.log2 disagrees with it in
    # the last bit on some such ratios on some hosts, and the pass must then
    # follow math.log2 as po2_round does
    ratios = (2.0 ** np.random.default_rng(1).uniform(0, 6, 20_000)).tolist()
    thetas = [_split_exponent(r, 1.0)[1] - 0.5 for r in ratios]
    T = [t for r in ratios for t in (1.0, r)]
    ids = list(range(len(T)))
    paired = round_and_pair(ids, np.array(T), np.ones(len(T)), [2] * len(ratios), thetas, 0.05)
    rounded, _ = scalar_chain(ids, T, [1.0] * len(T), [2] * len(ratios), thetas, 0.05)
    assert hexes(paired.rounded) == hexes(rounded[i] for i in ids)


def test_class_pass_refuses_a_nonpositive_interval_as_po2_round_does():
    with pytest.raises(ValueError, match="^all intervals must be > 0$"):
        po2_round({0: 1.0, 1: 0.0}, 0.0)
    with pytest.raises(ValueError, match="^all intervals must be > 0$"):
        round_and_pair([0, 1], np.array([1.0, 0.0]), np.ones(2), [2], [0.0], 0.05)


# float.hex of numpy_theta(seed, ell, q): the documented stream split that
# every difficult solve draws its thetas from
THETA_STREAM = {
    (0, 1, 0): "0x1.c8010e61f044cp-2",
    (0, 156, 3): "0x1.59a6c884a19c4p-2",
    (201, 170, 9): "-0x1.82b1de563790cp-3",
    (2**31 - 1, 1, 0): "-0x1.6c0412535f426p-2",
    (7, 171, 1): "0x1.f8246c0775e66p-2",
}


@pytest.mark.parametrize("key", sorted(THETA_STREAM))
def test_theta_stream_is_pinned(key):
    assert numpy_theta(*key).hex() == theta(*key).hex() == THETA_STREAM[key]


# seeds across the padding of the entropy to four words (one word, two, three,
# six) and numpy integer seeds; class indices of one, two and three words
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**160 + 12345, np.int64(9), np.uint64(2**63)])
def test_theta_matches_numpy_stream_at_fixed_keys(seed):
    pool = theta_pool(seed)
    for ell in (0, 5, 123, 2**40, 2**64 + 1):
        got = [t.hex() for t in subgroup_thetas(pool, ell, 12)]
        assert got == [numpy_theta(seed, ell, q).hex() for q in range(12)]


@settings(deadline=None)
@given(seed=st.integers(0, 2**200 - 1), ell=st.integers(0, 2**70 - 1), q=st.integers(0, 63))
def test_theta_matches_numpy_stream(seed, ell, q):
    assert theta(seed, ell, q).hex() == numpy_theta(seed, ell, q).hex()


# ---------------------------------------------------------------------------
# k >= 1 couples end to end
# ---------------------------------------------------------------------------


def ladder_instance(seed: int, n: int) -> Instance:
    """The `gen --regime dense-ladder` instance: dense-heavy rows with gamma
    and H times 2^j and K times 2^-j, j drawn from 0..5, so that each row's
    volume slab stays while its EOQ interval halves per level."""
    return generate_instance(seed, n, 1.0, "dense-ladder")


def scalar_couples(instance, cfg, seed, classes):
    """The CoupleInput of every couple of the po2-sync classes, in emission
    order, from the scalar chain over the solve's matching."""
    ref = evaluate_sosi(build_reference_policy(instance), instance)
    mi, table, _ = build_matching_instance(instance, cfg, decompose_classes(ref, instance, cfg))
    matched = solve_b_matching(mi)
    assigned = assignment_of(matched)
    t_hat = {i: float(table[r, mi.class_side.index(assigned[i])]) for r, i in enumerate(mi.commodity_side)}
    inputs = []
    for ell in (int(e) for e, outcome in classes.items() if outcome == "po2-sync"):
        ids = sorted(i for i, e in assigned.items() if e == ell)
        class_T, class_gamma = [t_hat[i] for i in ids], [instance.commodity(i).gamma for i in ids]
        split = split_heavy_light(ids, class_T, class_gamma, instance.V, ell, cfg.eps, cfg.Q)
        heavy = list(split.heavy)
        gamma = [instance.commodity(i).gamma for i in heavy]
        sizes = split.sizes
        thetas = [numpy_theta(seed, ell, q) for q in range(len(sizes))]
        _, groups = scalar_chain(heavy, [t_hat[i] for i in heavy], gamma, sizes, thetas, cfg.eps)
        for couples, _, _ in groups:
            for (a, T_A), (b, T_B) in couples:
                inputs.append(CoupleInput(instance.commodity(a), instance.commodity(b), T_A, T_B, cfg.eps))
    return inputs


# (instance seed, n, pipeline seed) -> sha256 of the policy's flattened
# content (conftest.flat_content), and of the sorted-key JSON of the policy as
# written followed by repr() of the certified cost rate and peak. The matching
# has one class at (2, 1000, 0), two at (1, 2000, 0) and three at (0, 2000, 1),
# so each placement path of solve_b_matching is pinned end to end.
LADDER_DIGESTS = {
    (2, 1000, 0): (
        "b5a31ae219d7ecc9fb155731d062e11da158fcef0dc8193ee7f9c9c3323ddf9f",
        "1a262befad12f20424f94a99454b13b1c184343f262411dc5b4c227fa5e8caf4",
    ),
    (1, 2000, 0): (
        "62fc41543bff3c6d29295186f656c6b5932bb1e43caac48e4f6bbe0dbf562073",
        "6fb82cb0fdbb5dfadd2c3abf1222e84c5a4d7469243a4ca6e28ea92c91d41a37",
    ),
    (0, 2000, 1): (
        "1affeb47d6d2bf639e501ae21030ee523728509112d22564bf5fda37f0f6fdb4",
        "a1f1d5c8c24d950834743af1eedbf391f3788cb88001c9edc306a443b7a9187a",
    ),
}


@pytest.mark.parametrize("key", [(2, 1000, 0), (0, 2000, 1), (1, 2000, 0)])
def test_ladder_solve_builds_k_ge_1_couples_as_synthesize_couple_does(key):
    seed, n, pipeline_seed = key
    inst, cfg = ladder_instance(seed, n), PipelineConfig()
    assembled, report, diag = solve_sub2(inst, cfg, seed=pipeline_seed)
    assert diag["scenario"] == "difficult"
    got = [
        (b.ids[2 * j], b.ids[2 * j + 1], b.couples.cases[w], b.couples.templates[w])
        for b in assembled.blocks
        if b.couples is not None
        for j, w in enumerate(b.couples.which)
    ]
    inputs = scalar_couples(inst, cfg, pipeline_seed, diag["dense"]["classes"])
    assert len(got) == len(inputs) == diag["dense"]["couples"]
    cases = Counter(case for _, _, case, _ in got)
    assert set(cases) == {1, 2, 3, 4, 5, 6}
    for (a, b, case, template), inp in zip(got, inputs):
        want = synthesize_couple(inp)
        assert (a, b) == (inp.commodity_A.id, inp.commodity_B.id)
        assert case == want.case_id
        assert template.tau == want.policy.tau
        assert list(template.schedules.values()) == list(want.policy.schedules.values())
    doc = assembled.to_json()
    text = json.dumps(doc, sort_keys=True) + repr(report.total_cost_rate) + repr(report.v_max)
    digests = [hashlib.sha256(s.encode()).hexdigest() for s in (flat_content(doc["blocks"]), text)]
    assert tuple(digests) == LADDER_DIGESTS[key]


def test_ladder_solve_reports_each_block_as_its_written_entry_certifies():
    # two couple blocks over cases 1-6: each block's report is the one its
    # entry, read back, gets (evaluate_sosi for a stationary block, as the
    # solver reports it), and the solve's report adds them in emission order
    inst = ladder_instance(0, 2000)
    assembled, report, _ = solve_sub2(inst, PipelineConfig(), seed=1)
    couple_blocks = [b for b in assembled.blocks if b.couples is not None]
    assert len(couple_blocks) == 2
    assert {case for b in couple_blocks for case in b.couples.cases} == {1, 2, 3, 4, 5, 6}
    parts = []
    for block in assembled.blocks:
        parts.append(block.report(inst))
        policy = parse_policy(json.dumps(block.to_json()))
        certified = evaluate_sosi(policy, inst) if block.sosi is not None else evaluate(policy, inst)
        assert exact(parts[-1]) == exact(certified)
        assert parts[-1].feasible_at == certified.feasible_at == inst.V
    combined = combine_reports(parts, inst)
    assert exact(assembled.report(inst)) == exact(report) == exact(combined)
    assert list(report.avg_inventory) == list(combined.avg_inventory)
