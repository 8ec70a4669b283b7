import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.cli import generate_instance
from ewlsp.couples import CoupleInput, synthesize_couple
from ewlsp.errors import InfeasiblePolicy
from ewlsp.evaluator import combine_reports, evaluate, evaluate_sosi
from ewlsp.matching import INF_CLASS
from ewlsp.model import Commodity, CyclicPolicy, Instance, SosiPolicy, parse_policies, sosi_to_cyclic
from ewlsp.pipeline import (
    ALPHA_FALLBACK,
    DELTA,
    AssembledPolicy,
    Block,
    PipelineConfig,
    build_reference_policy,
    decompose_classes,
    paper_heavy_subgroups,
    solve_sub2,
    split_heavy_light,
    sub_instance,
)
from ewlsp.relaxation import solve_sosi_relaxation

from conftest import flatten, make_instance, random_instance

CFG = PipelineConfig(eps=0.05, sparsity_threshold=10, Q=8)


def dense_heavy_instance(seed: int, n: int) -> Instance:
    rng = np.random.Generator(np.random.PCG64(seed))
    commodities = tuple(
        Commodity(
            i,
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
        )
        for i in range(n)
    )
    peak = sum(c.gamma * math.sqrt(c.K / c.H) for c in commodities)
    return Instance(commodities, capacity_V=0.3 * peak)


def reference_report(inst: Instance):
    return evaluate_sosi(build_reference_policy(inst), inst)


class TestConfig:
    def test_defaults_match_published_constants(self):
        # the published threshold and subgroup count do not run at desk scale,
        # so the defaults are the 10 and 10 the CLI and the benchmark pass
        assert PipelineConfig() == PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10)
        assert DELTA == 17.0 / 10000.0
        assert paper_heavy_subgroups(0.05) == 23966
        assert ALPHA_FALLBACK == pytest.approx(0.875 / (math.sqrt(2) * math.log(2)))

    def test_validation(self):
        for field in ({"eps": 0.2}, {"eps": 0.0}, {"sparsity_threshold": -1}, {"Q": 0}):
            with pytest.raises(ValueError):
                PipelineConfig(**field)


class TestReferencePolicy:
    def test_feasible_on_random_instances(self, rng):
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 8)))
            assert reference_report(inst).feasible

    def test_single_commodity_cost_within_two_of_lb(self):
        inst = make_instance([(1, 1, 1)], 0.4)
        lb = solve_sosi_relaxation(inst).objective
        assert reference_report(inst).total_cost_rate <= 2.0 * lb + 1e-9

    def test_identical_pair_stays_symmetric(self):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 0.5)
        ref = build_reference_policy(inst)
        assert ref.intervals_T[0] == ref.intervals_T[1]


class TestDecomposition:
    def test_engineered_slabs(self):
        # reference with average spaces 0.9V, 0.2V, 0.01V lands in classes
        # 3, 33 and the tail, by direct slab arithmetic at eps = 0.05
        inst = make_instance([(1, 1, 1)] * 3, 1.0)
        ref = evaluate_sosi(SosiPolicy({0: 1.8, 1: 0.4, 2: 0.02}), inst)
        decomp = decompose_classes(ref, inst, CFG)
        lookup = {i: ell for ell, ids in decomp.classes.items() for i in ids}
        assert lookup[0] == 3
        assert lookup[1] == 33
        assert lookup[2] == INF_CLASS
        assert decomp.avg_space[0] == pytest.approx(0.9)

    def test_identical_commodities_single_class(self):
        inst = dense_heavy_instance(0, 30)
        decomp = decompose_classes(reference_report(inst), inst, CFG)
        assert len(decomp.classes) == 1
        (label,) = decomp.labels.values()
        assert label == "dense"

    def test_sparse_prefix_rule(self):
        inst = make_instance([(1, 1, 1)] * 3, 1.0)
        ref = evaluate_sosi(SosiPolicy({0: 1.8, 1: 0.4, 2: 0.02}), inst)
        decomp = decompose_classes(ref, inst, CFG)
        # delta_count at eps=0.05 far exceeds 3 nonempty classes: all prefix
        assert all(lab == "prefix-sparse" for lab in decomp.labels.values())


class TestHeavyLight:
    def test_partition_and_subgroup_sizes(self):
        ids = list(range(11))
        intervals = {i: 1.0 for i in ids}
        inst = make_instance([(1, 1, 1.6)] * 11, 1.0)
        split = split_heavy_light(ids, intervals, inst, ell=1, eps=0.05, Q=4)
        assert set(split.heavy) | set(split.light) == set(ids)
        sizes = [len(g) for g in split.subgroups]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(split.heavy)

    def test_heavy_definition(self):
        # gamma*T/2 = 0.8 > 3/4 of slab V=1 -> heavy; 0.7 -> light
        inst = make_instance([(1, 1, 1.6), (1, 1, 1.4)], 1.0)
        split = split_heavy_light([0, 1], {0: 1.0, 1: 1.0}, inst, ell=1, eps=0.05, Q=2)
        assert split.heavy == (0,)
        assert split.light == (1,)


class TestSolveSub2:
    def test_dense_heavy_runs_the_po2_machinery(self):
        inst = dense_heavy_instance(1, 40)
        seen_sync = False
        for seed in range(12):
            assembled, rep, diag = solve_sub2(inst, CFG, seed=seed)
            assert rep.feasible
            assert diag["scenario"] == "difficult"
            dense = diag["dense"]
            assert all(c <= 11.0 / (10.0 * CFG.eps) for c in dense["far_pair_counts"])
            if any(v == "po2-sync" for v in dense["classes"].values()):
                seen_sync = True
                assert dense["couples"] >= 1
        assert seen_sync

    def test_default_config_reaches_the_difficult_scenario(self):
        _, rep, diag = solve_sub2(dense_heavy_instance(1, 40), PipelineConfig(), seed=0)
        assert rep.feasible
        assert diag["scenario"] == "difficult"

    def test_deterministic_per_seed(self):
        inst = dense_heavy_instance(2, 24)
        a1, r1, d1 = solve_sub2(inst, CFG, seed=5)
        a2, r2, d2 = solve_sub2(inst, CFG, seed=5)
        assert r1 == r2
        assert a1 == a2
        assert d1["cost_vs_ref"] == d2["cost_vs_ref"]

    def test_random_instances_feasible(self, rng):
        for _ in range(250):
            n = int(rng.integers(1, 20))
            regime = "tight" if rng.random() < 0.5 else "loose"
            inst = random_instance(rng, n, spread=float(rng.uniform(0.3, 1.5)), regime=regime)
            _, rep, diag = solve_sub2(inst, CFG, seed=int(rng.integers(0, 100)))
            assert rep.feasible
            if diag["scenario"] == "low-dense":
                bound = (2.0 - 2.0 * DELTA + 4.0 * CFG.eps) * diag["ref_cost_rate"]
                assert rep.total_cost_rate <= bound + 1e-9

    def test_single_commodity_within_two_of_lb(self):
        inst = make_instance([(1, 1, 1)], 0.4)
        _, rep, _ = solve_sub2(inst, CFG, seed=0)
        lb = solve_sosi_relaxation(inst).objective
        assert rep.feasible
        assert rep.total_cost_rate <= 2.0 * lb + 1e-9

    def test_easy_scenario_with_offset_reference(self):
        inst, seed, ref = _offset_couple_case()
        ref_cost = evaluate(ref, inst).total_cost_rate
        assembled, rep, diag = solve_sub2(inst, CFG, seed=seed, reference=ref)
        assert diag["scenario"] == "easy"
        assert rep.feasible
        bound = (2.0 - 2.0 * DELTA + 8.0 * CFG.eps) * ref_cost
        assert rep.total_cost_rate <= bound + 1e-9

    def test_cost_against_reference_dense_heavy(self):
        inst = dense_heavy_instance(3, 50)
        ratios = []
        for seed in range(30):
            _, rep, diag = solve_sub2(inst, CFG, seed=seed)
            ratios.append(diag["cost_vs_ref"])
        assert float(np.mean(ratios)) <= 2.0 - 17.0 / 5000.0 + CFG.eps

    def test_infeasible_assembly_raises_named_error(self, monkeypatch):
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 0.5)
        oversized = AssembledPolicy((Block(ids=(0, 1), sosi=SosiPolicy({0: 4.0, 1: 4.0})),))
        monkeypatch.setattr(
            "ewlsp.pipeline._scale_to_capacity", lambda _, instance: (oversized, oversized.report(instance), 1.0)
        )
        with pytest.raises(InfeasiblePolicy, match="infeasible policy"):
            solve_sub2(inst, CFG, seed=0)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_one_certification_and_five_diagnostics(self, monkeypatch, scaled):
        # the offset-couple solve overshoots the capacity by an ulp, so it is
        # scaled down once and certified after that; the dense one fits as built
        inst, seed, reference = _offset_couple_case() if scaled else (dense_heavy_instance(1, 40), 0, None)
        calls = 0
        report = AssembledPolicy.report

        def counted(self, instance):
            nonlocal calls
            calls += 1
            return report(self, instance)

        monkeypatch.setattr(AssembledPolicy, "report", counted)
        _, _, diag = solve_sub2(inst, CFG, seed=seed, reference=reference)
        assert (diag["measured_scale"] > 1.0) == scaled
        assert calls == (2 if scaled else 1)
        assert set(diag) == {"scenario", "dense", "measured_scale", "ref_cost_rate", "cost_vs_ref"}


def _offset_couple_case():
    # A half-cycle-offset pair holds 2/3 of its peak on average, so using
    # it as the benchmark drives the sparse volume above (1/2 + delta)V.
    A = Commodity(0, 1.0, 1.0, 1.0)
    B = Commodity(1, 1.0, 1.0, 1.0)
    couple = synthesize_couple(CoupleInput(A, B, 1.0, 1.0, 0.05))
    return Instance((A, B), capacity_V=1.5), 0, couple.policy


def _with_prefix(n: int, extras, scale: float) -> Instance:
    # dense_heavy_instance(0, n) plus small commodities (K, H, gamma as a
    # fraction of its capacity) that land in sparse classes of their own
    base = dense_heavy_instance(0, n)
    V = base.V
    added = tuple(Commodity(1000 + k, K, H, g * V) for k, (K, H, g) in enumerate(extras))
    return Instance(base.commodities + added, capacity_V=scale * V)


def _two_couple_case():
    # two half-cycle-offset couples as the benchmark: an easy solve whose four
    # prefix commodities exceed the PTAS cap and go to the scale-down policy
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(4)), capacity_V=3.0)
    X = inst.commodities
    halves = [synthesize_couple(CoupleInput(X[a], X[b], 1.0, 1.0, 0.05)).policy for a, b in ((0, 1), (2, 3))]
    return inst, 0, CyclicPolicy(1.0, {**halves[0].schedules, **halves[1].schedules})


def _far_pair_case():
    # 23 unit-gamma commodities under a stationary reference holding one
    # interval t for all, so they share one dense class; their unconstrained
    # intervals spread over (0.77, 0.99) of the class cap, so all are heavy
    # and no cap binds, and po2 rounding splits some subgroups factor 2 apart
    # into far pairs: three rounded-sosi blocks of a far pair and a leftover
    n, eps = 23, CFG.eps
    t = 0.998 / n
    ell = math.floor(math.log(2.0 / t) / math.log1p(eps)) + 1
    cap = 2.0 / (1.0 + eps) ** (ell - 1)
    r = np.random.default_rng(1).uniform(0.77, 0.99, size=n).tolist()
    inst = Instance(tuple(Commodity(i, (x * cap) ** 2, 1.0, 1.0) for i, x in enumerate(r)), capacity_V=1.0)
    return inst, 0, sosi_to_cyclic(SosiPolicy({i: t for i in range(n)}))


# sha256 of the sorted-key JSON of the assembled policy followed by repr() of
# the certified cost rate and peak, one solve per scenario and dense-class
# outcome: moving the scale-down or the certificate must not change a bit.
# The first digest is taken over the flattened entries, the second over the
# policy as written.
PINNED_OUTPUTS = [
    (
        "difficult-po2-sync",
        (dense_heavy_instance(1, 40), 0, None),
        "7b0b78fe2803abedfaee111f51c2e35c52a8f1fe2c7c10f1e35b246a83cfa6d4",
        "5915e51cc78f4c438885d80af0ac50d5c2ced2ffed335af21bbd932d4ee4d62f",
    ),
    (
        "difficult-alpha-fallback",
        (dense_heavy_instance(9, 40), 4, None),
        "0bf6f8fda4cb5376b134d23c2d8f7bd03f97a014bf639d14de5feef0ec1af271",
        "0dd4be0ce4148a14ae9f724dd213dfb885090c44147d9745d663050519b49ae3",
    ),
    (
        # the benchmark's n: a one-class matching over 200 commodities, 96 couples
        "difficult-n200-one-class",
        (dense_heavy_instance(0, 200), 0, None),
        "ff4b1e8792d44997b4fa6ed0220f86aedbd9854425880caff1efe8671f3fd221",
        "fdb5f12fedcb2d550d07331e55a2ac6480398dcdf1b286cd09e082831aca697a",
    ),
    (
        "low-dense-tight",
        (generate_instance(0, 40, 1.0, "tight"), 0, None),
        "a32cf3c65336416e350bbb3cbf450946663a9ba6c8a34db241ce2a6d98758c74",
        "e7838b1196637fb12c590d5f4b17c677a5147c4c982833a5e43e031f5e8e68f8",
    ),
    (
        "easy-offset-reference",
        _offset_couple_case(),
        "b8cdfc6d8a853294fe4e97374f562ad335bfe5667a1e250326311ce9a0df773d",
        "b8cdfc6d8a853294fe4e97374f562ad335bfe5667a1e250326311ce9a0df773d",
    ),
    (
        # the benchmark's sub2-spread shape: one stationary relaxation block over n=2000
        "low-dense-loose-n2000",
        (generate_instance(0, 2000, 1.0, "loose"), 0, None),
        "56b083634a0ca21b94dc2f77670d36a5bc9d8fc5fcf6637220ef82248eacd8dc",
        "43753edf85a018801981e365f493f1d3d16aa1486148b906d902f5324d6215f8",
    ),
    (
        # a difficult solve whose two sparse extras form a prefix:relaxation block
        "difficult-prefix-relaxation",
        (_with_prefix(40, [(1.0, 1.0, 1e-3), (1.0, 1.0, 1e-3 / 3)], 1.001), 0, None),
        "eaf46e3278a284e71aac479a9e9a81ec6a95902074e90b199d52aeab19bf3522",
        "b87ccee888fafb10de76174c00cef30700685ff7682341c3cf5737d3750710e7",
    ),
    (
        # prefix ids 1001, 1002, 1000 in class order: the relaxation block's
        # intervals stay in instance order, which the float sums depend on
        "difficult-prefix-class-order",
        (_with_prefix(200, [(1.55, 0.85, 0.00234), (1.81, 0.75, 0.00141), (1.93, 0.63, 0.00141)], 1.0), 0, None),
        "f01474d6b1b93fa174b1b1506f26c9c6bf4ba6614437fafff3453c82c45a62dc",
        "874101b7ff9c12101168486c362cd4e4ffa8c57852d52eba16caf9232ea3c3b2",
    ),
    (
        "difficult-far-pairs",
        _far_pair_case(),
        "d0aebf8f93bad771ee1f6ee826e5928c4834e8ad5ca0ce295db30fa5568d4ca6",
        "7d1b57864dfd2736bf39ec3c98583540f0ca4b0477d8c25a10e3120bf83b1b2e",
    ),
    (
        "easy-prefix-two-approx",
        _two_couple_case(),
        "2a8f63e747c35bcdb4832a546802ca28103f8d7af0f43906e6abf08c59f0e856",
        "8857e53ce85ed104aa7abf92ceff7463acd3a4d9ed8a22d92073c592de00b20f",
    ),
]


@functools.cache
def _pinned_solve(name):
    inst, seed, reference = next(p[1] for p in PINNED_OUTPUTS if p[0] == name)
    return solve_sub2(inst, CFG, seed=seed, reference=reference)


@pytest.mark.parametrize("name, case, flat_digest, digest", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS])
def test_pinned_outputs(name, case, flat_digest, digest):
    # flat_digest is taken with each stationary entry flattened into one
    # cyclic entry per commodity (conftest.flatten), the form it was pinned
    # on before stationary blocks were written as one sosi entry
    assembled, rep, diag = _pinned_solve(name)
    assert name.startswith(diag["scenario"])
    doc = assembled.to_json()
    reported = repr(rep.total_cost_rate) + repr(rep.v_max)
    flat = json.dumps({"blocks": flatten(doc["blocks"])}, sort_keys=True) + reported
    assert hashlib.sha256(flat.encode()).hexdigest() == flat_digest
    text = json.dumps(doc, sort_keys=True) + reported
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", [p[0] for p in PINNED_OUTPUTS])
def test_pinned_outputs_recertify_from_json(name):
    # what `ewlsp eval` computes from the written policy alone, against the
    # report of the assembled policy that solve_sub2 returns
    assembled, rep, _ = _pinned_solve(name)
    inst = next(p[1][0] for p in PINNED_OUTPUTS if p[0] == name)
    policies = parse_policies(json.dumps(assembled.to_json()), inst)
    certified = combine_reports((evaluate(p, inst) for p in policies), inst)
    assert certified.ordering_cost_rate == pytest.approx(rep.ordering_cost_rate, rel=1e-12)
    assert certified.holding_cost_rate == pytest.approx(rep.holding_cost_rate, rel=1e-12)
    assert certified.v_max == pytest.approx(rep.v_max, rel=1e-12)
    assert certified.avg_inventory == pytest.approx(rep.avg_inventory, rel=1e-12)


def test_rounded_sosi_blocks_sum_far_pairs_then_leftover():
    # evaluate_sosi sums in the key order of a block's intervals; for the
    # rounded singles that is each far pair, lead first, then the leftover,
    # and the [20, 18, 19] block's cost rate changes in the last bit when
    # its intervals are keyed in id order
    inst, seed, reference = _far_pair_case()
    assembled, _, _ = solve_sub2(inst, CFG, seed=seed, reference=reference)
    blocks = [b for b in assembled.blocks if b.provenance.endswith(":rounded-sosi") and len(b.ids) >= 3]
    assert [list(b.sosi.intervals_T) for b in blocks] == [[1, 0, 2], [6, 7, 8], [20, 18, 19]]
    text = "".join(
        repr((r.ordering_cost_rate, r.holding_cost_rate, r.v_max)) for r in (b.report(inst) for b in blocks)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == "149cee804191b05f93cd5c2b6fd2f404d4c5ca7f150ab61c00b1768657a06155"


class TestBlocks:
    def test_sub_instance(self):
        inst = make_instance([(1, 1, 1), (2, 2, 2), (3, 3, 3)], 1.0)
        sub = sub_instance(inst, [1, 2])
        assert sub.ids() == [1, 2]
        assert sub.V == 1.0

    def test_overlapping_blocks_are_refused(self):
        first = Block(ids=(0, 1, 2), sosi=SosiPolicy({0: 1.0, 1: 1.0, 2: 1.0}))
        second = Block(ids=(3, 2, 1), sosi=SosiPolicy({3: 1.0, 2: 1.0, 1: 1.0}))
        with pytest.raises(ValueError, match=r"blocks overlap on commodities \[1, 2\]"):
            AssembledPolicy((first, second))

    def test_assembled_scaling(self):
        inst = dense_heavy_instance(5, 20)
        assembled, rep, _ = solve_sub2(inst, CFG, seed=1)
        scaled = assembled.scaled(0.5)
        assert scaled.report(inst).v_max == pytest.approx(0.5 * rep.v_max, rel=1e-9)


class TestDenseBranchGuarantees:
    def test_po2_sync_class_peak_within_theorem_bound(self):
        # identical heavy commodities: on sync draws the class peak must sit
        # within (1+6eps) * (7/4)/(sqrt2 ln2) * |class| * slab
        from ewlsp.evaluator import combine_reports
        from ewlsp.pipeline import build_matching_instance, run_dense_branch

        eps = CFG.eps
        inst = dense_heavy_instance(8, 48)
        decomp = decompose_classes(reference_report(inst), inst, CFG)
        (ell,) = decomp.classes.keys()
        slab = inst.V / (1.0 + eps) ** (int(ell) - 1)
        bound = (1 + 6 * eps) * (7.0 / 4.0) / (math.sqrt(2.0) * math.log(2.0)) * inst.n * slab
        checked = 0
        for seed in range(20):
            blocks, diag = run_dense_branch(inst, CFG, decomp, seed)
            if diag["classes"][str(ell)] != "po2-sync":
                continue
            checked += 1
            report = combine_reports((b.report(inst) for b in blocks), inst)
            assert report.v_max <= bound + 1e-9
        assert checked >= 3

    def test_light_majority_class_keeps_matched_intervals(self):
        # reference holding four times the unconstrained interval: matched
        # intervals revert to the unconstrained optimum and everyone is light
        n = 12
        inst = make_instance([(1.0, 1.0, 1.0)] * n, float(4 * n))
        ref = sosi_to_cyclic(SosiPolicy({i: 4.0 for i in range(n)}))
        cfg = PipelineConfig(eps=0.05, sparsity_threshold=4, Q=4)
        assembled, rep, diag = solve_sub2(inst, cfg, seed=0, reference=ref)
        assert rep.feasible
        dense = diag["dense"]
        assert list(dense["classes"].values()) == ["light-majority"]
        (block,) = assembled.blocks
        assert block.sosi is not None
        assert all(T == pytest.approx(1.0) for T in block.sosi.intervals_T.values())

    def test_alpha_fallback_scales_matched_intervals(self):
        inst = dense_heavy_instance(9, 40)
        seen = False
        for seed in range(25):
            assembled, rep, diag = solve_sub2(inst, CFG, seed=seed)
            dense = diag["dense"]
            (ell,) = dense["classes"].keys()
            if dense["classes"][ell] != "alpha-fallback":
                continue
            seen = True
            assert rep.feasible
            assert not dense["a_ell"][ell]
            (block,) = [b for b in assembled.blocks if b.provenance.endswith("alpha-fallback")]
            assert block.sosi is not None
        assert seen


def test_dense_branch_suffix_and_tail_classes():
    # forced labels route a small mid-slab class as suffix-sparse and the
    # below-resolution commodity through the tail class; both must come out
    # as plain matched stationary blocks while the bulk class synchronizes
    from ewlsp.pipeline import build_matching_instance, run_dense_branch

    rng = np.random.Generator(np.random.PCG64(12))
    bulk = [
        Commodity(
            i,
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
            float(np.exp(rng.uniform(-1e-3, 1e-3))),
        )
        for i in range(30)
    ]
    peak = sum(c.gamma * math.sqrt(c.K / c.H) for c in bulk)
    V = 0.3 * peak
    extras = [
        Commodity(100, 1.0, 1.0, 0.05 * V),
        Commodity(101, 1.0, 1.0, 0.05 * V),
        Commodity(102, 1e-4, 1.0, 1e-4 * V),
    ]
    inst = Instance(tuple(bulk + extras), capacity_V=V)
    cfg = PipelineConfig(eps=0.05, sparsity_threshold=10, Q=6)
    ref = reference_report(inst)
    base = decompose_classes(ref, inst, cfg)
    forced = {
        ell: ("dense" if len(ids) > 10 or ell == INF_CLASS else "suffix-sparse")
        for ell, ids in base.classes.items()
    }
    decomp = dataclasses.replace(base, labels=forced)
    blocks, diag = run_dense_branch(inst, cfg, decomp, seed=0)
    kinds = diag["classes"]
    assert kinds[str(INF_CLASS)] == "sosi"
    assert sum(1 for v in kinds.values() if v == "sosi") >= 2  # suffix + tail
    covered = sorted(i for b in blocks for i in b.ids)
    assert covered == sorted(inst.ids())
    suffix_blocks = [b for b in blocks if 100 in b.ids]
    assert suffix_blocks and suffix_blocks[0].sosi is not None


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 12),
    regime=st.sampled_from(["tight", "loose", "dense-heavy"]),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_reference_matches_expanded_cycle(seed, n, regime):
    # the closed-form report of the stationary reference must classify
    # exactly like the exact evaluation of its expanded joint cycle
    inst = generate_instance(seed, n, 1.0, regime)
    ref = build_reference_policy(inst)
    closed = decompose_classes(evaluate_sosi(ref, inst), inst, CFG)
    expanded = decompose_classes(evaluate(sosi_to_cyclic(ref, max_orders=500_000), inst), inst, CFG)
    assert closed.classes == expanded.classes
    assert closed.labels == expanded.labels
    for cid, space in expanded.avg_space.items():
        assert math.isclose(closed.avg_space[cid], space, rel_tol=1e-12)
    assert math.isclose(closed.vbar_sparse, expanded.vbar_sparse, rel_tol=1e-12)
    assert math.isclose(closed.vbar_dense, expanded.vbar_dense, rel_tol=1e-12)
