import dataclasses
import functools
import hashlib
import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp import pipeline
from ewlsp.cli import generate_instance, main
from ewlsp.couples import CoupleInput, synthesize_couple
from ewlsp.errors import InfeasiblePolicy
from ewlsp.evaluator import combine_reports, evaluate, evaluate_sosi
from ewlsp.matching import INF_CLASS
from ewlsp.model import (
    Commodity,
    CouplePolicy,
    CyclicPolicy,
    Instance,
    SosiPolicy,
    parse_policies,
    parse_policy,
    policy_entry,
    serialize_instance,
    sosi_to_cyclic,
)
from ewlsp.pipeline import (
    ALPHA_FALLBACK,
    DELTA,
    AssembledPolicy,
    Block,
    PipelineConfig,
    build_matching_instance,
    build_reference_policy,
    decompose_classes,
    paper_heavy_subgroups,
    solve_sub2,
    split_heavy_light,
    sub_instance,
)
from ewlsp.ptas import ptas_solve
from ewlsp.relaxation import solve_sosi_relaxation
from ewlsp.two_approx import solve_two_approx

from conftest import class_ids, flat_content, make_instance, random_instance

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

    @pytest.mark.parametrize("name", ["sparsity_threshold", "Q"])
    @pytest.mark.parametrize("value", [2.5, 10.0, float("nan"), float("inf"), True, False, "10", None])
    def test_counts_that_are_not_integers_are_refused(self, name, value):
        # a float count once failed deep in solve_sub2 (Q=2.5: a TypeError;
        # sparsity_threshold=nan: a KeyError) and Q=True ran as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= [01], got "):
            PipelineConfig(**{name: value})


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
        lookup = {i: ell for ell, ids in class_ids(decomp).items() for i in ids}
        assert lookup[0] == 3
        assert lookup[1] == 33
        assert lookup[2] == INF_CLASS
        assert decomp.space[0] == pytest.approx(0.9)

    def test_reference_leaving_out_commodities_is_refused(self):
        # the per-id lookup of the reference's averages used to raise a bare KeyError(2)
        inst = generate_instance(0, 5, 1.0, "loose")
        reference = CyclicPolicy(1.0, {0: ((0.0, 1.0),), 1: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match=r"^the reference leaves out 3 commodities: \[2, 3, 4\]$"):
            solve_sub2(inst, PipelineConfig(), reference=reference)
        # the missing ids are named in id order, the first ten
        inst = generate_instance(0, 15, 1.0, "loose")
        reference = CyclicPolicy(1.0, {14: ((0.0, 1.0),), 0: ((0.0, 1.0),)})
        with pytest.raises(ValueError, match=r"^the reference leaves out 13 commodities: \[1, 2, .*, 10\]$"):
            solve_sub2(inst, PipelineConfig(), reference=reference)
        # an id the instance lacks is evaluate's KeyError
        reference = CyclicPolicy(1.0, {i: ((0.0, 1.0),) for i in range(16)})
        with pytest.raises(KeyError, match="no commodity with id 15"):
            solve_sub2(inst, PipelineConfig(), reference=reference)

    def test_identical_commodities_single_class(self):
        inst = dense_heavy_instance(0, 30)
        decomp = decompose_classes(reference_report(inst), inst, CFG)
        assert len(decomp.bounds) == 1
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
        split = split_heavy_light(ids, [1.0] * 11, [1.6] * 11, 1.0, ell=1, eps=0.05, Q=4)
        assert set(split.heavy) | set(split.light) == set(ids)
        assert split.sizes == (3, 3, 3, 2)
        assert len(split.heavy) == 11

    def test_heavy_definition(self):
        # gamma*T/2 = 0.8 > 3/4 of slab V=1 -> heavy; 0.7 -> light
        split = split_heavy_light([0, 1], [1.0, 1.0], [1.6, 1.4], 1.0, ell=1, eps=0.05, Q=2)
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


def _offset_couple_case(singles: int = 0):
    # A half-cycle-offset pair holds 2/3 of its peak on average, so using
    # it as the benchmark drives the sparse volume above (1/2 + delta)V.
    # `singles` small commodities (K = H = 1, gamma = 0.01) join it, each
    # ordering 0.25 four times per unit cycle in the reference; eleven of
    # them fill one class past the sparsity threshold, which goes to the
    # suffix+dense relaxation.
    A = Commodity(0, 1.0, 1.0, 1.0)
    B = Commodity(1, 1.0, 1.0, 1.0)
    couple = synthesize_couple(CoupleInput(A, B, 1.0, 1.0, 0.05))
    small = tuple(Commodity(2 + k, 1.0, 1.0, 0.01) for k in range(singles))
    quarters = tuple((t, 0.25) for t in (0.0, 0.25, 0.5, 0.75))
    reference = CyclicPolicy(1.0, {**couple.policy.schedules, **{c.id: quarters for c in small}})
    return Instance((A, B) + small, capacity_V=1.5), 0, reference


def _light_sosi_case():
    # the dense-heavy n=200 rows plus 30 light ones (K = 1.6e9, H = 1,
    # gamma = 1e-6) that join its po2-sync class as light members
    base = generate_instance(0, 200, 1.0, "dense-heavy")
    light = tuple(Commodity(200 + k, 1.6e9, 1.0, 1e-6) for k in range(30))
    return Instance(base.commodities + light, capacity_V=base.V), 0, None


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
    # into far pairs: three subgroups hold a far pair and a leftover
    n, eps = 23, CFG.eps
    t = 0.998 / n
    ell = math.floor(math.log(2.0 / t) / math.log1p(eps)) + 1
    cap = 2.0 / (1.0 + eps) ** (ell - 1)
    r = np.random.default_rng(1).uniform(0.77, 0.99, size=n).tolist()
    inst = Instance(tuple(Commodity(i, (x * cap) ** 2, 1.0, 1.0) for i, x in enumerate(r)), capacity_V=1.0)
    return inst, 0, sosi_to_cyclic(SosiPolicy({i: t for i in range(n)}))


# One solve per scenario and dense-class outcome: moving the scale-down or the
# certificate must not change a bit. The first digest is the sha256 of the
# policy's flattened content (conftest.flat_content: its couples in emission
# order and its stationary commodities in id order, however they are cut into
# entries); the second of the sorted-key JSON of the policy as written
# followed by repr() of the certified cost rate and peak.
PINNED_OUTPUTS = [
    (
        "difficult-po2-sync",
        (dense_heavy_instance(1, 40), 0, None),
        "30e696287989164f6a153278dcc829f8191a279ca423234e769b6e85fbf89222",
        "136464a66ab6343f4ebd4ea455a5e6a5798b91ca06b0b5d0572dff820cde5d61",
    ),
    (
        "difficult-alpha-fallback",
        (dense_heavy_instance(9, 40), 4, None),
        "8bb22788a661600256269e44f164cb812ba211bad528294e1ad3407e3c121fa4",
        "0dd4be0ce4148a14ae9f724dd213dfb885090c44147d9745d663050519b49ae3",
    ),
    (
        # the benchmark's n: a one-class matching over 200 commodities, 96 couples
        "difficult-n200-one-class",
        (dense_heavy_instance(0, 200), 0, None),
        "d35928100c9bee3d3c3f464bb38ae63199c21afb658536cedb5288655241db25",
        "4f47f822b91772d33278fcc4969352785fc82bb3ea8e4740ba4eac31de4af640",
    ),
    (
        "low-dense-tight",
        (generate_instance(0, 40, 1.0, "tight"), 0, None),
        "ed6cf16eaabde44b9f4f3ee6ff8a4be9dc6d7d467254aa8525df206240a9c962",
        "e7838b1196637fb12c590d5f4b17c677a5147c4c982833a5e43e031f5e8e68f8",
    ),
    (
        "easy-offset-reference",
        _offset_couple_case(),
        "c70ae9f23e79c0cbb89690072db8be8d7ca5af8ecd7e5556d57c53dc354cf2c0",
        "b8cdfc6d8a853294fe4e97374f562ad335bfe5667a1e250326311ce9a0df773d",
    ),
    (
        # the benchmark's sub2-spread shape: one stationary relaxation block over n=2000
        "low-dense-loose-n2000",
        (generate_instance(0, 2000, 1.0, "loose"), 0, None),
        "19c45691ad69d2f921f076b01c83507c27a06358133faa5c2ff84df0a071d516",
        "43753edf85a018801981e365f493f1d3d16aa1486148b906d902f5324d6215f8",
    ),
    (
        # a difficult solve whose two sparse extras form a prefix:relaxation block
        "difficult-prefix-relaxation",
        (_with_prefix(40, [(1.0, 1.0, 1e-3), (1.0, 1.0, 1e-3 / 3)], 1.001), 0, None),
        "2c4e289477d7ec017f76f71b61de08305408b9d647ea19430acbc4a5a0db3024",
        "bf2c4d8a02f9820413b8d1d0b2e563c2a7edc72e15a9fa908961add423bde377",
    ),
    (
        # prefix ids 1001, 1002, 1000 in class order: the relaxation block's
        # intervals stay in instance order, which the float sums depend on
        "difficult-prefix-class-order",
        (_with_prefix(200, [(1.55, 0.85, 0.00234), (1.81, 0.75, 0.00141), (1.93, 0.63, 0.00141)], 1.0), 0, None),
        "18aa84658de4c58751a7132a926d8d6c81f82e0fbc10b7bac9d126be9926090b",
        "ac4b6f3cf5504b2ce23f0cdda131d6632c32a578cfca354fdca3ea74bcb651c2",
    ),
    (
        "difficult-far-pairs",
        _far_pair_case(),
        "37f52d9f22019bc73ef3b31f6e2c331b8e56d7ad8015db829ef7257dfc4d8c1b",
        "947ea968f97b6b6fafb53319ca7cd08156b2f48850a0c594b53a49ac0dff10a7",
    ),
    (
        "easy-prefix-two-approx",
        _two_couple_case(),
        "07f8eea838915f342b43e84f632e20225c708abe4b28477d311daa3fece9a82f",
        "8857e53ce85ed104aa7abf92ceff7463acd3a4d9ed8a22d92073c592de00b20f",
    ),
    (
        # blocks prefix:ptas and suffix+dense:relaxation
        "easy-suffix-dense-relaxation",
        _offset_couple_case(singles=11),
        "f3b7d6b205888760eacff650c38506a7e2675cb30c92722fde2f8b7b9de847fb",
        "0c7ecaff33601eb531e60d8f57946d6d0d33fd42ec760a1d64ef954c9b5f6727",
    ),
    (
        # blocks class124, class124:rounded-sosi, class124:light-sosi and classinf:sosi
        "difficult-light-sosi",
        _light_sosi_case(),
        "bd5567c0e5d8941f1ba04c298bab21ea960cd7bb155206fb207a1cee1ebf0954",
        "7f27f14f23f695e139fd4b0702ff258c0d640738f1f65e03422d1b2be8099f11",
    ),
]


@functools.cache
def _pinned_solve(name):
    inst, seed, reference = next(p[1] for p in PINNED_OUTPUTS if p[0] == name)
    return solve_sub2(inst, CFG, seed=seed, reference=reference)


LADDER = generate_instance(0, 2000, 1.0, "dense-ladder")


@functools.cache
def _ladder_solve():
    """A two-class dense-ladder solve, whose couples reach case > 1."""
    return solve_sub2(LADDER, PipelineConfig(), seed=1)


@pytest.mark.parametrize("name, case, flat_digest, digest", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS])
def test_pinned_outputs(name, case, flat_digest, digest):
    # flat_digest holds however the couples and stationary commodities are
    # grouped into entries, and however the reported figures' sums are ordered
    assembled, rep, diag = _pinned_solve(name)
    assert name.startswith(diag["scenario"])
    doc = assembled.to_json()
    reported = repr(rep.total_cost_rate) + repr(rep.v_max)
    assert hashlib.sha256(flat_content(doc["blocks"]).encode()).hexdigest() == flat_digest
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


@pytest.mark.parametrize(
    "name, provenances",
    [
        ("easy-suffix-dense-relaxation", ["prefix:ptas", "suffix+dense:relaxation"]),
        ("difficult-light-sosi", ["class124", "class124:rounded-sosi", "class124:light-sosi", "classinf:sosi"]),
    ],
)
def test_pinned_solves_reach_their_blocks(name, provenances):
    assembled, rep, _ = _pinned_solve(name)
    assert [block.provenance for block in assembled.blocks] == provenances
    assert rep.feasible


def test_light_sosi_solve_round_trips_through_eval(tmp_path):
    # the written policy, certified by `ewlsp eval` from its file alone
    inst = next(p[1][0] for p in PINNED_OUTPUTS if p[0] == "difficult-light-sosi")
    assembled, rep, _ = _pinned_solve("difficult-light-sosi")
    inst_path, policy_path, out = tmp_path / "inst.json", tmp_path / "policy.json", tmp_path / "report.json"
    inst_path.write_bytes(serialize_instance(inst))
    policy_path.write_text(json.dumps(assembled.to_json()))
    assert main(["eval", "--instance", str(inst_path), "--policy", str(policy_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["feasible"] is True and "missing" not in report
    assert sorted(report["avg_inventory"], key=int) == [str(cid) for cid in inst.ids()]
    assert report["total_cost_rate"] == pytest.approx(rep.total_cost_rate, rel=1e-12)
    assert report["v_max"] == pytest.approx(rep.v_max, rel=1e-12)


def _written_blocks(name):
    """The instance and the blocks of one solver output: a pinned sub2
    solve, the dense-ladder solve, or the two-approx or ptas policy as the
    one block the CLI writes."""
    if name == "dense-ladder":
        return LADDER, _ladder_solve()[0].blocks
    if name == "two-approx":
        inst = dense_heavy_instance(1, 40)
        policy = solve_two_approx(inst)[0]
        return inst, (Block(ids=tuple(sorted(policy.intervals_T)), sosi=policy, provenance="two-approx"),)
    if name == "ptas":
        inst = generate_instance(0, 2, 1.0, "tight")
        policy = ptas_solve(inst, 0.5)[0]
        return inst, (Block(ids=tuple(sorted(policy.schedules)), cyclic=policy, provenance="ptas"),)
    return next(p[1][0] for p in PINNED_OUTPUTS if p[0] == name), _pinned_solve(name)[0].blocks


def _bits(report):
    return [repr(x) for x in (report.ordering_cost_rate, report.holding_cost_rate, report.v_max, report.feasible_at)] + [
        (cid, repr(avg)) for cid, avg in report.avg_inventory.items()
    ]


@pytest.mark.parametrize("name", [p[0] for p in PINNED_OUTPUTS] + ["dense-ladder", "two-approx", "ptas"])
def test_policy_entry_inverts_parse_policy_on_solver_output(name):
    # every entry a solver writes re-serializes byte for byte through
    # parse_policy and policy_entry, and the parsed policy is certified
    # bit-equal to the block's own
    inst, blocks = _written_blocks(name)
    for block in blocks:
        entry = block.to_json()
        parsed = parse_policy(json.dumps(entry))
        assert entry.pop("provenance") == block.provenance
        assert json.dumps(policy_entry(parsed)) == json.dumps(entry)
        assert _bits(evaluate(parsed, inst)) == _bits(evaluate(block.policy, inst))
    if name == "dense-ladder":
        assert max(case for b in blocks if b.couples is not None for case in b.couples.cases) > 1


@pytest.mark.parametrize("name", ["difficult-po2-sync", "difficult-prefix-relaxation", "low-dense-tight"])
def test_solve_builds_no_avg_space_dict(monkeypatch, name):
    # the prefix's share of the average space is summed from the column
    decomps = []

    def recording(*args):
        decomps.append(decompose_classes(*args))
        return decomps[-1]

    monkeypatch.setattr(pipeline, "decompose_classes", recording)
    inst, seed, reference = next(p[1] for p in PINNED_OUTPUTS if p[0] == name)
    _, _, diag = solve_sub2(inst, CFG, seed=seed, reference=reference)
    assert name.startswith(diag["scenario"])
    (decomp,) = decomps
    assert decomp.space._dict is None
    if name == "difficult-prefix-relaxation":
        assert decomp.ids_with_label("prefix-sparse")


@pytest.mark.parametrize(
    "name",
    ["low-dense-tight", "low-dense-loose-n2000", "easy-offset-reference", "difficult-po2-sync", "difficult-prefix-relaxation"],
)
def test_only_the_difficult_scenario_builds_a_matching_instance(monkeypatch, name):
    # a low-dense or easy solve reads sums and labelled ids, and slices no
    # class's rows; build_matching_instance, which slices the rows of the
    # suffix-sparse and dense classes, runs once in a difficult solve
    built = []

    def recording(instance, cfg, decomp):
        built.append(build_matching_instance(instance, cfg, decomp))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_matching_instance", recording)
    inst, seed, reference = next(p[1] for p in PINNED_OUTPUTS if p[0] == name)
    _, _, diag = solve_sub2(inst, CFG, seed=seed, reference=reference)
    assert name.startswith(diag["scenario"])
    assert len(built) == (diag["scenario"] == "difficult")


def test_rounded_sosi_block_sums_far_pairs_then_leftover():
    # evaluate_sosi sums in the key order of a block's intervals; for the
    # class's one rounded-sosi block that is subgroup by subgroup, each far
    # pair, lead first, then the leftover, while the block's ids are sorted
    inst, seed, reference = _far_pair_case()
    assembled, _, _ = solve_sub2(inst, CFG, seed=seed, reference=reference)
    (block,) = [b for b in assembled.blocks if b.provenance.endswith(":rounded-sosi")]
    assert list(block.sosi.intervals_T) == [1, 0, 2, 5, 6, 7, 8, 9, 14, 17, 20, 18, 19]
    assert block.ids == tuple(sorted(block.sosi.intervals_T))
    r = block.report(inst)
    text = repr((r.ordering_cost_rate, r.holding_cost_rate, r.v_max))
    assert hashlib.sha256(text.encode()).hexdigest() == "3ad92b2004e6faa636cfdbab15a38971a831ddc9d6a54a6f47850e3592b8c7c9"


@pytest.mark.parametrize("name", [p[0] for p in PINNED_OUTPUTS if p[0].startswith("difficult")] + ["dense-ladder"])
def test_each_synced_class_gives_one_couple_block_and_one_rounded_block(name):
    # a po2-sync class's couples form one block, written as one couples
    # entry, and its far pairs and leftovers one rounded-sosi block; the
    # ladder solve has two po2-sync classes, one with no rounded block
    if name == "dense-ladder":
        assembled, _, diag = _ladder_solve()
    else:
        assembled, _, diag = _pinned_solve(name)
    synced = {f"class{ell}" for ell, outcome in diag["dense"]["classes"].items() if outcome == "po2-sync"}
    couple_blocks = [b for b in assembled.blocks if b.couples is not None]
    per_class = Counter(b.provenance for b in couple_blocks)
    rounded = Counter(b.provenance.split(":")[0] for b in assembled.blocks if b.provenance.endswith(":rounded-sosi"))
    assert set(per_class) <= synced and set(per_class.values()) <= {1}
    assert set(rounded) <= synced and set(rounded.values()) <= {1}
    assert bool(couple_blocks) == bool(synced)
    entries = [e for e in assembled.to_json()["blocks"] if "couples" in e]
    assert [e["provenance"] for e in entries] == [b.provenance for b in couple_blocks]
    assert diag["dense"]["couples"] == sum(len(e["couples"]["which"]) for e in entries)


class TestBlocks:
    def test_sub_instance(self):
        inst = make_instance([(1, 1, 1), (2, 2, 2), (3, 3, 3)], 1.0)
        sub = sub_instance(inst, [1, 2])
        assert sub.ids() == [1, 2]
        assert sub.V == 1.0

    def test_a_block_holds_exactly_one_policy(self):
        orders = ((0.0, 1.0),)
        cyclic = CyclicPolicy(1.0, {0: orders, 1: orders})
        held = {
            "sosi": SosiPolicy({0: 1.0, 1: 1.0}),
            "cyclic": cyclic,
            "couples": CouplePolicy((cyclic,), cases=(1,), which=(0,), ids=(0, 1)),
        }
        for count in (0, 2, 3):
            for names in itertools.combinations(held, count):
                with pytest.raises(ValueError, match=r"^block must hold exactly one of a SOSI, a cyclic or a couple policy$"):
                    Block(ids=(0, 1), **{name: held[name] for name in names})
        for name, policy in held.items():
            assert Block(ids=(0, 1), **{name: policy}).policy is policy

    def test_a_lone_block_reports_as_the_general_path(self):
        # a one-block policy gathers no ids, and its report is each rate and
        # the peak as 0.0 + the block's, with the block's averages
        inst = make_instance([(1, 1, 1)] * 2, 10.0)
        cyclic = CyclicPolicy(1.0, {0: ((0.0, 1.0),), 1: ((0.5, 1.0),)})
        held = {
            "sosi": SosiPolicy({1: 0.5, 0: 2.0}),
            "cyclic": cyclic,
            "couples": CouplePolicy((cyclic,), cases=(1,), which=(0,), ids=(1, 0)),
        }
        for name, policy in held.items():
            block = Block(ids=(0, 1), **{name: policy})
            part = block.report(inst)
            got = AssembledPolicy((block,)).report(inst)
            sums = [0.0 + x for x in (part.ordering_cost_rate, part.holding_cost_rate, part.v_max)]
            assert _bits(got) == [repr(x) for x in (*sums, inst.V)] + list(zip(part.avg_inventory.ids, map(repr, part.avg_inventory.column.tolist())))

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
        from ewlsp.pipeline import run_dense_branch

        eps = CFG.eps
        inst = dense_heavy_instance(8, 48)
        decomp = decompose_classes(reference_report(inst), inst, CFG)
        (ell,) = decomp.bounds.keys()
        slab = inst.V / (1.0 + eps) ** (int(ell) - 1)
        bound = (1 + 6 * eps) * (7.0 / 4.0) / (math.sqrt(2.0) * math.log(2.0)) * inst.n * slab
        checked = 0
        for seed in range(20):
            blocks, diag = run_dense_branch(inst, CFG, decomp, seed)
            if diag["classes"][str(ell)] != "po2-sync":
                continue
            checked += 1
            report = AssembledPolicy(tuple(blocks)).report(inst)
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
    from ewlsp.pipeline import run_dense_branch

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
        for ell, ids in class_ids(base).items()
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
    assert class_ids(closed) == class_ids(expanded)
    assert closed.labels == expanded.labels
    for cid, space in expanded.space.items():
        assert math.isclose(closed.space[cid], space, rel_tol=1e-12)
    assert math.isclose(closed.vbar_sparse, expanded.vbar_sparse, rel_tol=1e-12)
    assert math.isclose(closed.vbar_dense, expanded.vbar_dense, rel_tol=1e-12)


@pytest.mark.parametrize(
    "scenario, case",
    [
        ("easy", _offset_couple_case),
        ("low-dense", lambda: (generate_instance(0, 40, 1.0, "tight"), 0, None)),
        ("difficult", lambda: (dense_heavy_instance(1, 40), 0, None)),
    ],
)
def test_negative_seed_is_refused_up_front_in_every_scenario(scenario, case):
    inst, seed, reference = case()
    assert solve_sub2(inst, CFG, seed=seed, reference=reference)[2]["scenario"] == scenario
    for bad in (-1, -(2**40), 1.5, "3", True):
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {re.escape(repr(bad))}$"):
            solve_sub2(inst, CFG, seed=bad, reference=reference)


def test_a_numpy_integer_seed_solves_as_its_int():
    inst = dense_heavy_instance(1, 40)
    want = solve_sub2(inst, CFG, seed=3)
    for seed in (np.int64(3), np.uint8(3)):
        got = solve_sub2(inst, CFG, seed=seed)
        assert got[2]["scenario"] == "difficult" and got[2]["dense"]["classes"]
        assert got[0].to_json() == want[0].to_json() and repr(got[1].total_cost_rate) == repr(want[1].total_cost_rate)
