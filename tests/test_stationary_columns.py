"""The stationary layers against plain-Python copies of their scalar loops.

evaluate_sosi, the relaxation, solve_two_approx, build_reference_policy and
decompose_classes run as array operations over the instance's columns. The
copies below are the loops they replaced; every float must come out with the
same repr and every dict in the same key order. evaluate of a stationary
block is checked against evaluate of one single-commodity cycle per
commodity.
"""

import dataclasses
import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.evaluator import EvalReport, evaluate, evaluate_sosi
from ewlsp.matching import INF_CLASS
from ewlsp.model import Commodity, CyclicPolicy, IdColumn, Instance, SosiPolicy
from ewlsp.pipeline import PipelineConfig, build_reference_policy, decompose_classes
from ewlsp.relaxation import solve_sosi_relaxation
from ewlsp.two_approx import solve_two_approx

from conftest import class_ids

CFG = PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10)


# ---------------------------------------------------------------------------
# Scalar copies
# ---------------------------------------------------------------------------


def scalar_evaluate_sosi(policy, instance):
    ordering = holding = v_max = 0.0
    avg_inventory = {}
    for cid, T in policy.intervals_T.items():
        c = instance.commodity(cid)
        ordering += c.K / T
        holding += c.H * T
        v_max += c.gamma * T
        avg_inventory[cid] = T / 2.0
    return EvalReport(ordering, holding, v_max, avg_inventory, instance.V)


def plain_bisection(K, H, g, rhs):
    """(midpoint, upper end) of the last bracket of the plain bisection for
    the multiplier, (0.0, 0.0) where the budget does not bind."""

    def budget(lam):
        return float(g @ np.sqrt(K / (H + lam * g)))

    with np.errstate(over="ignore"):
        if not budget(0.0) > rhs:
            return 0.0, 0.0
        hi = 1.0
        while budget(hi) >= rhs:
            hi *= 2.0
        lo = 0.0
        while hi - lo > 1e-13 * max(hi, 1.0):
            mid = 0.5 * (lo + hi)
            if budget(mid) > rhs:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi), hi


def scalar_relaxation(commodities, rhs):
    """(intervals, objective, multiplier) of the KKT point, arrays built per
    commodity and the multiplier found by plain bisection: the midpoint of
    its last bracket, or the bracket's upper end where the midpoint
    overshoots the budget by more than 1e-9 and the intervals there are > 0."""
    K = np.array([c.K for c in commodities])
    H = np.array([c.H for c in commodities])
    g = np.array([c.gamma for c in commodities])
    lam, hi = plain_bisection(K, H, g, rhs)
    with np.errstate(over="ignore"):
        T = np.sqrt(K / (H + lam * g))
        T_hi = np.sqrt(K / (H + hi * g))
    if float(g @ T) > rhs * (1.0 + 1e-9) and (T_hi > 0.0).all():
        lam, T = hi, T_hi
    return dict(zip([c.id for c in commodities], T.tolist())), float(np.sum(K / T + H * T)), lam


def scalar_two_approx(instance):
    relaxed, objective, _ = scalar_relaxation(instance.commodities, 2.0 * instance.V)
    policy = SosiPolicy({cid: T / 2.0 for cid, T in relaxed.items()})
    return policy, scalar_evaluate_sosi(policy, instance), objective


def scalar_reference_policy(instance):
    policy, _, _ = scalar_two_approx(instance)
    base = min(policy.intervals_T.values())
    return SosiPolicy(
        {cid: base * 2.0 ** math.floor(math.log2(T / base) + 1e-12) for cid, T in policy.intervals_T.items()}
    )


def scalar_decompose(ref_report, instance, cfg):
    """(classes, avg_space, per_class, labels, vbar_sparse, vbar_dense)"""
    eps, V, n = cfg.eps, instance.V, instance.n
    L = math.ceil(math.log(n / eps) / math.log1p(eps))
    avg_space, classes = {}, {}
    for c in instance.commodities:
        s = c.gamma * ref_report.avg_inventory[c.id]
        avg_space[c.id] = s
        if s <= V / (1.0 + eps) ** L:
            ell = INF_CLASS
        else:
            ell = max(1, min(L, math.floor(math.log(V / s) / math.log1p(eps)) + 1))
        classes.setdefault(ell, []).append(c.id)
    per_class = {ell: math.fsum(avg_space[i] for i in ids) for ell, ids in classes.items()}
    sparse = [ell for ell in sorted(classes) if len(classes[ell]) <= cfg.sparsity_threshold]
    labels = {ell: "dense" for ell in classes if len(classes[ell]) > cfg.sparsity_threshold}
    delta_count = math.ceil(math.log(125.0 * math.log(1.0 / eps) / eps**6) / math.log1p(eps))
    for k, ell in enumerate(sparse):
        labels[ell] = "prefix-sparse" if k < min(delta_count, len(sparse)) else "suffix-sparse"
    vbar_sparse = math.fsum(per_class[ell] for ell in classes if labels[ell] != "dense")
    vbar_dense = math.fsum(per_class[ell] for ell in classes if labels[ell] == "dense")
    classes = {ell: tuple(ids) for ell, ids in classes.items()}
    return classes, avg_space, per_class, labels, vbar_sparse, vbar_dense


# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------


def exact(value):
    """A comparable form that tells floats apart by repr and mappings by key order."""
    if isinstance(value, Mapping):
        return [(repr(k), exact(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [exact(v) for v in value]
    if isinstance(value, EvalReport):
        return exact((value.ordering_cost_rate, value.holding_cost_rate, value.v_max, dict(value.avg_inventory)))
    if isinstance(value, SosiPolicy):
        return exact(dict(value.intervals_T))
    return repr(value)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@st.composite
def instances(draw):
    """n in {1, 2, 17, 300}, parameters over six decades, and, in the loose
    regime, some K set to 4^j times another's so that T/base is exactly 2^j."""
    n = draw(st.sampled_from([1, 2, 17, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = (10.0 ** rng.uniform(-3.0, 3.0, size=n)).tolist()
    H = (10.0 ** rng.uniform(-3.0, 3.0, size=n)).tolist()
    gamma = (10.0 ** rng.uniform(-1.0, 1.0, size=n)).tolist()
    regime = draw(st.sampled_from(["loose", "tight"]))
    if regime == "loose" and n > 1 and draw(st.booleans()):
        H = [1.0] * n
        for k in range(1, n, 2):
            K[k] = K[0] * 4.0 ** int(rng.integers(0, 6))
    commodities = [Commodity(i, K[i], H[i], gamma[i]) for i in range(n)]
    peak = sum(c.gamma * math.sqrt(c.K / c.H) for c in commodities)
    return Instance(tuple(commodities), capacity_V=(2.0 if regime == "loose" else 0.3) * peak)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(inst=instances(), data=st.data())
def test_evaluate_sosi_matches_scalar_loop(inst, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = data.draw(st.permutations(inst.ids()))
    keys = keys[: data.draw(st.integers(1, len(keys)))]
    policy = SosiPolicy({cid: float(T) for cid, T in zip(keys, 10.0 ** rng.uniform(-2.0, 2.0, size=len(keys)))})
    assert exact(evaluate_sosi(policy, inst)) == exact(scalar_evaluate_sosi(policy, inst))


@settings(max_examples=60, deadline=None)
@given(inst=instances(), data=st.data())
def test_stationary_evaluate_matches_one_cycle_per_commodity(inst, data):
    """evaluate(SosiPolicy) against evaluate of each commodity's own
    CyclicPolicy(T, {id: ((phase, T),)}), on ids in neither instance nor
    key order and with some non-zero phases."""
    labels = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=inst.n, max_size=inst.n, unique=True))
    inst = Instance(tuple(dataclasses.replace(c, id=cid) for c, cid in zip(inst.commodities, labels)), inst.V)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = data.draw(st.permutations(labels))
    keys = keys[: data.draw(st.integers(1, len(keys)))]
    intervals = dict(zip(keys, (10.0 ** rng.uniform(-2.0, 2.0, size=len(keys))).tolist()))
    share = rng.uniform(0.0, 0.999, size=len(keys)) * (rng.random(len(keys)) < 0.5)
    phases = {cid: T * u for (cid, T), u in zip(intervals.items(), share.tolist()) if u > 0}
    policy = SosiPolicy(intervals, phases)

    report = evaluate(policy, inst)
    parts = {cid: evaluate(CyclicPolicy(T, {cid: ((policy.phase(cid), T),)}), inst) for cid, T in intervals.items()}
    in_order = [cid for cid in labels if cid in intervals]
    assert exact(report.avg_inventory) == exact({cid: parts[cid].avg_inventory[cid] for cid in in_order})
    total = math.fsum(part.total_cost_rate for part in parts.values())
    assert report.total_cost_rate == pytest.approx(total, rel=1e-12)
    peaks = 0.0
    for cid in in_order:
        peaks += parts[cid].v_max
    assert report.v_max == peaks
    with pytest.raises(KeyError, match="no commodity with id 2000000"):
        evaluate(SosiPolicy({**intervals, 2 * 10**6: 1.0}), inst)


@settings(max_examples=40, deadline=None)
@given(inst=instances())
def test_two_approx_and_reference_match_scalar_loops(inst):
    policy, report, lower_bound = solve_two_approx(inst)
    assert exact((policy, report, lower_bound)) == exact(scalar_two_approx(inst))
    assert exact(build_reference_policy(inst)) == exact(scalar_reference_policy(inst))


def test_reference_snaps_exact_powers_of_two():
    # loose, so every interval is sqrt(K/H): T/base is 1, 2, 8 and 32 exactly
    inst = Instance(
        tuple(Commodity(i, 0.7 * 4.0**j, 1.3, 1.1) for i, j in enumerate([0, 1, 3, 5])), capacity_V=1e6
    )
    ref = build_reference_policy(inst)
    base = ref.intervals_T[0]
    assert [T / base for T in ref.intervals_T.values()] == [1.0, 2.0, 8.0, 32.0]
    assert exact(ref) == exact(scalar_reference_policy(inst))


@settings(max_examples=40, deadline=None)
@given(inst=instances(), data=st.data())
def test_relaxation_over_ids_matches_sub_instance(inst, data):
    ids = data.draw(st.permutations(inst.ids()))
    ids = ids[: data.draw(st.integers(1, len(ids)))]
    keep = set(ids)
    sub = [c for c in inst.commodities if c.id in keep]
    rhs = 2.0 * math.fsum(c.gamma * math.sqrt(c.K / c.H) for c in sub) * data.draw(st.sampled_from([0.3, 2.0]))
    sol = solve_sosi_relaxation(inst, rhs=rhs, ids=ids)
    assert exact((sol.intervals_T, sol.objective, sol.multiplier_lambda)) == exact(scalar_relaxation(sub, rhs))


def placed(s, gamma):
    """An average inventory whose space gamma * avg is s, where one is near."""
    avg = s / gamma
    for _ in range(4):
        if gamma * avg == s:
            break
        avg = float(np.nextafter(avg, math.inf if gamma * avg < s else -math.inf))
    return avg


def check_label_reads(decomp, inst, classes, labels, data):
    """rows_with_label and ids_with_label of every nonempty set of labels,
    passed in a drawn order, against the scalar classes of those labels in
    class order, each class in instance order."""
    names = ("prefix-sparse", "suffix-sparse", "dense")
    for count in range(1, len(names) + 1):
        for chosen in itertools.combinations(names, count):
            chosen = data.draw(st.permutations(chosen))
            want = [i for ell in sorted(classes) if labels[ell] in chosen for i in classes[ell]]
            assert decomp.rows_with_label(*chosen).tolist() == inst.positions(want).tolist()
            assert decomp.ids_with_label(*chosen) == want


@settings(deadline=None)
@given(inst=instances(), data=st.data())
def test_decompose_classes_matches_scalar_loop(inst, data):
    """Average inventories from the reference, or placed exactly on slab
    boundaries V/(1+eps)^k and on the tail threshold V/(1+eps)^L, in a
    shuffled key order. The labelled rows and ids are read for every set of
    labels."""
    eps, V = CFG.eps, inst.V
    L = math.ceil(math.log(inst.n / eps) / math.log1p(eps))
    avg = dict(evaluate_sosi(build_reference_policy(inst), inst).avg_inventory)
    if data.draw(st.booleans()):
        for cid, c in zip(inst.ids(), inst.commodities):
            k = data.draw(st.sampled_from([None, 0, 1, 2, L - 1, L, L + 1]))
            if k is not None:
                avg[cid] = placed(V / (1.0 + eps) ** k, c.gamma)
    avg = {cid: avg[cid] for cid in data.draw(st.permutations(list(avg)))}
    report = EvalReport(1.0, 1.0, 1.0, IdColumn(avg, list(avg.values())), V)
    cfg = PipelineConfig(eps=eps, sparsity_threshold=data.draw(st.sampled_from([0, 1, 10])), Q=10)
    decomp = decompose_classes(report, inst, cfg)
    want = scalar_decompose(report, inst, cfg)
    check_label_reads(decomp, inst, want[0], want[3], data)
    assert not decomp.members.flags.writeable
    got = (class_ids(decomp), decomp.space, decomp.avg_space_per_class, decomp.labels, decomp.vbar_sparse, decomp.vbar_dense)
    assert exact(got) == exact(want)


@settings(max_examples=20, deadline=None)
@given(inst=instances(), data=st.data())
def test_relabelled_decomposition_reads_as_an_eager_build(inst, data):
    # dataclasses.replace keeps the sorted rows and bounds, which cut the
    # same classes as a scalar build, and reads rows and ids by the new labels
    report = evaluate_sosi(build_reference_policy(inst), inst)
    decomp = decompose_classes(report, inst, CFG)
    classes, *_ = scalar_decompose(report, inst, CFG)
    labels = {ell: data.draw(st.sampled_from(["prefix-sparse", "suffix-sparse", "dense"])) for ell in classes}
    relabelled = dataclasses.replace(decomp, labels=labels)
    assert relabelled.labels == labels and relabelled.bounds is decomp.bounds
    check_label_reads(relabelled, inst, classes, labels, data)
    assert exact(class_ids(relabelled)) == exact(classes)


def test_avg_space_is_built_on_first_read():
    # ids out of numeric order, so the dict's key order is the instance's
    inst = Instance(
        tuple(Commodity((7 * i) % 41, 1.0 + i, 2.0 - i / 40, 1.0 + (i % 7) / 3) for i in range(40)), capacity_V=5.0
    )
    report = evaluate_sosi(build_reference_policy(inst), inst)
    decomp = decompose_classes(report, inst, CFG)
    assert decomp.space._dict is None
    _, avg_space, *_ = scalar_decompose(report, inst, CFG)
    relabelled = dataclasses.replace(decomp, labels={ell: "suffix-sparse" for ell in decomp.labels})
    assert relabelled.space is decomp.space and decomp.space._dict is None
    assert exact(decomp.space) == exact(avg_space)
    assert decomp.space._dict is not None
    assert not decomp.space.column.flags.writeable


def test_slab_boundaries_take_the_math_log_class():
    # s exactly V/(1+eps)^k for every k up to L: log(V/s)/log1p(eps) lies
    # within rounding of the integer k, where np.log alone may pick k or k-1
    eps, V, n = CFG.eps, 3.0, 300
    L = math.ceil(math.log(n / eps) / math.log1p(eps))
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(n)), capacity_V=V)
    avg = {i: V / (1.0 + eps) ** (i % (L + 2)) for i in range(n)}
    report = EvalReport(1.0, 1.0, 1.0, IdColumn(avg, list(avg.values())), V)
    decomp = decompose_classes(report, inst, CFG)
    classes, *_ = scalar_decompose(report, inst, CFG)
    assert exact(class_ids(decomp)) == exact(classes)
    assert INF_CLASS in decomp.bounds  # k = L is the tail threshold itself


def test_slab_index_where_np_log_and_math_log_disagree():
    # log(V/s)/log1p(0.01) lies within rounding of 40 here: math.log puts s
    # in class 40, while np.log (x86-64 SIMD builds) rounds it to class 41
    cfg = PipelineConfig(eps=0.01, sparsity_threshold=10, Q=10)
    inst = Instance((Commodity(0, 1.0, 1.0, 1.0), Commodity(1, 1.0, 1.0, 1.0)), capacity_V=3.0)
    report = EvalReport(1.0, 1.0, 1.0, IdColumn((0, 1), (2.014959416581315, 1.0)), 3.0)
    classes, *_ = scalar_decompose(report, inst, cfg)
    assert list(classes) == [40, 111]
    assert exact(class_ids(decompose_classes(report, inst, cfg))) == exact(classes)


def test_reference_snap_near_an_integer_exponent_takes_math_log2(monkeypatch):
    # T/base = r with log2(r) = 3 - 1e-12 to the last bit, so floor(log2 + 1e-12)
    # is 3 and one ulp less gives 2; an np.log2 rounding one ulp low must not
    # move the snap
    r = 7.999999999994453
    inst = Instance((Commodity(0, 1.0, 1.0, 1.0), Commodity(1, r * r, 1.0, 1.0)), capacity_V=1e6)
    expected = exact(scalar_reference_policy(inst))
    assert expected == exact(SosiPolicy({0: 0.5, 1: 4.0}))
    log2 = np.log2
    monkeypatch.setattr(np, "log2", lambda x: np.nextafter(log2(x), -np.inf))
    assert exact(build_reference_policy(inst)) == expected


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


def scalar_interval_check(intervals):
    for cid, T in intervals.items():
        if not (math.isfinite(T) and T > 0):
            raise ValueError(f"interval for commodity {cid} must be > 0, got {T!r}")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0, "2.0", None, 1j, [1.0], 10**400])
@pytest.mark.parametrize("at", [0, 2])
def test_bad_interval_raises_as_the_scalar_check(bad, at):
    # the first bad id in key order is named, ahead of a later NaN
    intervals = {5: 1.0, 3: 2.0, 9: 3.0, 1: math.nan}
    intervals[list(intervals)[at]] = bad
    with pytest.raises(Exception) as expected:
        scalar_interval_check(intervals)
    with pytest.raises(expected.type) as got:
        SosiPolicy(intervals)
    assert str(got.value) == str(expected.value)


def test_exact_numbers_pass_the_interval_check():
    from fractions import Fraction

    policy = SosiPolicy({0: Fraction(1, 3), 1: 2, 2: True, 3: np.float64(0.5)})
    assert policy.intervals_T.column.tolist() == [float(Fraction(1, 3)), 2.0, 1.0, 0.5]


def test_unknown_ids_raise_key_errors_naming_them():
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(3)), capacity_V=1.0)
    with pytest.raises(KeyError, match="no commodity with id 99"):
        evaluate_sosi(SosiPolicy({0: 1.0, 99: 1.0, 1: 1.0, 77: 1.0}), inst)
    with pytest.raises(KeyError, match="no commodity with id 77"):
        solve_sosi_relaxation(inst, ids=[2, 77, 0, 99])
    with pytest.raises(ValueError, match="at least one commodity"):
        solve_sosi_relaxation(inst, ids=[])
