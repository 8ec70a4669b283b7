"""Randomized sub-2 pipeline: volume classes, sparse/dense split, per-class
policies, power-of-2 synchronization, and the final scale-down.

The chain is driven by a concrete capacity-feasible reference policy standing
in for the existential near-optimal cyclic policy: the classic scale-down
solution with intervals snapped onto a shared power-of-two grid. Every
quantity the original scheme obtains by enumeration (class memberships, class
sizes, per-class average space) is read off that reference instead, keeping
all the lemma-level inequalities checkable while making the pipeline runnable
at desk scale. The reference is stationary with zero phases, so it is read in
closed form: average inventory T/2 and cost K/T + H*T per commodity, with no
joint-cycle expansion. A caller-supplied cyclic reference is evaluated exactly
instead.

The output is a union of cyclic blocks over disjoint commodity subsets.
Blocks produced by different random draws are mutually incommensurable in
general, so the union's peak is certified by the sum of exact per-block
peaks, which is precisely the accounting the analysis itself uses and is
conservative for feasibility. The paired schedules of one heavy subgroup
form one couple block: its near pairs that agree on (k, T_A) share a single
synthesized schedule, and the block reports all its couples in one array
pass over the instance's columns. Each couple still counts as a block of its
own, in the report's sums and in the wire format, where a stationary block
is one `sosi` entry.

The three scenarios (high sparse volume, low dense volume, difficult) live in
_dispatch, which alone reads their volume thresholds and only returns blocks;
the difficult scenario's dense classes go through run_dense_branch. The
uniform scale-down happens once, in solve_sub2, and the report of the scaled
union is both the feasibility check and the certificate it returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from . import ptas
from .couples import CoupleInput, CoupleSchedule, classify_pairs, synthesize_couple
from .errors import BudgetExceeded, InfeasiblePolicy, StateSpaceExceeded
from .evaluator import EvalReport, combine_reports, evaluate, evaluate_couples, evaluate_sosi
from .matching import (
    INF_CLASS,
    MatchingInstance,
    edge_weight,
    solve_b_matching,
)
from .model import CyclicPolicy, Instance, SosiPolicy, cyclic_json, policy_to_json, sosi_to_json
from .po2 import PO2_MEAN_CONSTANT, po2_round
from .relaxation import solve_sosi_relaxation
from .two_approx import halved_relaxation, solve_two_approx

ALPHA_FALLBACK = 0.875 * PO2_MEAN_CONSTANT  # (7/8) / (sqrt(2) ln 2)
DELTA = 17.0 / 10000.0  # the published delta: a 2 - 17/5000 guarantee


def paper_heavy_subgroups(eps: float) -> int:
    return math.ceil(20.0 * math.log(1.0 / eps) / eps**2)


@dataclass(frozen=True)
class PipelineConfig:
    """Accuracy and dense-class settings of the sub-2 pipeline.

    The published sparsity threshold 100 ln(1/eps)/eps^4 and heavy-subgroup
    count 20 ln(1/eps)/eps^2 run to 47,931,717 and 23,966 at eps = 0.05, so
    every class of a runnable instance would be sparse and the dense branch
    would never run. The defaults are the desk-scale 10 and 10 that the CLI
    and the benchmark pass.
    """

    eps: float = 0.05
    sparsity_threshold: int = 10
    Q: int = 10

    def __post_init__(self):
        if not (0 < self.eps < 0.1):
            raise ValueError("eps must lie in (0, 1/10)")
        if self.sparsity_threshold < 0:
            raise ValueError("sparsity_threshold must be >= 0")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")


# ---------------------------------------------------------------------------
# Policy blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One self-contained cyclic piece of the assembled policy."""

    ids: tuple[int, ...]
    sosi: SosiPolicy | None = None
    cyclic: CyclicPolicy | None = None
    provenance: str = ""

    def __post_init__(self):
        if (self.sosi is None) == (self.cyclic is None):
            raise ValueError("block must hold exactly one of a SOSI or a cyclic policy")

    def report(self, instance: Instance) -> EvalReport:
        if self.sosi is not None:
            return evaluate_sosi(self.sosi, instance)
        return evaluate(self.cyclic, instance)

    def reports(self, instance: Instance) -> tuple[EvalReport, ...]:
        """The parts whose reports AssembledPolicy.report adds: the block itself."""
        return (self.report(instance),)

    def entries(self) -> list[dict]:
        """The block's one wire-format entry, plus its provenance tag:
        cyclic-policy JSON, or for a stationary block `{"sosi":
        sosi_to_json(...)}`, its intervals in id order and only the phases
        the policy holds (none, for every solver's blocks). The entry
        re-parses as the block's policy."""
        if self.cyclic is not None:
            return [{**policy_to_json(self.cyclic), "provenance": self.provenance}]
        return [{"sosi": sosi_to_json(self.sosi), "provenance": self.provenance}]

    def scaled(self, factor: float) -> "Block":
        if factor == 1.0:
            return self
        if self.sosi is not None:
            return replace(self, sosi=self.sosi.scaled(factor))
        return replace(self, cyclic=self.cyclic.scaled(factor))


@dataclass(frozen=True)
class CoupleBlock:
    """The couples of one heavy subgroup, in the order they are emitted.

    Couple j pairs ids[2j], commodity A (the longer rounded interval), with
    ids[2j+1], commodity B, and runs templates[which[j]], whose first schedule
    is A's and second B's. Couples that agree on (k, T_A) share one template:
    synthesize_couple builds and validates it once, for the first of them.
    Reports, scaling and JSON are those of one synthesize_couple policy per
    couple.
    """

    ids: tuple[int, ...]
    which: tuple[int, ...]
    templates: tuple[CoupleSchedule, ...]
    provenance: str  # the class tag; couple j's entry is tagged f"{provenance}:couple-case{c}"

    def reports(self, instance: Instance) -> list[EvalReport]:
        """evaluate() of every couple's policy, in one array pass."""
        return evaluate_couples([t.policy for t in self.templates], self.which, self.ids, instance)

    def report(self, instance: Instance) -> EvalReport:
        return combine_reports(self.reports(instance), instance)

    def entries(self) -> list[dict]:
        """One policy_to_json entry per couple, plus its provenance tag."""
        out = []
        for j, k in enumerate(self.which):
            template = self.templates[k]
            a, b = template.policy.schedules.values()
            schedules = {self.ids[2 * j]: a, self.ids[2 * j + 1]: b}
            provenance = f"{self.provenance}:couple-case{template.case_id}"
            out.append({**cyclic_json(template.policy.tau, schedules), "provenance": provenance})
        return out

    def scaled(self, factor: float) -> "CoupleBlock":
        if factor == 1.0:
            return self
        return replace(self, templates=tuple(replace(t, policy=t.policy.scaled(factor)) for t in self.templates))


@dataclass(frozen=True)
class AssembledPolicy:
    """Union of blocks over disjoint commodity subsets.

    The reported peak is the sum of exact per-block peaks: an upper bound on
    the true joint peak, hence a sound feasibility certificate.
    """

    blocks: tuple[Block | CoupleBlock, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            overlap = seen & set(b.ids)
            if overlap:
                raise ValueError(f"blocks overlap on commodities {sorted(overlap)}")
            seen.update(b.ids)

    def report(self, instance: Instance) -> EvalReport:
        """The per-part reports added left to right: one per block, one per
        couple of a couple block."""
        return combine_reports(itertools.chain.from_iterable(b.reports(instance) for b in self.blocks), instance)

    def scaled(self, factor: float) -> "AssembledPolicy":
        return AssembledPolicy(tuple(b.scaled(factor) for b in self.blocks))

    def to_json(self) -> dict:
        """Wire format: the blocks' entries in order, each tagged with its
        provenance: one `{"sosi": ...}` entry per stationary block, one
        cyclic-policy entry per cyclic block and per couple. model.parse_policies
        reads it back."""
        return {"blocks": [entry for b in self.blocks for entry in b.entries()]}


def _stationary(ids: Sequence[int], intervals_T: Mapping[int, float], provenance: str) -> Block:
    """A stationary block with zero phases. evaluate_sosi sums in the key
    order of `intervals_T`, which is kept as given even where it differs from
    `ids`."""
    return Block(ids=tuple(ids), sosi=SosiPolicy(intervals_T), provenance=provenance)


def sub_instance(instance: Instance, ids: Sequence[int]) -> Instance:
    keep = set(ids)
    return Instance(
        commodities=tuple(c for c in instance.commodities if c.id in keep),
        capacity_V=instance.capacity_V,
    )


# ---------------------------------------------------------------------------
# Reference policy and class decomposition
# ---------------------------------------------------------------------------


def build_reference_policy(instance: Instance) -> SosiPolicy:
    """Capacity-feasible stationary stand-in for the near-optimal benchmark.

    The scale-down solution's intervals are snapped down onto base * 2^k
    (base = the smallest interval), which preserves feasibility, costs at
    most another factor 2, and guarantees an exact joint cycle. All phases
    are zero, so evaluate_sosi reports it exactly.

    k = floor(log2(T/base) + 1e-12) is taken with np.log2, except where
    log2(T/base) lies within 1e-9 of an integer or is not finite: there the
    floor could depend on the last bit, which np.log2 and math.log2 do not
    always agree on, so math.log2 decides (and raises as it would).
    """
    T, _ = halved_relaxation(instance)
    base = float(T.min())
    with np.errstate(over="ignore"):
        ratio = T / base
    x = np.log2(ratio)
    k = np.floor(x + 1e-12)
    for j in _near_integer(x).tolist():
        k[j] = math.floor(math.log2(ratio[j]) + 1e-12)
    snapped = np.ldexp(base, k.astype(int))
    return SosiPolicy(intervals_T=dict(zip(instance.columns.ids, snapped.tolist())))


def _near_integer(x: np.ndarray) -> np.ndarray:
    """Indices where x is within 1e-9 of an integer or not finite."""
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(~(np.abs(x - np.rint(x)) > 1e-9))


@dataclass(frozen=True)
class ClassDecomposition:
    classes: Mapping[Hashable, tuple[int, ...]]  # only nonempty classes
    avg_space: Mapping[int, float]  # gamma_i * avg inventory under the reference
    avg_space_per_class: Mapping[Hashable, float]
    labels: Mapping[Hashable, str]  # prefix-sparse | suffix-sparse | dense
    vbar_sparse: float
    vbar_dense: float

    def ids_with_label(self, label: str) -> list[int]:
        out: list[int] = []
        for ell in sorted(self.classes):
            if self.labels[ell] == label:
                out.extend(self.classes[ell])
        return out


def decompose_classes(
    ref_report: EvalReport,
    instance: Instance,
    cfg: PipelineConfig,
) -> ClassDecomposition:
    """Slab assignment from the reference report's exact average inventories.

    Class ell collects commodities whose average occupied space lies in
    (V/(1+eps)^ell, V/(1+eps)^(ell-1)]; everything below the resolution
    V/(1+eps)^L falls into the tail class. A class is sparse when its size is
    at most the sparsity threshold; sparse classes split into a prefix
    holding the first Delta nonempty ones and a suffix with the rest.

    Delta exceeds the L+1 classes for every runnable n (490 against 219 at
    eps = 0.05, n = 2000), so every sparse class is prefix-sparse and no
    decomposition this function returns has a suffix. Suffix-sparse classes
    arise only in a decomposition relabelled by hand, e.g.
    `dataclasses.replace(decomp, labels=...)`.

    The slabs are found with array operations over the instance's gamma
    column: floor(log(V/s)/log1p(eps)) is taken with np.log except where the
    quotient lies within 1e-9 of an integer or is not finite, where math.log
    decides (and raises as it would), since np.log and math.log do not always
    agree on the last bit. Classes are keyed in order of first occurrence in
    the instance and list their ids in instance order; a class's average
    space is the math.fsum of its members'.
    """
    eps = cfg.eps
    V = instance.V
    n = instance.n
    L = math.ceil(math.log(n / eps) / math.log1p(eps))
    cols = instance.columns
    ids = cols.ids

    avg = ref_report.avg_inventory
    # a reference built from the instance lists its ids in instance order
    avg_in_order = avg.values() if tuple(avg) == ids else map(avg.__getitem__, ids)
    s = cols.gamma * np.fromiter(avg_in_order, dtype=float, count=n)
    tail = s <= V / (1.0 + eps) ** L
    log_step = math.log1p(eps)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.log(V / s) / log_step
    fl = np.floor(q)
    for k in np.flatnonzero(~tail)[_near_integer(q[~tail])].tolist():
        fl[k] = math.floor(math.log(V / s[k]) / log_step)
    # the tail class gets code L + 1, past every slab index
    code = np.where(tail, L + 1, np.clip(fl + 1, 1, L)).astype(int)

    members = np.argsort(code, kind="stable")  # by class, instance order within
    sizes = np.bincount(code)
    present = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[present])
    starts = ends - sizes[present]
    first = members[starts]  # each class's first commodity in instance order
    member_ids = [ids[k] for k in members.tolist()]
    member_space = s[members].tolist()
    classes: dict[Hashable, tuple[int, ...]] = {}
    per_class: dict[Hashable, float] = {}
    bounds = list(zip(present.tolist(), starts.tolist(), ends.tolist()))
    for j in np.argsort(first).tolist():
        c, start, end = bounds[j]
        ell: Hashable = INF_CLASS if c == L + 1 else c
        classes[ell] = tuple(member_ids[start:end])
        per_class[ell] = math.fsum(member_space[start:end])
    avg_space = dict(zip(ids, s.tolist()))

    threshold = cfg.sparsity_threshold
    sparse = [ell for ell in sorted(classes) if len(classes[ell]) <= threshold]
    dense = [ell for ell in classes if len(classes[ell]) > threshold]
    delta_count = math.ceil(
        math.log(125.0 * math.log(1.0 / eps) / eps**6) / math.log1p(eps)
    )
    labels: dict[Hashable, str] = {ell: "dense" for ell in dense}
    cut = min(delta_count, len(sparse))
    for k, ell in enumerate(sparse):
        labels[ell] = "prefix-sparse" if k < cut else "suffix-sparse"

    vbar_sparse = math.fsum(per_class[ell] for ell in classes if labels[ell] != "dense")
    vbar_dense = math.fsum(per_class[ell] for ell in classes if labels[ell] == "dense")
    return ClassDecomposition(
        classes=classes,
        avg_space=avg_space,
        avg_space_per_class=per_class,
        labels=labels,
        vbar_sparse=vbar_sparse,
        vbar_dense=vbar_dense,
    )


@dataclass(frozen=True)
class HeavyLightSplit:
    heavy: tuple[int, ...]
    light: tuple[int, ...]
    subgroups: tuple[tuple[int, ...], ...]


def split_heavy_light(
    ids: Sequence[int],
    intervals: Mapping[int, float],
    instance: Instance,
    ell: int,
    eps: float,
    Q: int,
) -> HeavyLightSplit:
    """Heavy commodities occupy more than 3/4 of the class slab on average;
    they are chopped into Q subgroups whose sizes differ by at most one."""
    slab = instance.V / (1.0 + eps) ** (ell - 1)
    ids = sorted(ids)
    T = np.fromiter(map(intervals.__getitem__, ids), dtype=float, count=len(ids))
    is_heavy = (instance.columns.gamma[instance.positions(ids)] * T / 2.0 > 0.75 * slab).tolist()
    heavy = [i for i, h in zip(ids, is_heavy) if h]
    light = [i for i, h in zip(ids, is_heavy) if not h]
    Q = max(1, min(Q, len(heavy))) if heavy else 1
    base, extra = divmod(len(heavy), Q)
    subgroups, pos = [], 0
    for q in range(Q):
        size = base + (1 if q < extra else 0)
        subgroups.append(tuple(heavy[pos : pos + size]))
        pos += size
    return HeavyLightSplit(tuple(heavy), tuple(light), tuple(g for g in subgroups if g))


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------


def build_matching_instance(
    instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition
) -> tuple[MatchingInstance, np.ndarray]:
    """Mimicking-partition matching over suffix-sparse and dense classes, and
    its edge intervals: row r, column l holds the capped interval of
    commodity_side[r] in class_side[l]. The edge table is built one class
    column at a time from the instance's parameter columns."""
    eps, V, n = cfg.eps, instance.V, instance.n
    suffix = [ell for ell, lab in decomp.labels.items() if lab == "suffix-sparse"]
    dense = [ell for ell, lab in decomp.labels.items() if lab == "dense"]
    class_side = sorted(suffix + dense)
    ids = [i for ell in class_side for i in decomp.classes[ell]]

    cols = instance.columns
    pos = instance.positions(ids)
    K, H, gamma = cols.K[pos], cols.H[pos], cols.gamma[pos]
    intervals = np.empty((len(ids), len(class_side)))
    weight = np.empty_like(intervals)
    for l, ell in enumerate(class_side):
        intervals[:, l], weight[:, l] = edge_weight(K, H, gamma, ell, eps, V, n)
    weights = dict(zip(itertools.product(ids, class_side), weight.ravel().tolist()))

    bounds: dict[Hashable, tuple[int, int]] = {}
    for ell in class_side:
        size = len(decomp.classes[ell])
        if decomp.labels[ell] == "suffix-sparse":
            bounds[ell] = (size, size)
        elif ell == INF_CLASS:
            bounds[ell] = (min(cfg.sparsity_threshold, size), len(ids))
        else:
            vbar = decomp.avg_space_per_class[ell]
            n_tilde = math.floor((1.0 + eps) ** float(ell) * vbar / V + 1e-9)
            bounds[ell] = (min(cfg.sparsity_threshold, size), max(n_tilde, size))
    mi = MatchingInstance(
        commodity_side=tuple(ids),
        class_side=tuple(class_side),
        weights=weights,
        degree_bounds=bounds,
    )
    return mi, intervals


def _theta_rng(seed: int, ell_index: int, q: int) -> np.random.Generator:
    # Documented stream split: one child per (class index, subgroup index).
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ell_index, q)))
    )


def run_dense_branch(
    instance: Instance,
    cfg: PipelineConfig,
    decomp: ClassDecomposition,
    seed: int,
) -> tuple[list[Block | CoupleBlock], dict]:
    """Suffix-sparse and dense classes: mimicking partition, then per dense
    class either the matched stationary policies (light majority), or
    power-of-2 rounding of every heavy subgroup followed by the concentration
    event. A class where the event holds gets, per subgroup, one couple block
    for its near pairs and a rounded-sosi block for its far pairs and
    leftover, and then its light block; one where it fails falls back to the
    alpha-scaled stationary policy and builds none of them. The couples of a
    subgroup that agree on (k, T_A) share one synthesized schedule (see
    _couple_block). diag["couples"] counts the couples in the returned
    blocks."""
    eps = cfg.eps
    gamma = instance.columns.gamma
    diag: dict = {"classes": {}, "couples": 0, "far_pair_counts": [], "a_ell": {}}
    mi, interval_table = build_matching_instance(instance, cfg, decomp)
    if not mi.commodity_side:
        return [], diag
    matched = solve_b_matching(mi)
    column = {ell: l for l, ell in enumerate(mi.class_side)}
    where = [column[matched.assignment[i]] for i in mi.commodity_side]
    t_hat = dict(zip(mi.commodity_side, interval_table[np.arange(len(where)), where].tolist()))
    diag["matched_weight"] = matched.total_weight

    members: dict[Hashable, list[int]] = {}
    for i, ell in matched.assignment.items():
        members.setdefault(ell, []).append(i)

    blocks: list[Block | CoupleBlock] = []
    for ell in sorted(members):
        ids = sorted(members[ell])
        if decomp.labels[ell] == "suffix-sparse" or ell == INF_CLASS:
            blocks.append(_stationary(ids, {i: t_hat[i] for i in ids}, f"class{ell}:sosi"))
            diag["classes"][str(ell)] = "sosi"
            continue

        split = split_heavy_light(ids, t_hat, instance, int(ell), eps, cfg.Q)
        if len(split.light) >= len(ids) / 2.0:
            blocks.append(_stationary(ids, {i: t_hat[i] for i in ids}, f"class{ell}:light-majority"))
            diag["classes"][str(ell)] = "light-majority"
            continue

        rounded: dict[int, float] = {}
        pairings = []
        for q, group in enumerate(split.subgroups):
            theta = float(_theta_rng(seed, int(ell), q).uniform(-0.5, 0.5))
            rounded_T = po2_round({i: t_hat[i] for i in group}, theta).rounded_T
            rounded.update(rounded_T)
            entries = zip(group, gamma[instance.positions(group)].tolist(), map(rounded_T.__getitem__, group))
            near, far, leftover = classify_pairs(list(entries), eps)
            diag["far_pair_counts"].append(len(far))
            pairings.append((near, far, leftover))

        heavy_gamma = gamma[instance.positions(split.heavy)]
        lhs = math.fsum((heavy_gamma * [rounded[i] for i in split.heavy]).tolist())
        rhs = (1.0 + eps) * PO2_MEAN_CONSTANT * math.fsum((heavy_gamma * [t_hat[i] for i in split.heavy]).tolist())
        event_holds = lhs <= rhs
        diag["a_ell"][str(ell)] = event_holds
        if not event_holds:
            blocks.append(_stationary(ids, {i: ALPHA_FALLBACK * t_hat[i] for i in ids}, f"class{ell}:alpha-fallback"))
            diag["classes"][str(ell)] = "alpha-fallback"
            continue

        for near, far, leftover in pairings:
            if near:
                blocks.append(_couple_block(near, instance, eps, f"class{ell}"))
                diag["couples"] += len(near)
            # far pairs and the odd leftover keep their rounded intervals, in that order
            singles = {i: T for pair in far for i, _, T in pair}
            if leftover is not None:
                singles[leftover[0]] = leftover[2]
            if singles:
                blocks.append(_stationary(sorted(singles), singles, f"class{ell}:rounded-sosi"))
        if split.light:
            blocks.append(_stationary(split.light, {i: t_hat[i] for i in split.light}, f"class{ell}:light-sosi"))
        diag["classes"][str(ell)] = "po2-sync"
    return blocks, diag


def _couple_block(
    near: Sequence[tuple[tuple[int, float, float], tuple[int, float, float]]],
    instance: Instance,
    eps: float,
    provenance: str,
) -> CoupleBlock:
    """The near pairs of one subgroup as one couple block. A pair's A is the
    member with the longer rounded interval (the lead on a tie). Every pair
    passes the CoupleInput checks; synthesize_couple runs once per distinct
    (k, T_A), since the schedule depends on nothing else."""
    oriented = [(lead, trail) if lead[2] >= trail[2] else (trail, lead) for lead, trail in near]
    ids = tuple(e[0] for pair in oriented for e in pair)
    commodities = instance.commodities
    pos = instance.positions(ids).tolist()
    templates: list[CoupleSchedule] = []
    shared: dict[tuple[int, float], int] = {}
    which = []
    for j, (a, b) in enumerate(oriented):
        inp = CoupleInput(commodities[pos[2 * j]], commodities[pos[2 * j + 1]], a[2], b[2], eps)
        key = (inp.k, inp.T_A)
        if key not in shared:
            shared[key] = len(templates)
            templates.append(synthesize_couple(inp))
        which.append(shared[key])
    return CoupleBlock(ids, tuple(which), tuple(templates), provenance)


def _scale_to_capacity(assembled: AssembledPolicy, instance: Instance) -> tuple[AssembledPolicy, EvalReport, float]:
    """Uniformly stretch intervals down (divide times by the overshoot) so the
    certified peak fits the capacity; the measured factor is used when it is
    smaller than the analysis' worst case, never hurting the guarantee.
    Returns the policy, its report and the factor applied (1.0 for none)."""
    report = assembled.report(instance)
    factor = report.v_max / instance.V
    if factor > 1.0:
        assembled = assembled.scaled(1.0 / factor)
        report = assembled.report(instance)
    return assembled, report, max(1.0, factor)


def solve_sub2(
    instance: Instance,
    cfg: PipelineConfig,
    seed: int = 0,
    reference: CyclicPolicy | None = None,
) -> tuple[AssembledPolicy, EvalReport, dict]:
    """Full randomized pipeline; the returned report is a hard feasibility
    certificate (summed per-block peaks at or below capacity).

    `reference` overrides the auto-built benchmark policy. Stationary
    references have average space at most half their peak, which keeps the
    high-sparse-volume scenario out of reach; passing a schedule with a
    tighter peak-to-average gap exercises the remaining branches.
    """
    if reference is None:
        ref_report = evaluate_sosi(build_reference_policy(instance), instance)
    else:
        ref_report = evaluate(reference, instance)

    decomp = decompose_classes(ref_report, instance, cfg)
    scenario, blocks, dense = _dispatch(instance, cfg, decomp, seed)
    assembled, report, measured_scale = _scale_to_capacity(AssembledPolicy(tuple(blocks)), instance)
    if not report.feasible:
        raise InfeasiblePolicy(f"pipeline produced infeasible policy: v_max={report.v_max}")
    diag = {
        "scenario": scenario,
        "dense": dense,
        "measured_scale": measured_scale,
        "ref_cost_rate": ref_report.total_cost_rate,
        "cost_vs_ref": report.total_cost_rate / ref_report.total_cost_rate,
    }
    return assembled, report, diag


def _dispatch(
    instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition, seed: int
) -> tuple[str, list[Block], dict | None]:
    """The scenario's name, its blocks, and the dense branch's diagnostics
    (None outside the difficult scenario). The three scenarios are:
    - easy, sparse volume at least (1/2 + delta)V: the prefix-sparse
      commodities through the alignment DP when it fits its budgets, else the
      scale-down policy; the rest through the average-space relaxation;
    - low-dense, dense volume below (1/2 - 2 delta)V: one relaxation over the
      whole instance;
    - difficult: the prefix through its own relaxation, the suffix-sparse and
      dense classes through run_dense_branch.
    """
    eps, V = cfg.eps, instance.V
    prefix_ids = decomp.ids_with_label("prefix-sparse")
    if decomp.vbar_sparse >= (0.5 + DELTA) * V:
        blocks: list[Block] = []
        if prefix_ids:
            sub = sub_instance(instance, prefix_ids)
            try:
                policy, _ = ptas.ptas_solve(sub, min(0.5, 10 * eps))
                blocks.append(Block(ids=tuple(prefix_ids), cyclic=policy, provenance="prefix:ptas"))
            except (BudgetExceeded, StateSpaceExceeded):
                # too many commodities, or a hostile parameter spread blows up the guess grid
                policy, _, _ = solve_two_approx(sub)
                blocks.append(Block(ids=tuple(prefix_ids), sosi=policy, provenance="prefix:two-approx"))
        rest_ids = decomp.ids_with_label("suffix-sparse") + decomp.ids_with_label("dense")
        if rest_ids:
            sol = solve_sosi_relaxation(instance, rhs=2.0 * (decomp.vbar_dense + eps * V), ids=rest_ids)
            blocks.append(_stationary(rest_ids, sol.intervals_T, "suffix+dense:relaxation"))
        return "easy", blocks, None
    if decomp.vbar_dense < (0.5 - 2.0 * DELTA) * V:
        sol = solve_sosi_relaxation(instance, rhs=2.0 * (decomp.vbar_sparse + decomp.vbar_dense + eps * V))
        return "low-dense", [_stationary(instance.ids(), sol.intervals_T, "all:relaxation")], None
    blocks = []
    if prefix_ids:
        vbar_prefix = math.fsum(decomp.avg_space[i] for i in prefix_ids)
        sol = solve_sosi_relaxation(instance, rhs=2.0 * (vbar_prefix + eps * V), ids=prefix_ids)
        blocks.append(_stationary(prefix_ids, sol.intervals_T, "prefix:relaxation"))
    dense_blocks, dense = run_dense_branch(instance, cfg, decomp, seed)
    return "difficult", blocks + dense_blocks, dense
