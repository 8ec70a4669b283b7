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
conservative for feasibility.

Each scenario runner only returns its blocks. The uniform scale-down happens
once, in solve_sub2, and the report of the scaled union is both the
feasibility check and the certificate it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from . import ptas
from .couples import CoupleInput, classify_pairs, synthesize_couple
from .errors import BudgetExceeded, InfeasiblePolicy, StateSpaceExceeded
from .evaluator import EvalReport, combine_reports, evaluate, evaluate_sosi
from .matching import (
    INF_CLASS,
    MatchingInstance,
    edge_weight,
    solve_b_matching,
)
from .model import CyclicPolicy, Instance, SosiPolicy, policy_to_json
from .po2 import PO2_MEAN_CONSTANT, po2_round
from .relaxation import solve_sosi_relaxation
from .two_approx import solve_two_approx

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

    def scaled(self, factor: float) -> "Block":
        if factor == 1.0:
            return self
        if self.sosi is not None:
            scaled = SosiPolicy(
                intervals_T={cid: T * factor for cid, T in self.sosi.intervals_T.items()},
                phases={cid: p * factor for cid, p in self.sosi.phases.items()},
            )
            return replace(self, sosi=scaled)
        return replace(self, cyclic=self.cyclic.scaled(factor))


@dataclass(frozen=True)
class AssembledPolicy:
    """Union of blocks over disjoint commodity subsets.

    The reported peak is the sum of exact per-block peaks: an upper bound on
    the true joint peak, hence a sound feasibility certificate.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            overlap = seen & set(b.ids)
            if overlap:
                raise ValueError(f"blocks overlap on commodities {sorted(overlap)}")
            seen.update(b.ids)

    def report(self, instance: Instance) -> EvalReport:
        return combine_reports((b.report(instance) for b in self.blocks), instance)

    def scaled(self, factor: float) -> "AssembledPolicy":
        return AssembledPolicy(tuple(b.scaled(factor) for b in self.blocks))

    def to_json(self) -> dict:
        """Wire format: every block is ordinary cyclic-policy JSON plus a
        provenance tag; stationary blocks flatten into one single-commodity
        sawtooth per commodity so each entry re-parses as a policy."""
        out = []
        for b in self.blocks:
            if b.sosi is not None:
                for cid, T in sorted(b.sosi.intervals_T.items()):
                    phase = b.sosi.phase(cid)
                    out.append(
                        {
                            "tau": T,
                            "schedules": {str(cid): [[phase, T]]},
                            "provenance": b.provenance,
                        }
                    )
            else:
                out.append({**policy_to_json(b.cyclic), "provenance": b.provenance})
        return {"blocks": out}


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
    """
    policy, _, _ = solve_two_approx(instance)
    base = min(policy.intervals_T.values())
    snapped = {
        cid: base * 2.0 ** math.floor(math.log2(T / base) + 1e-12)
        for cid, T in policy.intervals_T.items()
    }
    return SosiPolicy(intervals_T=snapped)


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
    """
    eps = cfg.eps
    V = instance.V
    n = instance.n
    L = math.ceil(math.log(n / eps) / math.log1p(eps))

    avg_space: dict[int, float] = {}
    classes: dict[Hashable, list[int]] = {}
    for c in instance.commodities:
        s = c.gamma * ref_report.avg_inventory[c.id]
        avg_space[c.id] = s
        if s <= V / (1.0 + eps) ** L:
            ell: Hashable = INF_CLASS
        else:
            ell = min(L, math.floor(math.log(V / s) / math.log1p(eps)) + 1)
            ell = max(1, ell)
        classes.setdefault(ell, []).append(c.id)

    threshold = cfg.sparsity_threshold
    per_class = {ell: math.fsum(avg_space[i] for i in ids) for ell, ids in classes.items()}

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
        classes={ell: tuple(ids) for ell, ids in classes.items()},
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
    heavy, light = [], []
    for i in sorted(ids):
        c = instance.commodity(i)
        if c.gamma * intervals[i] / 2.0 > 0.75 * slab:
            heavy.append(i)
        else:
            light.append(i)
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


def _relaxation_block(instance: Instance, ids: Sequence[int], rhs: float, provenance: str) -> Block:
    sol = solve_sosi_relaxation(sub_instance(instance, ids), rhs=rhs)
    return Block(ids=tuple(ids), sosi=SosiPolicy(intervals_T=dict(sol.intervals_T)), provenance=provenance)


def _prefix_blocks(instance: Instance, cfg: PipelineConfig, prefix_ids: list[int]) -> list[Block]:
    """Near-optimal treatment of the few prefix-sparse commodities: the
    alignment DP when it fits its budgets (at most DEFAULT_PTAS_CAP
    commodities), the scale-down policy otherwise (both capacity-feasible on
    their own)."""
    if not prefix_ids:
        return []
    sub = sub_instance(instance, prefix_ids)
    try:
        policy, _ = ptas.ptas_solve(sub, min(0.5, 10 * cfg.eps))
        return [Block(ids=tuple(prefix_ids), cyclic=policy, provenance="prefix:ptas")]
    except (BudgetExceeded, StateSpaceExceeded):
        pass  # too many commodities, or a hostile parameter spread blows up the guess grid
    policy, _, _ = solve_two_approx(sub)
    return [Block(ids=tuple(prefix_ids), sosi=policy, provenance="prefix:two-approx")]


def run_easy_scenario(instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition) -> list[Block]:
    """High sparse volume: prefix commodities solved near-optimally, the rest
    through the average-space relaxation."""
    prefix_ids = decomp.ids_with_label("prefix-sparse")
    rest_ids = decomp.ids_with_label("suffix-sparse") + decomp.ids_with_label("dense")
    blocks = _prefix_blocks(instance, cfg, prefix_ids)
    if rest_ids:
        rhs = 2.0 * (decomp.vbar_dense + cfg.eps * instance.V)
        blocks.append(_relaxation_block(instance, rest_ids, rhs=rhs, provenance="suffix+dense:relaxation"))
    return blocks


def run_low_dense_scenario(instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition) -> list[Block]:
    """Both sparse and dense volumes small: one whole-instance relaxation."""
    rhs = 2.0 * (decomp.vbar_sparse + decomp.vbar_dense + cfg.eps * instance.V)
    return [_relaxation_block(instance, instance.ids(), rhs=rhs, provenance="all:relaxation")]


def build_matching_instance(
    instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition
) -> tuple[MatchingInstance, dict[tuple[int, Hashable], float]]:
    """Mimicking-partition matching over suffix-sparse and dense classes."""
    eps, V, n = cfg.eps, instance.V, instance.n
    suffix = [ell for ell, lab in decomp.labels.items() if lab == "suffix-sparse"]
    dense = [ell for ell, lab in decomp.labels.items() if lab == "dense"]
    class_side = sorted(suffix + dense)
    ids = [i for ell in class_side for i in decomp.classes[ell]]

    weights: dict[tuple[int, Hashable], float] = {}
    intervals: dict[tuple[int, Hashable], float] = {}
    for i in ids:
        c = instance.commodity(i)
        for ell in class_side:
            T, w = edge_weight(c, ell, eps, V, n)
            weights[(i, ell)] = w
            intervals[(i, ell)] = T

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
) -> tuple[list[Block], dict]:
    """Suffix-sparse and dense classes: mimicking partition, then per dense
    class either the matched stationary policies (light majority), or
    power-of-2 rounding with couple synthesis guarded by the concentration
    event, falling back to the alpha-scaled stationary policy."""
    eps = cfg.eps
    diag: dict = {"classes": {}, "couples": 0, "far_pair_counts": [], "a_ell": {}}
    mi, interval_table = build_matching_instance(instance, cfg, decomp)
    if not mi.commodity_side:
        return [], diag
    matched = solve_b_matching(mi)
    t_hat = {i: interval_table[(i, matched.assignment[i])] for i in mi.commodity_side}
    diag["matched_weight"] = matched.total_weight

    members: dict[Hashable, list[int]] = {}
    for i, ell in matched.assignment.items():
        members.setdefault(ell, []).append(i)

    blocks: list[Block] = []
    for ell in sorted(members):
        ids = sorted(members[ell])
        label = decomp.labels[ell]
        if label == "suffix-sparse" or ell == INF_CLASS:
            blocks.append(
                Block(ids=tuple(ids), sosi=SosiPolicy({i: t_hat[i] for i in ids}), provenance=f"class{ell}:sosi")
            )
            diag["classes"][str(ell)] = "sosi"
            continue

        split = split_heavy_light(ids, t_hat, instance, int(ell), eps, cfg.Q)
        if len(split.light) >= len(ids) / 2.0:
            blocks.append(
                Block(ids=tuple(ids), sosi=SosiPolicy({i: t_hat[i] for i in ids}), provenance=f"class{ell}:light-majority")
            )
            diag["classes"][str(ell)] = "light-majority"
            continue

        rounded: dict[int, float] = {}
        class_blocks: list[Block] = []
        for q, group in enumerate(split.subgroups):
            rng = _theta_rng(seed, int(ell), q)
            theta = float(rng.uniform(-0.5, 0.5))
            outcome = po2_round({i: t_hat[i] for i in group}, theta)
            rounded.update(outcome.rounded_T)
            entries = [(i, instance.commodity(i).gamma, outcome.rounded_T[i]) for i in group]
            near, far, leftover = classify_pairs(entries, eps)
            diag["far_pair_counts"].append(len(far))
            for lead, trail in near:
                a, b = (lead, trail) if lead[2] >= trail[2] else (trail, lead)
                couple = synthesize_couple(
                    CoupleInput(
                        commodity_A=instance.commodity(a[0]),
                        commodity_B=instance.commodity(b[0]),
                        T_A=a[2],
                        T_B=b[2],
                        epsilon=eps,
                    )
                )
                diag["couples"] += 1
                class_blocks.append(
                    Block(ids=(a[0], b[0]), cyclic=couple.policy, provenance=f"class{ell}:couple-case{couple.case_id}")
                )
            singles = [i for pair in far for i in (pair[0][0], pair[1][0])]
            if leftover is not None:
                singles.append(leftover[0])
            if singles:
                class_blocks.append(
                    Block(
                        ids=tuple(sorted(singles)),
                        sosi=SosiPolicy({i: outcome.rounded_T[i] for i in singles}),
                        provenance=f"class{ell}:rounded-sosi",
                    )
                )
        if split.light:
            class_blocks.append(
                Block(
                    ids=tuple(split.light),
                    sosi=SosiPolicy({i: t_hat[i] for i in split.light}),
                    provenance=f"class{ell}:light-sosi",
                )
            )

        lhs = math.fsum(instance.commodity(i).gamma * rounded[i] for i in split.heavy)
        rhs = (1.0 + eps) * PO2_MEAN_CONSTANT * math.fsum(
            instance.commodity(i).gamma * t_hat[i] for i in split.heavy
        )
        event_holds = lhs <= rhs
        diag["a_ell"][str(ell)] = event_holds
        if event_holds:
            blocks.extend(class_blocks)
            diag["classes"][str(ell)] = "po2-sync"
        else:
            blocks.append(
                Block(
                    ids=tuple(ids),
                    sosi=SosiPolicy({i: ALPHA_FALLBACK * t_hat[i] for i in ids}),
                    provenance=f"class{ell}:alpha-fallback",
                )
            )
            diag["classes"][str(ell)] = "alpha-fallback"
    return blocks, diag


def run_difficult_scenario(
    instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition, seed: int
) -> tuple[list[Block], dict]:
    """Prefix classes through their own relaxation, the rest through the
    dense branch; returns the blocks and the dense branch's diagnostics."""
    eps, V = cfg.eps, instance.V
    prefix_ids = decomp.ids_with_label("prefix-sparse")
    blocks: list[Block] = []
    if prefix_ids:
        vbar_prefix = math.fsum(decomp.avg_space[i] for i in prefix_ids)
        blocks.append(
            _relaxation_block(instance, prefix_ids, rhs=2.0 * (vbar_prefix + eps * V), provenance="prefix:relaxation")
        )
    dense_blocks, dense_diag = run_dense_branch(instance, cfg, decomp, seed)
    blocks.extend(dense_blocks)
    return blocks, dense_diag


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
    (None outside the difficult scenario)."""
    V = instance.V
    if decomp.vbar_sparse >= (0.5 + DELTA) * V:
        return "easy", run_easy_scenario(instance, cfg, decomp), None
    if decomp.vbar_dense < (0.5 - 2.0 * DELTA) * V:
        return "low-dense", run_low_dense_scenario(instance, cfg, decomp), None
    blocks, dense = run_difficult_scenario(instance, cfg, decomp, seed)
    return "difficult", blocks, dense
