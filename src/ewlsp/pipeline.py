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

The class decomposition is one column: the instance's rows sorted by class,
and each class's bounds in it. Sizes, labels and average space come from
those bounds, and rows or ids are sliced from the column only by label
(ClassDecomposition.rows_with_label): the easy scenario reads the ids of its
prefix-sparse classes and of the rest, the difficult one its prefix rows
and, in build_matching_instance, the rows of its suffix-sparse and dense
classes, and the low-dense scenario reads two sums and slices nothing.

The output is a union of cyclic blocks over disjoint commodity subsets.
Blocks produced by different random draws are mutually incommensurable in
general, so the union's peak is certified by the sum of exact per-block
peaks, which is precisely the accounting the analysis itself uses and is
conservative for feasibility. The paired schedules of one dense class form
one couple block: its near pairs, over all its heavy subgroups, that agree
on (k, T_A) share a single template. The dense branch runs on columns from
the matching's weight table to the couple blocks: the matching places each
commodity as a class index, each class reads its members' id column once,
in id order, with their matched intervals and gamma values, marks its heavy
members with a mask over those columns (split_heavy_light), and rounds and
pairs all its heavy subgroups in one array pass (round_and_pair); its heavy
and light ids are slices of the one id column. Its couple policy is
couples.couple_policy of the oriented near pairs' id, interval and gamma
columns, which holds every pair to the one set of couple rules
(couples.pair_powers); the pipeline keeps no rules of its own and makes no
CoupleInput or Commodity.
Each heavy subgroup q of class ell rounds with its own theta, the first
uniform(-0.5, 0.5) of numpy's PCG64 stream for SeedSequence(entropy=seed,
spawn_key=(ell, q)), which subgroup_thetas computes in integer arithmetic
with no numpy object. The
report is combine_reports over one report per block, as `ewlsp eval` sums
the written entries, and it alone refuses blocks whose policies name a
shared commodity; a one-block union, as every low-dense solve emits,
gathers no id sets there, since a lone part overlaps no other. A couple
block's report is evaluate's of its entry,
taken in one pass over the instance's columns, and sums its couples'
peaks, so how couples are grouped into blocks changes no certificate
beyond the order of its sums. A block holds one of the model's policy
types, a SosiPolicy, a CyclicPolicy or the CouplePolicy of a couple block,
and is written as that policy's one entry (model.policy_entry): a `sosi`,
a cyclic-policy or a `couples` entry.

The three scenarios (high sparse volume, low dense volume, difficult) live in
_dispatch, which alone reads their volume thresholds and only returns blocks;
the difficult scenario's dense classes go through run_dense_branch. The
uniform scale-down happens once, in solve_sub2, and the report of the scaled
union is both the feasibility check and the certificate it returns.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import ptas
from .couples import couple_policy
from .errors import BudgetExceeded, InfeasiblePolicy, StateSpaceExceeded
from .evaluator import EvalReport, combine_reports, evaluate, evaluate_sosi
from .matching import (
    INF_CLASS,
    MatchingInstance,
    edge_weight,
    solve_b_matching,
)
from .model import CouplePolicy, CyclicPolicy, IdColumn, Instance, Policy, SosiPolicy, policy_entry
from .po2 import PO2_MEAN_CONSTANT, _split_exponent
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
    and the benchmark pass. Both counts must be integers, and a bool is not
    one: any other value is refused with a ValueError naming the field.
    """

    eps: float = 0.05
    sparsity_threshold: int = 10
    Q: int = 10

    def __post_init__(self):
        if not (0 < self.eps < 0.1):
            raise ValueError("eps must lie in (0, 1/10)")
        for name, least in (("sparsity_threshold", 0), ("Q", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# Policy blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One self-contained piece of the assembled policy: a stationary, a
    cyclic or a couple policy over `ids`, and its provenance tag."""

    ids: tuple[int, ...]
    sosi: SosiPolicy | None = None
    cyclic: CyclicPolicy | None = None
    couples: CouplePolicy | None = None
    provenance: str = ""

    def __post_init__(self):
        if sum(p is not None for p in (self.sosi, self.cyclic, self.couples)) != 1:
            raise ValueError("block must hold exactly one of a SOSI, a cyclic or a couple policy")

    @property
    def policy(self) -> Policy:
        return next(p for p in (self.sosi, self.cyclic, self.couples) if p is not None)

    def report(self, instance: Instance) -> EvalReport:
        if self.sosi is not None:
            return evaluate_sosi(self.sosi, instance)
        return evaluate(self.policy, instance)

    def to_json(self) -> dict:
        """The block's wire-format entry plus its provenance tag; the entry
        re-parses as the block's policy."""
        return {**policy_entry(self.policy), "provenance": self.provenance}

    def scaled(self, factor: float) -> "Block":
        if factor == 1.0:
            return self
        if self.sosi is not None:
            return replace(self, sosi=self.sosi.scaled(factor))
        if self.couples is not None:
            return replace(self, couples=self.couples.scaled(factor))
        return replace(self, cyclic=self.cyclic.scaled(factor))


@dataclass(frozen=True)
class AssembledPolicy:
    """Union of blocks over disjoint commodity subsets.

    The reported peak is the sum of exact per-block peaks: an upper bound on
    the true joint peak, hence a sound feasibility certificate. A couple
    block (a Block holding a CouplePolicy) reports the summed peaks of its
    couples, as evaluate certifies its entry. Each dense class has at most
    one couple block, its policy couples.couple_policy of its near pairs.
    The union is not checked when it is built: its report, combine_reports
    over the blocks' reports, raises a ValueError naming the shared ids when
    the blocks' policies share a commodity, whatever `Block.ids` say.
    """

    blocks: tuple[Block, ...]

    def report(self, instance: Instance) -> EvalReport:
        """combine_reports over one report per block, in emission order."""
        return combine_reports([b.report(instance) for b in self.blocks], instance)

    def scaled(self, factor: float) -> "AssembledPolicy":
        return AssembledPolicy(tuple(b.scaled(factor) for b in self.blocks))

    def to_json(self) -> dict:
        """Wire format: the blocks' entries (Block.to_json) in order.
        model.parse_policies reads it back."""
        return {"blocks": [b.to_json() for b in self.blocks]}


def _stationary(ids: Sequence[int], intervals_T: IdColumn, provenance: str) -> Block:
    """A stationary block with zero phases, its policy built on the
    `intervals_T` column. evaluate_sosi sums in the key order of
    `intervals_T`, which is kept as given even where it differs from
    `ids`."""
    return Block(ids=tuple(ids), sosi=SosiPolicy(intervals_T), provenance=provenance)


def sub_instance(instance: Instance, ids: Sequence[int]) -> Instance:
    """The commodities of `instance` that `ids` names, in instance order,
    under the same capacity, taken from its columns."""
    keep = set(ids)
    cols = instance.columns
    rows = [k for k, cid in enumerate(cols.ids) if cid in keep]
    return Instance.from_columns(
        [cols.ids[k] for k in rows], cols.K[rows], cols.H[rows], cols.gamma[rows], instance.capacity_V
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
    return SosiPolicy(intervals_T=IdColumn(instance.columns.ids, snapped))


def _near_integer(x: np.ndarray) -> np.ndarray:
    """Indices where x is within 1e-9 of an integer or not finite."""
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(~(np.abs(x - np.rint(x)) > 1e-9))


@dataclass(frozen=True)
class ClassDecomposition:
    """The reference's volume classes, their labels and average space.

    `members` holds the instance's rows sorted by class, each class's in
    instance order, read-only; class ell is members[start:end] for its
    `bounds[ell]` = (start, end), so its size is end - start. Only nonempty
    classes have bounds, keyed in order of first occurrence in the instance.
    `rows_with_label` and `ids_with_label` read the classes of given labels
    off `members`. `space` is id -> gamma_i * avg inventory under the
    reference, an IdColumn in instance order whose column is read-only and
    whose dict is built on first item access.
    """

    bounds: Mapping[Hashable, tuple[int, int]]
    avg_space_per_class: Mapping[Hashable, float]
    labels: Mapping[Hashable, str]  # prefix-sparse | suffix-sparse | dense
    vbar_sparse: float
    vbar_dense: float
    space: IdColumn = field(repr=False, compare=False)
    members: np.ndarray = field(repr=False, compare=False)

    def rows_with_label(self, *labels: str) -> np.ndarray:
        """The rows of the classes that carry any of `labels`, class by
        class in class order (the tail class last), each in instance order."""
        spans = sorted(span for ell, span in self.bounds.items() if self.labels[ell] in labels)
        if not spans:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([self.members[start:end] for start, end in spans])

    def ids_with_label(self, *labels: str) -> list[int]:
        """The ids of rows_with_label(*labels), in its order."""
        ids = self.space.ids
        return [ids[r] for r in self.rows_with_label(*labels).tolist()]


def decompose_classes(
    ref_report: EvalReport,
    instance: Instance,
    cfg: PipelineConfig,
) -> ClassDecomposition:
    """Slab assignment from the reference report's exact average inventories
    (an IdColumn, looked up per id unless in instance order). A report that
    leaves out commodities of the instance raises a ValueError naming the
    first ten, in id order.

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
    agree on the last bit. One stable sort by class code gives `members`;
    each class's bounds, size, label and average space (the math.fsum of
    its members') come from that sorted column, and no class's ids or rows
    are cut here.
    """
    eps = cfg.eps
    V = instance.V
    n = instance.n
    L = math.ceil(math.log(n / eps) / math.log1p(eps))
    cols = instance.columns
    ids = cols.ids

    avg = ref_report.avg_inventory
    # a reference built from the instance lists its ids in instance order
    if avg.ids is ids or avg.ids == ids:
        avg_in_order = avg.column
    else:
        missing = sorted(set(ids).difference(avg))
        if missing:
            raise ValueError(f"the reference leaves out {len(missing)} commodities: {missing[:10]}")
        avg_in_order = np.fromiter(map(avg.__getitem__, ids), dtype=float, count=n)
    s = cols.gamma * avg_in_order
    tail = s <= V / (1.0 + eps) ** L
    log_step = math.log1p(eps)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.log(V / s) / log_step
    fl = np.floor(q)
    for k in _near_integer(np.where(tail, 0.5, q)).tolist():  # the tail's 0.5 is no integer
        fl[k] = math.floor(math.log(V / s[k]) / log_step)
    # the tail class gets code L + 1, past every slab index
    code = np.where(tail, L + 1, np.clip(fl + 1, 1, L)).astype(int)

    members = np.argsort(code, kind="stable")  # by class, instance order within
    members.flags.writeable = False
    sizes = np.bincount(code)
    present = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[present])
    starts = ends - sizes[present]
    member_space = s[members].tolist()
    spans = list(zip(present.tolist(), starts.tolist(), ends.tolist()))
    bounds: dict[Hashable, tuple[int, int]] = {}
    per_class: dict[Hashable, float] = {}
    for j in np.argsort(members[starts]).tolist():  # by each class's first commodity
        c, start, end = spans[j]
        ell: Hashable = INF_CLASS if c == L + 1 else c
        bounds[ell] = (start, end)
        per_class[ell] = math.fsum(member_space[start:end])

    threshold = cfg.sparsity_threshold
    size = {ell: end - start for ell, (start, end) in bounds.items()}
    sparse = [ell for ell in sorted(size) if size[ell] <= threshold]
    dense = [ell for ell in size if size[ell] > threshold]
    delta_count = math.ceil(
        math.log(125.0 * math.log(1.0 / eps) / eps**6) / math.log1p(eps)
    )
    labels: dict[Hashable, str] = {ell: "dense" for ell in dense}
    cut = min(delta_count, len(sparse))
    for k, ell in enumerate(sparse):
        labels[ell] = "prefix-sparse" if k < cut else "suffix-sparse"

    vbar_sparse = math.fsum(per_class[ell] for ell in bounds if labels[ell] != "dense")
    vbar_dense = math.fsum(per_class[ell] for ell in bounds if labels[ell] == "dense")
    return ClassDecomposition(
        bounds=bounds,
        avg_space_per_class=per_class,
        labels=labels,
        vbar_sparse=vbar_sparse,
        vbar_dense=vbar_dense,
        space=IdColumn(ids, s),
        members=members,
    )


def split_heavy_light(
    T: np.ndarray,
    gamma: np.ndarray,
    V: float,
    ell: int,
    eps: float,
    Q: int,
) -> tuple[np.ndarray, list[int]]:
    """The heavy mask over a class's columns, and the sizes of its heavy
    subgroups. Heavy commodities occupy more than 3/4 of the class slab on
    average (gamma * T / 2 > 3/4 * V / (1 + eps)^(ell - 1), for the matched
    intervals `T` and the `gamma` values, column by column); they are
    chopped, in column order, into Q subgroups whose sizes differ by at most
    one: subgroup q holds the next sizes[q] heavy members."""
    slab = V / (1.0 + eps) ** (ell - 1)
    heavy = np.asarray(gamma, dtype=float) * np.asarray(T, dtype=float) / 2.0 > 0.75 * slab
    count = int(np.count_nonzero(heavy))
    Q = max(1, min(Q, count))
    base, extra = divmod(count, Q)
    return heavy, [base + 1 if q < extra else base for q in range(Q)] if count else []


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------


def build_matching_instance(
    instance: Instance, cfg: PipelineConfig, decomp: ClassDecomposition
) -> tuple[MatchingInstance, np.ndarray, np.ndarray]:
    """Mimicking-partition matching over suffix-sparse and dense classes, its
    edge intervals (row r, column l holds the capped interval of
    commodity_side[r] in class_side[l]) and the gamma column of
    commodity_side. The weight and interval tables are built one class
    column at a time from the instance's parameter columns, and the matching
    takes the weight table as it is."""
    eps, V, n = cfg.eps, instance.V, instance.n
    labels = ("suffix-sparse", "dense")
    class_side = sorted(ell for ell, lab in decomp.labels.items() if lab in labels)
    # the classes' rows in class order, as decompose_classes found them: no lookup per id
    pos = decomp.rows_with_label(*labels)
    cols = instance.columns
    ids = [cols.ids[r] for r in pos.tolist()]
    K, H, gamma = cols.K[pos], cols.H[pos], cols.gamma[pos]
    intervals = np.empty((len(ids), len(class_side)))
    weight = np.empty_like(intervals)
    for l, ell in enumerate(class_side):
        intervals[:, l], weight[:, l] = edge_weight(K, H, gamma, ell, eps, V, n)

    bounds: dict[Hashable, tuple[int, int]] = {}
    for ell in class_side:
        start, end = decomp.bounds[ell]
        size = end - start
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
        table=weight,
        degree_bounds=bounds,
    )
    return mi, intervals, gamma


# Subgroup q of class ell draws its theta as the first uniform(-0.5, 0.5) of
# np.random.Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(ell, q)))),
# computed here in integer arithmetic: SeedSequence's entropy is the seed's
# 32-bit words padded to four, then ell's, then q's, so the pool is mixed
# over the seed's words once per solve, over ell's once per class and over
# q's alone per subgroup (theta_pool, _mix_words); the pool's first eight
# 32-bit state words, read as four 64-bit ones, seed PCG64, whose first
# output is drawn (_pool_theta).
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_Pool = tuple[tuple[int, ...], int]  # SeedSequence's four pool words and its hash constant


def _words(x: int) -> list[int]:
    """The little-endian 32-bit words of int(x) >= 0, at least one."""
    x = int(x)
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _hashmix(v: int, hc: int) -> tuple[int, int]:
    """SeedSequence's hashmix of word v under hash constant hc: (word, next hc)."""
    v ^= hc
    hc = hc * 0x931E8875 & _M32
    v = v * hc & _M32
    return v ^ v >> 16, hc


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word x with hashed word y."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _mix_words(pool: _Pool, words: Sequence[int]) -> _Pool:
    """Mix further entropy words into the pool."""
    mixer, hc = list(pool[0]), pool[1]
    for w in words:
        for dst in range(4):
            h, hc = _hashmix(w, hc)
            mixer[dst] = _mix(mixer[dst], h)
    return tuple(mixer), hc


def theta_pool(seed: int) -> _Pool:
    """SeedSequence's pool after the seed's entropy words, padded to four."""
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    mixer, hc = [], 0x43B0D7E5
    for w in entropy[:4]:
        h, hc = _hashmix(w, hc)
        mixer.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, hc = _hashmix(mixer[src], hc)
                mixer[dst] = _mix(mixer[dst], h)
    return _mix_words((tuple(mixer), hc), entropy[4:])


def _pool_theta(mixer: Sequence[int]) -> float:
    """The first uniform(-0.5, 0.5) of PCG64 seeded by the pool's state words."""
    hc, w = 0x8B51F9DD, []
    for v in (*mixer, *mixer):
        v ^= hc
        hc = hc * 0x58F38DED & _M32
        v = v * hc & _M32
        w.append(v ^ v >> 16)
    s0, s1, s2, s3 = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 & _M128 | 1
    state = (s0 << 64 | s1) + inc
    for _ in range(2):
        state = (state * _PCG64_MULT + inc) & _M128
    x, rot = (state >> 64 ^ state) & _M64, state >> 122
    out = (x >> rot | x << (64 - rot)) & _M64
    return -0.5 + 1.0 * ((out >> 11) * (1.0 / 9007199254740992.0))


def subgroup_thetas(pool: _Pool, ell: int, count: int) -> list[float]:
    """The thetas of subgroups 0..count-1 of class ell, from theta_pool(seed)."""
    class_pool = _mix_words(pool, _words(ell))
    return [_pool_theta(_mix_words(class_pool, _words(q))[0]) for q in range(count)]


@dataclass(frozen=True)
class PairedClass:
    """The heavy subgroups of one dense class, rounded and paired, in columns.

    `rounded` holds each commodity's rounded interval in the order the pass
    was given them. Subgroup q formed `far[q]` far pairs. The near pairs of
    every subgroup, in subgroup order and within one in classify_pairs'
    order, are oriented: pair j joins commodity A, `A[j]` with the longer
    rounded interval `T_A[j]` (the lead on a tie) and `gamma_A[j]`, and
    commodity B, `B[j]` with `T_B[j]` and `gamma_B[j]`. Each subgroup's
    singles, the members of its far pairs (lead, then trail) followed by its
    odd leftover, are in `single_ids`, in subgroup order, with their rounded
    intervals in `single_T`.
    """

    rounded: np.ndarray
    far: np.ndarray
    A: np.ndarray
    B: np.ndarray
    T_A: np.ndarray
    T_B: np.ndarray
    gamma_A: np.ndarray
    gamma_B: np.ndarray
    single_ids: np.ndarray
    single_T: np.ndarray


def round_and_pair(
    ids: Sequence[int],
    T: np.ndarray,
    gamma: np.ndarray,
    sizes: Sequence[int],
    thetas: Sequence[float],
    eps: float,
) -> PairedClass:
    """po2_round of each subgroup with its theta, then classify_pairs of its
    (id, gamma, rounded T) entries and the orientation of its near pairs, for
    every subgroup of a class in one array pass, bit-identical to that scalar
    chain. The subgroups are the consecutive runs of `sizes` (each >= 1)
    commodities of `ids`, whose intervals and gamma values `T` and `gamma`
    hold; subgroup q rounds with `thetas[q]`.

    alpha = floor(log2(T/base)) and beta come from np.log2, except where
    log2(T/base) lies within 1e-9 of an integer or is not finite, or beta - 1/2
    lies within 1e-9 of theta: there po2's _split_exponent decides, since
    np.log2 and math.log2 may differ in the last bit. Python's 2.0 ** (k +
    theta) is taken once per distinct exponent and multiplies base, as in
    po2_round. Entries sort by subgroup, then gamma*T descending,
    then id (np.lexsort); a pair is far when lead gamma*T >= (1 + eps) *
    trail gamma * trail T, evaluated left to right as classify_pairs does.
    """
    ids = np.asarray(ids)
    T, gamma = np.asarray(T, dtype=float), np.asarray(gamma, dtype=float)
    sizes = np.asarray(sizes, dtype=np.intp)
    if not (T > 0).all():
        raise ValueError("all intervals must be > 0")
    sub = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    base = np.minimum.reduceat(T, starts)[sub]
    thetas = np.asarray(thetas, dtype=float)
    theta = thetas[sub]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.log2(T / base)
        alpha = np.floor(x)
        beta = x - alpha
        close_to_theta = np.flatnonzero(np.abs(beta - 0.5 - theta) <= 1e-9)
    T_list, base_list = T.tolist(), base.tolist()
    for j in set(_near_integer(x).tolist()).union(close_to_theta.tolist()):
        alpha[j], beta[j] = _split_exponent(T_list[j], base_list[j])
    # float(k) + theta, the sum Python forms for the int k and the float theta
    exponent = (np.where(theta >= beta - 0.5, alpha, alpha + 1) + theta).tolist()
    power = {e: 2.0**e for e in set(exponent)}
    rounded = np.fromiter(map(power.__getitem__, exponent), dtype=float, count=len(exponent)) * base

    gT = gamma * rounded
    order = np.lexsort((ids, -gT, sub))
    o_ids, o_gamma, o_T, o_gT = ids[order], gamma[order], rounded[order], gT[order]
    # the order keeps each subgroup's slice, so sub and place (the rank
    # within the subgroup) hold for the sorted entries too
    place = np.arange(len(ids)) - starts[sub]
    even = place % 2 == 0
    lead = np.flatnonzero(even & (place + 1 < sizes[sub]))
    trail = lead + 1
    is_far = o_gT[lead] >= (1.0 + eps) * o_gamma[trail] * o_T[trail]
    near_lead, near_trail = lead[~is_far], trail[~is_far]
    lead_is_A = o_T[near_lead] >= o_T[near_trail]
    A = np.where(lead_is_A, near_lead, near_trail)
    B = np.where(lead_is_A, near_trail, near_lead)
    single = even & (place + 1 == sizes[sub])  # the odd leftover
    single[lead[is_far]] = single[trail[is_far]] = True
    return PairedClass(
        rounded=rounded,
        far=np.bincount(sub[lead[is_far]], minlength=len(sizes)),
        A=o_ids[A],
        B=o_ids[B],
        T_A=o_T[A],
        T_B=o_T[B],
        gamma_A=o_gamma[A],
        gamma_B=o_gamma[B],
        single_ids=o_ids[single],
        single_T=o_T[single],
    )


def run_dense_branch(
    instance: Instance,
    cfg: PipelineConfig,
    decomp: ClassDecomposition,
    seed: int,
) -> tuple[list[Block], dict]:
    """Suffix-sparse and dense classes: mimicking partition, then per dense
    class either the matched stationary policies (light majority), or
    power-of-2 rounding of every heavy subgroup followed by the concentration
    event. A class where the event holds gets at most three blocks: one
    couple block for the near pairs of all its subgroups, one rounded-sosi
    block for their far pairs and odd leftovers, and its light block, each
    holding its subgroups in order; one where the event fails falls back to
    the alpha-scaled stationary policy and builds none of them.

    The dense branch runs on columns: the matching reads the n x c weight
    table of build_matching_instance and places each commodity as a class
    index (MimickingPartition.where); each class reads its members' id
    column once, in id order, with their matched intervals and gamma values
    from the interval table and the gamma column, marks its heavy members
    with split_heavy_light's mask over those columns, slices its heavy and
    light ids from that id column, draws one theta per heavy subgroup q, the
    first uniform(-0.5, 0.5) of numpy's stream for SeedSequence(entropy=seed,
    spawn_key=(ell, q)), computed in integer arithmetic (subgroup_thetas,
    from the seed's pool mixed once per solve), and rounds and pairs all its
    subgroups in one array pass (round_and_pair), and couples.couple_policy
    builds the policy of the class's one couple block from the oriented near
    pairs' columns; the couples of the class that agree on (k, T_A) share
    one template. The difficult scenario that calls this has dense volume
    at least (1/2 - 2 delta)V > 0, so the matching always has commodities.
    diag["couples"] counts the couples in the returned blocks."""
    eps = cfg.eps
    diag: dict = {"classes": {}, "couples": 0, "far_pair_counts": [], "a_ell": {}}
    mi, interval_table, gamma = build_matching_instance(instance, cfg, decomp)
    matched = solve_b_matching(mi)
    diag["matched_weight"] = matched.total_weight
    where = matched.where
    pool = theta_pool(seed)
    t_hat = interval_table[np.arange(len(where)), where]  # each commodity's matched interval
    commodities = np.array(mi.commodity_side)
    by_id = np.argsort(commodities, kind="stable")
    class_by_id = where[by_id]

    blocks: list[Block] = []
    for l in np.flatnonzero(np.bincount(where)).tolist():  # class_side is sorted
        ell = mi.class_side[l]
        rows = by_id[class_by_id == l]  # the class's rows, in id order
        class_ids, T = commodities[rows], t_hat[rows]
        ids = class_ids.tolist()
        if decomp.labels[ell] == "suffix-sparse" or ell == INF_CLASS:
            blocks.append(_stationary(ids, IdColumn(ids, T), f"class{ell}:sosi"))
            diag["classes"][str(ell)] = "sosi"
            continue

        class_gamma = gamma[rows]
        heavy, sizes = split_heavy_light(T, class_gamma, instance.V, int(ell), eps, cfg.Q)
        light_ids = class_ids[~heavy].tolist()
        if len(light_ids) >= len(ids) / 2.0:
            blocks.append(_stationary(ids, IdColumn(ids, T), f"class{ell}:light-majority"))
            diag["classes"][str(ell)] = "light-majority"
            continue

        thetas = subgroup_thetas(pool, int(ell), len(sizes))
        heavy_T, heavy_gamma = T[heavy], class_gamma[heavy]
        paired = round_and_pair(class_ids[heavy], heavy_T, heavy_gamma, sizes, thetas, eps)
        diag["far_pair_counts"] += paired.far.tolist()

        lhs = math.fsum((heavy_gamma * paired.rounded).tolist())
        rhs = (1.0 + eps) * PO2_MEAN_CONSTANT * math.fsum((heavy_gamma * heavy_T).tolist())
        event_holds = lhs <= rhs
        diag["a_ell"][str(ell)] = event_holds
        if not event_holds:
            blocks.append(_stationary(ids, IdColumn(ids, ALPHA_FALLBACK * T), f"class{ell}:alpha-fallback"))
            diag["classes"][str(ell)] = "alpha-fallback"
            continue

        if len(paired.A):
            couples = couple_policy(paired.A, paired.B, paired.T_A, paired.T_B, paired.gamma_A, paired.gamma_B, eps)
            blocks.append(Block(couples.ids, couples=couples, provenance=f"class{ell}"))
            diag["couples"] += len(paired.A)
        if len(paired.single_ids):
            # far pairs and the odd leftover keep their rounded intervals, in that order per subgroup
            singles = paired.single_ids.tolist()
            blocks.append(_stationary(sorted(singles), IdColumn(singles, paired.single_T), f"class{ell}:rounded-sosi"))
        if light_ids:
            blocks.append(_stationary(light_ids, IdColumn(light_ids, T[~heavy]), f"class{ell}:light-sosi"))
        diag["classes"][str(ell)] = "po2-sync"
    return blocks, diag


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

    `seed` must be an integer >= 0 and not a bool, whichever scenario the
    instance reaches; only the difficult one draws from it.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
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
    if decomp.vbar_sparse >= (0.5 + DELTA) * V:
        prefix_ids = decomp.ids_with_label("prefix-sparse")
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
        rest_ids = decomp.ids_with_label("suffix-sparse", "dense")
        if rest_ids:
            sol = solve_sosi_relaxation(instance, rhs=2.0 * (decomp.vbar_dense + eps * V), ids=rest_ids)
            blocks.append(_stationary(rest_ids, sol.intervals_T, "suffix+dense:relaxation"))
        return "easy", blocks, None
    if decomp.vbar_dense < (0.5 - 2.0 * DELTA) * V:
        sol = solve_sosi_relaxation(instance, rhs=2.0 * (decomp.vbar_sparse + decomp.vbar_dense + eps * V))
        return "low-dense", [_stationary(sol.intervals_T.ids, sol.intervals_T, "all:relaxation")], None
    blocks = []
    prefix_ids = decomp.ids_with_label("prefix-sparse")
    if prefix_ids:
        vbar_prefix = math.fsum(decomp.space.column[decomp.rows_with_label("prefix-sparse")].tolist())
        sol = solve_sosi_relaxation(instance, rhs=2.0 * (vbar_prefix + eps * V), ids=prefix_ids)
        blocks.append(_stationary(prefix_ids, sol.intervals_T, "prefix:relaxation"))
    dense_blocks, dense = run_dense_branch(instance, cfg, decomp, seed)
    return "difficult", blocks + dense_blocks, dense
