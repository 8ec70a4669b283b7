"""Couple blocks on columns, each part against a plain reference kept here.

- The grouped template pass (evaluator._template_group): each template's
  sawtooth statistics equal `_commodity_stats` bit for bit, and its instant
  table equals the sorted union of both schedules' order times.
- A couple block whose templates have different order counts evaluates as
  the union of its couples' own policies.
- couple_policy's key grouping equals a per-pair dict loop whose templates are
  rescaled with Fraction arithmetic, and the policy equals the one its entry
  parses back to.
- Instance.positions' range path gives the positions and the KeyError of the
  one-id-at-a-time lookup.
- A couple template's case lies in 1..6.
- The knapsack DP's pick rows are narrow and give the same allocations.
"""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp import relaxation
from ewlsp.cli import generate_instance
from ewlsp.couples import CLAIMED_RATIOS, UNCHECKED_MAX_K, _normalized_schedules, couple_policy, couple_template, pair_powers
from ewlsp.errors import PolicyPartError, SchemaError
from ewlsp.evaluator import _commodity_stats, _template_group, combine_reports, evaluate
from ewlsp.model import COUPLE_CASES, Commodity, CouplePolicy, CyclicPolicy, Instance, parse_policies, parse_policy, policy_entry

from conftest import make_instance

EPS = 0.05


def bits(values):
    return [float(x).hex() for x in values]


def template_bits(template):
    return template.tau.hex(), [(cid, [(t.hex(), q.hex()) for t, q in orders]) for cid, orders in template.schedules.items()]


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@st.composite
def synthesized_templates(draw):
    """couple_template for k = 0..12 inside and outside the unchecked T_A
    range, and for k = 13 and 14, which are always checked."""
    k = draw(st.integers(0, UNCHECKED_MAX_K + 2))
    outside = draw(st.sampled_from(["inside", "below", "above"]))
    if outside == "below":
        T_A = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(-1006, -1000)))
    elif outside == "above":
        T_A = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(1001, 1024)))
    else:
        T_A = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(-40, 40)))
    return couple_template(k, T_A)


@st.composite
def drawn_templates(draw):
    """A two-schedule template of 1 to 6 orders each: order times on a
    small grid of the cycle, so that A and B often order at one instant,
    A's first time sometimes -0.0, and quantities from any split of the
    cycle."""
    tau = draw(st.sampled_from([1.0, 0.7, 3.0, 1e-3, 1e200]))
    grid = draw(st.sampled_from([4, 8, 10]))
    schedules = []
    for side in range(2):
        count = draw(st.integers(1, 6 if grid > 4 else 4))
        slots = sorted(draw(st.lists(st.integers(0, grid - 1), min_size=count, max_size=count, unique=True)))
        times = [tau * s / grid for s in slots]
        if side == 0 and slots[0] == 0 and draw(st.booleans()):
            times[0] = -0.0
        cuts = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=count - 1, max_size=count - 1, unique=True)))
        shares = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        schedules.append(tuple(zip(times, [tau * s for s in shares])))
    return CyclicPolicy(tau, dict(enumerate(schedules)))


templates = st.one_of(synthesized_templates(), drawn_templates())


def scalar_instants(a, b):
    """A template's instant table as (time, A's quantity, B's quantity) rows:
    the orders of both schedules in ascending time, A's first at an instant
    where both order, which then holds both quantities and leaves its second
    row with none."""
    rows = sorted([(t, 0, q) for t, q in a] + [(t, 1, q) for t, q in b], key=lambda row: (row[0], row[1]))
    table = []
    for t, side, q in rows:
        if table and table[-1][0] == t:
            table[-1][2] = q
            table.append([t, 0.0, 0.0])
        else:
            table.append([t, q if side == 0 else 0.0, q if side == 1 else 0.0])
    return table


@settings(deadline=None)
@given(block=st.lists(templates, min_size=1, max_size=8))
def test_template_group_matches_the_scalar_statistics(block):
    # every group of templates with one pair of order counts, as
    # _evaluate_couples forms them: each template's averages and baselines
    # are _commodity_stats' bit for bit, and its instant table the sorted
    # union of both schedules' instants
    groups = {}
    for template in block:
        a, b = template.schedules.values()
        groups.setdefault((len(a), len(b)), []).append(template)
    for (count_a, _), members in groups.items():
        pairs = [tuple(t.schedules.values()) for t in members]
        with np.errstate(over="ignore", invalid="ignore"):  # as _evaluate_couples calls it
            stats, table = _template_group(pairs, np.array([t.tau for t in members]), count_a)
        for s, (template, (a, b)) in enumerate(zip(members, pairs)):
            (avg_a, c0_a), (avg_b, c0_b) = _commodity_stats(a, template.tau), _commodity_stats(b, template.tau)
            assert bits(stats[:, s]) == bits([avg_a, avg_b, c0_a, c0_b])
            assert [bits(row) for row in table[:, :, s].T] == [bits(row) for row in scalar_instants(a, b)]


@st.composite
def mixed_blocks(draw):
    """A couple block of 1 to 5 templates of different order counts and 1
    to 12 couples, over a shuffled instance with extra commodities."""
    block = draw(st.lists(templates, min_size=1, max_size=5))
    couples = draw(st.integers(1, 12))
    which = [draw(st.integers(0, len(block) - 1)) for _ in range(couples)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * couples + int(rng.integers(0, 3))
    ids = rng.permutation(n).tolist()
    commodities = [Commodity(i, *(10.0 ** rng.uniform(-2, 2, size=3)).tolist()) for i in range(n)]
    order = rng.permutation(n)
    instance = Instance(tuple(commodities[k] for k in order), capacity_V=1.0)
    return CouplePolicy(block, [1] * len(block), which, ids[: 2 * couples]), instance


def exact_report(report):
    return (
        report.ordering_cost_rate.hex(),
        report.holding_cost_rate.hex(),
        report.v_max.hex(),
        list(report.avg_inventory.ids),
        bits(report.avg_inventory.column),
    )


@settings(deadline=None)
@given(case=mixed_blocks())
def test_block_of_mixed_widths_evaluates_as_the_union_of_its_couples(case):
    policy, instance = case
    own = []
    for j, t in enumerate(policy.which):
        a, b = policy.templates[t].schedules.values()
        own.append(evaluate(CyclicPolicy(policy.templates[t].tau, {policy.ids[2 * j]: a, policy.ids[2 * j + 1]: b}), instance))
    assert exact_report(evaluate(policy, instance)) == exact_report(combine_reports(own, instance))


# ---------------------------------------------------------------------------
# couple_policy
# ---------------------------------------------------------------------------


def fraction_template(k, T_A):
    """The template of (k, T_A), keyed 0 (A) and 1 (B), each normalized
    value x rescaled as float(x * T_A) in exact rationals."""
    tau, a_orders, b_orders = _normalized_schedules(k)
    scale = Fraction(T_A)

    def scaled(orders):
        return tuple((float(t * scale), float(q * scale)) for t, q in orders)

    return CyclicPolicy(float(tau * scale), {0: scaled(a_orders), 1: scaled(b_orders)})


def reference_couple_policy(ids_A, ids_B, T_A, T_B, gamma_A, gamma_B, eps):
    """couple_policy as a per-pair dict loop: the first pair of each new
    (k, T_A) key gives its template, and each pair names its key's."""
    k = pair_powers(T_A, T_B, gamma_A, gamma_B, eps).tolist()
    ids = [int(x) for pair in zip(ids_A, ids_B) for x in pair]
    shared, templates, cases, which = {}, [], [], []
    for j, key in enumerate(zip(k, [float(x) for x in T_A])):
        if key not in shared:
            shared[key] = len(templates)
            templates.append(fraction_template(*key))
            cases.append(min(key[0] + 1, 6))
        which.append(shared[key])
    return templates, cases, which, ids


@st.composite
def near_pair_columns(draw):
    """The oriented near pairs of one class: 1 to 5 (k, T_A) keys, k up to
    14 and T_A across the float range, some keys sharing T_A and not k; 1 to
    40 pairs drawing from them, T_B a few ulps off T_A / 2^k; ids distinct,
    as numpy columns or lists."""
    keys = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, UNCHECKED_MAX_K + 2))
        if keys and draw(st.booleans()):
            T_A = keys[-1][1]
        else:
            T_A = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(-1000 + k, 1024)))
        keys.append((k, T_A))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    ids = (rng.permutation(4 * count) + int(rng.integers(0, 1000))).tolist()
    columns = [[] for _ in range(6)]
    for j in range(count):
        k, T_A = keys[int(rng.integers(0, len(keys)))]
        T_B = T_A / 2**k
        for _ in range(int(rng.integers(0, 3))):
            T_B = math.nextafter(T_B, math.inf if rng.random() < 0.5 else 0.0)
        gamma_A = float(10.0 ** rng.uniform(-3, 3)) / max(1.0, T_A / 2**900)
        gamma_B = gamma_A * (T_A / T_B) / float(rng.uniform(0.99, 1.01))
        for column, value in zip(columns, (ids[2 * j], ids[2 * j + 1], T_A, T_B, gamma_A, gamma_B)):
            column.append(value)
    ids_A, ids_B = columns[:2]
    if draw(st.booleans()):
        ids_A, ids_B = np.array(ids_A), np.array(ids_B)
    return (ids_A, ids_B, *(np.array(column) for column in columns[2:]))


@settings(deadline=None)
@given(columns=near_pair_columns())
def test_couple_policy_matches_the_per_pair_dict_loop(columns):
    policy = couple_policy(*columns, EPS)
    templates, cases, which, ids = reference_couple_policy(*columns, EPS)
    assert [template_bits(t) for t in policy.templates] == [template_bits(t) for t in templates]
    assert list(policy.cases) == cases and list(policy.which) == which and list(policy.ids) == ids
    assert all(type(x) is int for x in policy.which + policy.ids + policy.cases)
    # the policy is the one its entry parses back to, templates keyed 0 and 1
    assert parse_policy(json.dumps(policy_entry(policy))) == policy


def test_couple_policy_numbers_keys_by_first_pair():
    # sorted by (T_A, k) the keys come (1.0, 0), (1.0, 1), (2.0, 0); by first
    # pair they come (2.0, 0), (1.0, 1), (1.0, 0)
    T_A = np.array([2.0, 1.0, 2.0, 1.0, 1.0])
    T_B = np.array([2.0, 0.5, 2.0, 1.0, 0.5])
    gamma_A = np.ones(5)
    policy = couple_policy(list(range(5)), list(range(5, 10)), T_A, T_B, gamma_A, gamma_A * T_A / T_B, EPS)
    assert [t.tau for t in policy.templates] == [2.0, 1.0, 1.0]
    assert list(policy.which) == [0, 1, 0, 2, 1] and list(policy.cases) == [1, 2, 1]
    assert [list(t.schedules) for t in policy.templates] == [[0, 1]] * 3


# ---------------------------------------------------------------------------
# Instance.positions
# ---------------------------------------------------------------------------


def scalar_positions(instance, ids):
    """One id at a time, as `position`; the first missing id's KeyError."""
    return [instance.position(cid) for cid in ids]


POSITION_CASES = [
    (0, 1, 2, 3, 4),
    (4, 0, 3),
    (True, 3),
    (True, False),
    (np.int64(2), 1),
    (1.0, 2),
    (2, -1, 3),
    (3, 5, -1),
    (1, 5),
    (1.5, 2),
    ("1", 2),
    (2**70, 1),
    (),
]


@pytest.mark.parametrize("ids", POSITION_CASES, ids=repr)
@pytest.mark.parametrize("members", ["range", "frozenset"])
def test_positions_match_the_scalar_lookup(ids, members):
    columns = ([1.0] * 5, [1.0] * 5, [1.0] * 5)
    instance = Instance.from_columns(range(5) if members == "range" else [0, 1, 2, 4, 3], *columns, 1.0)
    try:
        want = scalar_positions(instance, ids)
    except KeyError as exc:
        with pytest.raises(KeyError) as got:
            instance.positions(ids)
        assert str(got.value) == str(exc)
    else:
        got = instance.positions(ids)
        assert got.dtype == np.intp and got.tolist() == want


def test_range_positions_build_no_dict():
    instance = generate_instance(3, 50, 1.0, "tight")
    assert instance.positions([49, 0, 7, 7]).tolist() == [49, 0, 7, 7]
    assert instance.positions(np.array([3, 1])).tolist() == [3, 1]
    assert "_position" not in vars(instance)
    with pytest.raises(KeyError, match="^'no commodity with id 50'$"):
        instance.positions([1, 50, -1])
    with pytest.raises(KeyError, match="^'no commodity with id -1'$"):
        instance.positions([1, -1, 50])


# ---------------------------------------------------------------------------
# Couple cases
# ---------------------------------------------------------------------------


def test_couple_cases_are_the_claimed_cases():
    assert COUPLE_CASES == set(CLAIMED_RATIOS)


def couple_text(cases):
    """A couples entry of two templates (k = 0 and 1) with these cases, as JSON."""
    templates = [couple_template(0, 1.0), couple_template(1, 2.0)]
    entry = policy_entry(CouplePolicy(templates, [1, 2], [0, 1], [0, 1, 2, 3]))
    for template, case in zip(entry["couples"]["templates"], cases):
        template["case"] = case
    return json.dumps(entry)


@pytest.mark.parametrize("case", [0, -3, 7, 10**40])
def test_case_outside_one_to_six_is_refused(case):
    templates = [couple_template(0, 1.0), couple_template(1, 2.0)]
    with pytest.raises(PolicyPartError, match=f"case must be an integer in 1..6, got {case}$") as exc:
        CouplePolicy(templates, [1, case], [0, 1], [0, 1, 2, 3])
    assert exc.value.part == ("templates[1]", "case")
    message = rf"\.couples\.templates\[1\]\.case: case must be an integer in 1\.\.6, got {case}$"
    with pytest.raises(SchemaError, match=rf"^\${message}"):
        parse_policy(couple_text([1, case]))
    instance = make_instance([(1.0, 1.0, 1.0)] * 4, 10.0)
    with pytest.raises(SchemaError, match=rf"^\$\.blocks\[0\]{message}"):
        parse_policies(f'{{"blocks": [{couple_text([1, case])}]}}', instance)


def test_case_must_be_an_integer():
    templates = [couple_template(0, 1.0)]
    for case in (True, 1.0, np.int64(1)):
        with pytest.raises(PolicyPartError, match="case must be an integer in 1..6"):
            CouplePolicy(templates, [case], [0], [0, 1])
    with pytest.raises(SchemaError, match=r"^\$\.couples\.templates\[0\]\.case: expected an integer$"):
        parse_policy(couple_text([True, 2]))


@pytest.mark.parametrize("case", sorted(COUPLE_CASES))
def test_every_case_reads_back(case):
    assert parse_policy(couple_text([case, 2])).cases == (case, 2)


# ---------------------------------------------------------------------------
# Knapsack DP picks
# ---------------------------------------------------------------------------


def dp_allocations(monkeypatch, instance, eps):
    """solve_sosi_dp's result and each commodity's capped interval bound,
    allocation * granule / gamma, recorded from its constrained_interval
    calls, as one digest."""
    caps = []
    interval = relaxation.constrained_interval

    def recorded(K, H, cap):
        caps.append(cap)
        return interval(K, H, cap)

    monkeypatch.setattr(relaxation, "constrained_interval", recorded)
    solution = relaxation.solve_sosi_dp(instance, eps)
    payload = (bits(caps), bits(solution.intervals_T.column), solution.objective.hex())
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, n, eps, regime, digest",
    [
        (0, 5, 0.1, "tight", "208bf54ae47dac2f"),  # 105 cells: uint8 picks
        (1, 20, 0.05, "loose", "53392bd8c135b7cf"),  # 820 cells: uint16
        (2, 40, 0.5, "dense-heavy", "e57747a51d31d736"),
        (3, 8, 0.02, "tight", "47232a4d758a7579"),
    ],
)
def test_narrow_picks_keep_the_allocations(monkeypatch, seed, n, eps, regime, digest):
    # digests of the int64 picks' allocations, intervals and objective
    assert dp_allocations(monkeypatch, generate_instance(seed, n, 1.0, regime), eps) == digest


def test_picks_fit_uint16_under_the_cap():
    assert np.min_scalar_type(relaxation.DP_CELL_CAP) == np.uint16


def test_wide_rows_keep_the_peak_under_int64_picks():
    # 120 commodities each wanting more than the whole budget fill every row:
    # 388 cells, so int64 picks alone would take 120 * 388 * 8 = 372,480 bytes
    n, eps = 120, 0.9
    instance = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(n)), 0.01)
    cells = math.ceil(2 * n / eps) + n + 1
    tracemalloc.start()
    try:
        relaxation.solve_sosi_dp(instance, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * cells * 8 / 2
