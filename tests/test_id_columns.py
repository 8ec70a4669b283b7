"""Stationary policies and their reports held as ids plus a float column.

A SosiPolicy keeps its intervals as an IdColumn, whether it was built from
a column or from a dict, and evaluate_sosi, evaluate and combine_reports
key their reports' average inventories the same way. These tests hold a
column-built policy to the dict-built one, and combine_reports to its
dict-built form, bit for bit, check the errors they raise, and check that a
low-dense sub2 solve builds no per-commodity dict on its way.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp import pipeline
from ewlsp.cli import generate_instance
from ewlsp.errors import PolicyPartError
from ewlsp.evaluator import EvalReport, combine_reports, evaluate, evaluate_sosi
from ewlsp.model import Commodity, CyclicPolicy, IdColumn, Instance, SosiPolicy, parse_policy, policy_entry
from ewlsp.pipeline import Block, PipelineConfig, solve_sub2

from test_stationary_columns import exact, instances, scalar_evaluate_sosi

CFG = PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10)


def column_and_dict(ids, T):
    """The same policy built from a column and from a dict."""
    column = np.array(T, dtype=float)
    column.flags.writeable = False
    return SosiPolicy(IdColumn(ids, column)), SosiPolicy(dict(zip(ids, T)))


# ---------------------------------------------------------------------------
# The mapping
# ---------------------------------------------------------------------------


def test_id_column_builds_its_dict_on_first_item_access():
    mapping = IdColumn((5, 3, 9), [1.5, 0.25, 4.0])
    assert list(mapping) == [5, 3, 9] and len(mapping) == 3
    assert mapping.column.tolist() == [1.5, 0.25, 4.0]
    assert mapping._dict is None
    assert mapping[3] == 0.25
    assert mapping._dict == {5: 1.5, 3: 0.25, 9: 4.0}
    assert 9 in mapping and 4 not in mapping
    assert list(mapping.items()) == [(5, 1.5), (3, 0.25), (9, 4.0)]
    assert mapping == {9: 4.0, 5: 1.5, 3: 0.25} and {5: 1.5, 3: 0.25, 9: 4.0} == mapping
    assert mapping != {5: 1.5, 3: 0.25}
    with pytest.raises(KeyError):
        mapping[4]
    assert repr(mapping) == "IdColumn({5: 1.5, 3: 0.25, 9: 4.0})"


def test_id_column_is_read_only_and_copies_a_writeable_column():
    source = np.array([1.0, 2.0])
    mapping = IdColumn([0, 1], source)
    assert mapping.column is not source and not mapping.column.flags.writeable
    source[0] = 7.0
    assert mapping[0] == 1.0
    with pytest.raises(ValueError):
        mapping.column[0] = 3.0
    frozen = mapping.column
    assert IdColumn((0, 1), frozen).column is frozen
    with pytest.raises(ValueError, match="expected a column of 3 values"):
        IdColumn((0, 1, 2), frozen)


# ---------------------------------------------------------------------------
# SosiPolicy
# ---------------------------------------------------------------------------


def test_column_built_policy_equals_the_dict_built_one():
    from_column, from_dict = column_and_dict([4, 1, 7], [0.5, 2.0, 1.25])
    assert isinstance(from_dict.intervals_T, IdColumn)
    assert from_column == from_dict
    assert exact(from_column) == exact(from_dict)
    assert list(from_column.schedules.items()) == list(from_dict.schedules.items())
    assert from_column != SosiPolicy({4: 0.5, 1: 2.0, 7: 1.5})
    # a checked column is kept as given
    intervals = from_column.intervals_T
    assert SosiPolicy(intervals).intervals_T is intervals


def test_scaled_is_bit_equal_to_scaling_each_interval():
    rng = np.random.default_rng(5)
    T = (10.0 ** rng.uniform(-3.0, 3.0, size=50)).tolist()
    ids = rng.permutation(50).tolist()
    phases = {ids[0]: 0.5 * T[0], ids[7]: 0.1 * T[7]}
    for factor in (1.0 / 1.0000001, 0.73, 1.0 / 3.0, 2.0):
        policy = SosiPolicy(IdColumn(ids, T), phases)
        scaled = policy.scaled(factor)
        assert isinstance(scaled.intervals_T, IdColumn) and scaled.intervals_T.ids == tuple(ids)
        assert exact(scaled) == exact({cid: t * factor for cid, t in zip(ids, T)})
        assert scaled.phases == {cid: phi * factor for cid, phi in phases.items()}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0])
@pytest.mark.parametrize("at", [0, 2])
def test_bad_interval_in_a_column_raises_as_in_a_dict(bad, at):
    ids, T = [5, 3, 9, 1], [1.0, 2.0, 3.0, math.nan]
    T[at] = bad
    with pytest.raises(PolicyPartError) as expected:
        SosiPolicy(dict(zip(ids, T)))
    with pytest.raises(PolicyPartError) as got:
        SosiPolicy(IdColumn(ids, T))
    assert (got.value.part, str(got.value)) == (expected.value.part, str(expected.value))
    assert got.value.part == ("intervals", ids[at])


def test_repeated_id_in_a_column_is_named():
    with pytest.raises(PolicyPartError) as got:
        SosiPolicy(IdColumn([5, 3, 5, 3], [1.0, 2.0, 3.0, 4.0]))
    assert got.value.part == ("intervals", 5)
    assert str(got.value) == "commodity 5 has two intervals"
    # the first problem in key order is named, a bad value before a repeat
    with pytest.raises(PolicyPartError, match="interval for commodity 3 must be > 0, got -1.0"):
        SosiPolicy(IdColumn([5, 3, 5], [1.0, -1.0, 3.0]))
    with pytest.raises(PolicyPartError, match="at least one commodity"):
        SosiPolicy(IdColumn((), ()))


def test_column_built_policy_is_written_and_read_back_like_the_dict_built_one():
    from_column, from_dict = column_and_dict([12, 2, 30], [0.125, 3.0, 1.0 / 3.0])
    assert policy_entry(from_column) == policy_entry(from_dict)
    assert list(policy_entry(from_column)["sosi"]["intervals"]) == ["2", "12", "30"]
    entry = Block(ids=(2, 12, 30), sosi=from_column).to_json()
    parsed = parse_policy(json.dumps(entry))
    assert parsed == from_dict and list(parsed.intervals_T) == [2, 12, 30]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(inst=instances(), data=st.data())
def test_column_and_dict_built_policies_give_bit_equal_reports(inst, data):
    """evaluate_sosi, evaluate and policy_entry of a policy built from a
    column and of the same policy built from a dict, over ids in any order,
    a subset of the instance's, with and without phases; evaluate_sosi also
    against its scalar loop."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keys = data.draw(st.permutations(inst.ids()))
    keys = keys[: data.draw(st.integers(1, len(keys)))]
    T = (10.0 ** rng.uniform(-2.0, 2.0, size=len(keys))).tolist()
    phases = {}
    if data.draw(st.booleans()):
        phases = {cid: t * u for cid, t, u in zip(keys, T, rng.uniform(0.0, 0.999, size=len(keys)).tolist()) if u > 0.5}
    from_column = SosiPolicy(IdColumn(keys, T), phases)
    from_dict = SosiPolicy(dict(zip(keys, T)), phases)
    assert exact(evaluate_sosi(from_column, inst)) == exact(scalar_evaluate_sosi(from_dict, inst))
    for report in (evaluate_sosi, evaluate):
        got, expected = report(from_column, inst), report(from_dict, inst)
        assert isinstance(got.avg_inventory, IdColumn)
        assert exact(got) == exact(expected)
        assert got.to_json() == expected.to_json()
    assert policy_entry(from_column) == policy_entry(from_dict)
    factor = data.draw(st.sampled_from([1.0 / 1.0000001, 0.5, 0.7]))
    assert exact(evaluate_sosi(from_column.scaled(factor), inst)) == exact(evaluate_sosi(from_dict.scaled(factor), inst))


def dict_combine_reports(reports, instance):
    """combine_reports as it was written on a dict of average inventories."""
    ordering = holding = v_max = 0.0
    avg_inventory = {}
    for rep in reports:
        ordering += rep.ordering_cost_rate
        holding += rep.holding_cost_rate
        v_max += rep.v_max
        if not avg_inventory.keys().isdisjoint(rep.avg_inventory):
            overlap = avg_inventory.keys() & rep.avg_inventory.keys()
            raise ValueError(f"reports overlap on commodities {sorted(overlap)}")
        avg_inventory.update(rep.avg_inventory)
    return EvalReport(ordering, holding, v_max, avg_inventory, instance.V)


def test_column_backed_reports_combine_bit_equal_to_combine_reports():
    inst = generate_instance(3, 60, 1.0, "tight")
    ids = inst.ids()
    T = (np.random.default_rng(3).uniform(0.1, 3.0, size=60)).tolist()
    parts = [evaluate_sosi(SosiPolicy(IdColumn(ids[a:b], T[a:b])), inst) for a, b in ((0, 25), (40, 60), (25, 40))]
    expected = dict_combine_reports(parts, inst)
    got = combine_reports(iter(parts), inst)
    assert isinstance(got.avg_inventory, IdColumn) and got.avg_inventory._dict is None
    assert exact(got) == exact(expected)
    # a lone report keeps its averages as they are
    lone = combine_reports(parts[:1], inst)
    assert lone.avg_inventory is parts[0].avg_inventory
    # no parts at all: the report of an empty union
    assert exact(combine_reports([], inst)) == exact(dict_combine_reports([], inst))


def test_column_backed_reports_that_overlap_raise_the_error_of_combine_reports():
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(6)), 1.0)
    parts = [
        evaluate_sosi(SosiPolicy(IdColumn((0, 1), (1.0, 2.0))), inst),
        evaluate_sosi(SosiPolicy(IdColumn((2, 3), (1.0, 2.0))), inst),
        evaluate_sosi(SosiPolicy(IdColumn((4, 3, 1), (1.0, 2.0, 0.5))), inst),
    ]
    with pytest.raises(ValueError) as expected:
        dict_combine_reports(parts, inst)
    with pytest.raises(ValueError) as got:
        combine_reports(parts, inst)
    assert str(got.value) == str(expected.value) == "reports overlap on commodities [1, 3]"


def test_a_cyclic_report_among_the_parts_is_read_into_the_column():
    inst = Instance(tuple(Commodity(i, 1.0, 1.0, 1.0) for i in range(3)), 1.0)
    parts = [evaluate_sosi(SosiPolicy(IdColumn((2, 0), (1.0, 2.0))), inst), evaluate(CyclicPolicy(1.0, {1: ((0.0, 1.0),)}), inst)]
    assert isinstance(parts[1].avg_inventory, IdColumn)
    got = combine_reports(parts, inst)
    assert exact(got) == exact(dict_combine_reports(parts, inst))
    lone = combine_reports(parts[1:], inst)
    assert lone.avg_inventory is parts[1].avg_inventory and exact(lone) == exact(parts[1])


# ---------------------------------------------------------------------------
# A low-dense solve
# ---------------------------------------------------------------------------


def test_low_dense_solve_builds_no_per_commodity_dict(monkeypatch):
    """The reference, its report, the relaxation block, its scaled copy and
    the solve's report stay ids plus a column: no IdColumn builds its
    dict."""
    reports = []
    evaluate_sosi_ = pipeline.evaluate_sosi

    def recording(policy, instance):
        reports.append((policy, evaluate_sosi_(policy, instance)))
        return reports[-1][1]

    def refuse(self):
        raise AssertionError("an IdColumn built its dict")

    monkeypatch.setattr(pipeline, "evaluate_sosi", recording)
    monkeypatch.setattr(IdColumn, "_mapping", refuse)
    for regime in ("tight", "loose"):
        reports.clear()
        inst = generate_instance(1, 400, 1.0, regime)
        assembled, report, diag = solve_sub2(inst, CFG, seed=0)
        assert diag["scenario"] == "low-dense"
        (block,) = assembled.blocks
        assert isinstance(block.sosi.intervals_T, IdColumn) and block.sosi.intervals_T.ids == inst.columns.ids
        assert isinstance(report.avg_inventory, IdColumn)
        assert len(reports) >= 2  # the reference and the block, once more when scaled
        for policy, part in reports:
            assert isinstance(policy.intervals_T, IdColumn) and isinstance(part.avg_inventory, IdColumn)
    monkeypatch.undo()
    assert report.avg_inventory == {cid: T / 2.0 for cid, T in block.sosi.intervals_T.items()}
