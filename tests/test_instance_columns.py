"""Instances held as their columns.

An Instance is its ids, read-only float64 K, H and gamma columns and its
capacity. These tests hold a column-built instance to the one built from the
equal Commodity tuple, check that the generator, the parser and the solvers
that read columns build no Commodity, pin the generator's files, and pin the
parser's first-error rule.
"""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.cli import generate_instance, main
from ewlsp.couples import CoupleInput
from ewlsp.errors import SchemaError
from ewlsp.model import Commodity, Instance, parse_instance, serialize_instance
from ewlsp.pipeline import PipelineConfig, solve_sub2, sub_instance
from ewlsp.relaxation import solve_sosi_relaxation
from ewlsp.two_approx import solve_two_approx

BAD_VALUES = [0.0, -1.5, math.nan, math.inf, -math.inf, 0, -10**20]


@st.composite
def column_cases(draw):
    """ids, K, H, gamma lists and a capacity; now and then one bad value, a
    repeated id or a bad capacity, and ids 0..n-1 in order half the time.
    Values are floats or ints, some past the int64 range."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        ids = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=not draw(st.booleans())))
    positive = st.floats(min_value=1e-300, max_value=1e300) | st.integers(1, 10**30)
    K, H, gamma = (draw(st.lists(positive, min_size=n, max_size=n)) for _ in range(3))
    if n and draw(st.booleans()):
        column = draw(st.sampled_from([K, H, gamma]))
        column[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_VALUES))
    capacity = draw(positive | st.sampled_from(BAD_VALUES))
    return ids, K, H, gamma, capacity


def built(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


@settings(deadline=None)
@given(case=column_cases(), arrays=st.booleans(), data=st.data())
def test_column_built_instance_matches_the_commodity_built_one(case, arrays, data):
    ids, K, H, gamma, capacity = case
    columns = [np.array(values, dtype=float) for values in (K, H, gamma)] if arrays else [K, H, gamma]
    rows = [column.tolist() for column in columns] if arrays else columns
    by_rows, row_error = built(lambda: Instance(tuple(map(Commodity, ids, *rows)), capacity))
    by_columns, column_error = built(lambda: Instance.from_columns(ids, *columns, capacity))
    assert column_error == row_error
    if row_error is not None:
        return
    assert by_columns == by_rows and hash(by_columns) == hash(by_rows)
    assert by_columns.n == by_rows.n == len(ids)
    assert by_columns.ids() == by_rows.ids() == ids
    a, b = by_columns.columns, by_rows.columns
    assert a.ids == b.ids
    for x, y in ((a.K, b.K), (a.H, b.H), (a.gamma, b.gamma)):
        assert x.dtype == y.dtype == np.float64 and not x.flags.writeable and not y.flags.writeable
        assert x.tobytes() == y.tobytes()
    # Instance(commodities) keeps the objects it is given, an int value as an int
    as_floats = [tuple(map(float, (c.K, c.H, c.gamma))) for c in by_rows.commodities]
    assert [(c.K, c.H, c.gamma) for c in by_columns.commodities] == as_floats
    assert [c.id for c in by_columns.commodities] == ids
    order = data.draw(st.permutations(ids))
    assert by_columns.positions(order).tolist() == by_rows.positions(order).tolist()
    assert by_columns.positions(ids).tolist() == list(range(len(ids)))
    for cid in (*ids, 21, -21):
        assert (cid in by_columns) == (cid in by_rows)
    assert serialize_instance(by_columns) == serialize_instance(by_rows)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["K", "H", "gamma"])
def test_a_bad_value_is_named_as_commodity_names_it(name, bad):
    values = {key: [1.0, 2.0, 3.0] for key in ("K", "H", "gamma")}
    values[name][1] = bad
    with pytest.raises(ValueError) as caught:
        Instance.from_columns([4, 5, 6], values["K"], values["H"], values["gamma"], 1.0)
    assert str(caught.value) == f"commodity 5: {name} must be finite and > 0, got {bad!r}"


def test_bad_ids_and_shapes_are_refused():
    with pytest.raises(ValueError, match=r"^commodity id must be an integer, got 1\.0$"):
        Instance.from_columns([0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match=r"^duplicate commodity ids: \[3, 3\]$"):
        Instance.from_columns([3, 3], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match=r"^expected columns of 2 values"):
        Instance.from_columns([0, 1], [1.0], [1.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match=r"^commodity 1: K must be finite and > 0, got 'x'$"):
        Instance.from_columns([0, 1], [1.0, "x"], [1.0, 1.0], [1.0, 1.0], 1.0)


def test_ints_past_int64_are_read_as_floats():
    inst = Instance.from_columns([0, 1], [10**20, 1], [1, 2**70], [3.0, 10**30], 10**25)
    assert inst == Instance((Commodity(0, 10**20, 1, 3.0), Commodity(1, 1, 2**70, 10**30)), 10**25)
    assert inst.columns.K.tolist() == [1e20, 1.0] and inst.columns.gamma.tolist() == [3.0, 1e30]
    assert not any(column.flags.writeable for column in (inst.columns.K, inst.columns.H, inst.columns.gamma))
    with pytest.raises(ValueError, match=r"^commodity 1: H must be finite and > 0, got -100000000000000000000$"):
        Instance.from_columns([0, 1], [10**20, 1], [1, -10**20], [1, 1], 1.0)


def test_columns_are_copied_and_the_instance_is_frozen():
    K = np.array([1.0, 2.0])
    inst = Instance.from_columns(np.arange(2), K, K, K, 1.0)
    K[0] = 9.0
    assert inst.columns.K.tolist() == [1.0, 2.0] and not inst.columns.K.flags.writeable
    assert inst.columns.ids == (0, 1) and type(inst.columns.ids[0]) is int
    assert pickle.loads(pickle.dumps(inst)) == inst and hash(copy.deepcopy(inst)) == hash(inst)
    with pytest.raises(AttributeError):
        inst.capacity_V = 2.0


def test_readers_of_columns_build_no_commodity_and_no_dict():
    inst = generate_instance(3, 50, 1.0, "tight")
    assert inst == generate_instance(3, 50, 1.0, "tight") and inst.n == 50 and inst.ids() == list(range(50))
    assert 7 in inst and 50 not in inst and -1 not in inst
    assert inst.positions(inst.columns.ids).tolist() == list(range(50))
    assert inst.position(12) == 12
    with pytest.raises(KeyError, match="no commodity with id 50"):
        inst.position(50)
    assert "commodities" not in vars(inst) and "_position" not in vars(inst)
    assert inst.positions([9, 2, 40]).tolist() == [9, 2, 40]
    with pytest.raises(KeyError, match="no commodity with id 50"):
        inst.positions([1, 50])
    cols = inst.columns
    assert inst.commodity(12) == Commodity(12, cols.K[12].item(), cols.H[12].item(), cols.gamma[12].item())
    assert inst.commodities[12] is inst.commodity(12)  # built once and kept


def test_ids_out_of_order_are_looked_up():
    inst = Instance.from_columns([7, 3], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], 1.0)
    assert 3 in inst and 0 not in inst and "_position" not in vars(inst)
    assert inst.positions([3, 7]).tolist() == [1, 0] and inst.position(3) == 1
    with pytest.raises(KeyError, match="no commodity with id 0"):
        inst.position(0)
    assert inst.commodity(7).K == 1.0


# ---------------------------------------------------------------------------
# No Commodity on the column paths
# ---------------------------------------------------------------------------


def test_generator_parser_and_column_solvers_build_no_commodity(monkeypatch):
    built_rows = []
    check = Commodity.__post_init__

    def counted(self):
        built_rows.append(self.id)
        check(self)

    monkeypatch.setattr(Commodity, "__post_init__", counted)
    for regime in ("loose", "tight", "dense-heavy", "dense-ladder"):
        inst = generate_instance(5, 300, 1.0, regime)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        solve_sosi_relaxation(inst)
        solve_two_approx(inst)
        sub_instance(inst, [3, 1, 4])
    loose = generate_instance(5, 400, 1.0, "loose")
    _, report, diag = solve_sub2(loose, PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10), seed=1)
    assert report.feasible and diag["scenario"] == "low-dense"
    assert built_rows == []
    # a solve with couples makes no CoupleInput and so no Commodity: its
    # pairs are held to the couple rules on arrays (couples.pair_powers) and
    # its templates are built from (k, T_A) and the pairs' ids
    inputs = []
    check_input = CoupleInput.__post_init__

    def counted_input(self):
        inputs.append((self.commodity_A.id, self.commodity_B.id))
        check_input(self)

    monkeypatch.setattr(CoupleInput, "__post_init__", counted_input)
    dense = generate_instance(5, 300, 1.0, "dense-heavy")
    _, report, diag = solve_sub2(dense, PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10), seed=1)
    assert report.feasible and diag["scenario"] == "difficult" and diag["dense"]["couples"] > 0
    assert "commodities" not in vars(dense)
    assert inputs == [] and built_rows == []
    # nor does a ladder solve, whose couples have k >= 1
    ladder = generate_instance(2, 1000, 1.0, "dense-ladder")
    assembled, report, diag = solve_sub2(ladder, PipelineConfig(), seed=0)
    assert report.feasible and diag["scenario"] == "difficult"
    assert any(case > 1 for b in assembled.blocks if b.couples is not None for case in b.couples.cases)
    assert inputs == [] and built_rows == []
    built_rows.clear()
    assert len(loose.commodities) == 400 and built_rows == list(range(400))  # a scalar reader builds them


# ---------------------------------------------------------------------------
# Pinned generator files
# ---------------------------------------------------------------------------

# sha256 of `ewlsp gen --seed 11 --n 2000 --regime <regime>`, taken when each
# instance was still built one Commodity at a time
GEN_DIGESTS = {
    "loose": "5c8f79e3289166bbb6e196c46553bb0269035d05bccc21bcd3f8eef7690b6d5c",
    "tight": "2b48b2227f08ecf93b9de297d209b297188da3a136fe306f88fcf615d7cdd924",
    "dense-heavy": "ffc0d7bb4adbbc803368fdc2d8cdf40805d5fa8a26e927d3d5e99fd948ccd9e5",
    "dense-ladder": "293523530286e90c9648f93b780917934e2aa16a1c4bfcdf744bb790e7ce672b",
}


@pytest.mark.parametrize("regime", sorted(GEN_DIGESTS))
def test_generated_file_is_pinned(regime, tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "11", "--n", "2000", "--regime", regime, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GEN_DIGESTS[regime]
    assert serialize_instance(parse_instance(data)) == data


# ---------------------------------------------------------------------------
# The parser's first error
# ---------------------------------------------------------------------------

def good(k: int) -> str:
    return '{"id": %d, "K": 1.0, "H": 1.0, "gamma": 1.0}' % k


def negative_K(k: int) -> str:
    return '{"id": %d, "K": -1.0, "H": 1.0, "gamma": 1.0}' % k


# an entry at position k > 0 that breaks a structural rule, and its message
STRUCTURAL = {
    "missing key": (lambda k: '{"id": %d, "K": 1.0, "H": 1.0}' % k, "{path}.gamma: missing"),
    "non-integer id": (lambda k: '{"id": "%d", "K": 1.0, "H": 1.0, "gamma": 1.0}' % k, "{path}.id: expected an integer"),
    "duplicate id": (lambda k: good(0), "{path}.id: duplicate commodity id 0"),
    "not an object": (lambda k: "[%d]" % k, "{path}: expected an object"),
}


def parse_entries(entries) -> str:
    with pytest.raises(SchemaError) as caught:
        parse_instance('{"capacity": 1.0, "commodities": [%s]}' % ", ".join(entries))
    return str(caught.value)


@pytest.mark.parametrize("kind", sorted(STRUCTURAL))
def test_a_value_error_wins_over_a_later_structural_error(kind):
    entry, _ = STRUCTURAL[kind]
    message = parse_entries([good(0), negative_K(1), good(2), entry(3)])
    assert message == "$.commodities[1]: commodity 1: K must be finite and > 0, got -1.0"


@pytest.mark.parametrize("kind", sorted(STRUCTURAL))
def test_a_structural_error_wins_over_a_later_value_error(kind):
    entry, expected = STRUCTURAL[kind]
    message = parse_entries([good(0), entry(1), negative_K(2)])
    assert message == expected.format(path="$.commodities[1]")


def test_capacity_is_checked_after_the_entries():
    with pytest.raises(SchemaError) as caught:
        parse_instance('{"capacity": -1.0, "commodities": [%s]}' % negative_K(0))
    assert str(caught.value) == "$.commodities[0]: commodity 0: K must be finite and > 0, got -1.0"
    with pytest.raises(SchemaError) as caught:
        parse_instance('{"capacity": -1.0, "commodities": [%s]}' % good(0))
    assert str(caught.value) == "$.capacity: capacity must be finite and > 0, got -1.0"


def test_integer_values_parse_as_floats():
    inst = parse_instance('{"capacity": 2, "commodities": [{"id": 5, "K": 1, "H": 2, "gamma": 3}]}')
    assert inst.columns.K.tolist() == [1.0] and type(inst.commodity(5).H) is float and inst.V == 2.0
    assert serialize_instance(inst) == b'{"capacity": 2.0, "commodities": [{"H": 2.0, "K": 1.0, "gamma": 3.0, "id": 5}]}'
