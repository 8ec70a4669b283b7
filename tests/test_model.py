import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.errors import IncommensurateIntervals, SchemaError
from ewlsp.evaluator import evaluate
from ewlsp.model import (
    Commodity,
    CyclicPolicy,
    Instance,
    SosiPolicy,
    parse_instance,
    parse_policies,
    parse_policy,
    serialize_instance,
    serialize_policy,
    sosi_to_cyclic,
    sosi_to_json,
)

from conftest import make_instance

FIVE = make_instance([(1.0, 1.0, 1.0)] * 5, 10.0)  # ids 0..4


class TestInvariants:
    @pytest.mark.parametrize("field", ["K", "H", "gamma"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_commodity_rejects_nonpositive(self, field, value):
        kwargs = {"K": 1.0, "H": 1.0, "gamma": 1.0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            Commodity(0, kwargs["K"], kwargs["H"], kwargs["gamma"])

    def test_instance_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance((Commodity(0, 1, 1, 1), Commodity(0, 2, 2, 2)), 1.0)

    def test_instance_rejects_empty_and_bad_capacity(self):
        with pytest.raises(ValueError):
            Instance((), 1.0)
        with pytest.raises(ValueError):
            Instance((Commodity(0, 1, 1, 1),), 0.0)

    def test_sosi_phase_range(self):
        with pytest.raises(ValueError):
            SosiPolicy({0: 1.0}, {0: 1.0})
        SosiPolicy({0: 1.0}, {0: 0.999})

    def test_sosi_schedules_are_one_order_per_commodity(self):
        p = SosiPolicy({3: 2.0, 1: 0.5}, {3: 1.5})
        assert dict(p.schedules) == {3: ((1.5, 2.0),), 1: ((0.0, 0.5),)}
        assert list(p.schedules) == [3, 1]
        assert p.schedules is p.schedules  # built once
        with pytest.raises(TypeError):
            p.schedules[1] = ((0.0, 1.0),)
        assert p == SosiPolicy({3: 2.0, 1: 0.5}, {3: 1.5})

    def test_cyclic_conservation(self):
        with pytest.raises(ValueError, match="sum"):
            CyclicPolicy(1.0, {0: ((0.0, 0.5),)})
        CyclicPolicy(1.0, {0: ((0.0, 1.0),)})

    def test_cyclic_ordering_and_range(self):
        with pytest.raises(ValueError, match="increasing"):
            CyclicPolicy(1.0, {0: ((0.5, 0.5), (0.5, 0.5))})
        with pytest.raises(ValueError, match="\\[0, tau\\)"):
            CyclicPolicy(1.0, {0: ((1.0, 1.0),)})
        with pytest.raises(ValueError, match="at least one order"):
            CyclicPolicy(1.0, {0: ()})

    @given(
        K=st.floats(-2, 2),
        H=st.floats(-2, 2),
        g=st.floats(-2, 2),
    )
    @settings(max_examples=60)
    def test_adversarial_construction(self, K, H, g):
        if K > 0 and H > 0 and g > 0:
            Commodity(0, K, H, g)
        else:
            with pytest.raises(ValueError):
                Commodity(0, K, H, g)


class TestSosiToCyclic:
    def test_single_interval(self):
        p = sosi_to_cyclic(SosiPolicy({0: 1.0}))
        assert p.tau == 1.0
        assert p.schedules[0] == ((0.0, 1.0),)

    def test_pair_with_phase(self):
        # intervals (1, 1/2), second phased by 1/3: orders at 1/3 and 5/6
        p = sosi_to_cyclic(SosiPolicy({0: 1.0, 1: 0.5}, {1: 1.0 / 3.0}))
        assert p.tau == pytest.approx(1.0)
        times = [t for t, _ in p.schedules[1]]
        assert times == pytest.approx([1.0 / 3.0, 5.0 / 6.0])
        assert all(q == pytest.approx(0.5) for _, q in p.schedules[1])

    def test_irrational_ratio_rejected(self):
        with pytest.raises(IncommensurateIntervals):
            sosi_to_cyclic(SosiPolicy({0: 1.0, 1: math.sqrt(2) / 3.0}))

    @given(
        nums=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_expansion_matches_closed_form(self, nums, data):
        # random small-fraction intervals; expansion must reproduce K/T + H*T
        params = [(1.0 + 0.5 * i, 1.0 + 0.25 * i, 1.0) for i in range(len(nums))]
        inst = make_instance(params, 1e9)
        T = {i: n / d for i, (n, d) in enumerate(nums)}
        policy = sosi_to_cyclic(SosiPolicy(T), max_orders=100_000)
        rep = evaluate(policy, inst)
        expected = sum(c.K / T[c.id] + c.H * T[c.id] for c in inst.commodities)
        assert rep.total_cost_rate == pytest.approx(expected, rel=1e-9)


class TestSerialization:
    def test_parse_example(self):
        inst = parse_instance(b'{"capacity":1.0,"commodities":[{"id":0,"K":1,"H":1,"gamma":1}]}')
        assert inst.capacity_V == 1.0
        assert inst.commodities[0].K == 1.0

    def test_negative_K_rejected(self):
        with pytest.raises(ValueError, match="K"):
            parse_instance(b'{"capacity":1.0,"commodities":[{"id":0,"K":-1,"H":1,"gamma":1}]}')

    def test_schema_error_paths(self):
        with pytest.raises(SchemaError, match=r"\$\.capacity"):
            parse_instance(b'{"commodities":[]}')
        with pytest.raises(SchemaError, match=r"\$\.commodities\[0\]\.gamma"):
            parse_instance(b'{"capacity":1,"commodities":[{"id":0,"K":1,"H":1}]}')
        with pytest.raises(SchemaError, match=r"\$\.commodities\[0\]\.id"):
            parse_instance(b'{"capacity":1,"commodities":[{"id":"x","K":1,"H":1,"gamma":1}]}')

    def test_instance_round_trip(self):
        raw = b'{"capacity": 2.5, "commodities": [{"id": 3, "K": 1.5, "H": 0.25, "gamma": 4.0}]}'
        inst = parse_instance(raw)
        again = parse_instance(serialize_instance(inst))
        assert inst == again
        assert serialize_instance(inst) == serialize_instance(again)

    def test_policy_round_trip(self):
        p = CyclicPolicy(1.0, {0: ((0.0, 0.25), (0.25, 0.75)), 1: ((0.5, 1.0),)})
        again = parse_policy(serialize_policy(p))
        assert p == again

    def test_block_union_parses_into_its_blocks(self):
        doc = {
            "blocks": [
                {"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}, "provenance": "class1:sosi"},
                {"tau": 2.0, "schedules": {"1": [[0.0, 1.0], [1.0, 1.0]], "2": [[0.5, 2.0]]}, "provenance": "x"},
            ],
            "diagnostics": {"seed": 3},
            "summary": {"feasible": True},
        }
        blocks = parse_policies(json.dumps(doc), FIVE)
        assert [sorted(b.schedules) for b in blocks] == [[0], [1, 2]]
        assert [b.tau for b in blocks] == [1.0, 2.0]
        single = parse_policies(b'{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}, "kind": "cyclic"}', FIVE)
        assert single == [parse_policy(b'{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}')]

    def test_sosi_entry_round_trip(self):
        p = SosiPolicy({10: 2.0, 2: 0.25, 7: 1.0}, {10: 0.5})
        entry = {"sosi": sosi_to_json(p), "provenance": "class1:sosi"}
        assert entry["sosi"] == {"intervals": {"2": 0.25, "7": 1.0, "10": 2.0}, "phases": {"10": 0.5}}
        again = parse_policy(json.dumps(entry))
        assert again == p
        assert parse_policy(b'{"sosi": {"intervals": {"0": 1}}}') == SosiPolicy({0: 1.0})
        doc = {"blocks": [{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}, {"sosi": {"intervals": {"3": 2.0, "1": 1.0}}}]}
        cyclic, sosi = parse_policies(json.dumps(doc), FIVE)
        assert sorted(cyclic.schedules) == [0]
        assert sosi == SosiPolicy({3: 2.0, 1: 1.0})

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"sosi": None}, r"\$\.sosi: expected an object"),
            ({"sosi": {}}, r"\$\.sosi\.intervals: expected an object"),
            ({"sosi": {"intervals": {}}}, r"\$\.sosi\.intervals: SOSI policy needs at least one commodity"),
            ({"sosi": {"intervals": {"01": 1.0}}}, r"\$\.sosi\.intervals\.01: key must be an integer id"),
            ({"sosi": {"intervals": {"0": True}}}, r"\$\.sosi\.intervals\.0: expected a number"),
            ({"sosi": {"intervals": {"0": 1e400}}}, r"\$\.sosi\.intervals\.0: interval"),
            ({"sosi": {"intervals": {"0": 1.0, "1": float("nan")}}}, r"\$\.sosi\.intervals\.1: interval"),
            ({"sosi": {"intervals": {"0": 1.0}, "phases": []}}, r"\$\.sosi\.phases: expected an object"),
            ({"sosi": {"intervals": {"0": 1.0}, "phases": {"0": None}}}, r"\$\.sosi\.phases\.0: expected a number"),
            ({"sosi": {"intervals": {"0": 1.0}, "phases": {"0": -0.5}}}, r"\$\.sosi\.phases\.0: phase"),
            ({"sosi": {"intervals": {"0": 1.0}, "phases": {"4": 0.5}}}, r"\$\.sosi\.phases\.4: phase"),
            ({"sosi": {"intervals": {"0": 1.0}}, "schedules": {}}, r"\$: expected either"),
            (
                {"blocks": [{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}, {"sosi": {"intervals": {"1": 1.0, "9": 1.0}}}]},
                r"\$\.blocks\[1\]\.sosi\.intervals\.9: the instance has no commodity 9",
            ),
            (
                {"blocks": [{"sosi": {"intervals": {"2": 1.0, "4": 1.0}}}, {"sosi": {"intervals": {"4": 2.0}}}]},
                r"\$\.blocks\[1\]\.sosi\.intervals\.4: commodity 4 is also in \$\.blocks\[0\]",
            ),
        ],
    )
    def test_sosi_entry_schema_errors(self, doc, path):
        with pytest.raises(SchemaError, match=path):
            parse_policies(json.dumps(doc), FIVE)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"blocks": {}}, r"\$\.blocks: expected an array"),
            ({"blocks": [3]}, r"\$\.blocks\[0\]: expected an object"),
            ({"blocks": [{"tau": 1.0, "schedules": {}}, {"schedules": {}}]}, r"\$\.blocks\[1\]\.tau"),
            ({"blocks": [{"tau": 1.0, "schedules": {"0": [[0.0]]}}]}, r"\$\.blocks\[0\]\.schedules\.0\[0\]"),
            ({"blocks": [{"tau": -1.0, "schedules": {}}]}, r"\$\.blocks\[0\]\.tau"),
            (
                {"blocks": [{"tau": 1.0, "schedules": {"4": [[0.0, 1.0]]}}, {"tau": 1.0, "schedules": {"4": [[0.0, 1.0]]}}]},
                r"\$\.blocks\[1\]\.schedules\.4: commodity 4 is also in \$\.blocks\[0\]",
            ),
        ],
    )
    def test_block_union_schema_errors(self, doc, path):
        with pytest.raises(SchemaError, match=path):
            parse_policies(json.dumps(doc), FIVE)

    def test_policy_schema_errors(self):
        with pytest.raises(SchemaError, match=r"\$\.tau"):
            parse_policy(b'{"schedules": {}}')
        with pytest.raises(SchemaError, match=r"\$\.schedules\.0\[0\]"):
            parse_policy(b'{"tau": 1.0, "schedules": {"0": [[0.0]]}}')

    @pytest.mark.parametrize(
        "doc, path",
        [
            ('{"tau": true, "schedules": {}}', r"\$\.tau"),
            ('{"tau": -1.0, "schedules": {}}', r"\$\.tau"),
            ('{"tau": 1.0, "schedules": {"0": [[null, 1.0]]}}', r"\$\.schedules\.0\[0\]\[0\]"),
            ('{"tau": 1.0, "schedules": {"0": [["0.0", 1.0]]}}', r"\$\.schedules\.0\[0\]\[0\]"),
            ('{"tau": 1.0, "schedules": {"0": [[0.0, false]]}}', r"\$\.schedules\.0\[0\]\[1\]"),
            ('{"tau": 1.0, "schedules": {"0": [[0.0, 1e400]]}}', r"\$\.schedules\.0"),
            ('{"tau": 1.0, "schedules": {"01": [[0.0, 1.0]]}}', r"\$\.schedules\.01"),
            ('{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]], "1": [[1.5, 1.0]]}}', r"\$\.schedules\.1"),
            ('{"tau": 1.0, "schedules": {"0": [[0.0, NaN]]}}', r"\$\.schedules\.0"),
            ('{"tau": 1.0, "schedules": {"0": [[0.0, 1e308], [0.5, 1e308]]}}', r"\$\.schedules\.0"),
        ],
    )
    def test_policy_field_errors(self, doc, path):
        with pytest.raises(SchemaError, match=path):
            parse_policy(doc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ('{"capacity": -1, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}', r"\$\.capacity"),
            ('{"capacity": 1, "commodities": []}', r"\$\.commodities"),
            ('{"capacity": 1, "commodities": [{"id": 0, "K": null, "H": 1, "gamma": 1}]}', r"\$\.commodities\[0\]\.K"),
            ('{"capacity": 1, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 0}]}', r"\$\.commodities\[0\]"),
            (
                '{"capacity": 1, "commodities": [{"id": 4, "K": 1, "H": 1, "gamma": 1},'
                ' {"id": 4, "K": 1, "H": 1, "gamma": 1}]}',
                r"\$\.commodities\[1\]\.id",
            ),
        ],
    )
    def test_instance_field_errors(self, doc, path):
        with pytest.raises(SchemaError, match=path):
            parse_instance(doc)


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
numberish = st.floats(0.0, 2.0) | json_leaves
any_json = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10,
)
# near-valid documents reach the per-field checks that arbitrary JSON rarely does
pair_like = st.tuples(numberish, numberish).map(list) | st.lists(json_leaves, max_size=3)
policy_like = st.fixed_dictionaries(
    {
        "tau": numberish,
        "schedules": st.dictionaries(
            st.sampled_from(["0", "1", "2", "-1", "01", "x"]), st.lists(pair_like, max_size=3) | any_json, max_size=2
        ),
    }
)
sosi_like = st.fixed_dictionaries(
    {
        "sosi": st.fixed_dictionaries(
            {
                "intervals": st.dictionaries(st.sampled_from(["0", "1", "01", "x"]), numberish, max_size=2) | any_json,
                "phases": st.dictionaries(st.sampled_from(["0", "1", "2"]), numberish, max_size=2) | any_json,
            }
        )
        | any_json
    }
)
commodity_like = st.fixed_dictionaries(
    {"id": st.integers(0, 2) | json_leaves, "K": numberish, "H": numberish, "gamma": numberish}
)
instance_like = st.fixed_dictionaries({"capacity": numberish, "commodities": st.lists(commodity_like | any_json, max_size=3)})
json_documents = any_json | policy_like | sosi_like | instance_like


@given(doc=json_documents)
@settings(max_examples=1000, deadline=None)
def test_parsers_accept_or_raise_schema_error(doc):
    # any other exception type escaping a parser fails the test
    text = json.dumps(doc)
    for parse in (parse_instance, parse_policy):
        for payload in (text, text.encode("utf-8")):
            try:
                parse(payload)
            except SchemaError:
                pass


@st.composite
def corrupted_entries(draw):
    """A valid cyclic or sosi entry over ids in 0..4 with one part broken,
    and the field path of that part below the entry."""
    ids = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        tau = draw(st.floats(0.1, 10.0))
        orders = {}
        for cid in ids:
            m = draw(st.integers(1, 3))
            orders[cid] = [[k * tau / m, tau / m] for k in range(m)]
        part = draw(st.sampled_from(["tau"] + [f"schedules.{cid}" for cid in ids]))
        if part == "tau":
            tau = draw(st.sampled_from([0.0, -tau, math.inf]))
        else:
            broken = orders[int(part.split(".")[1])]
            fault = draw(st.sampled_from(["empty", "late", "repeat", "negative", "heavy"]))
            if fault == "empty":
                broken.clear()
            elif fault == "late":
                broken[-1][0] = tau
            elif fault == "repeat":
                broken.append(list(broken[-1]))
            else:
                broken[0][1] *= -1.0 if fault == "negative" else 2.0
        return {"tau": tau, "schedules": {str(cid): o for cid, o in orders.items()}}, part
    intervals = {cid: draw(st.floats(0.1, 10.0)) for cid in ids}
    phased = draw(st.lists(st.sampled_from(ids), unique=True))
    phases = {cid: draw(st.floats(0.0, 0.5)) * intervals[cid] for cid in phased}
    part = draw(st.sampled_from(["intervals"] + [f"{kind}.{cid}" for kind in ("intervals", "phases") for cid in ids]))
    if part == "intervals":
        intervals = {}
    elif part.startswith("intervals."):
        cid = int(part.split(".")[1])
        intervals[cid] = draw(st.sampled_from([0.0, -intervals[cid], math.inf]))
    else:
        cid = int(part.split(".")[1])
        phases[cid] = draw(st.sampled_from([-0.5, 1.0, 1.5])) * intervals[cid]
        if draw(st.booleans()):  # a phase for an id that has no interval
            del phases[cid], intervals[cid]
            cid += 5
            phases[cid] = 0.0
            part = f"phases.{cid}"
            if not intervals:
                intervals[(cid + 1) % 5] = 1.0
    entry = {"intervals": {str(c): T for c, T in intervals.items()}, "phases": {str(c): p for c, p in phases.items()}}
    return {"sosi": entry}, f"sosi.{part}"


@given(case=corrupted_entries(), in_blocks=st.booleans())
@settings(max_examples=400, deadline=None)
def test_schema_error_names_the_corrupted_part(case, in_blocks):
    entry, part = case
    if in_blocks:
        root, parse = "$.blocks[0]", lambda text: parse_policies(text, FIVE)
        entry = {"blocks": [entry]}
    else:
        root, parse = "$", parse_policy
    with pytest.raises(SchemaError) as caught:
        parse(json.dumps(entry))
    path, _ = str(caught.value).split(": ", 1)
    assert path == f"{root}.{part}"


def test_scaled_policy():
    p = CyclicPolicy(1.0, {0: ((0.0, 0.5), (0.5, 0.5))})
    q = p.scaled(2.0)
    assert q.tau == 2.0
    assert q.schedules[0] == ((0.0, 1.0), (1.0, 1.0))
    s = SosiPolicy({3: 1.0, 1: 0.5}, {3: 0.25})
    assert s.scaled(2.0) == SosiPolicy({3: 2.0, 1: 1.0}, {3: 0.5})
    assert list(s.scaled(2.0).intervals_T) == [3, 1]


def test_commodity_lookup_by_id():
    inst = Instance((Commodity(7, 1.0, 1.0, 1.0), Commodity(3, 2.0, 2.0, 2.0)), capacity_V=1.0)
    assert inst.commodity(3).K == 2.0
    assert inst.position(3) == 1
    assert 7 in inst and 5 not in inst
    with pytest.raises(KeyError):
        inst.commodity(5)
