import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsp.errors import IncommensurateIntervals, PolicyPartError, SchemaError
from ewlsp.evaluator import evaluate
from ewlsp.model import (
    Commodity,
    CouplePolicy,
    CyclicPolicy,
    Instance,
    SosiPolicy,
    parse_instance,
    parse_policies,
    parse_policy,
    policy_entry,
    serialize_instance,
    serialize_policy,
    sosi_to_cyclic,
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
        entry = policy_entry(p)
        assert entry == {"tau": 1.0, "schedules": {"0": [[0.0, 0.25], [0.25, 0.75]], "1": [[0.5, 1.0]]}}
        assert json.dumps(policy_entry(parse_policy(json.dumps(entry)))) == json.dumps(entry)

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
        entry = {**policy_entry(p), "provenance": "class1:sosi"}
        assert entry["sosi"] == {"intervals": {"2": 0.25, "7": 1.0, "10": 2.0}, "phases": {"10": 0.5}}
        text = json.dumps(entry)
        again = parse_policy(text)
        assert again == p
        assert json.dumps({**policy_entry(again), "provenance": "class1:sosi"}) == text
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

    def test_couple_entry_round_trip(self):
        a, b = ((0.0, 0.5), (0.5, 0.5)), ((0.25, 1.0),)
        c, d = ((0.0, 2.0),), ((1.0, 1.0), (1.5, 1.0))
        p = CouplePolicy(
            (CyclicPolicy(1.0, {0: a, 1: b}), CyclicPolicy(2.0, {0: c, 1: d})), cases=(1, 2), which=[1, 0], ids=[4, 2, 0, 1]
        )
        entry = {**policy_entry(p), "provenance": "class1"}
        assert entry["couples"] == {
            "templates": [
                {"tau": 1.0, "schedules": [[[0.0, 0.5], [0.5, 0.5]], [[0.25, 1.0]]], "case": 1},
                {"tau": 2.0, "schedules": [[[0.0, 2.0]], [[1.0, 1.0], [1.5, 1.0]]], "case": 2},
            ],
            "which": [1, 0],
            "ids": [4, 2, 0, 1],
        }
        text = json.dumps(entry)
        again = parse_policy(text)
        assert again == p
        assert json.dumps({**policy_entry(again), "provenance": "class1"}) == text
        assert list(again.schedules.items()) == [(4, c), (2, d), (0, a), (1, b)]
        assert again.schedules is again.schedules  # built once
        with pytest.raises(TypeError):
            again.schedules[4] = a
        assert again.templates[0] == CyclicPolicy(1.0, {0: a, 1: b}) and again.cases == (1, 2)
        # a template's two schedules are read by position, whatever their keys
        rekeyed = CouplePolicy((CyclicPolicy(1.0, {9: a, 5: b}), CyclicPolicy(2.0, {7: c, 3: d})), (1, 2), [1, 0], [4, 2, 0, 1])
        assert policy_entry(rekeyed) == policy_entry(p)
        assert list(rekeyed.schedules.items()) == list(again.schedules.items())
        doc = {"blocks": [entry, {"sosi": {"intervals": {"3": 2.0}}}]}
        couples, sosi = parse_policies(json.dumps(doc), FIVE)
        assert couples == p and sosi == SosiPolicy({3: 2.0})

    @pytest.mark.parametrize(
        "templates, cases, which, ids, part, message",
        [
            ("AB", (1, 1), [0], [0, 1], ("templates[1]", "schedules"), "a couple template needs exactly two schedules, got 1"),
            ("AA", (1,), [0], [0, 1], ("cases",), "expected 2 cases, one per template, got 1"),
        ],
    )
    def test_couple_policy_rules(self, templates, cases, which, ids, part, message):
        # the rules a couples entry cannot break, since its parser builds
        # each template of two schedules and reads one case per template;
        # "A" is a template of two schedules, "B" one of a single schedule
        orders = ((0.0, 1.0),)
        kinds = {"A": CyclicPolicy(1.0, {0: orders, 1: orders}), "B": CyclicPolicy(1.0, {0: orders})}
        with pytest.raises(PolicyPartError) as got:
            CouplePolicy(tuple(kinds[k] for k in templates), cases, which, ids)
        assert (got.value.part, str(got.value)) == (part, message)

    @pytest.mark.parametrize(
        "couples, path",
        [
            (None, r"\$\.couples: expected an object"),
            ({}, r"\$\.couples\.templates: expected an array$"),
            ({"templates": [3]}, r"\$\.couples\.templates\[0\]: expected an object"),
            ({"templates": [{"tau": "1", "schedules": [], "case": 1}]}, r"\$\.couples\.templates\[0\]\.tau: expected a number"),
            ({"templates": [{"tau": 1.0, "schedules": {}, "case": 1}]}, r"\$\.couples\.templates\[0\]\.schedules: expected an array"),
            ({"templates": [{"tau": 1.0, "schedules": [[[0.0, 1.0]]]}]}, r"\$\.couples\.templates\[0\]\.case: expected an integer"),
            ({"templates": [{"tau": 1.0, "schedules": [[[0.0]]], "case": 1}]}, r"\$\.couples\.templates\[0\]\.schedules\[0\]\[0\]: expected a \[t, q\] pair"),
            ({"templates": [{"tau": 1.0, "schedules": [3], "case": 1}]}, r"\$\.couples\.templates\[0\]\.schedules\[0\]: expected an array of \[t, q\] pairs"),
            ({"templates": [{"tau": 1.0, "schedules": [[[0.0, 1.0]]], "case": 1}], "which": [0], "ids": [0, 1]},
             r"\$\.couples\.templates\[0\]\.schedules: a couple template needs exactly two schedules, got 1$"),
            ({"templates": [{"tau": 1.0, "schedules": [[[0.0, 1.0]]] * 3, "case": 1}], "which": [0], "ids": [0, 1]},
             r"\$\.couples\.templates\[0\]\.schedules: a couple template needs exactly two schedules, got 3$"),
            ({"templates": [{"tau": 0.0, "schedules": [[[0.0, 1.0]]] * 2, "case": 1}], "which": [0], "ids": [0, 1]},
             r"\$\.couples\.templates\[0\]\.tau: cycle length must be > 0"),
            ({"templates": [{"tau": 1.0, "schedules": [[[0.0, 1.0]], [[0.0, 0.5]]], "case": 1}], "which": [0], "ids": [0, 1]},
             r"\$\.couples\.templates\[0\]\.schedules\[1\]: commodity 1: quantities sum to 0\.5"),
            ({"templates": [], "which": 0}, r"\$\.couples\.which: expected an array of integers"),
            ({"templates": [], "which": [0, True]}, r"\$\.couples\.which\[1\]: expected an integer"),
            ({"templates": [], "which": [], "ids": []}, r"\$\.couples\.which: couple policy needs at least one couple"),
        ],
    )
    def test_couple_entry_shape_errors(self, couples, path):
        with pytest.raises(SchemaError, match=path):
            parse_policies(json.dumps({"couples": couples}), FIVE)

    @pytest.mark.parametrize(
        "which, ids, path",
        [
            ([0, 2], [0, 1, 2, 3], r"\$\.blocks\[1\]\.couples\.which\[1\]: template index must lie in \[0, 2\), got 2"),
            ([-1], [0, 1], r"\$\.blocks\[1\]\.couples\.which\[0\]: template index must lie in \[0, 2\), got -1"),
            ([0, 1], [0, 1, 2], r"\$\.blocks\[1\]\.couples\.ids: expected 4 ids, two per couple, got 3"),
            ([0], [0, 1, 2], r"\$\.blocks\[1\]\.couples\.ids: expected 2 ids, two per couple, got 3"),
            ([0, 1], [0, 1, 2, "3"], r"\$\.blocks\[1\]\.couples\.ids\[3\]: expected an integer"),
            ([0, 1], [0, 1, 2, 1], r"\$\.blocks\[1\]\.couples\.ids\[3\]: commodity 1 is also ids\[1\]"),
            ([0], [2, 2], r"\$\.blocks\[1\]\.couples\.ids\[1\]: commodity 2 is also ids\[0\]"),
            ([0, 1], [0, 1, 9, 2], r"\$\.blocks\[1\]\.couples\.ids\[2\]: the instance has no commodity 9"),
            ([1, 1], [0, 1, 3, 4], r"\$\.blocks\[1\]\.couples\.ids\[3\]: commodity 4 is also in \$\.blocks\[0\]"),
        ],
    )
    def test_couple_entry_id_errors(self, which, ids, path):
        template = {"tau": 1.0, "schedules": [[[0.0, 1.0]], [[0.5, 1.0]]], "case": 1}
        couples = {"templates": [template, template], "which": which, "ids": ids}
        doc = {"blocks": [{"sosi": {"intervals": {"4": 1.0}}}, {"couples": couples, "provenance": "class1"}]}
        with pytest.raises(SchemaError, match=path):
            parse_policies(json.dumps(doc), FIVE)

    def test_couple_entry_conflicts(self):
        couples = {"templates": [{"tau": 1.0, "schedules": [[[0.0, 1.0]], [[0.5, 1.0]]], "case": 1}], "which": [0], "ids": [0, 1]}
        for other in ({"tau": 1.0}, {"schedules": {}}, {"sosi": {"intervals": {"2": 1.0}}}):
            with pytest.raises(SchemaError, match=r"^\$: expected a couples entry alone, without sosi, tau or schedules$"):
                parse_policy(json.dumps({"couples": couples, **other}))
        doc = {"blocks": [{"couples": couples}, {"sosi": {"intervals": {"1": 1.0}}}]}
        with pytest.raises(SchemaError, match=r"\$\.blocks\[1\]\.sosi\.intervals\.1: commodity 1 is also in \$\.blocks\[0\]"):
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
couples_like = st.fixed_dictionaries(
    {
        "couples": st.fixed_dictionaries(
            {
                "templates": st.lists(
                    st.fixed_dictionaries(
                        {"tau": numberish, "schedules": st.lists(st.lists(pair_like, max_size=2), max_size=3), "case": json_leaves}
                    )
                    | any_json,
                    max_size=2,
                )
                | any_json,
                "which": st.lists(st.integers(-1, 2) | json_leaves, max_size=3) | any_json,
                "ids": st.lists(st.integers(0, 2) | json_leaves, max_size=5) | any_json,
            }
        )
        | any_json
    }
)
json_documents = any_json | policy_like | sosi_like | couples_like | instance_like


# the outer errors, before any field is read, and a number past the float range
OUTER_ERRORS = [
    (b"\xff", "$: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"),
    ("{", "$: invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ("[]", "$: expected an object"),
]
HUGE = 10**400


@pytest.mark.parametrize("text, message", OUTER_ERRORS, ids=["utf8", "json", "array"])
@pytest.mark.parametrize("parse", [parse_instance, parse_policy, lambda text: parse_policies(text, FIVE)], ids=["instance", "policy", "policies"])
def test_parsers_name_the_outer_errors(parse, text, message):
    with pytest.raises(SchemaError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, f'{{"capacity": {HUGE}, "commodities": [{{"id": 0, "K": 1, "H": 1, "gamma": 1}}]}}', "$.capacity: number out of range"),
        (parse_policy, f'{{"tau": {HUGE}, "schedules": {{"0": [[0, 1]]}}}}', "$.tau: number out of range"),
        (lambda text: parse_policies(text, FIVE), f'{{"blocks": [{{"tau": {HUGE}, "schedules": {{"0": [[0, 1]]}}}}]}}', "$.blocks[0].tau: number out of range"),
    ],
    ids=["instance", "policy", "policies"],
)
def test_parsers_refuse_a_number_past_the_float_range(parse, text, message):
    with pytest.raises(SchemaError) as exc:
        parse(text)
    assert str(exc.value) == message


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


def _break_orders(draw, orders: list, tau: float) -> None:
    """Break one rule of a valid `[[t, q], ...]` list in place."""
    fault = draw(st.sampled_from(["empty", "late", "repeat", "negative", "heavy"]))
    if fault == "empty":
        orders.clear()
    elif fault == "late":
        orders[-1][0] = tau
    elif fault == "repeat":
        orders.append(list(orders[-1]))
    else:
        orders[0][1] *= -1.0 if fault == "negative" else 2.0


def _valid_orders(draw, tau: float) -> list:
    m = draw(st.integers(1, 3))
    return [[k * tau / m, tau / m] for k in range(m)]


@st.composite
def corrupted_entries(draw):
    """A valid cyclic, sosi or couples entry over ids in 0..4 with one part
    broken, and the field path of that part below the entry."""
    kind = draw(st.sampled_from(["cyclic", "sosi", "couples"]))
    if kind == "couples":
        return draw(_corrupted_couples())
    ids = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    if kind == "cyclic":
        tau = draw(st.floats(0.1, 10.0))
        orders = {cid: _valid_orders(draw, tau) for cid in ids}
        part = draw(st.sampled_from(["tau"] + [f"schedules.{cid}" for cid in ids]))
        if part == "tau":
            tau = draw(st.sampled_from([0.0, -tau, math.inf]))
        else:
            _break_orders(draw, orders[int(part.split(".")[1])], tau)
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


@st.composite
def _corrupted_couples(draw):
    """A valid couples entry of one or two templates and couples over ids in
    0..4 with one part broken: a template's tau, its schedule count or one
    of its schedules, `which` or one of its indices, `ids` or one id."""
    taus = [draw(st.floats(0.1, 10.0)) for _ in range(draw(st.integers(1, 2)))]
    templates = [{"tau": tau, "schedules": [_valid_orders(draw, tau) for _ in range(2)], "case": 1} for tau in taus]
    which = draw(st.lists(st.integers(0, len(taus) - 1), min_size=1, max_size=2))
    ids = draw(st.permutations(range(5)))[: 2 * len(which)]
    t = draw(st.integers(0, len(taus) - 1))
    part = draw(
        st.sampled_from(
            [f"templates[{t}].tau", f"templates[{t}].schedules", f"templates[{t}].schedules[{draw(st.integers(0, 1))}]"]
            + ["which", f"which[{draw(st.integers(0, len(which) - 1))}]", "ids", f"ids[{draw(st.integers(1, len(ids) - 1))}]"]
        )
    )
    template = templates[t]
    if part.endswith(".tau"):
        template["tau"] = draw(st.sampled_from([0.0, -template["tau"], math.inf]))
    elif part.endswith(".schedules"):
        if draw(st.booleans()):
            template["schedules"].pop()
        else:
            template["schedules"].append(_valid_orders(draw, template["tau"]))
    elif part.startswith("templates"):
        _break_orders(draw, template["schedules"][int(part[-2])], template["tau"])
    elif part == "which":
        which = []
    elif part.startswith("which"):
        which[int(part[6:-1])] = draw(st.sampled_from([-1, len(taus)]))
    elif part == "ids":
        ids = ids[:-1] if draw(st.booleans()) else ids + [ids[0]]
    else:
        j = int(part[4:-1])
        ids[j] = ids[draw(st.integers(0, j - 1))]
    return {"couples": {"templates": templates, "which": which, "ids": ids}}, f"couples.{part}"


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
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError, match="^scale factor must be > 0$"):
            p.scaled(factor)


def test_commodity_lookup_by_id():
    inst = Instance((Commodity(7, 1.0, 1.0, 1.0), Commodity(3, 2.0, 2.0, 2.0)), capacity_V=1.0)
    assert inst.commodity(3).K == 2.0
    assert inst.position(3) == 1
    assert 7 in inst and 5 not in inst
    with pytest.raises(KeyError):
        inst.commodity(5)
