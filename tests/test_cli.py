import hashlib
import json
import math

import numpy as np
import pytest

import ewlsp.cli as cli
from ewlsp.cli import generate_instance, main
from ewlsp.errors import InfeasibleMatching, InfeasiblePolicy
from ewlsp.model import Commodity, CouplePolicy, Instance, SosiPolicy, parse_instance, parse_policy, serialize_instance
from ewlsp.relaxation import DP_CELL_CAP, solve_sosi_relaxation

from conftest import flat_content


def _strict_json(text: str):
    """`json.loads` that refuses NaN and the infinities, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "1", "--n", "3", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "1", "--n", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips_through_parser(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["gen", "--seed", "7", "--n", "4", "--regime", "tight", "--out", str(out)])
        inst = parse_instance(out.read_bytes())
        assert serialize_instance(inst)  # canonical form exists
        assert inst.n == 4

    def test_loose_regime_unbinding(self):
        inst = generate_instance(1, 2, 1.0, "loose")
        assert solve_sosi_relaxation(inst).multiplier_lambda == 0.0

    def test_tight_regime_binding(self):
        inst = generate_instance(1, 2, 1.0, "tight")
        assert solve_sosi_relaxation(inst).multiplier_lambda > 0.0

    def test_dense_ladder_scales_dense_heavy_rows_by_powers_of_two(self, tmp_path):
        heavy, ladder = tmp_path / "heavy.json", tmp_path / "ladder.json"
        for regime, out in (("dense-heavy", heavy), ("dense-ladder", ladder)):
            assert main(["gen", "--seed", "3", "--n", "300", "--regime", regime, "--out", str(out)]) == 0
        base, inst = parse_instance(heavy.read_bytes()), parse_instance(ladder.read_bytes())
        assert inst.V == base.V
        levels = []
        for b, c in zip(base.commodities, inst.commodities):
            j = round(math.log2(c.gamma / b.gamma))
            assert (c.id, c.K, c.H, c.gamma) == (b.id, b.K * 2.0**-j, b.H * 2.0**j, b.gamma * 2.0**j)
            levels.append(j)
        assert levels == np.random.default_rng(3).integers(0, cli.LADDER_LEVELS, size=300).tolist()
        assert set(levels) == set(range(cli.LADDER_LEVELS))

    @pytest.mark.parametrize("regime", ["loose", "tight", "dense-heavy"])
    @pytest.mark.parametrize("spread", [0.0, 1.0])
    def test_bulk_draw_matches_one_draw_per_parameter(self, regime, spread):
        for seed in range(40):
            for n in (1, 2, 50, 400):
                assert generate_instance(seed, n, spread, regime) == _scalar_generate_instance(seed, n, spread, regime)


def _scalar_generate_instance(seed: int, n: int, spread: float, capacity_regime: str) -> Instance:
    """generate_instance as it drew one parameter per rng call, kept to pin the stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if capacity_regime == "dense-heavy":
        jitter = lambda: float(np.exp(rng.uniform(-1e-3, 1e-3)))  # noqa: E731
        commodities = [Commodity(i, jitter(), jitter(), jitter()) for i in range(n)]
        peak = sum(c.gamma * math.sqrt(c.K / c.H) for c in commodities)
        return Instance(tuple(commodities), capacity_V=0.3 * peak)
    commodities = [
        Commodity(
            i,
            float(10.0 ** rng.uniform(-spread, spread)),
            float(10.0 ** rng.uniform(-spread, spread)),
            float(10.0 ** rng.uniform(-1, 1)),
        )
        for i in range(n)
    ]
    peak = sum(c.gamma * math.sqrt(c.K / c.H) for c in commodities)
    factor = {"loose": 2.0, "tight": 0.3}[capacity_regime]
    return Instance(tuple(commodities), capacity_V=factor * peak)


def test_gen_without_out_writes_stdout_ending_in_one_newline(capsys):
    assert main(["gen", "--seed", "3", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert parse_instance(out[:-1]) == generate_instance(3, 4, 1.0, "loose")


class TestSolveEval:
    def test_two_approx_and_eval_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "3", "--n", "4", "--regime", "tight", "--out", str(inst_path)])
        sol_path = tmp_path / "sol.json"
        rc = main(["solve", "--instance", str(inst_path), "--algo", "two-approx", "--out", str(sol_path)])
        assert rc == 0
        summary = json.loads(sol_path.read_text())["summary"]
        assert summary["feasible"] is True
        assert summary["cost_rate"] <= 2.0 * summary["lower_bound"] + 1e-9
        out = tmp_path / "report.json"
        assert main(["eval", "--instance", str(inst_path), "--policy", str(sol_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["feasible"] is True
        assert "missing" not in report
        assert report["total_cost_rate"] == pytest.approx(summary["cost_rate"], rel=1e-12)
        assert report["v_max"] == pytest.approx(summary["v_max"], rel=1e-12)

    def test_sub2_solver(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        sol_path = tmp_path / "sol.json"
        blocks = []
        for seed, n in (("5", "6"), ("4", "12")):  # the second solve holds couples
            main(["gen", "--seed", seed, "--n", n, "--regime", "dense-heavy", "--out", str(inst_path)])
            rc = main(
                ["solve", "--instance", str(inst_path), "--algo", "sub2", "--seed", "2", "--out", str(sol_path)]
            )
            assert rc == 0
            payload = json.loads(sol_path.read_text())
            assert payload["summary"]["feasible"] is True
            blocks += payload["blocks"]
        assert any("couples" in block for block in blocks)
        # every emitted block re-parses on its own: a stationary one as a
        # SosiPolicy, a couple block as a CouplePolicy, a cyclic one as
        # ordinary cyclic-policy JSON
        for block in blocks:
            parsed = parse_policy(json.dumps(block))
            if "sosi" in block:
                assert isinstance(parsed, SosiPolicy)
                assert parsed.intervals_T == {int(k): T for k, T in block["sosi"]["intervals"].items()}
            elif "couples" in block:
                assert isinstance(parsed, CouplePolicy)
                assert parsed.ids == tuple(block["couples"]["ids"])
            else:
                assert parsed.tau == block["tau"]

    def test_dense_ladder_file_holds_one_couples_entry_per_synced_class(self, tmp_path):
        # two po2-sync classes whose couples reach k >= 1: one couples entry
        # each, and the file re-certifies
        inst_path, sol_path, out = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "report.json"
        assert main(["gen", "--seed", "0", "--n", "2000", "--regime", "dense-ladder", "--out", str(inst_path)]) == 0
        assert main(["solve", "--instance", str(inst_path), "--algo", "sub2", "--seed", "1", "--out", str(sol_path)]) == 0
        payload = json.loads(sol_path.read_text())
        dense = payload["diagnostics"]["dense"]
        entries = [block for block in payload["blocks"] if "couples" in block]
        synced = [f"class{ell}" for ell, outcome in dense["classes"].items() if outcome == "po2-sync"]
        assert [block["provenance"] for block in entries] == synced and len(synced) == 2
        assert sum(len(block["couples"]["which"]) for block in entries) == dense["couples"]
        assert max(t["case"] for block in entries for t in block["couples"]["templates"]) > 1
        assert main(["eval", "--instance", str(inst_path), "--policy", str(sol_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["feasible"] is True

    def test_eval_subcommand(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"capacity": 1.0, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}')
        pol_path = tmp_path / "pol.json"
        pol_path.write_text('{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}')
        out = tmp_path / "report.json"
        assert main(["eval", "--instance", str(inst_path), "--policy", str(pol_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["total_cost_rate"] == pytest.approx(2.0)
        assert report["feasible"] is True

    def test_eval_reports_partial_policy_infeasible(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "3", "--n", "6", "--out", str(inst_path)])
        pol_path = tmp_path / "pol.json"
        pol_path.write_text('{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}')
        out = tmp_path / "report.json"
        assert main(["eval", "--instance", str(inst_path), "--policy", str(pol_path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        assert report["missing"] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "algo, regime, n",
        [("sub2", "dense-heavy", 12), ("sub2", "tight", 9), ("ptas", "tight", 2)],
    )
    def test_solve_eval_round_trip(self, tmp_path, algo, regime, n):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "4", "--n", str(n), "--regime", regime, "--out", str(inst_path)])
        sol_path = tmp_path / "sol.json"
        eps = "0.05" if algo == "sub2" else "0.5"
        rc = main(["solve", "--instance", str(inst_path), "--algo", algo, "--eps", eps, "--out", str(sol_path)])
        assert rc == 0
        out = tmp_path / "report.json"
        assert main(["eval", "--instance", str(inst_path), "--policy", str(sol_path), "--out", str(out)]) == 0
        summary = json.loads(sol_path.read_text())["summary"]
        report = json.loads(out.read_text())
        assert report["feasible"] is True
        assert "missing" not in report
        assert sorted(report["avg_inventory"], key=int) == [str(i) for i in range(n)]
        assert report["total_cost_rate"] == pytest.approx(summary["cost_rate"], rel=1e-9)
        assert report["v_max"] == pytest.approx(summary["v_max"], rel=1e-9)

    def test_eval_reports_a_block_union_with_a_block_left_out(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "--n", "6", "--regime", "dense-heavy", "--out", str(inst_path)])
        sol_path = tmp_path / "sol.json"
        main(["solve", "--instance", str(inst_path), "--algo", "sub2", "--out", str(sol_path)])
        payload = json.loads(sol_path.read_text())
        dropped = payload["blocks"].pop()
        sol_path.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert main(["eval", "--instance", str(inst_path), "--policy", str(sol_path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        ids = parse_policy(json.dumps(dropped)).schedules
        assert report["missing"] == sorted(ids)

    def test_eval_rejects_blocks_sharing_an_id(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"capacity": 9.0, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}')
        pol_path = tmp_path / "pol.json"
        block = {"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}, "provenance": "class1:sosi"}
        pol_path.write_text(json.dumps({"blocks": [block, block]}))
        assert main(["eval", "--instance", str(inst_path), "--policy", str(pol_path)]) == 3
        assert capsys.readouterr().err == (
            "ewlsp: error: $.blocks[1].schedules.0: commodity 0 is also in $.blocks[0]\n"
        )

    @pytest.mark.parametrize(
        "policy, path",
        [
            ({"tau": 1.0, "schedules": {"0": [[0.0, 1.0]], "99": [[0.0, 1.0]]}}, "$.schedules.99"),
            (
                {
                    "blocks": [
                        {"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}},
                        {"tau": 2.0, "schedules": {"99": [[0.0, 2.0]]}},
                    ]
                },
                "$.blocks[1].schedules.99",
            ),
        ],
    )
    def test_eval_rejects_an_id_the_instance_lacks(self, tmp_path, capsys, policy, path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "3", "--n", "3", "--out", str(inst_path)])
        pol_path = tmp_path / "pol.json"
        pol_path.write_text(json.dumps(policy))
        assert main(["eval", "--instance", str(inst_path), "--policy", str(pol_path)]) == 3
        assert capsys.readouterr().err == f"ewlsp: error: {path}: the instance has no commodity 99\n"

    @pytest.mark.parametrize(
        "policy, error",
        [
            ({"blocks": [{"sosi": [1.0]}]}, "$.blocks[0].sosi: expected an object"),
            ({"blocks": [{"sosi": {"phases": {}}}]}, "$.blocks[0].sosi.intervals: expected an object"),
            ({"sosi": {"intervals": [[0, 1.0]]}}, "$.sosi.intervals: expected an object"),
            ({"sosi": {"intervals": {"0": 1.0, "x": 1.0}}}, "$.sosi.intervals.x: key must be an integer id"),
            ({"sosi": {"intervals": {"0": "1.0"}}}, "$.sosi.intervals.0: expected a number"),
            (
                {"blocks": [{"sosi": {"intervals": {"0": 1.0, "2": 0.0}}}]},
                "$.blocks[0].sosi.intervals.2: interval for commodity 2 must be > 0, got 0.0",
            ),
            (
                {"sosi": {"intervals": {"0": 1.0, "1": -2.0}}},
                "$.sosi.intervals.1: interval for commodity 1 must be > 0, got -2.0",
            ),
            (
                {"sosi": {"intervals": {"0": 1.0, "1": 2.0}, "phases": {"1": 2.0}}},
                "$.sosi.phases.1: phase for commodity 1 must lie in [0, T), got 2.0",
            ),
            (
                {"sosi": {"intervals": {"0": 1.0}, "phases": {"1": 0.5}}},
                "$.sosi.phases.1: phase given for commodity 1, which has no interval",
            ),
            (
                {"blocks": [{"sosi": {"intervals": {"0": 1.0, "99": 1.0}}}]},
                "$.blocks[0].sosi.intervals.99: the instance has no commodity 99",
            ),
            (
                {"blocks": [{"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}, {"sosi": {"intervals": {"1": 1.0, "0": 2.0}}}]},
                "$.blocks[1].sosi.intervals.0: commodity 0 is also in $.blocks[0]",
            ),
            (
                {"blocks": [{"sosi": {"intervals": {"0": 1.0}}}, {"tau": 1.0, "schedules": {"0": [[0.0, 1.0]]}}]},
                "$.blocks[1].schedules.0: commodity 0 is also in $.blocks[0]",
            ),
            (
                {"blocks": [{"sosi": {"intervals": {"0": 1.0}}, "tau": 1.0}]},
                "$.blocks[0]: expected either a sosi entry or tau and schedules, not both",
            ),
        ],
    )
    def test_eval_rejects_a_bad_stationary_entry(self, tmp_path, capsys, policy, error):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "3", "--n", "3", "--out", str(inst_path)])
        pol_path = tmp_path / "pol.json"
        pol_path.write_text(json.dumps(policy))
        assert main(["eval", "--instance", str(inst_path), "--policy", str(pol_path)]) == 3
        assert capsys.readouterr().err == f"ewlsp: error: {error}\n"

    def test_ptas_solver(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"capacity": 0.5, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}')
        out = tmp_path / "sol.json"
        rc = main(["solve", "--instance", str(inst_path), "--algo", "ptas", "--eps", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["feasible"] is True
        # one block, as two-approx and sub2 write it
        assert sorted(payload) == ["blocks", "summary"]
        (block,) = payload["blocks"]
        assert block["provenance"] == "ptas"
        assert sorted(block) == ["provenance", "schedules", "tau"]
        assert list(block["schedules"]) == ["0"]


# sha256 digests of fixed-seed `ewlsp solve` files: first of the flattened
# content of their `blocks` (conftest.flat_content: the couples in emission
# order and the stationary commodities in id order, however they are cut into
# entries), then of the sorted-key JSON of the `blocks` and `summary` as
# written. `diagnostics` is left out so counters may change while the written
# policies stay bit-identical.
PINNED_SOLVE_FILES = [
    (
        "sub2-dense-heavy-n40",
        ["--seed", "11", "--n", "40", "--regime", "dense-heavy"],
        ["--algo", "sub2"],
        "c7bc934e52207698925533c707bb3b4243b6555a4c40c8f86161a48890690545",
        "5086e2f3c43540358463a59cff737f646fd7c2d219107ed6a21480be3c561558",
    ),
    (
        "sub2-tight-n60-trials3",
        ["--seed", "12", "--n", "60", "--regime", "tight"],
        ["--algo", "sub2", "--trials", "3"],
        "3f0ffa85b97945b9c84def9ca823fb4bc4ff1f7ad0e1af81aee14ff3909a5773",
        "d80e74cf27595d73390ccb631bf1fce0fb2542999c47c2a96641fb46041430f2",
    ),
    (
        "sub2-loose-n30",
        ["--seed", "15", "--n", "30", "--regime", "loose"],
        ["--algo", "sub2"],
        "a8a45f5eb56a1df866a13d1c9cc6d9e6cb69465b4fc3bb8feed25ebd537262e2",
        "91e29c7eae35da974d1d22ffa327c455b536c90587c2fd08de79723c5d46343f",
    ),
    (
        "ptas-n1",
        ["--seed", "16", "--n", "1", "--regime", "tight"],
        ["--algo", "ptas"],
        "9c05a41ec54968d0d99a29e98e4ab5aa50968e7e505dbee391e0bda547fdc45f",
        "9eb31c6652db7765141b9bbd0006dce1307f530bbad0095eec9836bce4db50e3",
    ),
    (
        "ptas-n2",
        ["--seed", "13", "--n", "2", "--regime", "tight"],
        ["--algo", "ptas"],
        "fb11482fa1d621446a2a52d337d8c48a5410dd9834537f41b66d24442dfaa39f",
        "82ecd03884065a96750375b559b684609cb96f65ee7ed8b45f83c243510a2700",
    ),
    (
        "two-approx-tight-n60",
        ["--seed", "14", "--n", "60", "--regime", "tight"],
        ["--algo", "two-approx"],
        "17675d7a64d8e7b95a332631379e392d665df8cafeda7ea37fdaaf9c44c71a2b",
        "674aca905a7898391f4452d634447007d6c10f27ad6b6d42ed5bf809d3779f9f",
    ),
]


@pytest.mark.parametrize(
    "name, gen, solve, flat_digest, digest", PINNED_SOLVE_FILES, ids=[p[0] for p in PINNED_SOLVE_FILES]
)
def test_pinned_solve_files(tmp_path, name, gen, solve, flat_digest, digest):
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert main(["gen", *gen, "--out", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), *solve, "--out", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    assert hashlib.sha256(flat_content(payload["blocks"]).encode()).hexdigest() == flat_digest
    text = json.dumps({"blocks": payload["blocks"], "summary": payload["summary"]}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestOracleCouple:
    def test_oracle_subcommand(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"capacity": 10.0, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}')
        out = tmp_path / "oracle.json"
        assert main(
            ["oracle", "--instance", str(inst_path), "--tau", "2.0", "--grid", "8", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["cost_rate"] == pytest.approx(2.0)

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_couple_subcommand(self, tmp_path, k):
        out = tmp_path / "couple.json"
        assert main(["couple", "--k", str(k), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["measured_vmax"] <= payload["claimed_vmax_ratio"] + 1e-9
        assert payload["measured_vmax"] == pytest.approx(payload["exact_vmax_ratio"], rel=1e-9)


class TestCompare:
    def test_compare_exit_code_and_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "11", "--n", "5", "--regime", "tight", "--out", str(inst_path)])
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        rc = main(
            [
                "compare",
                "--instance", str(inst_path),
                "--algos", "two-approx,sub2",
                "--seeds", "2",
                "--out", str(csv_path),
                "--json-out", str(json_path),
            ]
        )
        assert rc == 0
        rows = json.loads(json_path.read_text())
        assert all(r["feasible"] for r in rows)
        two = [r for r in rows if r["algo"] == "two-approx"]
        assert all(r["cost_over_lb"] <= 2.0 + 1e-9 for r in two)
        header = csv_path.read_text().splitlines()[0]
        assert "cost_over_lb" in header and "vmax_over_V" in header

    def test_compare_records_an_infeasible_run_and_goes_on(self, tmp_path, monkeypatch):
        real = cli.solve_sub2

        def flaky(instance, cfg, seed=0):
            if seed == 0:
                raise InfeasiblePolicy("pipeline produced infeasible policy: v_max=2.0")
            return real(instance, cfg, seed=seed)

        monkeypatch.setattr(cli, "solve_sub2", flaky)
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "11", "--n", "5", "--regime", "tight", "--out", str(inst_path)])
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        rc = main(
            [
                "compare",
                "--instance", str(inst_path),
                "--algos", "two-approx,sub2",
                "--seeds", "2",
                "--out", str(csv_path),
                "--json-out", str(json_path),
            ]
        )
        assert rc == 1
        rows = {(r["algo"], r["seed"]): r for r in json.loads(json_path.read_text())}
        assert sorted(rows) == [("sub2", 0), ("sub2", 1), ("two-approx", 0)]
        assert rows[("sub2", 0)]["feasible"] is False
        assert rows[("sub2", 0)]["cost_rate"] is None
        assert rows[("sub2", 1)]["feasible"] is True
        assert rows[("two-approx", 0)]["feasible"] is True
        assert len(csv_path.read_text().splitlines()) == 4

    def test_relax_subcommand(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(
            '{"capacity": 0.5, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1},'
            ' {"id": 1, "K": 1, "H": 1, "gamma": 1}]}'
        )
        out = tmp_path / "relax.json"
        assert main(["relax", "--instance", str(inst_path), "--out", str(out)]) == 0
        payload = _strict_json(out.read_text())
        assert payload["objective"] == pytest.approx(5.0, rel=1e-9)
        assert payload["lambda"] > 0.0
        out_dp = tmp_path / "relax_dp.json"
        assert main(["relax", "--instance", str(inst_path), "--eps", "0.1", "--out", str(out_dp)]) == 0
        # the knapsack DP has no multiplier: null, since NaN is not JSON
        dp = _strict_json(out_dp.read_text())
        assert dp["lambda"] is None
        assert payload["objective"] - 1e-9 <= dp["objective"] <= 1.1 * payload["objective"]


def test_solve_sub2_trials_keeps_best(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--seed", "9", "--n", "12", "--regime", "dense-heavy", "--out", str(inst_path)])
    single = tmp_path / "one.json"
    multi = tmp_path / "many.json"
    assert main(["solve", "--instance", str(inst_path), "--algo", "sub2", "--seed", "0", "--out", str(single)]) == 0
    assert main(
        ["solve", "--instance", str(inst_path), "--algo", "sub2", "--seed", "0", "--trials", "6", "--out", str(multi)]
    ) == 0
    one = json.loads(single.read_text())["summary"]["cost_rate"]
    best = json.loads(multi.read_text())["summary"]["cost_rate"]
    assert best <= one + 1e-12


class TestErrorExitCodes:
    """Package errors become one `ewlsp: error: <message>` line on stderr."""

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2

    def test_bad_input_exits_3(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"V": 1}')
        assert main(["solve", "--instance", str(inst_path)]) == 3
        assert capsys.readouterr().err == "ewlsp: error: $.capacity: missing\n"

    @pytest.mark.parametrize("missing", ["instance", "policy"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, missing):
        paths = {"instance": tmp_path / "inst.json", "policy": tmp_path / "policy.json"}
        main(["gen", "--n", "2", "--out", str(paths["instance"])])
        main(["solve", "--instance", str(paths["instance"]), "--out", str(paths["policy"])])
        paths[missing] = tmp_path / "absent.json"
        capsys.readouterr()
        assert main(["eval", "--instance", str(paths["instance"]), "--policy", str(paths["policy"])]) == 2
        err = capsys.readouterr().err
        assert err == f"ewlsp: error: [Errno 2] No such file or directory: '{paths[missing]}'\n"

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "inst.json"
        assert main(["gen", "--n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ewlsp: error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["solve", "--instance", "{inst}", "--algo", "sub2"], "solve_sub2"),
            (["solve", "--instance", "{inst}", "--algo", "ptas"], "ptas_solve"),
            (["compare", "--instance", "{inst}", "--algos", "sub2"], "solve_sub2"),
            (["compare", "--instance", "{inst}", "--out", "{ok}"], "solve_two_approx"),
            (["relax", "--instance", "{inst}"], "solve_sosi_relaxation"),
            (["oracle", "--instance", "{inst}", "--tau", "1.0"], "oracle_opt_cyclic"),
            (["couple", "--k", "2"], "synthesize_couple"),
        ],
    )
    def test_out_in_a_missing_directory_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv, work):
        inst = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "2", "--regime", "dense-heavy", "--out", str(inst)])
        calls = []
        monkeypatch.setattr(f"ewlsp.cli.{work}", lambda *a, **k: calls.append(a))
        monkeypatch.setattr("ewlsp.cli._read_instance", lambda path: calls.append(path))
        out = tmp_path / "no-such-dir" / "out.json"
        flag = "--json-out" if "--out" in argv else "--out"
        argv = [a.format(inst=inst, ok=tmp_path / "table.csv") for a in argv] + [flag, str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ewlsp: error: [Errno 2] No such file or directory: '{out}'\n"
        assert calls == []
        assert not out.parent.exists() and not (tmp_path / "table.csv").exists()

    def test_out_in_a_read_only_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "inst.json"
        monkeypatch.setattr("ewlsp.cli.os.access", lambda path, mode: False)
        assert main(["gen", "--n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ewlsp: error: [Errno 13] Permission denied: '{out}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_state_cap_is_a_usage_error(self, tmp_path, capsys, cap):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "1", "--out", str(inst_path)])
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(inst_path), "--algo", "ptas", "--state-cap", cap])
        assert exc.value.code == 2
        assert f"expected a positive integer, got {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["0", "3", "-2"])
    def test_odd_or_small_grid_base_is_a_usage_error(self, tmp_path, capsys, base):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "1", "--out", str(inst_path)])
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(inst_path), "--algo", "ptas", "--grid-base", base])
        assert exc.value.code == 2
        assert f"expected an even integer >= 2, got {base}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--algo", "sub2", "--subgroups", "0"],
            ["solve", "--algo", "sub2", "--sparsity-threshold", "-1"],
            ["solve", "--algo", "sub2", "--eps", "0.2"],
            ["solve", "--trials", "0"],
            ["solve", "--algo", "ptas", "--eps", "0"],
            ["solve", "--algo", "ptas", "--eps", "-0.5"],
            ["solve", "--algo", "ptas", "--eps", "1"],
            ["compare", "--seeds", "0"],
            ["compare", "--algos", ","],
            ["compare", "--algos", "bogus"],
            ["compare", "--trials", "2"],
            ["gen", "--n", "0"],
            ["relax", "--rhs", "-1"],
            ["relax", "--eps", "0"],
            ["couple", "--k", "-1"],
            ["couple", "--k", "17"],
            ["oracle", "--tau", "-1"],
            ["oracle", "--tau", "1", "--grid", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_is_a_one_line_usage_error(self, tmp_path, capsys, argv):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "1", "--out", str(inst_path)])
        if argv[0] not in ("gen", "couple"):
            argv = argv + ["--instance", str(inst_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err, err

    def test_state_cap_is_honoured(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "2", "--regime", "tight", "--out", str(inst_path)])
        argv = ["solve", "--instance", str(inst_path), "--algo", "ptas", "--eps", "0.5", "--state-cap", "1"]
        assert main(argv) == 4
        assert capsys.readouterr().err == "ewlsp: error: memo grew past 1 states\n"

    def test_search_budget_exits_4(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "40", "--out", str(inst_path)])
        assert main(["solve", "--instance", str(inst_path), "--algo", "ptas"]) == 4
        assert capsys.readouterr().err == "ewlsp: error: ptas_solve handles at most 3 commodities, got 40\n"

    def test_knapsack_table_past_its_cap_exits_4(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "3", "--out", str(inst_path)])
        out = tmp_path / "relax.json"
        assert main(["relax", "--instance", str(inst_path), "--eps", "1e-9", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ewlsp: error: the knapsack DP table of "), err
        assert err.endswith(f" cells exceeds the cap of {DP_CELL_CAP} cells\n"), err
        assert not out.exists()

    def test_desk_grid_beyond_float_range_exits_4(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "1", "--out", str(inst_path)])
        assert main(["solve", "--instance", str(inst_path), "--algo", "ptas", "--eps", "0.999"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ewlsp: error: a desk grid of "), err
        assert err.endswith(" classes has counts past the float range\n"), err

    @pytest.mark.parametrize("argv", [["relax"], ["solve", "--algo", "two-approx"]], ids=" ".join)
    def test_relaxation_beyond_float_range_exits_5(self, tmp_path, capsys, argv):
        inst_path = tmp_path / "inst.json"
        doc = {"capacity": 1e-300, "commodities": [{"id": 0, "K": 1e300, "H": 1e-300, "gamma": 1e300}]}
        inst_path.write_text(json.dumps(doc))
        assert main(argv + ["--instance", str(inst_path)]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ewlsp: error: no multiplier in float range"), err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["relax"], 5, "no multiplier in float range meets the budget: an interval is 0.0"),
            (["solve", "--algo", "two-approx"], 5, "no multiplier in float range meets the budget: an interval is 0.0"),
            (["solve", "--algo", "sub2"], 5, "no multiplier in float range meets the budget: an interval is 0.0"),
            (["solve", "--algo", "ptas", "--eps", "0.5"], 4, "guess range overflows a float: "),
        ],
        ids=["relax", "two-approx", "sub2", "ptas"],
    )
    def test_valid_instance_at_extreme_scale_exits_with_one_line(self, tmp_path, capsys, argv, code, message):
        # a 1e-160 capacity underflows every relaxed interval to 0.0, and
        # K = 1e300 puts the PTAS guess range past the float range
        if "ptas" in argv:
            inst = Instance.from_columns(range(2), [1e300, 1e300], [1, 1], [1, 1], 1.0)
        else:
            inst = Instance.from_columns(range(2), [1, 2], [1, 1], [1, 3], 1e-160)
        inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
        inst_path.write_bytes(serialize_instance(inst))
        assert main(argv + ["--instance", str(inst_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"ewlsp: error: {message}"), err
        assert not out.exists()

    def test_no_feasible_trial_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_solve_one", lambda *args, **kwargs: (1.0, 2.0, False, {}))
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "4", "--out", str(inst_path)])
        argv = ["solve", "--instance", str(inst_path), "--algo", "sub2", "--trials", "3"]
        assert main(argv + ["--out", str(tmp_path / "sol.json")]) == 1
        assert capsys.readouterr().err == "ewlsp solve: error: sub2 gave no feasible policy in 3 trial(s)\n"
        assert not (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("error", [InfeasiblePolicy, InfeasibleMatching])
    def test_no_feasible_answer_exits_5(self, tmp_path, capsys, monkeypatch, error):
        def infeasible(*args, **kwargs):
            raise error("no feasible policy")

        monkeypatch.setattr(cli, "solve_sub2", infeasible)
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "4", "--out", str(inst_path)])
        assert main(["solve", "--instance", str(inst_path), "--algo", "sub2"]) == 5
        assert capsys.readouterr().err == "ewlsp: error: no feasible policy\n"
