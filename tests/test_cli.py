import json

import pytest

import ewlsp.cli as cli
from ewlsp.cli import generate_instance, main
from ewlsp.errors import InfeasibleMatching, InfeasiblePolicy
from ewlsp.model import parse_instance, serialize_instance
from ewlsp.relaxation import solve_sosi_relaxation


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
        main(["gen", "--seed", "5", "--n", "6", "--regime", "dense-heavy", "--out", str(inst_path)])
        sol_path = tmp_path / "sol.json"
        rc = main(
            ["solve", "--instance", str(inst_path), "--algo", "sub2", "--seed", "2", "--out", str(sol_path)]
        )
        assert rc == 0
        payload = json.loads(sol_path.read_text())
        assert payload["summary"]["feasible"] is True
        assert "blocks" in payload
        # every emitted block re-parses as ordinary cyclic-policy JSON
        from ewlsp.model import parse_policy

        for block in payload["blocks"]:
            parsed = parse_policy(json.dumps({"tau": block["tau"], "schedules": block["schedules"]}))
            assert parsed.tau == block["tau"]

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
        assert report["missing"] == sorted(int(k) for k in dropped["schedules"])

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

    def test_ptas_solver(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text('{"capacity": 0.5, "commodities": [{"id": 0, "K": 1, "H": 1, "gamma": 1}]}')
        out = tmp_path / "sol.json"
        rc = main(["solve", "--instance", str(inst_path), "--algo", "ptas", "--eps", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["feasible"] is True


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
        payload = json.loads(out.read_text())
        assert payload["objective"] == pytest.approx(5.0, rel=1e-9)
        out_dp = tmp_path / "relax_dp.json"
        assert main(["relax", "--instance", str(inst_path), "--eps", "0.1", "--out", str(out_dp)]) == 0
        dp = json.loads(out_dp.read_text())
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

    @pytest.mark.parametrize("error", [InfeasiblePolicy, InfeasibleMatching])
    def test_no_feasible_answer_exits_5(self, tmp_path, capsys, monkeypatch, error):
        def infeasible(*args, **kwargs):
            raise error("no feasible policy")

        monkeypatch.setattr(cli, "solve_sub2", infeasible)
        inst_path = tmp_path / "inst.json"
        main(["gen", "--seed", "1", "--n", "4", "--out", str(inst_path)])
        assert main(["solve", "--instance", str(inst_path), "--algo", "sub2"]) == 5
        assert capsys.readouterr().err == "ewlsp: error: no feasible policy\n"
