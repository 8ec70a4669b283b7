"""Command-line front end: instance generation, solver dispatch, evaluation,
couple inspection, brute-force oracles, and algorithm comparison tables.

The compare subcommand exits nonzero if any produced policy is infeasible,
so batch runs double as end-to-end feasibility assertions; eval exits
nonzero on an infeasible policy, including one that leaves commodities out.

Exit codes: 0 success; 1 an infeasible policy (solve, eval, compare);
2 bad command-line usage, including a number outside its flag's range and an
eps the sub2 pipeline rejects; 3 malformed input JSON (SchemaError); 4 a
search budget exceeded (BudgetExceeded, StateSpaceExceeded,
SearchSpaceExceeded); 5 no feasible answer found (InfeasibleMatching,
InfeasiblePolicy). Codes 2-5 print one line, `ewlsp[ <command>]: error:
<message>`, on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .couples import CoupleInput, synthesize_couple
from .errors import (
    BudgetExceeded,
    InfeasibleMatching,
    InfeasiblePolicy,
    SchemaError,
    SearchSpaceExceeded,
    StateSpaceExceeded,
)
from .evaluator import combine_reports, evaluate
from .model import (
    Commodity,
    Instance,
    parse_instance,
    parse_policies,
    policy_to_json,
    serialize_instance,
)
from .oracle import oracle_opt_cyclic
from .pipeline import AssembledPolicy, Block, PipelineConfig, solve_sub2
from .ptas import DEFAULT_STATE_CAP, ptas_solve
from .relaxation import solve_sosi_dp, solve_sosi_relaxation
from .two_approx import solve_two_approx


def generate_instance(seed: int, n: int, spread: float, capacity_regime: str) -> Instance:
    """Deterministic random instance.

    loose/tight set the capacity against the unconstrained stationary optima;
    dense-heavy builds many near-identical commodities whose matched
    intervals land at the top of one volume slab, driving the randomized
    pipeline through its heavy-commodity machinery.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    if capacity_regime == "dense-heavy":
        jitter = lambda: float(np.exp(rng.uniform(-1e-3, 1e-3)))  # noqa: E731
        commodities = [
            Commodity(i, jitter(), jitter(), jitter()) for i in range(n)
        ]
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


def _write(payload: bytes | str, out: str | None) -> None:
    data = payload if isinstance(payload, str) else payload.decode("utf-8")
    if out:
        with open(out, "w") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)
        if not data.endswith("\n"):
            sys.stdout.write("\n")


def _read_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _solve_one(
    instance: Instance,
    algo: str,
    eps: float,
    seed: int,
    cfg: PipelineConfig | None,
    grid_base: int = 4,
    state_cap: int = DEFAULT_STATE_CAP,
):
    """Returns (cost_rate, v_max, lower_bound, feasible, payload); only
    sub2 reads `cfg`."""
    if algo == "two-approx":
        policy, report, lb = solve_two_approx(instance)  # lb: the relaxation it halves
        block = Block(ids=tuple(sorted(policy.intervals_T)), sosi=policy, provenance="two-approx")
        payload = AssembledPolicy((block,)).to_json()
    elif algo == "sub2":
        lb = solve_sosi_relaxation(instance).objective
        assembled, report, diag = solve_sub2(instance, cfg, seed=seed)
        payload = assembled.to_json()
        payload["diagnostics"] = diag
    else:  # ptas
        lb = solve_sosi_relaxation(instance).objective
        details: dict = {}
        policy, report = ptas_solve(
            instance, eps, grid_M=grid_base, grid_S=2 * grid_base, state_cap=state_cap, details=details
        )
        payload = {"kind": "cyclic", **policy_to_json(policy)}
        if details["skipped_guesses"]:  # the policy is the best over the guesses that ran
            payload["diagnostics"] = {"skipped_guesses": details["skipped_guesses"]}
    return report.total_cost_rate, report.v_max, lb, report.feasible, payload


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, as package errors do, and exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(kind, accepts, expected: str):
    """An argparse type: `kind(text)`, refused unless `accepts` holds for it."""

    def parse(text: str):
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_natural = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
# grid_M = base and grid_S = 2*base need S | M^2, i.e. an even base
_grid_base = _checked(int, lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2")
# a couple of ratio 2^k holds about 2^k orders per cycle, built in exact rationals
_couple_k = _checked(int, lambda v: 0 <= v <= 16, "an integer in [0, 16]")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
# K and H are drawn from 10^[-spread, spread] and must stay far from overflow
_spread = _checked(float, lambda v: 0 <= v <= 100, "a number in [0, 100]")
_eps = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")

ALGOS = ("two-approx", "sub2", "ptas")


def _algo_list(text: str) -> list[str]:
    algos = [a.strip() for a in text.split(",") if a.strip()]
    if not algos or any(a not in ALGOS for a in algos):
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of {', '.join(ALGOS)}, got {text!r}")
    return algos


def _sub2_config(parser: argparse.ArgumentParser, **settings) -> PipelineConfig:
    """The sub2 settings, built once per command; a value the pipeline
    rejects is a usage error."""
    try:
        return PipelineConfig(**settings)
    except ValueError as exc:
        parser.error(f"sub2: {exc}")


ERROR_EXIT_CODES = {
    SchemaError: 3,
    BudgetExceeded: 4,
    StateSpaceExceeded: 4,
    SearchSpaceExceeded: 4,
    InfeasibleMatching: 5,
    InfeasiblePolicy: 5,
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="ewlsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--n", type=_positive_int, default=5)
    p.add_argument("--spread", type=_spread, default=1.0)
    p.add_argument("--regime", choices=["loose", "tight", "dense-heavy"], default="loose")
    p.add_argument("--out")

    p = sub.add_parser("relax", help="solve the average-space relaxation")
    p.add_argument("--instance", required=True)
    p.add_argument("--rhs", type=_positive)
    p.add_argument("--eps", type=_eps, help="use the knapsack DP at this accuracy")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="run a solver")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=ALGOS, default="two-approx")
    p.add_argument("--eps", type=_eps, default=0.05, help="in (0, 1); sub2 needs (0, 0.1)")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--trials", type=_positive_int, default=1, help="seeds to try for randomized solvers; best kept")
    p.add_argument("--sparsity-threshold", type=_natural, default=PipelineConfig.sparsity_threshold)
    p.add_argument("--subgroups", type=_positive_int, default=PipelineConfig.Q)
    p.add_argument("--grid-base", type=_grid_base, default=4, help="level ratio of the alignment DP grids")
    p.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP, help="hard cap on DP states")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluate a cyclic policy or a union of blocks")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="brute-force optimum on a grid")
    p.add_argument("--instance", required=True)
    p.add_argument("--tau", type=_positive, required=True)
    p.add_argument("--grid", type=_positive_int, default=8)
    p.add_argument("--max-orders", type=_positive_int)
    p.add_argument("--out")

    p = sub.add_parser("couple", help="synthesize and measure a paired schedule")
    p.add_argument("--k", type=_couple_k, required=True, help="log2 of the interval ratio")
    p.add_argument("--eps", type=_eps, default=0.05)
    p.add_argument("--out")

    p = sub.add_parser("compare", help="run several solvers and tabulate results")
    p.add_argument("--instance", required=True)
    p.add_argument("--algos", type=_algo_list, default="two-approx,sub2")
    p.add_argument("--eps", type=_eps, default=0.05)
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of seeds per randomized algo")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json-out")

    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except tuple(ERROR_EXIT_CODES) as exc:
        print(f"ewlsp: error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXIT_CODES.items() if isinstance(exc, kind))


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "gen":
        instance = generate_instance(args.seed, args.n, args.spread, args.regime)
        _write(serialize_instance(instance), args.out)
        return 0

    if args.command == "relax":
        instance = _read_instance(args.instance)
        sol = (
            solve_sosi_dp(instance, args.eps, args.rhs)
            if args.eps is not None
            else solve_sosi_relaxation(instance, args.rhs)
        )
        payload = {
            "intervals": {str(k): v for k, v in sorted(sol.intervals_T.items())},
            "lambda": sol.multiplier_lambda,
            "objective": sol.objective,
            "budget_used": sol.budget_used,
            "budget_cap": sol.budget_cap,
        }
        _write(json.dumps(payload, sort_keys=True), args.out)
        return 0

    if args.command == "solve":
        cfg = None
        if args.algo == "sub2":
            cfg = _sub2_config(parser, eps=args.eps, sparsity_threshold=args.sparsity_threshold, Q=args.subgroups)
        instance = _read_instance(args.instance)
        trials = args.trials if args.algo == "sub2" else 1
        best = None
        for seed in range(args.seed, args.seed + trials):
            cost, v_max, lb, feasible, payload = _solve_one(
                instance, args.algo, args.eps, seed, cfg, grid_base=args.grid_base, state_cap=args.state_cap
            )
            if feasible and (best is None or cost < best[0]):
                best = (cost, v_max, lb, feasible, payload, seed)
        if best is None:
            return 1
        cost, v_max, lb, feasible, payload, seed = best
        payload = dict(payload)
        payload["summary"] = {
            "cost_rate": cost,
            "v_max": v_max,
            "lower_bound": lb,
            "feasible": feasible,
            "seed": seed,
        }
        _write(json.dumps(payload, sort_keys=True), args.out)
        return 0 if feasible else 1

    if args.command == "eval":
        instance = _read_instance(args.instance)
        with open(args.policy, "rb") as fh:
            policies = parse_policies(fh.read(), instance)
        # a union of blocks is certified by its summed block peak, as sub2 reports it
        payload = combine_reports((evaluate(p, instance) for p in policies), instance).to_json()
        # the library evaluates partial id sets by design; a whole policy must cover the instance
        covered = {cid for p in policies for cid in p.schedules}
        missing = [cid for cid in instance.ids() if cid not in covered]
        if missing:
            payload["feasible"] = False
            payload["missing"] = missing
        _write(json.dumps(payload, sort_keys=True), args.out)
        return 0 if payload["feasible"] else 1

    if args.command == "oracle":
        instance = _read_instance(args.instance)
        policy, cost = oracle_opt_cyclic(instance, args.tau, args.grid, args.max_orders)
        payload = {"cost_rate": cost, **policy_to_json(policy)}
        _write(json.dumps(payload, sort_keys=True), args.out)
        return 0

    if args.command == "couple":
        a = Commodity(0, 1.0, 1.0, 1.0)
        b = Commodity(1, 1.0, 1.0, float(2**args.k))
        couple = synthesize_couple(CoupleInput(a, b, 1.0, 2.0**-args.k, args.eps))
        inst = Instance((a, b), capacity_V=10.0)
        report = evaluate(couple.policy, inst)
        denom = sum(inst.commodity(c).gamma * v for c, v in report.avg_inventory.items())
        payload = {
            "case": couple.case_id,
            **policy_to_json(couple.policy),
            "measured_vmax": report.v_max,
            "claimed_vmax_ratio": float(couple.claimed_vmax_ratio),
            "exact_vmax_ratio": float(couple.exact_vmax_ratio),
            "claimed_cost_ratio": float(couple.claimed_cost_ratio),
        }
        _write(json.dumps(payload, sort_keys=True), args.out)
        return 0

    # compare, the one command left
    cfg = _sub2_config(parser, eps=args.eps) if "sub2" in args.algos else None
    instance = _read_instance(args.instance)
    rows = []
    all_feasible = True
    for algo in args.algos:
        for seed in range(args.seeds):
            start = time.perf_counter()
            try:
                cost, v_max, lb, feasible, _ = _solve_one(instance, algo, args.eps, seed, cfg)
                row = {"cost_rate": cost, "cost_over_lb": cost / lb, "vmax_over_V": v_max / instance.V}
            except InfeasiblePolicy:
                feasible = False
                row = {"cost_rate": None, "cost_over_lb": None, "vmax_over_V": None}
            elapsed = time.perf_counter() - start
            all_feasible &= feasible
            rows.append({"algo": algo, "seed": seed, **row, "feasible": feasible, "runtime_s": elapsed})
            if algo in ("two-approx", "ptas"):
                break  # deterministic; one seed suffices
    rows.sort(key=lambda r: (r["algo"], r["seed"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    if args.json_out:
        _write(json.dumps(rows), args.json_out)
    return 0 if all_feasible else 1


if __name__ == "__main__":
    sys.exit(main())
