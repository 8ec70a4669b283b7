"""Seeded workload mixes, the closed-loop pass that times them, and the
metrics computed from the passes.

A workload is a fixed list of solves built from the seed alone. One pass
runs the list once, one solve at a time from this process, and re-certifies
every output from its JSON. A run repeats passes while the previous pass
still fits in the time budget, always completing at least one; the traced
run is one untraced pass followed by one traced pass over the same list.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ewlsp.cli import generate_instance
from ewlsp.model import Instance, serialize_policy
from ewlsp.pipeline import PipelineConfig, solve_sub2
from ewlsp.ptas import ptas_solve
from ewlsp.relaxation import solve_sosi_relaxation
from ewlsp.two_approx import solve_two_approx

from perfbench.certify import certify
from perfbench.pace import Clock, Timing
from perfbench.tracing import Target, Tracer

# The CLI and acceptance-criterion-7 setting of the sub2 pipeline, and the
# PTAS accuracy with the default desk grid (M=4, S=8).
SUB2_CONFIG = PipelineConfig(eps=0.05, sparsity_threshold=10, Q=10)
PTAS_EPS = 0.5
SETUP_REPEATS = 3  # set-ups per untraced run; their median is reported
# An output is certified again until CERTIFY_MIN_S has been spent on it (at
# most CERTIFY_MAX_REPEATS times) and its median time is counted, so
# sub-millisecond certifications are not timed from one noisy sample.
CERTIFY_MIN_S = 0.01
CERTIFY_MAX_REPEATS = 200


@dataclass(frozen=True)
class Group:
    solver: str  # "sub2" | "ptas"
    regime: str  # generate_instance capacity regime
    n: int
    instances: int
    pipeline_seeds: int = 1  # sub2 draws per instance
    spread: float = 1.0  # K and H drawn from 10**U(-spread, spread)


# Sizes are chosen so that one pass takes 12-30 s on a 2-core x86 box.
WORKLOADS: dict[str, tuple[Group, ...]] = {
    # The only family that reaches the difficult scenario (b-matching, po2
    # rounding, couples, alpha-fallback); n=2000 is ~90% b-matching.
    "sub2-dense-heavy": (
        Group("sub2", "dense-heavy", 200, 16, 8),
        Group("sub2", "dense-heavy", 1000, 1),
        Group("sub2", "dense-heavy", 2000, 1),
    ),
    # Low-dense scenario: no matching; the reference build and evaluate_sosi
    # dominate, and loose instances show the halving waste as quality. The
    # n=400 solves give the per-solve percentiles enough samples; they are all
    # loose so the median falls inside one cluster of solve times rather than
    # in the gap between the tight and loose ones.
    "sub2-spread": (
        Group("sub2", "tight", 2000, 4),
        Group("sub2", "loose", 2000, 4),
        Group("sub2", "loose", 400, 36),
    ),
    # The alignment DP: dp_solve is >99% of the time; no pipeline code runs.
    # With K = H = 1 (spread 0) only the space coefficients vary. At spread
    # 1.0 an n=2 guess grid has 60-416 guesses depending on the seed, which
    # makes the solve times seed luck. Ten solves put the tail at the
    # maximum: loose n=2 solves (2-3.5 s with the space coefficients) would
    # set it by seed luck, so n=2 runs on the tight regimes, where a solve
    # takes 1.5-2.5 s for every seed (dense-heavy is tight with near-identical
    # commodities).
    "ptas-small": (
        Group("ptas", "tight", 1, 1, spread=0.0),
        Group("ptas", "loose", 1, 1, spread=0.0),
        Group("ptas", "tight", 2, 4, spread=0.0),
        Group("ptas", "dense-heavy", 2, 4),
    ),
}

# Same layers at a size the smoke tests can afford.
TINY_WORKLOADS: dict[str, tuple[Group, ...]] = {
    "sub2-dense-heavy": (Group("sub2", "dense-heavy", 40, 2, 2),),
    "sub2-spread": (Group("sub2", "tight", 40, 1, 2), Group("sub2", "loose", 40, 1)),
    "ptas-small": (Group("ptas", "tight", 1, 1, spread=0.0), Group("ptas", "loose", 1, 1, spread=0.0)),
}

# Timings are seconds at the reference pace (perfbench.pace).
END_TO_END_UNITS = {
    "solve_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "certified_s": "s",
    "cost_over_lb": "ratio",
    "cost_over_two_approx": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _orders(policy) -> int:
    return sum(len(orders) for orders in policy.schedules.values())


SPAN_TARGETS = (
    Target("ewlsp.pipeline", "solve_sub2"),
    Target("ewlsp.pipeline", "build_reference_policy"),
    Target("ewlsp.pipeline", "decompose_classes"),
    Target("ewlsp.pipeline", "build_matching_instance", ("edges",), lambda a, k, r: (len(r[0].weights),)),
    Target("ewlsp.pipeline", "AssembledPolicy.report"),
    Target(
        "ewlsp.matching",
        "solve_b_matching",
        ("commodities", "classes"),
        lambda a, k, r: (len(a[0].commodity_side), len(a[0].class_side)),
    ),
    Target("ewlsp.po2", "po2_round"),
    Target("ewlsp.couples", "classify_pairs"),
    Target("ewlsp.couples", "synthesize_couple"),
    Target("ewlsp.evaluator", "evaluate", ("orders",), lambda a, k, r: (_orders(a[0]),)),
    Target("ewlsp.evaluator", "evaluate_sosi"),
    Target("ewlsp.model", "sosi_to_cyclic", ("orders",), lambda a, k, r: (_orders(r),)),
    Target("ewlsp.model", "parse_policy"),
    Target("ewlsp.two_approx", "solve_two_approx"),
    Target("ewlsp.relaxation", "solve_sosi_relaxation"),
    Target("ewlsp.ptas", "ptas_solve"),
    Target("ewlsp.ptas", "enumerate_guesses", ("guesses",), lambda a, k, r: (len(r),)),
    Target("ewlsp.ptas", "dp_solve", ("infeasible",), lambda a, k, r: (int(r is None),)),
)
COUNT_TARGETS = (Target("ewlsp.model", "Instance.commodity", span=False),)
TARGETS = SPAN_TARGETS + COUNT_TARGETS
SCENARIOS = ("easy", "low-dense", "difficult")
SOLVE_ROOTS = {"pipeline.solve_sub2", "ptas.ptas_solve"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for target in SPAN_TARGETS:
        units[f"{target.label}.self_s"] = "s"
        units[f"{target.label}.calls"] = "count"
        for key in target.counters:
            units[f"{target.label}.{key}"] = "count"
    for target in COUNT_TARGETS:
        units[f"{target.label}.calls"] = "count"
    units["ptas.useful_guess_ratio"] = "ratio"
    for key in ("couples", "po2_sync_classes", "fallback_classes"):
        units[f"pipeline.{key}"] = "count"
    units["pipeline.measured_scale_mean"] = "ratio"
    for scenario in SCENARIOS:
        units[f"pipeline.scenario.{scenario}"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    solver: str
    label: str
    instance: Instance
    pipeline_seed: int
    lower_bound: float  # solve_sosi_relaxation objective
    two_approx_cost: float


def build_tasks(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The workload's fixed solve list; the same seed gives the same list.
    The list is shuffled so that small and large solves spread over the run
    instead of meeting one phase of the machine's speed."""
    groups = (TINY_WORKLOADS if tiny else WORKLOADS)[workload]
    rng = np.random.default_rng(seed)
    tasks = []
    for g in groups:
        for instance_seed in rng.integers(0, 2**31, size=g.instances).tolist():
            instance = generate_instance(instance_seed, g.n, g.spread, g.regime)
            lower_bound = solve_sosi_relaxation(instance).objective
            two_approx_cost = solve_two_approx(instance)[1].total_cost_rate
            for pipeline_seed in rng.integers(0, 2**31, size=g.pipeline_seeds).tolist():
                tasks.append(
                    Task(g.solver, f"{g.regime} n={g.n}", instance, pipeline_seed, lower_bound, two_approx_cost)
                )
    return [tasks[k] for k in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    task: Task
    solve: Timing
    certify: Timing = field(default_factory=Timing)
    cost_rate: float = math.nan
    problems: tuple[str, ...] = ()
    diag: dict | None = None


def _solve(task: Task) -> tuple[object, float, dict | None]:
    """Run the solver through its public entry point; returns the policy,
    the solver's reported cost rate and the sub2 diagnostics."""
    if task.solver == "sub2":
        assembled, report, diag = solve_sub2(task.instance, SUB2_CONFIG, seed=task.pipeline_seed)
        return assembled, report.total_cost_rate, diag
    policy, report = ptas_solve(task.instance, PTAS_EPS)
    return policy, report.total_cost_rate, None


def _serialize(task: Task, policy) -> str:
    if task.solver == "sub2":
        return json.dumps(policy.to_json())
    return serialize_policy(policy).decode("utf-8")


def run_pass(
    tasks: list[Task], clock: Clock, tracer: Tracer | None = None, repeat_certify: bool = True
) -> tuple[float, list[Outcome]]:
    """Solve and re-certify every task once; returns (wall time, outcomes).
    With `repeat_certify` an output is certified again until CERTIFY_MIN_S
    has been spent on it; otherwise once."""
    span = tracer.span if tracer is not None else nullcontext
    outcomes = []
    start = time.perf_counter()
    for task in tasks:
        try:
            with clock.timed() as solve_t:
                policy, reported, diag = _solve(task)
        except Exception as exc:  # a raising solve is counted as failed; the pass goes on
            outcomes.append(Outcome(task, solve_t, problems=(f"raised {exc!r}",)))
            continue
        with span("bench.serialize"):
            text = _serialize(task, policy)
        times = []
        with clock.timed() as certify_t:
            while True:
                t0 = time.perf_counter()
                with span("bench.certify"):
                    verdict = certify(text, task.instance, reported)
                times.append(time.perf_counter() - t0)
                if not repeat_certify or sum(times) >= CERTIFY_MIN_S or len(times) == CERTIFY_MAX_REPEATS:
                    break
        # The median repeat, at the pace measured over all repeats: a garbage
        # collection or a probe inside one short repeat does not count.
        pace = certify_t.scaled_s / certify_t.wall_s
        certify_t.wall_s = statistics.median(times)
        certify_t.scaled_s = pace * certify_t.wall_s
        outcomes.append(Outcome(task, solve_t, certify_t, verdict.cost_rate, tuple(verdict.problems), diag))
    return time.perf_counter() - start, outcomes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(times)
    rank = len(xs) - 10
    if rank < 1:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / len(xs)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _timings(outcomes: list[Outcome], scaled: bool) -> dict[str, float]:
    solve = [o.solve.scaled_s if scaled else o.solve.wall_s for o in outcomes]
    certify_s = sum(o.certify.scaled_s if scaled else o.certify.wall_s for o in outcomes)
    return {
        "solve_s": sum(solve),
        "solve_p50_s": statistics.median(solve),
        "solve_tail_s": tail(solve)[0],
        "certified_s": sum(solve) + certify_s,
        "certify_s": certify_s,
    }


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> tuple[dict, dict]:
    """Every timing is taken per pass, scaled to the reference pace, and the
    median over passes is reported, so the per-solve percentiles rest on the
    same solve list whatever the number of passes."""
    outcomes = [o for p in passes for o in p]
    good = [o for o in outcomes if not o.problems]

    def over_passes(scaled: bool) -> dict[str, float]:
        per_pass = [_timings(p, scaled) for p in passes]
        return {name: statistics.median(t[name] for t in per_pass) for name in per_pass[0]}

    values = over_passes(scaled=True)
    certify_s = values.pop("certify_s")
    values.update(
        {
            "cost_over_lb": _mean([o.cost_rate / o.task.lower_bound for o in good]),
            "cost_over_two_approx": _mean([o.cost_rate / o.task.two_approx_cost for o in good]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    info = {
        "passes": len(passes),
        "solves": len(outcomes),
        "solve_tail_percentile": tail([0.0] * len(passes[0]))[1],
        "solve_tail_samples": len(passes[0]),
        "failed_frac": (len(outcomes) - len(good)) / len(outcomes),
        "certify_s": certify_s,
        "wall": over_passes(scaled=False),
    }
    return values, info


def _top(self_times: dict[str, float], k: int = 4) -> dict[str, float]:
    """The k program layers with the most self time, largest first."""
    layers = sorted((v, name) for name, v in self_times.items() if not name.startswith("bench."))
    return {name: v for v, name in reversed(layers[-k:])}


def trace_problems(tracer: Tracer, traced_wall: float, outcomes: list[Outcome]) -> list[str]:
    """Checks a broken tracer would fail: spans nest in time, the self times
    inside the solver calls add up to the timed solves, and all self times
    add up to no more than the traced pass."""
    problems = tracer.nesting_problems()[:5]
    solve_s = sum(o.solve.wall_s for o in outcomes)
    in_solve = sum(tracer.self_times(SOLVE_ROOTS).values())
    if not solve_s - (0.01 * solve_s + 1e-3 * len(outcomes)) <= in_solve <= solve_s:
        problems.append(f"self time in solves {in_solve!r} s does not match timed solves {solve_s!r} s")
    self_sum = sum(tracer.self_times().values())
    if self_sum > traced_wall:
        problems.append(f"self times sum to {self_sum!r} s, above the traced wall time {traced_wall!r} s")
    return problems


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float, outcomes: list[Outcome]) -> tuple[dict, dict]:
    self_times = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, unit in per_layer_units().items():
        if name.endswith(".self_s"):
            values[name] = self_times.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = float(counts.get(name, 0))
    dp_calls = counts.get("ptas.dp_solve.calls", 0)
    if dp_calls:
        values["ptas.useful_guess_ratio"] = (dp_calls - counts["ptas.dp_solve.infeasible"]) / dp_calls

    diags = [o.diag for o in outcomes if o.diag is not None]
    for diag in diags:
        values[f"pipeline.scenario.{diag['scenario']}"] += 1
        dense = diag.get("dense")
        if dense:
            values["pipeline.couples"] += dense["couples"]
            kinds = list(dense["classes"].values())
            values["pipeline.po2_sync_classes"] += kinds.count("po2-sync")
            values["pipeline.fallback_classes"] += kinds.count("alpha-fallback")
    values["pipeline.measured_scale_mean"] = _mean([d["measured_scale"] for d in diags])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall

    info = {
        "self_s_in_solve": _top(tracer.self_times(SOLVE_ROOTS)),
        "self_s_in_certify": _top(tracer.self_times({"bench.certify"})),
        "spans": len(tracer.spans),
    }
    return values, info


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, import_s: float = 0.0
) -> tuple[dict, dict]:
    """Returns (result record, info); the record is the benchmark's last line.
    `import_s` is the caller's time to import the package, at the reference
    pace; an untraced run adds it to the median of SETUP_REPEATS set-ups."""
    info: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny}
    problems: list[str] = []
    if trace:
        # The traced run's timings are wall times: probes would run inside spans.
        clock = Clock(sampling=False)
        tasks = build_tasks(workload, seed, tiny)
        untraced_wall, _ = run_pass(tasks, clock, repeat_certify=False)
        tracer = Tracer()
        tracer.instrument(list(TARGETS))
        try:
            traced_wall, outcomes = run_pass(tasks, clock, tracer, repeat_certify=False)
        finally:
            tracer.restore()
        values, layer_info = per_layer(tracer, traced_wall, untraced_wall, outcomes)
        info.update(layer_info)
        problems = trace_problems(tracer, traced_wall, outcomes)
        units = per_layer_units()
    else:
        with Clock() as clock:
            setups = []
            for _ in range(SETUP_REPEATS):
                with clock.timed() as setup_t:
                    tasks = build_tasks(workload, seed, tiny)
                setups.append(setup_t.scaled_s)
            setup_s = import_s + statistics.median(setups)
            info["setup_runs_s"] = setups
            passes = []
            start = time.perf_counter()
            while True:
                pass_wall, pass_outcomes = run_pass(tasks, clock)
                passes.append(pass_outcomes)
                if time.perf_counter() - start + pass_wall > seconds:
                    break
        outcomes = [o for p in passes for o in p]
        values, e2e_info = end_to_end(passes, setup_s)
        info.update(e2e_info)
        units = END_TO_END_UNITS

    failed = [o for o in outcomes if o.problems]
    info["failures"] = [f"{o.task.label} seed={o.task.pipeline_seed}: {'; '.join(o.problems)}" for o in failed[:5]]
    info["trace_problems"] = problems
    record = {
        "correct": not problems and not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return record, info
