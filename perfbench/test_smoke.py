"""Smoke tests of the benchmark itself: every workload at a tiny size, the
re-certification, the traced run and its rebinding, and the contract file.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from ewlsp.model import Commodity, CyclicPolicy, Instance, SosiPolicy, serialize_policy
from ewlsp.pipeline import AssembledPolicy, Block
from perfbench import mix
from perfbench.pace import Clock
from perfbench.certify import certify
from perfbench.tracing import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _instance(n: int = 3) -> Instance:
    return Instance(tuple(Commodity(i, 1.0 + i, 1.0, 1.0) for i in range(n)), capacity_V=10.0)


def _bindings() -> dict:
    """Every module and class binding the traced targets can touch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if isinstance(mod, types.ModuleType) and name.split(".", 1)[0] in ("ewlsp", "perfbench"):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for target in mix.TARGETS:
        owner, _, attr = target.name.rpartition(".")
        if owner:
            cls = getattr(sys.modules[target.module], owner)
            out[(target.module, target.name)] = cls.__dict__[attr]
    return out


@pytest.mark.parametrize("workload", list(mix.WORKLOADS))
def test_workload_runs_tiny_on_two_seeds(workload):
    names = []
    for seed in (1, 9001):  # 9001 stands for a hold-out seed
        record, info = mix.run_workload(workload, seed, seconds=0.1, trace=False, tiny=True)
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1, info
        assert info["seed"] == seed
        for metric in record["metrics"].values():
            assert metric["value"] > 0
        names.append([(k, v["unit"]) for k, v in record["metrics"].items()])
    assert names[0] == names[1]
    assert dict(names[0]) == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}


def test_percentiles_are_per_pass():
    record, info = mix.run_workload("ptas-small", 2, seconds=1.0, trace=False, tiny=True)
    assert info["passes"] >= 2
    assert info["solve_tail_samples"] == len(mix.build_tasks("ptas-small", 2, tiny=True))
    assert record["attempted"] == info["passes"] * info["solve_tail_samples"]


def test_same_seed_gives_same_inputs():
    a = mix.build_tasks("sub2-spread", 5, tiny=True)
    b = mix.build_tasks("sub2-spread", 5, tiny=True)
    assert [(t.instance, t.pipeline_seed) for t in a] == [(t.instance, t.pipeline_seed) for t in b]
    c = mix.build_tasks("sub2-spread", 6, tiny=True)
    assert [t.instance for t in a] != [t.instance for t in c]


@pytest.mark.parametrize(
    "workload, used, bypassed",
    [
        ("sub2-dense-heavy", "matching.solve_b_matching", ("ptas.dp_solve",)),
        ("sub2-spread", "model.sosi_to_cyclic", ("matching.solve_b_matching", "po2.po2_round", "ptas.dp_solve")),
        ("ptas-small", "ptas.dp_solve", ("matching.solve_b_matching", "pipeline.solve_sub2")),
    ],
)
def test_traced_run_restores_names_and_reports_layers(workload, used, bypassed):
    before = _bindings()
    record, info = mix.run_workload(workload, 3, seconds=0.1, trace=True, tiny=True)
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert record["correct"], info
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]
    }
    assert metrics[f"{used}.calls"] > 0 and metrics[f"{used}.self_s"] > 0
    for layer in bypassed:
        assert metrics[f"{layer}.calls"] == 0
    assert info["trace_problems"] == []


def test_tracer_rebinds_from_imports_and_restores():
    import ewlsp.evaluator
    import ewlsp.pipeline

    original = ewlsp.evaluator.evaluate
    tracer = Tracer()
    tracer.instrument([Target("ewlsp.evaluator", "evaluate")])
    try:
        assert ewlsp.pipeline.evaluate is ewlsp.evaluator.evaluate is not original
        ewlsp.pipeline.evaluate(CyclicPolicy(1.0, {0: ((0.0, 1.0),)}), _instance(1))
    finally:
        tracer.restore()
    assert ewlsp.pipeline.evaluate is original and ewlsp.evaluator.evaluate is original
    assert tracer.counts["evaluator.evaluate.calls"] == 1
    assert tracer.self_times()["evaluator.evaluate"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    tracer.spans.append(["d", 7.0, 9.0, -1])
    assert tracer.self_times({"d"}) == {"d": 2.0}


def test_trace_problems_flag_a_broken_tracer():
    tasks = mix.build_tasks("ptas-small", 4, tiny=True)
    tracer = Tracer()
    tracer.instrument(list(mix.TARGETS))
    try:
        wall, outcomes = mix.run_pass(tasks, Clock(sampling=False), tracer, repeat_certify=False)
    finally:
        tracer.restore()
    assert mix.trace_problems(tracer, wall, outcomes) == []
    spans = [list(span) for span in tracer.spans]
    child = next(span for span in tracer.spans if span[3] >= 0)
    child[1] = tracer.spans[child[3]][1] - 1.0  # starts before its parent
    assert any("not inside its parent" in p for p in mix.trace_problems(tracer, wall, outcomes))
    tracer.spans = spans
    for span in tracer.spans:
        if span[0] == "ptas.ptas_solve":
            span[1] -= 1.0  # a solve span longer than the timed solve
    assert any("does not match timed solves" in p for p in mix.trace_problems(tracer, wall, outcomes))


def test_untraced_pass_of_a_traced_run_certifies_once(monkeypatch):
    calls = []
    monkeypatch.setattr(mix, "certify", lambda *a: calls.append(1) or certify(*a))
    tasks = mix.build_tasks("ptas-small", 4, tiny=True)
    mix.run_pass(tasks, Clock(sampling=False), repeat_certify=False)
    assert len(calls) == len(tasks)
    mix.run_pass(tasks, Clock(sampling=False))
    assert len(calls) > 2 * len(tasks)


def test_clock_leaves_out_probe_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Clock() as clock:
        with clock.timed() as timing:
            time.sleep(0.1)  # the alarm probes run during the sleep
        assert len(clock._samples) > 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.09 < timing.wall_s < 0.1 and timing.scaled_s > 0
    with Clock(sampling=False) as clock, clock.timed() as timing:
        time.sleep(0.01)
    assert timing.scaled_s == timing.wall_s >= 0.01


def test_certify_flags_left_out_commodity():
    instance = _instance(3)
    partial = {"tau": 1.0, "schedules": {"0": [[0.0, 1.0]], "1": [[0.0, 1.0]]}}
    verdict = certify(json.dumps(partial), instance, reported_cost=0.0)
    assert any("not covered: [2]" in p for p in verdict.problems)


def test_certify_accepts_blocks_and_flags_duplicates_and_cost():
    instance = _instance(3)
    policy = AssembledPolicy((Block(ids=(0, 1, 2), sosi=SosiPolicy({0: 1.0, 1: 1.0, 2: 1.0})),))
    report = policy.report(instance)
    text = json.dumps(policy.to_json())
    assert certify(text, instance, report.total_cost_rate).ok
    assert any("cost mismatch" in p for p in certify(text, instance, 2 * report.total_cost_rate).problems)
    doubled = json.loads(text)
    doubled["blocks"].append(doubled["blocks"][0])
    assert any("covered twice: [0]" in p for p in certify(json.dumps(doubled), instance, 0.0).problems)


def test_certify_flags_infeasible_policy():
    text = serialize_policy(CyclicPolicy(1.0, {0: ((0.0, 1.0),)})).decode()
    verdict = certify(text, Instance(_instance(1).commodities, capacity_V=0.5), reported_cost=0.0)
    assert any(p.startswith("infeasible") for p in verdict.problems)


def test_certify_reports_unreadable_policy():
    verdict = certify('{"tau": 1.0}', _instance(1), 0.0)
    assert verdict.problems and verdict.problems[0].startswith("unreadable policy")


def test_tail_percentile():
    assert mix.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = mix.tail([float(k) for k in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_contract_file_matches_code():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(mix.WORKLOADS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(mix.END_TO_END_UNITS)
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(mix.per_layer_units())
    assert len(CONTRACT["per_layer"]) <= 128


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "ptas-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
