"""Tests of the benchmark itself: generators, output checks and tracing.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from goalrec import bench, estimate, grounding, recognize_online  # noqa: E402
from workloads import WORKLOADS, check_table, check_trace, generate, run_round  # noqa: E402

SMALL_LOGISTICS = partial(
    gen.logistics, n_instances=2, n_locations=8, chord_step=3, n_trucks=2,
    n_packages=4, n_hyps=3, atoms_per_hyp=2,
)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def prepared(root: Path):
    return [bench.prepare_instance(bench.load_instance(p)) for p in sorted(root.iterdir())]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, name):
    make = WORKLOADS[name].generate
    for run in ("a", "b"):
        make(tmp_path / run, np.random.default_rng(7))
    make(tmp_path / "other", np.random.default_rng(8))
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "other")


def test_logistics_observations_are_applicable(tmp_path):
    SMALL_LOGISTICS(tmp_path, np.random.default_rng(3))
    for problem, events in prepared(tmp_path):
        plan = [e.action_id for e in events]
        assert gen.apply_plan(problem, plan) is None
        assert gen.apply_plan(problem, plan[::-1]) is not None


def test_checks_reject_bad_table_and_wrong_argmax(tmp_path):
    gen.oracle_grid(tmp_path, np.random.default_rng(0), sides=(5,))
    [(problem, events)] = prepared(tmp_path)
    tables = [estimate(problem, g, seed=0) for g in range(len(problem.goals))]
    assert all(check_table(problem, t) is None for t in tables)
    bad = replace(tables[0], p=tables[0].p.copy())
    bad.p[0] = 1.5
    assert "outside [0, 1]" in check_table(problem, bad)

    trace = recognize_online(problem, tables, events)
    assert check_trace(trace, len(events)) is None
    step = trace.steps[-1]
    step.recognized = [i for i in range(len(step.heuristic)) if i not in step.recognized][:1]
    assert "argmax" in check_trace(trace, len(events))
    assert "steps" in check_trace(trace, len(events) + 1)


def traced_round(workload, root):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_round(workload, root, seed=1, first=False, traced=True)
    finally:
        tracer.uninstall()
    return result, tracing.layer_metrics(tracer)


def test_traced_and_untraced_rounds_agree(tmp_path):
    workload = replace(WORKLOADS["logistics"], generate=SMALL_LOGISTICS, n_samples=5)
    generate(workload, tmp_path, np.random.default_rng(1))
    original = grounding.ground
    plain = run_round(workload, tmp_path, seed=1, first=True)
    traced, layers = traced_round(workload, tmp_path)
    again, layers_again = traced_round(workload, tmp_path)
    assert bench.ground is original and grounding.ground is original

    assert plain.errors == traced.errors == again.errors == []
    assert plain.digest == traced.digest == again.digest
    assert set(layers) == {name for name, *_ in tracing.PER_LAYER}
    assert layers["grounding.bindings"] > layers["grounding.actions"] > 0
    assert layers["recognition.observations"] > plain.observations
    counts = [name for name, unit, *_ in tracing.PER_LAYER if unit == "count"]
    assert {n: layers[n] for n in counts} == {n: layers_again[n] for n in counts}


def test_missing_layer_is_absent_not_zero(monkeypatch):
    import goalrec.relaxed

    monkeypatch.delattr(grounding, "ground_instantiations")
    monkeypatch.delattr(goalrec.relaxed, "build_rpg")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["relaxed.build_rpg", "grounding.ground_instantiations"]
    layers = tracing.layer_metrics(tracer)
    for gone in ("grounding.bindings", "grounding.yield", "relaxed.build_rpg.s", "relaxed.levels"):
        assert gone not in layers
    assert "grounding.ground.s" in layers


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    layers = [name for name, *_ in tracing.PER_LAYER] + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers
