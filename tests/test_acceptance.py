"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced; without -s pytest shows them for failing
criteria only.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from goalrec import (
    ObservationEvent,
    estimate,
    load_instance,
    prepare_instance,
    recognize,
    recognize_online,
    run_benchmark,
)
from goalrec.bench import estimate_tables, precision, recognized_at, spread
from goalrec.cli import EXIT_OK, main
from goalrec.gridgen import random_grid, write_instance
from goalrec.probability import FactProbabilityTable
from goalrec.recognition import RecognitionTrace, TraceStep
from goalrec.relaxed import build_rpg

from conftest import FIXTURES, TABLE1
from reference_recognition import direction, heuristic, map_probs, map_state, odot
from reference_rpg import relaxed_reachable


def _report(number: int, checks: list[tuple[str, bool, str]]) -> None:
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    line = f"ACCEPTANCE {number}: " + ("PASS" if not failed else "FAIL")
    for label, detail in failed:
        line += f"\n  failed: {label} ({detail})"
    print(line, flush=True)
    assert not failed, f"criterion {number}: {failed}"


def _table1_tables(problem):
    return [
        FactProbabilityTable(i, np.array([TABLE1[name][i] for name in problem.facts]))
        for i in range(2)
    ]


def test_criterion_1_worked_example(grid):
    start = time.perf_counter()
    problem, events = grid
    tables = _table1_tables(problem)
    pv1 = map_probs(tables[0])
    pv2 = map_probs(tables[1])
    s0v = map_state(problem.s0, problem.fact_count)
    observed = frozenset(
        problem.fact_id(f"(is-at {c})") for c in ("c23", "c22", "c21")
    )
    stv = map_state(observed, problem.fact_count)

    first = float(np.linalg.norm(direction(odot(s0v, pv1), pv1)))
    second = float(np.linalg.norm(direction(odot(stv, pv1), pv1)))
    third = float(np.linalg.norm(direction(odot(stv, pv2), pv2)))
    h1 = heuristic(s0v, stv, pv1)
    h2 = heuristic(s0v, stv, pv2)
    result = recognize(problem, tables, events)
    elapsed = time.perf_counter() - start

    _report(
        1,
        [
            ("first norm = sqrt(3.5) within 1e-9",
             abs(first - math.sqrt(3.5)) <= 1e-9, f"{first}"),
            ("second norm = sqrt(3.0) within 1e-9",
             abs(second - math.sqrt(3.0)) <= 1e-9, f"{second}"),
            ("h(G1) - 0.14 within 0.005",
             abs(h1 - 0.14) <= 0.005, f"{h1}"),
            # Goal 1's path facts outside s0 give 3.5; the observed cells
            # c22 and c21 have probability 0 there, and add 1 each.
            ("third norm = sqrt(5.5) within 1e-9",
             abs(third - math.sqrt(5.5)) <= 1e-9, f"{third}"),
            ("h(G2) = sqrt(3.5) - sqrt(5.5) within 1e-9",
             abs(h2 - (math.sqrt(3.5) - math.sqrt(5.5))) <= 1e-9, f"{h2}"),
            ("recognized = {G1}", result.recognized == [0], f"{result.recognized}"),
            ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s"),
        ],
    )


def test_criterion_2_oracle_table_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    grid_dir = FIXTURES / "grid"
    code = main(
        [
            "oracle",
            "--domain", str(grid_dir / "domain.pddl"),
            "--template", str(grid_dir / "template.pddl"),
            "--hyps", str(grid_dir / "hyps.dat"),
            "--output", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    checks = [("oracle exit code 0", code == EXIT_OK, f"{code}")]
    mismatches = []
    for i in range(2):
        lines = (tmp_path / f"goal_{i}.csv").read_text().splitlines()[2:]
        rows = {}
        for line in lines:
            name, observed, rest = line.rsplit(",", 2)
            rows[name] = (float(observed), float(rest))
        for name, pair in TABLE1.items():
            if rows[name] != (pair[i], 1.0 - pair[i]):
                mismatches.append((i, name, rows[name]))
    checks.append(
        ("all 50 observed/not-observed entries exact", not mismatches, f"{mismatches[:4]}")
    )
    checks.append(("runtime < 60 s", elapsed < 60.0, f"{elapsed:.2f}s"))
    _report(2, checks)


def test_criterion_3_estimator_properties(grid, chain, logistics):
    checks = []
    for label, (problem, _) in (("grid", grid), ("chain", chain), ("logistics", logistics)):
        for goal_index, goal in enumerate(problem.goals):
            table = estimate(problem, goal_index, seed=0)
            again = estimate(problem, goal_index, seed=0)
            rpg = build_rpg(problem, goal)
            tag = f"{label}/goal{goal_index}"
            checks.append(
                (f"{tag}: p within [0,1]",
                 bool(np.all((table.p >= 0) & (table.p <= 1))), ""))
            checks.append(
                (f"{tag}: p=1 on s0",
                 all(table.p[f] == 1.0 for f in problem.s0), ""))
            if not table.unreachable:
                checks.append(
                    (f"{tag}: p=1 on subgoals",
                     all(table.p[f] == 1.0 for f in goal), ""))
            support_ok = all(
                table.p[f] == 0 or f in problem.s0 or relaxed_reachable(rpg, f, problem.fact_count)
                for f in range(problem.fact_count)
            )
            checks.append((f"{tag}: p>0 implies relaxed-reachable", support_ok, ""))
            checks.append(
                (f"{tag}: same seed, identical table",
                 bool(np.array_equal(table.p, again.p)), ""))
            rows = [line.rsplit(",", 2) for line in table.to_csv(problem).splitlines()[2:]]
            norm_ok = len(rows) == problem.fact_count and all(
                float(observed) + float(not_observed) == 1.0 for _, observed, not_observed in rows
            )
            checks.append((f"{tag}: observed + not-observed = 1", norm_ok, ""))
    _report(3, checks)


def test_criterion_4_heuristic_properties(tmp_path):
    rng = np.random.default_rng(2024)
    cases = 0
    failures: list[str] = []

    def check(label, ok):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    for index in range(40):
        spec = random_grid(rng, width=7, height=7, n_goals=3, block_prob=0.15)
        write_instance(tmp_path / f"g{index}", spec)
        problem, events = prepare_instance(load_instance(tmp_path / f"g{index}"))
        tables = [estimate(problem, i, seed=index) for i in range(3)]
        pvs = [map_probs(t) for t in tables]
        s0v = map_state(problem.s0, problem.fact_count)

        for g, pv in enumerate(pvs):
            check(f"grid{index}/goal{g}: h=0 with zero observations",
                  heuristic(s0v, s0v, pv) == 0.0)

            state = set(problem.s0)
            previous = 0.0
            for t, event in enumerate(events):
                added = problem.actions[event.action_id].add - state
                state |= added
                h = heuristic(
                    s0v, map_state(frozenset(state), problem.fact_count), pv
                )
                if added and all(pv[f] > 0 for f in added):
                    check(f"grid{index}/goal{g}/t{t}: nondecreasing on "
                          "positive-probability adds", h >= previous)
                zero = [
                    f for f in range(problem.fact_count)
                    if pv[f] == 0 and f not in state and f not in problem.s0
                ]
                if zero:
                    punished = heuristic(
                        s0v,
                        map_state(frozenset(state | {zero[0]}), problem.fact_count),
                        pv,
                    )
                    check(f"grid{index}/goal{g}/t{t}: strict decrease on "
                          "zero-probability fact", punished < h)
                previous = h

        trace = recognize_online(problem, tables, events)
        for t in range(1, len(events) + 1):
            result = recognize(problem, tables, events[:t])
            step = trace.steps[t - 1]
            check(f"grid{index}/t{t}: prefix consistency",
                  step.heuristic == [result.heuristic[i] for i in range(3)]
                  and step.recognized == result.recognized)

        forward = recognize(problem, tables, events)
        shuffled = list(events)
        rng.shuffle(shuffled)
        check(f"grid{index}: permutation insensitivity",
              recognize(problem, tables, shuffled).heuristic == forward.heuristic)

    _report(
        4,
        [
            (">= 1000 randomized cases", cases >= 1000, f"{cases}"),
            ("all property checks hold", not failures, f"{failures[:4]}"),
        ],
    )


def test_criterion_5_sampler_properties(grid, chain, logistics):
    from reference_rpg import RelaxedState, relaxed_apply
    from goalrec.sampling import sample_combined_sets, sample_subgoal_supporters

    checks = []
    n = 10
    for label, (problem, _) in (("grid", grid), ("chain", chain), ("logistics", logistics)):
        for goal_index, goal in enumerate(problem.goals):
            combined = sample_combined_sets(problem, goal_index, n, seed=0)
            tag = f"{label}/goal{goal_index}"
            checks.append(
                (f"{tag}: sampling terminates with n sets",
                 combined is not None and len(combined) == n, ""))
            rpg = build_rpg(problem, goal)
            level_of = {}
            for t, batch in enumerate(rpg.action_levels):
                for aid in batch:
                    level_of[aid] = t
            replay_ok = True
            for sample in combined:
                state = RelaxedState(problem.s0)
                try:
                    for aid in sorted(sample.actions, key=lambda a: (level_of[a], a)):
                        state = relaxed_apply(state, problem.actions[aid])
                except Exception:
                    replay_ok = False
                    break
                if not goal <= state.facts:
                    replay_ok = False
                    break
            checks.append(
                (f"{tag}: every combined set replays to a superset of g",
                 replay_ok, ""))

    # Min-count balance on the grid: the goal cell has exactly two
    # supporters at its first level.
    problem, _ = grid
    (subgoal,) = problem.goals[0]
    samples = sample_subgoal_supporters(problem, subgoal, n, np.random.default_rng([0, 0, 0]))
    a = sum(problem.action_id("(m c2 c1)") in s.actions for s in samples)
    b = sum(problem.action_id("(m c6 c1)") in s.actions for s in samples)
    checks.append(
        ("min-count balance within 1 across N samples",
         a + b == n and abs(a - b) <= 1, f"{a} vs {b}"))
    _report(5, checks)


def test_criterion_6_timing_scaling(tmp_path):
    start = time.perf_counter()
    obs_ratio = est_ratio = math.inf
    for attempt in range(3):  # timing is noisy; accept the best of 3 runs
        rng = np.random.default_rng(attempt)
        spec = random_grid(rng, width=12, height=12, n_goals=10, block_prob=0.0)
        instance = load_instance(write_instance(tmp_path / f"run{attempt}", spec))
        problem, _ = prepare_instance(instance)

        per_goal = {}
        for count in (5, 10):
            sub = replace(problem, goals=problem.goals[:count])
            t0 = time.perf_counter()
            estimate_tables(sub, 10, attempt)
            per_goal[count] = time.perf_counter() - t0

        tables = estimate_tables(problem, 10, attempt)
        # One state event per fact, so every event observes a new fact.
        events = [ObservationEvent.state({f}) for f in range(100)]
        per_obs = {}
        for count in (5, 100):
            t0 = time.perf_counter()
            recognize_online(problem, tables, events[:count])
            per_obs[count] = (time.perf_counter() - t0) / count

        obs_ratio = min(obs_ratio, per_obs[100] / per_obs[5])
        est_ratio = min(est_ratio, per_goal[10] / per_goal[5])
        if obs_ratio <= 2.0 and est_ratio <= 2.5:
            break
    elapsed = time.perf_counter() - start
    _report(
        6,
        [
            ("per-observation time at |O|=100 <= 2x |O|=5",
             obs_ratio <= 2.0, f"ratio {obs_ratio:.2f}"),
            ("estimation time <= 2.5x when |G| doubles",
             est_ratio <= 2.5, f"ratio {est_ratio:.2f}"),
            ("total runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s"),
        ],
    )


def test_criterion_7_benchmark_arithmetic():
    trace = RecognitionTrace([TraceStep(1, [1.0, 0.0, 0.0], [0])])
    _report(
        7,
        [
            ("singleton correct = 1.0",
             precision([frozenset({0})], [0]) == 1.0, ""),
            ("2-way tie containing the true goal = 0.5",
             precision([frozenset({0, 1})], [0]) == 0.5, ""),
            ("lambda=0 = 1/|G|",
             precision([recognized_at(trace, 5, 4, 0.0)], [0]) == 1 / 5, ""),
            ("spread of singletons = 1.0",
             spread([frozenset({0}), frozenset({2})]) == 1.0, ""),
            ("spread of sizes 1 and 3 = 2.0",
             spread([frozenset({0}), frozenset({0, 1, 2})]) == 2.0, ""),
            ("all-tie spread with |G|=5 = 5.0",
             spread([frozenset(range(5))] * 2) == 5.0, ""),
        ],
    )


def test_criterion_8_fixture_benchmark():
    report = run_benchmark(FIXTURES, seed=0, repeats=20)
    grid_record = next(r for r in report.instances if r.name == "grid")
    final = grid_record.trace.steps[-1].recognized
    std_ok = all(report.precision_std[lam] <= 0.08 for lam in report.lambdas)
    _report(
        8,
        [
            ("FPV precision >= uniform baseline at lambda=1",
             report.precision_mean[1.0] >= report.baseline_precision,
             f"{report.precision_mean[1.0]} vs {report.baseline_precision}"),
            ("FPV spread <= uniform baseline at lambda=1",
             report.spread_mean[1.0] <= report.baseline_spread,
             f"{report.spread_mean[1.0]} vs {report.baseline_spread}"),
            ("grid fixture precision 1.0 and spread 1.0",
             final == [grid_record.true_goal_index], f"{final}"),
            ("20-repeat std-dev <= 0.08 at every lambda", std_ok,
             f"{max(report.precision_std.values())}"),
            ("no failed instances", not report.failures, f"{report.failures}"),
        ],
    )
