"""Benchmark harness: instance loading, metrics, report generation."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from statistics import mean, pstdev
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec import bench
from goalrec.bench import (
    DEFAULT_LAMBDAS,
    build_problem,
    load_instance,
    parse_hypotheses,
    parse_observations,
    precision,
    prefix_length,
    prepare_instance,
    recognized_at,
    run_benchmark,
    spread,
)
from goalrec.errors import (
    DatasetError,
    GoalRecError,
    ParameterError,
    PddlSyntaxError,
    ValidationError,
)
from goalrec.gridgen import DOMAIN_TEXT, random_grid, template_text, write_instance
from goalrec.pddl import Literal
from goalrec.recognition import RecognitionTrace, TraceStep

from atoms import parse_hypothesis_line
from conftest import FIXTURES


class TestLoadInstance:
    def test_grid_instance(self, grid_instance):
        assert grid_instance.true_goal_index == 0
        assert len(grid_instance.hypotheses) == 2
        assert grid_instance.observations == ("(m c23 c22)", "(m c22 c21)")

    def test_observation_actions_resolve(self, grid):
        problem, events = grid
        assert [e.action_id for e in events] == [
            problem.action_id("(m c23 c22)"),
            problem.action_id("(m c22 c21)"),
        ]

    def test_missing_file_raises(self, tmp_path):
        shutil.copytree(FIXTURES / "grid", tmp_path / "broken")
        (tmp_path / "broken" / "obs.dat").unlink()
        with pytest.raises(DatasetError, match="obs.dat"):
            load_instance(tmp_path / "broken")

    def test_real_hypothesis_must_be_listed(self, tmp_path):
        shutil.copytree(FIXTURES / "grid", tmp_path / "broken")
        (tmp_path / "broken" / "real_hyp.dat").write_text("(is-at c13)\n")
        with pytest.raises(DatasetError, match="not found"):
            load_instance(tmp_path / "broken")

    def test_real_matching_is_order_insensitive(self, tmp_path):
        shutil.copytree(FIXTURES / "logistics", tmp_path / "inst")
        (tmp_path / "inst" / "real_hyp.dat").write_text(
            "(AT-PKG p2 l3),   (at-pkg p1 l2)\n"
        )
        assert load_instance(tmp_path / "inst").true_goal_index == 0

    def test_unparsable_observation_raises(self, tmp_path):
        shutil.copytree(FIXTURES / "grid", tmp_path / "broken")
        (tmp_path / "broken" / "obs.dat").write_text("m c23 c22\n")
        with pytest.raises(DatasetError):
            load_instance(tmp_path / "broken")

    def test_observations_parse_to_canonical_names(self):
        assert parse_observations("(M c23  c22)\n\n (m c22 c21)\n") == (
            "(m c23 c22)",
            "(m c22 c21)",
        )

    def test_semicolon_starts_a_comment(self):
        assert parse_observations("(m c23 c22) ; first move\n") == ("(m c23 c22)",)
        with pytest.raises(DatasetError, match="unparsable atom"):
            parse_observations("(m c23;c22)\n")

    @pytest.mark.parametrize("line", ["(m c23 c22) (m c22 c21)", "(not (m c23 c22))"])
    def test_malformed_observation_line_raises(self, line):
        with pytest.raises(DatasetError):
            parse_observations(line + "\n")

    def test_empty_hyps_raises(self, tmp_path):
        shutil.copytree(FIXTURES / "grid", tmp_path / "broken")
        (tmp_path / "broken" / "hyps.dat").write_text("\n")
        with pytest.raises(DatasetError, match="hyps"):
            load_instance(tmp_path / "broken")

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("real_hyp.dat", "(is-at c1)\n(is-at c5)\n",
             "real_hyp.dat must hold exactly one hypothesis"),
            ("real_hyp.dat", "; none\n", "real_hyp.dat must hold exactly one hypothesis"),
            ("obs.dat", "; none\n\n", "empty obs.dat"),
        ],
    )
    def test_file_error_message(self, tmp_path, name, text, message):
        shutil.copytree(FIXTURES / "grid", tmp_path / "broken")
        (tmp_path / "broken" / name).write_text(text)
        with pytest.raises(DatasetError) as info:
            load_instance(tmp_path / "broken")
        assert str(info.value) == message


def _is_at(*cells):
    return frozenset(Literal("is-at", (cell,)) for cell in cells)


_CELLS = [f"c{i}" for i in range(1, 26)]


class TestDatasetLines:
    def test_atom_after_a_semicolon_is_a_comment(self):
        assert parse_hypothesis_line("(is-at c1) ; (is-at c2)") == _is_at("c1")

    def test_comment_only_lines_are_skipped(self, tmp_path):
        shutil.copytree(FIXTURES / "grid", tmp_path / "grid")
        for name, comment in [
            ("hyps.dat", "; (is-at c13)"),
            ("real_hyp.dat", "  ; (is-at c5)"),
            ("obs.dat", "\t; (m c21 c16)"),
        ]:
            path = tmp_path / "grid" / name
            path.write_text(f"{comment}\n" + path.read_text().replace("\n", f"\n{comment}\n\n"))
        assert load_instance(tmp_path / "grid") == load_instance(FIXTURES / "grid")

    @pytest.mark.parametrize(
        "line",
        ["junk (is-at c1) more junk", "(is-at c1) junk (is-at c5)", "(is-at c1) (is-at",
         "(is-at c1),", ", (is-at c1)", "(is-at c1),, (is-at c5)", "(is-at c1) ((is-at c5))"],
    )
    def test_anything_but_atoms_and_commas_raises(self, line):
        with pytest.raises(DatasetError, match="unparsable atom"):
            parse_hypotheses(line + "\n")
        with pytest.raises(DatasetError, match="unparsable"):
            parse_observations(line + "\n")

    def test_deep_nesting_is_a_dataset_error(self):
        line = "(is-at c1) " + "(" * 3000 + ")" * 3000
        message = r"parentheses nested deeper than 100 \(line 1, column 112\)"
        with pytest.raises(DatasetError, match=message) as info:
            parse_hypotheses(line + "\n")
        # Only the start of the line is quoted; the position locates the fault.
        assert str(info.value).startswith(f"unparsable atom: {line[:60] + '…'!r} (")
        assert len(str(info.value)) < 150

    def test_long_observation_line_is_quoted_short(self):
        atoms = " ".join(f"(m c{i} c{i + 1})" for i in range(1, 500))
        with pytest.raises(DatasetError) as info:
            parse_observations(atoms + "\n")
        assert str(info.value) == f"unparsable observation line: {atoms[:60] + '…'!r}"

    def test_duplicate_hypothesis_raises(self, tmp_path):
        shutil.copytree(FIXTURES / "logistics", tmp_path / "inst")
        hyps = tmp_path / "inst" / "hyps.dat"
        hyps.write_text(hyps.read_text() + "(AT-PKG p2 l3) (at-pkg p1 l2)\n")
        message = "hypothesis listed twice: (at-pkg p1 l2), (at-pkg p2 l3)"
        with pytest.raises(DatasetError, match=re.escape(message)):
            load_instance(tmp_path / "inst")

    @given(
        hypotheses=st.lists(st.frozensets(st.sampled_from(_CELLS), min_size=1, max_size=4),
                            min_size=1, max_size=5, unique=True),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_written_hypotheses_read_back(self, hypotheses, data):
        filler = st.lists(st.sampled_from(["", "  ", "; note", "\t; (is-at c1)"]), max_size=2)
        lines = []
        for hypothesis in hypotheses:
            lines += data.draw(filler)
            atoms = [
                f"(is-at {cell})".upper() if data.draw(st.booleans()) else f"(is-at {cell})"
                for cell in data.draw(st.permutations(sorted(hypothesis)))
            ]
            line = atoms[0]
            for atom in atoms[1:]:
                line += data.draw(st.sampled_from([", ", " ", ","])) + atom
            lines.append(line + data.draw(st.sampled_from(["", " ; (is-at c2)", ";x,"])))
        lines += data.draw(filler)
        assert parse_hypotheses("\n".join(lines)) == tuple(_is_at(*h) for h in hypotheses)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_grid_round_trips(self, tmp_path, seed):
        spec = random_grid(np.random.default_rng(seed), width=5, height=4, n_goals=3)
        instance = load_instance(write_instance(tmp_path / "inst", spec))
        assert instance.domain_text == DOMAIN_TEXT
        assert instance.template_text == template_text(spec)
        assert instance.hypotheses == tuple(_is_at(cell) for cell in spec.goal_cells)
        assert instance.hypotheses[instance.true_goal_index] == _is_at(spec.true_goal)
        assert instance.observations == tuple(f"(m {a} {b})" for a, b in spec.observations)


SRC = Path(__file__).resolve().parent.parent / "src"

# Faulty builds, each with several faults, whose first reported message is
# printed: on the grid fixture, bad init atoms, hypothesis atoms naming
# undeclared objects and static hypothesis atoms, which ground cannot reach;
# then a schema whose static precondition binds objects that do not fit a
# fluent slot; last, a domain that declares the complements of both
# predicates it negates.
_FIRST_FAULTS = """
import sys
from pathlib import Path
from goalrec.bench import build_problem, parse_hypotheses
from goalrec.errors import ValidationError
grid = Path(sys.argv[1])
domain = (grid / "domain.pddl").read_text()
template = (grid / "template.pddl").read_text()
bad_init = template.replace("(:init", "(:init (adj c1 x9) (foo c3) (adj c4 y7)")
for text, hyps in [
    (bad_init, "(is-at c1)"),
    (template, "(is-at c99), (is-at c98), (is-at c97)"),
    (template, "(adj c2 c1), (adj c1 c2), (adj c2 c3)"),
]:
    try:
        build_problem(domain, text, parse_hypotheses(hyps))
    except ValidationError as exc:
        print(exc)
misfit_domain = '''(define (domain d) (:requirements :strips :typing) (:types a - object c - a)
  (:predicates (at ?x - c) (ok ?x))
  (:action go :parameters (?x) :precondition (ok ?x) :effect (at ?x)))'''
misfit_template = '''(define (problem p) (:domain d) (:objects x1 x2 x3 x4 - a z - c)
  (:init (ok x1) (ok x2) (ok x3) (ok x4)) (:goal <HYPOTHESIS>))'''
try:
    build_problem(misfit_domain, misfit_template, parse_hypotheses("(at z)"))
except ValidationError as exc:
    print(exc)
collide_domain = '''(define (domain d) (:requirements :strips :negative-preconditions)
  (:predicates (pa ?x) (pb ?x) (not-pa ?x) (not-pb ?x) (g ?x))
  (:action go :parameters (?x) :precondition (and (not (pa ?x)) (not (pb ?x))) :effect (g ?x)))'''
collide_template = "(define (problem p) (:domain d) (:objects o) (:init) (:goal <HYPOTHESIS>))"
try:
    build_problem(collide_domain, collide_template, parse_hypotheses("(g o)"))
except ValidationError as exc:
    print(exc)
"""


class TestBuildProblem:
    def _build(self, template, hypotheses):
        domain = (FIXTURES / "grid" / "domain.pddl").read_text()
        return build_problem(domain, template, tuple(map(parse_hypothesis_line, hypotheses)))

    def test_negated_hypothesis_grounds_to_its_complement(self):
        template = (FIXTURES / "grid" / "template.pddl").read_text()
        problem = self._build(template, ["(not (is-at c1))", "(is-at c5), (NOT (is-at c23))"])
        assert problem.goals == [
            frozenset({problem.fact_id("(not-is-at c1)")}),
            frozenset({problem.fact_id("(is-at c5)"), problem.fact_id("(not-is-at c23)")}),
        ]
        assert problem.fact_id("(not-is-at c1)") in problem.s0
        assert problem.fact_id("(not-is-at c23)") not in problem.s0

    @pytest.mark.parametrize("goal", ["(is-at c1)", "(is-at c1)\n ; <HYPOTHESIS>\n"])
    def test_goal_without_placeholder_raises(self, goal):
        template = (FIXTURES / "grid" / "template.pddl").read_text()
        message = r"^template goal atom \(is-at c1\) is also a hypothesis atom; .*<HYPOTHESIS>$"
        with pytest.raises(DatasetError, match=message):
            self._build(template.replace("<HYPOTHESIS>", goal), ["(is-at c1)", "(is-at c5)"])

    @pytest.mark.parametrize("stray", ["(is-at c25)", "(not (is-at c25))", "(is-at c1)"])
    def test_template_goal_atom_in_no_hypothesis_raises(self, stray):
        # The hypotheses replace the template goal, so the stray atom would be
        # dropped, (is-at c1) too, though it is also the first hypothesis.
        template = (FIXTURES / "grid" / "template.pddl").read_text()
        template = template.replace("<HYPOTHESIS>", f"{stray} <HYPOTHESIS>")
        kind = "also a hypothesis atom" if stray == "(is-at c1)" else "in no hypothesis"
        message = rf"^template goal atom {re.escape(stray)} is {kind}; .*<HYPOTHESIS>$"
        with pytest.raises(DatasetError, match=message):
            self._build(template, ["(is-at c1)", "(is-at c5)"])

    @pytest.mark.parametrize(
        "hypothesis, message",
        [
            ("(is-at c99)", "undeclared object c99 in goal"),
            ("(is-at c1 c5)", "arity mismatch for is-at in goal: expected 1, got 2"),
            ("(not (adj c1 c2))", "hypothesis literal not groundable: (not (adj c1 c2))"),
        ],
    )
    def test_hypothesis_atom_is_checked_against_the_problem(self, hypothesis, message):
        template = (FIXTURES / "grid" / "template.pddl").read_text()
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            self._build(template, ["(is-at c1)", hypothesis])

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2", "4", "7"])
    def test_first_fault_does_not_depend_on_string_hashing(self, hash_seed):
        # Init atoms are checked in file order, hypothesis atoms in canonical
        # order and misfit bindings sorted; walking a set would report a fault
        # that depends on PYTHONHASHSEED, so each seed runs in a fresh
        # interpreter.
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _FIRST_FAULTS, str(FIXTURES / "grid")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "undeclared object x9 in init",
            "undeclared object c97 in goal",
            "hypothesis literal not groundable: (adj c1 c2)",
            "object x1 of type a does not fit c in (at ?x) of schema go",
            "predicate not-pa collides with negation compilation",
        ]

    def test_ground_runs_with_the_collector_paused(self, monkeypatch):
        seen = []
        real = bench.ground

        def recording(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(bench, "ground", recording)
        assert gc.isenabled()
        self._build((FIXTURES / "grid" / "template.pddl").read_text(), ["(is-at c1)"])
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_stays_off_when_the_caller_turned_it_off(self):
        gc.disable()
        try:
            self._build((FIXTURES / "grid" / "template.pddl").read_text(), ["(is-at c1)"])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_back_on_after_a_build_that_raises(self):
        with pytest.raises(PddlSyntaxError, match="unclosed parenthesis"):
            self._build("(define (problem p)", ["(is-at c1)"])
        assert gc.isenabled()


class TestMetrics:
    def test_precision_unit_cases(self):
        assert precision([frozenset({0})], [0]) == 1.0
        assert precision([frozenset({0, 1})], [0]) == 0.5
        assert precision([frozenset({0}), frozenset({1})], [0, 0]) == 0.5

    def test_precision_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            precision([], [])
        with pytest.raises(ValueError):
            precision([frozenset()], [0])
        with pytest.raises(ValueError):
            precision([frozenset({0})], [0, 1])
        # Each rejection is a package error, so the CLI exits 1.
        with pytest.raises(GoalRecError):
            precision([], [])
        with pytest.raises(GoalRecError):
            precision([frozenset()], [0])
        with pytest.raises(GoalRecError):
            precision([frozenset({0})], [0, 1])

    def test_spread_unit_cases(self):
        assert spread([frozenset({0}), frozenset({1})]) == 1.0
        assert spread([frozenset({0}), frozenset({0, 1, 2})]) == 2.0
        assert spread([frozenset(range(5))] * 3) == 5.0
        with pytest.raises(ValueError):
            spread([])
        with pytest.raises(GoalRecError):
            spread([])

    @given(
        st.lists(
            st.one_of(st.integers(-(10**6), 10**6), st.floats(-1e150, 1e150)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_summaries_are_the_statistics_functions(self, values):
        # A one-value list is answered without statistics, in value and type.
        for summary, reference in ((bench._mean, mean), (bench._pstdev, pstdev)):
            got, expected = summary(values), reference(values)
            assert (type(got), repr(got)) == (type(expected), repr(expected))

    def test_prefix_length_floors(self):
        assert prefix_length(3, 0.1) == 0
        assert prefix_length(10, 0.25) == 2
        assert prefix_length(10, 1.0) == 10
        # The float product 0.7 * 90 is 62.99999999999999.
        assert prefix_length(90, 0.7) == 63
        for k in range(1, 301):
            for j, lam in enumerate(DEFAULT_LAMBDAS, 1):
                assert prefix_length(k, lam) == k * j // 10, (k, lam)

    def test_recognized_at_zero_prefix_ties_all(self):
        trace = RecognitionTrace([TraceStep(1, [0.5, 0.1], [0])])
        assert recognized_at(trace, 4, 3, 0.1) == frozenset(range(4))
        assert recognized_at(trace, 4, 3, 0.5) == frozenset({0})


class TestInstanceSeed:
    def test_value_below_two_to_the_31_is_kept(self):
        assert bench._instance_seed(3, 0, "logistics") == 783844402

    def test_run_seeds_two_to_the_31_apart_differ(self):
        for name in ("grid", "chain", "logistics"):
            for repeat in (0, 1):
                low = bench._instance_seed(0, repeat, name)
                assert low < 2**31
                assert bench._instance_seed(2**31, repeat, name) != low


class TestRunBenchmark:
    def test_fixture_suite(self):
        report = run_benchmark(FIXTURES, seed=0, repeats=3)
        assert report.lambdas == list(DEFAULT_LAMBDAS)
        assert not report.failures
        assert len(report.instances) == 3
        # Full observability resolves every fixture to its true goal.
        assert report.precision_mean[1.0] == 1.0
        assert report.spread_mean[1.0] == 1.0
        assert report.precision_std[1.0] == 0.0
        # lambda = 0.1 gives 0-length prefixes on these short sequences.
        base = report.baseline_precision
        assert report.precision_mean[0.1] == pytest.approx(base)
        assert 0.0 < base < 1.0

    def test_report_precision_bounds(self):
        report = run_benchmark(FIXTURES, seed=1)
        for lam in report.lambdas:
            assert 0.0 <= report.precision_mean[lam] <= 1.0
            assert report.spread_mean[lam] >= 1.0

    def test_report_determinism(self):
        a = run_benchmark(FIXTURES, seed=7, repeats=2)
        b = run_benchmark(FIXTURES, seed=7, repeats=2)
        assert a.precision_mean == b.precision_mean
        assert a.spread_mean == b.spread_mean
        for x, y in zip(a.instances, b.instances):
            assert [s.heuristic for s in x.trace.steps] == [
                s.heuristic for s in y.trace.steps
            ]

    def test_failing_instance_recorded_not_fatal(self, tmp_path):
        for name in ("grid", "chain"):
            shutil.copytree(FIXTURES / name, tmp_path / name)
        bad = tmp_path / "broken"
        shutil.copytree(FIXTURES / "grid", bad)
        (bad / "real_hyp.dat").write_text("(is-at c13)\n")
        report = run_benchmark(tmp_path, seed=0)
        assert [name for name, _ in report.failures] == ["broken"]
        assert len(report.instances) == 2

    def test_undecodable_instance_recorded_not_fatal(self, tmp_path):
        for name in ("grid", "chain"):
            shutil.copytree(FIXTURES / name, tmp_path / name)
        hyps = tmp_path / "grid" / "hyps.dat"
        hyps.write_bytes(hyps.read_bytes() + b"\xff\n")
        report = run_benchmark(tmp_path, seed=0)
        assert [rec.name for rec in report.instances] == ["chain"]
        [(name, error)] = report.failures
        assert name == "grid" and error.startswith(f"{hyps} is not UTF-8 text")

    def test_template_goal_atom_in_no_hypothesis_fails_the_instance(self, tmp_path):
        for name in ("grid", "chain"):
            shutil.copytree(FIXTURES / name, tmp_path / name)
        template = tmp_path / "grid" / "template.pddl"
        text = template.read_text()
        template.write_text(text.replace("<HYPOTHESIS>", "(is-at c25) <HYPOTHESIS>"))
        report = run_benchmark(tmp_path, seed=0)
        assert [rec.name for rec in report.instances] == ["chain"]
        [(name, error)] = report.failures
        assert name == "grid" and error.startswith("template goal atom (is-at c25) is in no")

    def test_one_ground_problem_alive_at_a_time(self, monkeypatch):
        # Each instance is evaluated on its own: by the time the next one is
        # prepared, no more than one earlier ground problem may be alive.
        built = []
        real = bench.prepare_instance

        def tracked(instance):
            gc.collect()
            assert sum(ref() is not None for ref in built) <= 1
            problem, events = real(instance)
            built.append(weakref.ref(problem))
            return problem, events

        monkeypatch.setattr(bench, "prepare_instance", tracked)
        report = run_benchmark(FIXTURES, seed=0, repeats=2)
        assert len(built) == 3 and not report.failures
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_repeats_draw_different_seeds_and_tables(self, tmp_path, monkeypatch):
        # With 3 samples the grid's two paths cannot split evenly, so the
        # tables show the seed; repeats sharing one would give fpv-std 0.
        shutil.copytree(FIXTURES / "grid", tmp_path / "grid")
        drawn = []
        real = bench.estimate_tables

        def recorded(problem, n_samples, seed, aggregation):
            tables = real(problem, n_samples, seed, aggregation)
            drawn.append((seed, [table.p.tolist() for table in tables]))
            return tables

        monkeypatch.setattr(bench, "estimate_tables", recorded)
        run_benchmark(tmp_path, n_samples=3, seed=2, repeats=2)
        (seed_0, tables_0), (seed_1, tables_1) = drawn
        assert seed_0 != seed_1
        assert tables_0 != tables_1

    def test_seconds_per_observation_times_whole_call(self, monkeypatch):
        # A fake clock that only recognize_online moves, by one second per
        # call: each instance then costs 1 / |O| seconds per observation.
        clock = SimpleNamespace(now=0.0)
        real = bench.recognize_online

        def one_second_call(problem, tables, events):
            clock.now += 1.0
            return real(problem, tables, events)

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        monkeypatch.setattr(bench, "recognize_online", one_second_call)
        report = run_benchmark(FIXTURES, seed=0)
        expected = mean(1.0 / rec.observation_count for rec in report.instances)
        assert report.seconds_per_observation == pytest.approx(expected)
        assert report.estimation_seconds_per_goal == 0.0

    def test_empty_dataset_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            run_benchmark(tmp_path)

    def test_all_instances_failing_raises(self, tmp_path):
        for name in ("grid", "chain"):
            shutil.copytree(FIXTURES / name, tmp_path / name)
            (tmp_path / name / "obs.dat").write_text("")
        with pytest.raises(DatasetError, match=r"^all 2 instances failed to load$"):
            run_benchmark(tmp_path)

    def test_empty_lambda_list_rejected(self):
        with pytest.raises(ParameterError, match=r"^at least one lambda is required$"):
            run_benchmark(FIXTURES, lambdas=[])

    def test_negative_seed_rejected_before_loading(self, tmp_path, monkeypatch):
        # The run seed is checked up front, before any instance is loaded
        # or recorded as failing.
        monkeypatch.setattr(bench, "load_instance", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            run_benchmark(FIXTURES, seed=-1)

    def test_repeated_lambda_rejected_before_loading(self, monkeypatch):
        monkeypatch.setattr(bench, "load_instance", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(ParameterError, match=r"^lambda listed twice: 0\.5$"):
            run_benchmark(FIXTURES, lambdas=[0.5, 1.0, 0.5])

    def test_nonpositive_sample_count_rejected_before_loading(self, monkeypatch):
        monkeypatch.setattr(bench, "load_instance", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(ParameterError, match=r"^number of samples must be positive, got 0$"):
            run_benchmark(FIXTURES, n_samples=0)

    def test_unknown_aggregation_rejected_before_loading(self, monkeypatch):
        monkeypatch.setattr(bench, "load_instance", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(ParameterError, match=r"^unknown aggregation: union$"):
            run_benchmark(FIXTURES, aggregation="union")

    def test_lambdas_ascend_whatever_order_they_are_given(self):
        given = run_benchmark(FIXTURES, lambdas=[0.3, 1.0], seed=0)
        reversed_ = run_benchmark(FIXTURES, lambdas=[1.0, 0.3], seed=0)
        assert reversed_.lambdas == [0.3, 1.0]
        assert json.loads(reversed_.to_json())["config"]["lambdas"] == [0.3, 1.0]
        assert reversed_.precision_csv() == given.precision_csv()
        # The spread column is the largest lambda's.
        fpv = reversed_.precision_csv().splitlines()[1]
        assert fpv.endswith(f",{reversed_.spread_mean[1.0]:.4f}")

    def test_json_and_csv_outputs(self):
        report = run_benchmark(FIXTURES, seed=0, repeats=2)
        payload = json.loads(report.to_json())
        assert payload["config"]["repeats"] == 2
        for written, rec in zip(payload["instances"], report.instances):
            assert written["trace"] == json.loads(rec.trace.to_json())
        assert len(payload["instances"]) == 3
        assert set(payload["precision_std"]) == {
            str(l) for l in DEFAULT_LAMBDAS
        }
        csv = report.precision_csv().splitlines()
        assert csv[0].split(",")[1:-1] == [str(l) for l in DEFAULT_LAMBDAS]
        assert csv[1].startswith("fpv,")
        assert csv[2].startswith("fpv-std,")
        assert csv[3].startswith("uniform,")

