"""Benchmark harness: instance loading, metrics, report generation."""

import json
import shutil
from statistics import mean
from types import SimpleNamespace

import pytest

from goalrec import bench
from goalrec.bench import (
    DEFAULT_LAMBDAS,
    load_instance,
    parse_observations,
    precision,
    prefix_length,
    prepare_instance,
    recognized_at,
    run_benchmark,
    spread,
)
from goalrec.errors import DatasetError, GoalRecError, ParameterError
from goalrec.recognition import RecognitionTrace, TraceStep

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

    def test_prefix_length_floors(self):
        assert prefix_length(3, 0.1) == 0
        assert prefix_length(10, 0.25) == 2
        assert prefix_length(10, 1.0) == 10

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
        base = report.baseline_precision[0.1]
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

    def test_negative_seed_rejected_before_loading(self, tmp_path, monkeypatch):
        # The run seed is checked up front, before any instance is loaded
        # or recorded as failing.
        monkeypatch.setattr(bench, "load_instance", lambda path: pytest.fail(f"loaded {path}"))
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            run_benchmark(FIXTURES, seed=-1)

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

