"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from goalrec.bench import DEFAULT_LAMBDAS
from goalrec.cli import EXIT_CAP_EXCEEDED, EXIT_INPUT_ERROR, EXIT_OK, main

from conftest import FIXTURES, TABLE1, TYPED_DOMAIN

GRID = FIXTURES / "grid"


def _grid_args(command, *extra):
    return [
        command,
        "--domain", str(GRID / "domain.pddl"),
        "--template", str(GRID / "template.pddl"),
        "--hyps", str(GRID / "hyps.dat"),
        *extra,
    ]


def _read_csv(path):
    rows = {}
    lines = path.read_text().splitlines()
    for line in lines[2:]:
        name, observed, rest = line.rsplit(",", 2)
        rows[name] = (float(observed), float(rest))
    return lines[0], rows


class TestEstimate:
    def test_writes_one_csv_per_goal(self, tmp_path, capsys):
        code = main(_grid_args("estimate", "--output", str(tmp_path)))
        assert code == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / "goal_0.csv"), str(tmp_path / "goal_1.csv")]
        for i in range(2):
            header, rows = _read_csv(tmp_path / f"goal_{i}.csv")
            assert header == "# aggregation: empirical-union"
            assert len(rows) == 25

    def test_invalid_pddl_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain broken)")
        code = main(
            [
                "estimate",
                "--domain", str(bad),
                "--template", str(GRID / "template.pddl"),
                "--hyps", str(GRID / "hyps.dat"),
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--domain", str(tmp_path / "nope.pddl"),
                "--template", str(GRID / "template.pddl"),
                "--hyps", str(GRID / "hyps.dat"),
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "nope.pddl" in capsys.readouterr().err

    def test_noisy_or_tagged_in_header(self, tmp_path, capsys):
        code = main(
            _grid_args("estimate", "--aggregation", "noisy-or", "--output", str(tmp_path))
        )
        assert code == EXIT_OK
        header, _ = _read_csv(tmp_path / "goal_0.csv")
        assert header == "# aggregation: noisy-or"


    def test_thread_count_does_not_change_csv(self, tmp_path, capsys):
        for threads in ("1", "2"):
            code = main(
                _grid_args("estimate", "--threads", threads, "--output", str(tmp_path / threads))
            )
            assert code == EXIT_OK
        for i in range(2):
            name = f"goal_{i}.csv"
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_repeated_object_exits_one(self, tmp_path, capsys):
        template = tmp_path / "template.pddl"
        template.write_text(
            (GRID / "template.pddl").read_text().replace("(:objects c1 ", "(:objects c1 c1 ", 1)
        )
        code = main(
            [
                "estimate",
                "--domain", str(GRID / "domain.pddl"),
                "--template", str(template),
                "--hyps", str(GRID / "hyps.dat"),
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "c1 is declared more than once" in capsys.readouterr().err

    def test_mistyped_init_atom_exits_one(self, tmp_path, capsys):
        (tmp_path / "domain.pddl").write_text(TYPED_DOMAIN)
        (tmp_path / "template.pddl").write_text(
            "(define (problem p) (:domain typed) (:objects x1 - a y1 - b)\n"
            "  (:init (at y1)) (:goal (and <HYPOTHESIS>)))\n"
        )
        (tmp_path / "hyps.dat").write_text("(at x1)\n")
        code = main(
            [
                "estimate",
                "--domain", str(tmp_path / "domain.pddl"),
                "--template", str(tmp_path / "template.pddl"),
                "--hyps", str(tmp_path / "hyps.dat"),
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "(at y1)" in capsys.readouterr().err


class TestRecognize:
    def test_final_recognized_is_goal_zero(self, capsys):
        code = main(_grid_args("recognize", "--obs", str(GRID / "obs.dat")))
        assert code == EXIT_OK
        steps = json.loads(capsys.readouterr().out)
        assert steps[-1]["recognized"] == [0]
        assert "elapsed_ns" not in steps[-1]

    def test_at_lambda_zero_ties_all_goals(self, capsys):
        code = main(
            _grid_args(
                "recognize", "--obs", str(GRID / "obs.dat"), "--at-lambda", "0.0"
            )
        )
        assert code == EXIT_OK
        steps = json.loads(capsys.readouterr().out)
        assert steps == [{"t": 0, "h": [0.0, 0.0], "recognized": [0, 1]}]

    def test_seed_reproducibility(self, capsys):
        args = _grid_args("recognize", "--obs", str(GRID / "obs.dat"), "--seed", "7")
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_two_atoms_on_one_obs_line_exits_one(self, tmp_path, capsys):
        obs = tmp_path / "obs.dat"
        obs.write_text("(m c23 c22) (m c22 c21)\n")
        code = main(_grid_args("recognize", "--obs", str(obs)))
        assert code == EXIT_INPUT_ERROR
        assert "unparsable" in capsys.readouterr().err

    def test_text_format(self, capsys):
        code = main(
            _grid_args("recognize", "--obs", str(GRID / "obs.dat"), "--format", "text")
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "t=2" in out and "recognized=[0]" in out


class TestOracle:
    def test_reproduces_hand_derived_tables(self, tmp_path, capsys):
        code = main(_grid_args("oracle", "--output", str(tmp_path)))
        assert code == EXIT_OK
        for i in range(2):
            header, rows = _read_csv(tmp_path / f"goal_{i}.csv")
            assert header == "# aggregation: exact"
            for name, pair in TABLE1.items():
                observed, rest = rows[name]
                assert observed == pair[i]
                assert rest == 1.0 - pair[i]

    def test_state_cap_exits_two(self, tmp_path, capsys):
        code = main(_grid_args("oracle", "--max-states", "10", "--output", str(tmp_path)))
        assert code == EXIT_CAP_EXCEEDED
        assert "10" in capsys.readouterr().err

    def test_unique_plan_fixture_zero_one_values(self, tmp_path, capsys):
        chain = FIXTURES / "chain"
        code = main(
            [
                "oracle",
                "--domain", str(chain / "domain.pddl"),
                "--template", str(chain / "template.pddl"),
                "--hyps", str(chain / "hyps.dat"),
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        for i in range(2):
            _, rows = _read_csv(tmp_path / f"goal_{i}.csv")
            assert all(observed in (0.0, 1.0) for observed, _ in rows.values())


class TestBench:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        code = main(
            ["bench", "--dataset", str(FIXTURES), "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["instances"]) == 3
        header = (tmp_path / "precision.csv").read_text().splitlines()[0]
        assert header.split(",")[1:-1] == [str(l) for l in DEFAULT_LAMBDAS]

    def test_repeats_add_std_row(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--dataset", str(FIXTURES),
                "--repeats", "3",
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "precision.csv").read_text().splitlines()
        assert lines[2].startswith("fpv-std,")

    def test_empty_dataset_exits_one(self, tmp_path, capsys):
        code = main(
            ["bench", "--dataset", str(tmp_path / "none"), "--output", str(tmp_path)]
        )
        assert code == EXIT_INPUT_ERROR


class TestGenGrid:
    def test_generates_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "generated"
        code = main(
            [
                "gen-grid",
                "--width", "6",
                "--height", "6",
                "--goals", "3",
                "--seed", "4",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        for name in ("domain.pddl", "template.pddl", "hyps.dat", "obs.dat", "real_hyp.dat"):
            assert (out / name).is_file()

        from goalrec import load_instance, prepare_instance

        instance = load_instance(out)
        problem, events = prepare_instance(instance)
        assert len(problem.goals) == 3
        assert events

    def test_same_seed_same_instance(self, tmp_path, capsys):
        for name in ("a", "b"):
            main(["gen-grid", "--seed", "11", "--output", str(tmp_path / name)])
        a = (tmp_path / "a" / "template.pddl").read_text()
        b = (tmp_path / "b" / "template.pddl").read_text()
        assert a == b
