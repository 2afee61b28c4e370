"""Command-line interface: subcommands, outputs, exit codes."""

import argparse
import codecs
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalrec import Recognizer, load_instance, prepare_instance
from goalrec.bench import DEFAULT_LAMBDAS, estimate_tables
from goalrec.cli import EXIT_CAP_EXCEEDED, EXIT_INPUT_ERROR, EXIT_OK, build_parser, main
from goalrec.errors import ParameterError
from goalrec.gridgen import MAX_GRID_DRAWS, GridSpec, random_grid, shortest_path
from goalrec.probability import DEFAULT_N_SAMPLES

from conftest import FIXTURES, TABLE1, TYPED_DOMAIN, example_grid

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

    def test_goal_without_a_form_exits_one(self, tmp_path, capsys):
        template = tmp_path / "template.pddl"
        text = (GRID / "template.pddl").read_text()
        template.write_text(text.replace("(:goal (and <HYPOTHESIS>))", "(:goal)"))
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
        assert capsys.readouterr().err.startswith("error:")

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

    @pytest.mark.parametrize("flag", ["--domain", "--template", "--hyps"])
    def test_undecodable_file_exits_one(self, tmp_path, capsys, flag):
        args = _grid_args("estimate", "--output", str(tmp_path / "out"))
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff" + Path(args[args.index(flag) + 1]).read_bytes())
        args[args.index(flag) + 1] = str(bad)
        assert main(args) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8 text") and "Traceback" not in err

    def test_parenthesised_requirement_tag_exits_one(self, tmp_path, capsys):
        domain = tmp_path / "domain.pddl"
        text = (GRID / "domain.pddl").read_text()
        domain.write_text(text.replace("(:requirements :strips)", "(:requirements (:strips))"))
        args = _grid_args("estimate", "--output", str(tmp_path / "out"))
        args[args.index("--domain") + 1] = str(domain)
        assert main(args) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: requirement tags are symbols, got (:strips)\n"

    @pytest.mark.parametrize(
        "command,name,old,new,message",
        [
            ("estimate", "domain.pddl", "(total-cost) 1)", "(total-cost) 1/0)",
             "invalid cost '1/0' in drive"),
            ("oracle", "template.pddl", "(= (total-cost) 0)", "(= (total-cost) 0) (= (fuel t1) 5)",
             "unsupported numeric init form: (= (fuel t1) 5)"),
            ("oracle", "template.pddl", "minimize", "maximize",
             "unsupported metric: (:metric maximize (total-cost))"),
        ],
        ids=["zero-denominator-cost", "fuel-init", "maximize-metric"],
    )
    def test_unsupported_number_exits_one(self, tmp_path, capsys, command, name, old, new, message):
        root = tmp_path / "logistics"
        shutil.copytree(FIXTURES / "logistics", root)
        (root / name).write_text((root / name).read_text().replace(old, new, 1))
        args = [
            command,
            "--domain", str(root / "domain.pddl"),
            "--template", str(root / "template.pddl"),
            "--hyps", str(root / "hyps.dat"),
            "--output", str(tmp_path / "out"),
        ]
        assert main(args) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_noisy_or_tagged_in_header(self, tmp_path, capsys):
        code = main(
            _grid_args("estimate", "--aggregation", "noisy-or", "--output", str(tmp_path))
        )
        assert code == EXIT_OK
        header, _ = _read_csv(tmp_path / "goal_0.csv")
        assert header == "# aggregation: noisy-or"

    def test_same_seed_same_csv(self, tmp_path, capsys):
        for run in ("a", "b"):
            code = main(_grid_args("estimate", "--seed", "7", "--output", str(tmp_path / run)))
            assert code == EXIT_OK
        for i in range(2):
            name = f"goal_{i}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_zero_samples_exits_one(self, tmp_path, capsys):
        code = main(_grid_args("estimate", "--n-samples", "0", "--output", str(tmp_path)))
        assert code == EXIT_INPUT_ERROR
        assert "number of samples must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("goal", ["(is-at c1)", "(is-at c1)\n ; <HYPOTHESIS>\n"])
    def test_template_without_placeholder_exits_one(self, tmp_path, capsys, goal):
        template = tmp_path / "template.pddl"
        template.write_text((GRID / "template.pddl").read_text().replace("<HYPOTHESIS>", goal))
        code = main(
            [
                "estimate",
                "--domain", str(GRID / "domain.pddl"),
                "--template", str(template),
                "--hyps", str(GRID / "hyps.dat"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert "<HYPOTHESIS>" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_template_goal_atom_in_no_hypothesis_exits_one(self, tmp_path, capsys):
        template = tmp_path / "template.pddl"
        text = (GRID / "template.pddl").read_text()
        template.write_text(text.replace("<HYPOTHESIS>", "(is-at c25) <HYPOTHESIS>"))
        code = main(
            [
                "estimate",
                "--domain", str(GRID / "domain.pddl"),
                "--template", str(template),
                "--hyps", str(GRID / "hyps.dat"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: template goal atom (is-at c25) is in no")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("deep", ["domain", "hyps"])
    def test_deep_nesting_exits_one(self, tmp_path, capsys, deep):
        files = {"domain": GRID / "domain.pddl", "hyps": GRID / "hyps.dat"}
        files[deep] = tmp_path / deep
        files[deep].write_text("(" * 3000 + ")" * 3000 + "\n")
        code = main(
            [
                "estimate",
                "--domain", str(files["domain"]),
                "--template", str(GRID / "template.pddl"),
                "--hyps", str(files["hyps"]),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "parentheses nested deeper than 100 (line 1, column 101)" in err
        assert len(err) < 200  # a .dat error quotes only the start of its line

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

    def test_non_ascii_names_are_written_as_utf8_under_an_ascii_locale(self, tmp_path):
        # Inputs are read as UTF-8 whatever the locale, so outputs are written as UTF-8 too.
        for name in ("domain.pddl", "template.pddl", "hyps.dat"):
            text = (GRID / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text(re.sub(r"\bc1\b", "cé1", text), encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("PYTHONUTF8", "PYTHONIOENCODING"):
            env.pop(var, None)
        result = subprocess.run(
            [
                sys.executable, "-X", "utf8=0", "-m", "goalrec.cli", "estimate",
                "--domain", str(tmp_path / "domain.pddl"),
                "--template", str(tmp_path / "template.pddl"),
                "--hyps", str(tmp_path / "hyps.dat"),
                "--output", str(tmp_path / "out"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "(is-at cé1)," in (tmp_path / "out" / "goal_0.csv").read_text(encoding="utf-8")

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # Many Windows editors start a UTF-8 file with the mark EF BB BF.
        for name in ("domain.pddl", "template.pddl", "hyps.dat"):
            mark = codecs.BOM_UTF8 if name != "template.pddl" else b""
            (tmp_path / name).write_bytes(mark + (GRID / name).read_bytes())
        assert main(_grid_args("estimate", "--output", str(tmp_path / "plain"))) == EXIT_OK
        args = [
            "estimate",
            "--domain", str(tmp_path / "domain.pddl"),
            "--template", str(tmp_path / "template.pddl"),
            "--hyps", str(tmp_path / "hyps.dat"),
            "--output", str(tmp_path / "marked"),
        ]
        assert main(args) == EXIT_OK
        plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert plain and sorted(p.name for p in (tmp_path / "marked").iterdir()) == plain
        for name in plain:
            marked = (tmp_path / "marked" / name).read_bytes()
            assert marked == (tmp_path / "plain" / name).read_bytes()

    def test_fact_name_with_a_comma_reads_back_as_one_field(self, tmp_path):
        for name in ("domain.pddl", "template.pddl", "hyps.dat"):
            text = (GRID / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text(re.sub(r"\bc1\b", "c,1", text), encoding="utf-8")
        args = [
            "estimate",
            "--domain", str(tmp_path / "domain.pddl"),
            "--template", str(tmp_path / "template.pddl"),
            "--hyps", str(tmp_path / "hyps.dat"),
            "--output", str(tmp_path / "out"),
        ]
        assert main(args) == EXIT_OK
        lines = (tmp_path / "out" / "goal_0.csv").read_text(encoding="utf-8").splitlines()
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["fact_name", "p_observed", "p_not_observed"]
        assert all(len(row) == 3 for row in rows)
        assert "(is-at c,1)" in [row[0] for row in rows]


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            _grid_args("estimate", "--output", "out"),
            _grid_args("recognize", "--obs", str(GRID / "obs.dat")),
            ["bench", "--dataset", str(FIXTURES), "--output", "out"],
        ],
        ids=["estimate", "recognize", "bench"],
    )
    def test_negative_seed_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", "-1"]) == EXIT_INPUT_ERROR
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # The sampler is never run for a relaxed-unreachable goal; the seed is
    # still checked.
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--output", "out"],
            ["recognize", "--obs", str(GRID / "obs.dat"), "--explain", "out"],
        ],
        ids=["estimate", "recognize"],
    )
    def test_negative_seed_with_only_a_blocked_goal_exits_one(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        Path("hyps.dat").write_text(f"(is-at {sorted(example_grid().blocked)[0]})\n")
        problem_flags = [
            "--domain", str(GRID / "domain.pddl"),
            "--template", str(GRID / "template.pddl"),
            "--hyps", "hyps.dat",
        ]
        assert main([*argv, *problem_flags, "--seed", "-1"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert "error: seed must be non-negative, got -1" in err
        assert out == ""
        assert not Path("out").exists()


class TestUsageErrors:
    def _exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    def test_threads_option_is_gone(self, tmp_path, capsys):
        argv = _grid_args("estimate", "--threads", "2", "--output", str(tmp_path))
        assert self._exit_code(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: goalrec")
        assert "unrecognized arguments: --threads 2" in err
        assert not list(tmp_path.iterdir())

    def test_non_integer_samples(self, tmp_path, capsys):
        argv = _grid_args("estimate", "--n-samples", "abc", "--output", str(tmp_path))
        assert self._exit_code(argv) == EXIT_INPUT_ERROR
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path, capsys):
        argv = ["estimate", "--template", str(GRID / "template.pddl"),
                "--hyps", str(GRID / "hyps.dat"), "--output", str(tmp_path)]
        assert self._exit_code(argv) == EXIT_INPUT_ERROR
        assert "the following arguments are required: --domain" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert self._exit_code(["estimate", "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: goalrec estimate")


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

    def test_negative_at_lambda_exits_one(self, capsys):
        code = main(
            _grid_args("recognize", "--obs", str(GRID / "obs.dat"), "--at-lambda", "-1")
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "lambda must lie in [0, 1]" in captured.err
        assert captured.out == ""

    def test_unwritable_explain_path_exits_one(self, tmp_path, capsys):
        code = main(_grid_args("recognize", "--obs", str(GRID / "obs.dat"), "--explain", str(tmp_path)))
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_text_format(self, capsys):
        code = main(
            _grid_args("recognize", "--obs", str(GRID / "obs.dat"), "--format", "text")
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "t=2" in out and "recognized=[0]" in out

    def test_explain_writes_score_terms(self, tmp_path, capsys):
        args = _grid_args("recognize", "--obs", str(GRID / "obs.dat"))
        assert main(args) == EXIT_OK
        plain = capsys.readouterr().out
        path = tmp_path / "out" / "explain.json"
        assert main([*args, "--explain", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == plain
        h = json.loads(plain)[-1]["h"]
        explain = json.loads(path.read_text())
        assert len(explain) == 2
        for goal in explain:
            assert set(goal) == {"reward", "remaining", "penalized_facts"}
        assert explain[1]["penalized_facts"] == ["(is-at c22)", "(is-at c21)"]

        problem, events = prepare_instance(load_instance(GRID))
        recognizer = Recognizer(problem, estimate_tables(problem, DEFAULT_N_SAMPLES, 0))
        for event in events:
            recognizer.observe(event)
        for g, goal in enumerate(explain):
            assert goal["reward"] == recognizer.start[g]
            assert goal["reward"] - float(np.linalg.norm(recognizer.directions[g])) == h[g]


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

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_state_cap_exits_one(self, tmp_path, capsys, cap):
        code = main(_grid_args("oracle", "--max-states", cap, "--output", str(tmp_path)))
        assert code == EXIT_INPUT_ERROR
        assert f"state cap must be positive, got {cap}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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


    def test_zero_cost_cycle_exits_one(self, tmp_path, capsys):
        # (back) undoes (go) at no cost: a zero-cost cycle between s0 and
        # the state after (go), which the plan-counting oracle rejects.
        domain = tmp_path / "domain.pddl"
        domain.write_text(
            "(define (domain loop)\n"
            "  (:requirements :strips :action-costs)\n"
            "  (:predicates (a) (b) (g))\n"
            "  (:functions (total-cost))\n"
            "  (:action go :parameters () :precondition (a)\n"
            "    :effect (and (b) (not (a)) (increase (total-cost) 0)))\n"
            "  (:action back :parameters () :precondition (b)\n"
            "    :effect (and (a) (not (b)) (increase (total-cost) 0)))\n"
            "  (:action finish :parameters () :precondition (b)\n"
            "    :effect (and (g) (increase (total-cost) 1))))\n"
        )
        template = tmp_path / "template.pddl"
        template.write_text(
            "(define (problem loop-p) (:domain loop) (:init (a))\n"
            "  (:goal (and <HYPOTHESIS>)))\n"
        )
        hyps = tmp_path / "hyps.dat"
        hyps.write_text("(g)\n")
        out = tmp_path / "out"
        code = main(
            [
                "oracle",
                "--domain", str(domain),
                "--template", str(template),
                "--hyps", str(hyps),
                "--output", str(out),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: zero-cost action (back)")
        assert not out.exists()

    def test_unreachable_goal_is_named_by_index(self, tmp_path, capsys):
        hyps = tmp_path / "hyps.dat"
        hyps.write_text(f"(is-at c1)\n(is-at {sorted(example_grid().blocked)[0]})\n")
        out = tmp_path / "out"
        code = main(
            [
                "oracle",
                "--domain", str(GRID / "domain.pddl"),
                "--template", str(GRID / "template.pddl"),
                "--hyps", str(hyps),
                "--output", str(out),
            ]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == "error: goal 1 is unreachable under full semantics\n"
        assert not out.exists()


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

    def test_zero_repeats_exits_one(self, tmp_path, capsys):
        code = main(
            ["bench", "--dataset", str(FIXTURES), "--repeats", "0", "--output", str(tmp_path)]
        )
        assert code == EXIT_INPUT_ERROR
        assert "repeats must be positive" in capsys.readouterr().err

    def test_lambda_above_one_exits_one(self, tmp_path, capsys):
        code = main(
            ["bench", "--dataset", str(FIXTURES), "--lambdas", "0.5", "1.5",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_INPUT_ERROR
        assert "lambda must lie in [0, 1], got 1.5" in capsys.readouterr().err

    def test_repeated_lambda_exits_one(self, tmp_path, capsys):
        code = main(
            ["bench", "--dataset", str(FIXTURES), "--lambdas", "0.5", "0.5",
             "--output", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "error: lambda listed twice: 0.5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lambda_order_leaves_csv_unchanged(self, tmp_path, capsys):
        written = []
        for order in (["0.3", "1.0"], ["1.0", "0.3"]):
            out = tmp_path / "-".join(order)
            args = ["bench", "--dataset", str(FIXTURES), "--lambdas", *order]
            assert main([*args, "--output", str(out)]) == EXIT_OK
            written.append((out / "precision.csv").read_bytes())
        assert written[0] == written[1]
        assert written[0].startswith(b"method,0.3,1.0,spread\n")

    def test_all_instances_failing_exits_one(self, tmp_path, capsys):
        shutil.copytree(GRID, tmp_path / "data" / "grid")
        (tmp_path / "data" / "grid" / "obs.dat").write_text("; nothing observed\n")
        code = main(["bench", "--dataset", str(tmp_path / "data"), "--output", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: all 1 instances failed to load\n"

    def test_broken_instance_is_reported_and_the_rest_written(self, tmp_path, capsys):
        for name in ("a", "b"):
            shutil.copytree(GRID, tmp_path / "data" / name)
        (tmp_path / "data" / "b" / "obs.dat").write_text("")
        out = tmp_path / "out"
        code = main(["bench", "--dataset", str(tmp_path / "data"), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [written["name"] for written in report["instances"]] == ["a"]
        assert report["failures"] == [{"instance": "b", "error": "empty obs.dat"}]
        assert (out / "precision.csv").read_text().startswith("method,")
        assert capsys.readouterr().err == "failed instance b: empty obs.dat\n"

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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--width", "0"], "grid sides must be positive, got 0x7"),
            (["--height", "0"], "grid sides must be positive, got 7x0"),
            (["--goals", "0"], "number of goals must be positive, got 0"),
            (["--width", "1", "--height", "1", "--goals", "3"],
             "a 1x1 grid cannot hold 3 goals and a start cell"),
            (["--block-prob", "1.0"], "block probability must lie in [0, 1), got 1.0"),
            (["--block-prob", "-0.1"], "block probability must lie in [0, 1), got -0.1"),
            (["--block-prob", "nan"], "block probability must lie in [0, 1), got nan"),
        ],
    )
    def test_impossible_grid_exits_one(self, tmp_path, capsys, flags, message):
        out = tmp_path / "generated"
        code = main(["gen-grid", *flags, "--output", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rejection_draws_nothing(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ParameterError):
            random_grid(rng, width=1, height=1, n_goals=3)
        assert rng.random() == np.random.default_rng(5).random()

    def test_no_shortest_path_across_a_blocked_cell(self):
        spec = GridSpec(3, 1, frozenset({"c2"}), "c1", ("c3",), "c3")
        assert shortest_path(spec, "c1", "c3") is None

    def test_nearly_blocked_grid_exits_one_quickly(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["gen-grid", "--block-prob", "0.99", "--output", str(tmp_path / "g")])
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_INPUT_ERROR
        assert f"in {MAX_GRID_DRAWS} draws" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = main(["gen-grid", "--seed", "-1", "--output", str(tmp_path / "g")])
        assert code == EXIT_INPUT_ERROR
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_same_seed_same_instance(self, tmp_path, capsys):
        for name in ("a", "b"):
            main(["gen-grid", "--seed", "11", "--output", str(tmp_path / name)])
        a = (tmp_path / "a" / "template.pddl").read_text()
        b = (tmp_path / "b" / "template.pddl").read_text()
        assert a == b


# ── Front-end fuzz: one token edit of one fixture file ──────────────────

FUZZED_FILES = ("domain.pddl", "template.pddl", "hyps.dat", "obs.dat")
FUZZ_VOCABULARY = (
    b"-", b"(", b")", b"not", b"and", b"?x", b"either", b":constants", b"<HYPOTHESIS>",
    b":typing", b"object", b"=", b",", b";", b"0", b"\xff",
)


@st.composite
def fuzzed_inputs(draw):
    """A fixture, one of its input files, and that file's bytes after one
    edit: a token replaced, deleted, duplicated, swapped with another token,
    or a vocabulary token inserted before it."""
    fixture = draw(st.sampled_from(sorted(p.name for p in FIXTURES.iterdir())))
    name = draw(st.sampled_from(FUZZED_FILES))
    text = (FIXTURES / fixture / name).read_bytes()
    spans = [m.span() for m in re.finditer(rb"[()]|[^\s()]+", text)]
    index = st.integers(0, len(spans) - 1)
    (a, b), other = spans[draw(index)], spans[draw(index)]
    (s, t), (u, v) = sorted([(a, b), other])
    word = draw(st.sampled_from(FUZZ_VOCABULARY))
    edits = {
        "replace": text[:a] + word + text[b:],
        "delete": text[:a] + text[b:],
        "duplicate": text[:b] + b" " + text[a:b] + text[b:],
        "swap": text[:s] + text[u:v] + text[t:u] + text[s:t] + text[v:] if t <= u else text,
        "insert": text[:a] + word + b" " + text[a:],
    }
    return fixture, name, edits[draw(st.sampled_from(sorted(edits)))]


def _logistics_with(old, new):
    text = (FIXTURES / "logistics" / "domain.pddl").read_bytes()
    assert text.count(old) == 1
    return "logistics", "domain.pddl", text.replace(old, new)


class TestFrontEndFuzz:
    @given(case=fuzzed_inputs())
    @example(
        case=(
            "grid",
            "domain.pddl",
            (GRID / "domain.pddl").read_bytes().replace(b":strips", b"(:strips)"),
        )
    )
    @example(case=_logistics_with(b"(at-pkg ?p ?l) (not", b"(at-pkg ?p ?l) (at-truck ?p ?l) (not"))
    @example(case=_logistics_with(b"(at-truck ?t ?l) (at-pkg ?p", b"(at-truck ?t ?l) (at-pkg ?t"))
    @example(case=("chain", "obs.dat", b"\xff" + (FIXTURES / "chain" / "obs.dat").read_bytes()))
    @settings(max_examples=100, deadline=None)
    def test_one_edit_exits_with_a_code_and_no_exception(self, case):
        fixture, name, content = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for f in FUZZED_FILES:
                shutil.copy(FIXTURES / fixture / f, root / f)
            (root / name).write_bytes(content)
            files = [
                "--domain", str(root / "domain.pddl"),
                "--template", str(root / "template.pddl"),
                "--hyps", str(root / "hyps.dat"),
            ]
            out = ["--output", str(root / "out")]
            for args in (
                ["estimate", *files, *out],
                ["recognize", *files, "--obs", str(root / "obs.dat")],
                ["oracle", *files, "--max-states", "20000", *out],
            ):
                assert main(args) in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_CAP_EXCEEDED)


def _readme_usage() -> dict[str, set[str]]:
    """The options that the README's usage block gives each subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```")[1::2] if b.lstrip().startswith("goalrec "))
    usage: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        command = re.match(r"goalrec (\S+)", line)
        if command:
            options = usage.setdefault(command.group(1), set())
        options.update(re.findall(r"--[a-z][a-z-]*", line))
    return usage


def test_readme_usage_names_every_option():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {opt for a in sub._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert _readme_usage() == defined
