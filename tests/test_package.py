"""The package's public surface, its error classes and its runnable demos."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goalrec
import goalrec.errors

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "DomainAst",
    "EvaluationReport",
    "FactProbabilityTable",
    "GroundAction",
    "GroundFact",
    "GroundProblem",
    "Literal",
    "ObservationEvent",
    "ProblemAst",
    "RecognitionInstance",
    "RecognitionTrace",
    "Recognizer",
    "build_problem",
    "compile_negations",
    "estimate",
    "exact_oracle",
    "ground",
    "load_instance",
    "parse_domain",
    "parse_problem",
    "precision",
    "prepare_instance",
    "recognize",
    "recognize_online",
    "run_benchmark",
    "spread",
]


def test_public_surface_is_pinned():
    # Widening or narrowing the public surface must show up as a diff here.
    assert sorted(goalrec.__all__) == PUBLIC_NAMES
    for name in goalrec.__all__:
        assert getattr(goalrec, name) is not None


def test_every_error_class_is_raised_in_the_package():
    # An error that only tests raise belongs with those tests.
    raised = set()
    for path in (ROOT / "src" / "goalrec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    defined = {
        name
        for name, obj in vars(goalrec.errors).items()
        if isinstance(obj, type) and obj.__module__ == goalrec.errors.__name__
    }
    assert sorted(defined - raised) == []


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
