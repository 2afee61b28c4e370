"""The package's public surface and its runnable demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import goalrec

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
