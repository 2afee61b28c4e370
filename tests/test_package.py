"""The package's public surface, its error classes, its callers, its demos and its README."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import goalrec
import goalrec.errors

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "EvaluationReport",
    "FactProbabilityTable",
    "GroundAction",
    "GroundProblem",
    "ObservationEvent",
    "RecognitionInstance",
    "RecognitionTrace",
    "Recognizer",
    "build_problem",
    "estimate",
    "exact_oracle",
    "load_instance",
    "prepare_instance",
    "recognize",
    "recognize_online",
    "run_benchmark",
]


def test_public_surface_is_pinned():
    # Widening or narrowing the public surface must show up as a diff here.
    assert sorted(goalrec.__all__) == PUBLIC_NAMES
    for name in goalrec.__all__:
        assert getattr(goalrec, name) is not None


ERROR_CLASSES = [
    "DatasetError",
    "GoalRecError",
    "ParameterError",
    "PddlSyntaxError",
    "SearchCapExceededError",
    "UnreachableGoalError",
    "ValidationError",
]


def test_error_classes_are_pinned():
    # One class per fault a caller can act on, each a GoalRecError.
    defined = [
        obj
        for obj in vars(goalrec.errors).values()
        if isinstance(obj, type) and obj.__module__ == goalrec.errors.__name__
    ]
    assert sorted(obj.__name__ for obj in defined) == ERROR_CLASSES
    assert all(issubclass(obj, goalrec.errors.GoalRecError) for obj in defined)


def test_readme_counts_the_exported_names():
    [count] = re.findall(r"The package exports (\d+) names", (ROOT / "README.md").read_text())
    assert int(count) == len(goalrec.__all__)


def test_every_error_class_is_raised_in_the_package():
    # An error that only tests raise belongs with those tests.  The base
    # class is only caught, by the CLI and the benchmark.
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
    assert sorted(defined - raised) == ["GoalRecError"]


# Definitions that no package path calls, each with the reason it stays.
UNCALLED_BUT_KEPT = {
    "GroundProblem.fact_id": "how the API names an observed fact",
    "ObservationEvent.state": "how the API observes facts rather than actions",
    "_ArgumentParser.error": "argparse calls it itself",
}


def _uses(path: Path, *, strings: bool) -> tuple[set[str], set[str]]:
    """The names a file uses (as a name, an import, an attribute and, with
    strings, a word of a string constant) and the attributes it accesses."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names | attributes, attributes


def test_every_definition_has_a_package_caller():
    # Code that only tests call belongs with those tests.  The package's
    # callers are its own modules, the benchmark (whose span names are
    # strings) and the demos.
    package = sorted((ROOT / "src" / "goalrec").glob("*.py"))
    used, accessed = set(), set()
    for path, strings in (
        [(p, False) for p in package]
        + [(p, True) for p in (ROOT / "perfbench").glob("*.py")]
        + [(p, False) for p in (ROOT / "demos").glob("*.py")]
    ):
        names, attributes = _uses(path, strings=strings)
        used |= names
        accessed |= attributes
    uncalled = set()
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                uncalled.add(node.name)
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (
                    isinstance(method, ast.FunctionDef)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and method.name not in accessed
                ):
                    uncalled.add(f"{node.name}.{method.name}")
    assert sorted(uncalled) == sorted(UNCALLED_BUT_KEPT)


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


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "".join(blocks)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "[0]"
