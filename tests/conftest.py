"""Shared fixtures for the test suite.

TABLE1 freezes the exact observation probabilities for the bundled 5x5
grid fixture, derived by hand: each goal has exactly two cost-optimal
paths from the start cell, so every fact on exactly one path has
probability 0.5, facts on both paths 1.0, everything else 0.0.
"""

from pathlib import Path

import pytest

from goalrec import load_instance, prepare_instance
from goalrec.gridgen import GridSpec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Grid layout (5x5, row-major c1..c25, # = blocked):
#   c1  c2  c3  c4  c5
#   c6  #   c8  #   c10
#   c11 #   c13 #   c15
#   c16 #   c18 #   c20
#   c21 c22 c23 c24 c25
# Start c23; goal 0 is (is-at c1), goal 1 is (is-at c5).  Each goal has
# two optimal 6-move paths: one up the side column, one up the middle
# column then along the top row.
_G1_PATHS = (
    ("c23", "c22", "c21", "c16", "c11", "c6", "c1"),
    ("c23", "c18", "c13", "c8", "c3", "c2", "c1"),
)
_G2_PATHS = (
    ("c23", "c24", "c25", "c20", "c15", "c10", "c5"),
    ("c23", "c18", "c13", "c8", "c3", "c4", "c5"),
)


def example_grid() -> GridSpec:
    """The spec of the grid fixture: two corner goals, two optimal routes each."""
    return GridSpec(
        width=5,
        height=5,
        blocked=frozenset({"c7", "c9", "c12", "c14", "c17", "c19"}),
        start="c23",
        goal_cells=("c1", "c5"),
        true_goal="c1",
        observations=(("c23", "c22"), ("c22", "c21")),
    )


def _path_probs(paths):
    probs = {}
    for path in paths:
        for cell in path:
            probs[cell] = probs.get(cell, 0.0) + 1.0 / len(paths)
    return {
        f"(is-at c{i})": probs.get(f"c{i}", 0.0) for i in range(1, 26)
    }


# fact name -> (p observed for goal 0, p observed for goal 1)
TABLE1 = {
    name: (_path_probs(_G1_PATHS)[name], _path_probs(_G2_PATHS)[name])
    for name in _path_probs(_G1_PATHS)
}


# c is a subtype of a; b is unrelated.
TYPED_DOMAIN = """\
(define (domain typed)
  (:requirements :strips :typing)
  (:types a b - object c - a)
  (:predicates (at ?x - a) (near ?x - c ?y - object))
  (:action go
    :parameters (?x - a ?y - a)
    :precondition (at ?x)
    :effect (and (at ?y) (not (at ?x)))))
"""


COMMENTED = "-commented"


def commented(text: str) -> str:
    """text after a full-line comment, with a comment closing each of its
    lines; the comments hold parentheses, which the reader must skip."""
    return "; a full-line comment\n" + "".join(
        f"{line} ; (a comment) with (parens\n" for line in text.splitlines()
    )


def fixture_dir(case: str, tmp_path: Path) -> Path:
    """The fixture directory of case; for "<name>" + COMMENTED, a copy of
    fixture <name> under tmp_path with every file passed through commented()."""
    if not case.endswith(COMMENTED):
        return FIXTURES / case
    name = case.removesuffix(COMMENTED)
    copy = tmp_path / "commented" / name
    copy.mkdir(parents=True)
    for path in (FIXTURES / name).iterdir():
        (copy / path.name).write_text(commented(path.read_text()))
    return copy


@pytest.fixture(scope="session")
def grid_instance():
    return load_instance(FIXTURES / "grid")


@pytest.fixture(scope="session")
def grid(grid_instance):
    return prepare_instance(grid_instance)


@pytest.fixture(scope="session")
def chain():
    return prepare_instance(load_instance(FIXTURES / "chain"))


@pytest.fixture(scope="session")
def logistics():
    return prepare_instance(load_instance(FIXTURES / "logistics"))
