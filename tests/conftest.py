"""Shared fixtures for the test suite.

TABLE1 freezes the exact observation probabilities for the bundled 5x5
grid fixture, derived by hand: each goal has exactly two cost-optimal
paths from the start cell, so every fact on exactly one path has
probability 0.5, facts on both paths 1.0, everything else 0.0.
"""

from pathlib import Path

import pytest

from goalrec import load_instance, prepare_instance

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
