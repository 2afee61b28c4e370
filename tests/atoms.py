"""Atom readers that only tests use.

The package reads atoms only as lines of a dataset file (`bench.parse_hypotheses`,
`bench.parse_observations`); tests build hypotheses and check the reader one
atom or one line at a time.
"""

from goalrec.bench import _line_atoms
from goalrec.errors import DatasetError
from goalrec.pddl import Literal, _read_single, parse_literal


def parse_atom(text: str) -> Literal:
    """One ground atom, "(pred arg ...)" or "(not (pred arg ...))"."""
    return parse_literal(_read_single(text), allow_negation=True)


def parse_hypothesis_line(line: str) -> frozenset[Literal]:
    """The hypothesis on one line, which must hold atoms."""
    atoms = _line_atoms(line)
    if not atoms:
        raise DatasetError(f"hypothesis line has no atoms: {line!r}")
    return frozenset(atoms)
