"""Generator for 4-connected grid navigation benchmark instances.

Cells are named c1..c(w*h), row-major from the top-left.  Adjacency is
encoded as a static predicate so that grounding yields one is-at fact per
cell and one move action per directed open-cell edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError

DOMAIN_NAME = "grid-nav"
MAX_GRID_DRAWS = 1000

DOMAIN_TEXT = """\
(define (domain grid-nav)
  (:requirements :strips)
  (:predicates (is-at ?x) (adj ?x ?y))
  (:action m
    :parameters (?x ?y)
    :precondition (and (is-at ?x) (adj ?x ?y))
    :effect (and (is-at ?y) (not (is-at ?x)))))
"""


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    blocked: frozenset[str]
    start: str
    goal_cells: tuple[str, ...]
    true_goal: str
    observations: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def cell(self, row: int, col: int) -> str:
        return f"c{(row - 1) * self.width + col}"

    def coords(self, cell: str) -> tuple[int, int]:
        idx = int(cell[1:]) - 1
        return idx // self.width + 1, idx % self.width + 1

    def cells(self) -> list[str]:
        return [f"c{i}" for i in range(1, self.width * self.height + 1)]

    def open_cells(self) -> list[str]:
        return [c for c in self.cells() if c not in self.blocked]

    def neighbors(self, cell: str) -> list[str]:
        row, col = self.coords(cell)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if 1 <= r <= self.height and 1 <= c <= self.width:
                other = self.cell(r, c)
                if other not in self.blocked:
                    out.append(other)
        return out

    def edges(self) -> list[tuple[str, str]]:
        """Directed edges between open cells."""
        out = []
        for cell in self.open_cells():
            for other in self.neighbors(cell):
                out.append((cell, other))
        return out


def bfs_tree(spec: GridSpec, source: str) -> dict[str, str | None]:
    """Each cell reachable from source mapped to its BFS parent (None for
    source), set when the cell is first discovered."""
    parent: dict[str, str | None] = {source: None}
    queue = deque([source])
    while queue:
        cell = queue.popleft()
        for other in spec.neighbors(cell):
            if other not in parent:
                parent[other] = cell
                queue.append(other)
    return parent


def _walk_back(tree: dict[str, str | None], target: str) -> list[str] | None:
    if target not in tree:
        return None
    path = [target]
    while (cell := tree[path[-1]]) is not None:
        path.append(cell)
    return path[::-1]


def shortest_path(spec: GridSpec, source: str, target: str) -> list[str] | None:
    """BFS cell path including both endpoints; None when disconnected."""
    return _walk_back(bfs_tree(spec, source), target)


def random_grid(
    rng: np.random.Generator,
    width: int = 7,
    height: int = 7,
    n_goals: int = 3,
    block_prob: float = 0.2,
) -> GridSpec:
    """A random connected instance with a full-plan observation sequence.

    Arguments that no draw can satisfy (too few cells for the goals and a
    start cell, or a block probability that blocks every cell) are
    rejected before anything is drawn from `rng`.  Arguments that rarely
    give a usable grid are rejected after MAX_GRID_DRAWS failed draws.
    """
    if width < 1 or height < 1:
        raise ParameterError(f"grid sides must be positive, got {width}x{height}")
    if n_goals < 1:
        raise ParameterError(f"number of goals must be positive, got {n_goals}")
    if width * height < n_goals + 1:
        raise ParameterError(
            f"a {width}x{height} grid cannot hold {n_goals} goals and a start cell"
        )
    if not 0.0 <= block_prob < 1.0:
        raise ParameterError(f"block probability must lie in [0, 1), got {block_prob}")
    for _ in range(MAX_GRID_DRAWS):
        spec = GridSpec(
            width=width,
            height=height,
            blocked=frozenset(
                f"c{i}"
                for i in range(1, width * height + 1)
                if rng.random() < block_prob
            ),
            start="",
            goal_cells=(),
            true_goal="",
        )
        open_cells = spec.open_cells()
        if len(open_cells) < n_goals + 1:
            continue
        start = open_cells[int(rng.integers(len(open_cells)))]
        tree = bfs_tree(spec, start)
        candidates = sorted(c for c in tree if c != start)
        if len(candidates) < n_goals:
            continue
        picks = rng.choice(len(candidates), size=n_goals, replace=False)
        goals = tuple(candidates[i] for i in sorted(picks))
        true_goal = goals[int(rng.integers(n_goals))]
        spec = replace(spec, start=start, goal_cells=goals, true_goal=true_goal)
        path = _walk_back(tree, true_goal)
        return replace(spec, observations=tuple(zip(path[:-1], path[1:])))
    raise ParameterError(
        f"no usable {width}x{height} grid with {n_goals} goals in {MAX_GRID_DRAWS} draws "
        f"at block probability {block_prob}; lower the block probability"
    )


# ── Instance file rendering ──────────────────────────────────────────────


def template_text(spec: GridSpec) -> str:
    objects = " ".join(spec.cells())
    init = [f"(is-at {spec.start})"]
    init += [f"(adj {a} {b})" for a, b in spec.edges()]
    init_str = "\n         ".join(init)
    return (
        f"(define (problem {DOMAIN_NAME}-p)\n"
        f"  (:domain {DOMAIN_NAME})\n"
        f"  (:objects {objects})\n"
        f"  (:init {init_str})\n"
        f"  (:goal (and <HYPOTHESIS>)))\n"
    )


def hyps_text(spec: GridSpec) -> str:
    return "".join(f"(is-at {cell})\n" for cell in spec.goal_cells)


def real_hyp_text(spec: GridSpec) -> str:
    return f"(is-at {spec.true_goal})\n"


def obs_text(spec: GridSpec) -> str:
    return "".join(f"(m {a} {b})\n" for a, b in spec.observations)


def write_instance(directory: str | Path, spec: GridSpec) -> Path:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / "domain.pddl").write_text(DOMAIN_TEXT, encoding="utf-8")
    (path / "template.pddl").write_text(template_text(spec), encoding="utf-8")
    (path / "hyps.dat").write_text(hyps_text(spec), encoding="utf-8")
    (path / "obs.dat").write_text(obs_text(spec), encoding="utf-8")
    (path / "real_hyp.dat").write_text(real_hyp_text(spec), encoding="utf-8")
    return path
