"""Seeded workload generators for the benchmark.

Each generator draws from a numpy Generator and writes goalrec dataset
instances (domain.pddl, template.pddl, hyps.dat, obs.dat, real_hyp.dat)
under a root directory, one sub-directory per instance.  goalrec sees only
these files; the same seed gives byte-identical files.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from goalrec.gridgen import GridSpec, random_grid, shortest_path, write_instance

# ── Grids ────────────────────────────────────────────────────────────────


def grid_ground(root: Path, rng: np.random.Generator, sides, n_goals: int) -> None:
    """Open square grids with shortest-path observations to the true goal."""
    for i, side in enumerate(sides):
        spec = random_grid(rng, width=side, height=side, n_goals=n_goals, block_prob=0.0)
        write_instance(root / f"grid-{i:02d}", spec)


def oracle_grid(root: Path, rng: np.random.Generator, sides) -> None:
    """Open grids from a corner; goals are the far corner, the two cells next
    to it, one cell on an edge at the start and the centre."""
    for i, n in enumerate(sides):
        corner_row, corner_col = (1, n)[int(rng.integers(2))], (1, n)[int(rng.integers(2))]
        far_row, far_col = n + 1 - corner_row, n + 1 - corner_col
        step_row = 1 if far_row < corner_row else -1
        step_col = 1 if far_col < corner_col else -1
        base = GridSpec(n, n, frozenset(), "", (), "")
        offset = int(rng.integers(2, n - 1))
        if rng.integers(2):
            edge = base.cell(corner_row, corner_col + offset * -step_col)
        else:
            edge = base.cell(corner_row + offset * -step_row, corner_col)
        centre = base.cell((n + 1) // 2, (n + 1) // 2)
        goals = (
            base.cell(far_row, far_col),
            base.cell(far_row + step_row, far_col),
            base.cell(far_row, far_col + step_col),
            edge,
            centre,
        )
        start = base.cell(corner_row, corner_col)
        true_goal = goals[int(rng.integers(len(goals)))]
        spec = replace(base, start=start, goal_cells=goals, true_goal=true_goal)
        path = shortest_path(spec, start, true_goal)
        spec = replace(spec, observations=tuple(zip(path[:-1], path[1:])))
        write_instance(root / f"oracle-{i:02d}", spec)


# ── Logistics ────────────────────────────────────────────────────────────

LOGISTICS_DOMAIN = """\
(define (domain toy-logistics)
  (:requirements :strips :typing :action-costs)
  (:types truck package location)
  (:predicates (at-truck ?t - truck ?l - location)
               (at-pkg ?p - package ?l - location)
               (in ?p - package ?t - truck)
               (link ?a - location ?b - location))
  (:functions (total-cost))
  (:action drive
    :parameters (?t - truck ?a - location ?b - location)
    :precondition (and (at-truck ?t ?a) (link ?a ?b))
    :effect (and (at-truck ?t ?b) (not (at-truck ?t ?a)) (increase (total-cost) 1)))
  (:action load
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at-truck ?t ?l) (at-pkg ?p ?l))
    :effect (and (in ?p ?t) (not (at-pkg ?p ?l)) (increase (total-cost) 1)))
  (:action unload
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at-truck ?t ?l) (in ?p ?t))
    :effect (and (at-pkg ?p ?l) (not (in ?p ?t)) (increase (total-cost) 1))))
"""


def _road_path(adj: dict[int, list[int]], source: int, target: int) -> list[int]:
    """BFS location path including both endpoints."""
    prev = {source: None}
    queue = deque([source])
    while queue:
        loc = queue.popleft()
        if loc == target:
            break
        for other in adj[loc]:
            if other not in prev:
                prev[other] = loc
                queue.append(other)
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1]


def logistics_instance(
    directory: Path,
    rng: np.random.Generator,
    n_locations: int,
    chord_step: int,
    n_trucks: int,
    n_packages: int,
    n_hyps: int,
    atoms_per_hyp: int,
) -> None:
    """A ring of locations, each also linked to the one chord_step ahead;
    trucks and packages spaced evenly from random offsets; random hypotheses
    of at-pkg atoms, and a plan for the true hypothesis.

    The road map looks the same from every location and trucks and packages
    cover it evenly, so the seed changes which goals are asked but hardly
    how much work they take.
    """
    adj: dict[int, list[int]] = {i: [] for i in range(n_locations)}
    for i in range(n_locations):
        for step in (1, chord_step):
            j = (i + step) % n_locations
            if j not in adj[i]:
                adj[i].append(j)
                adj[j].append(i)

    def spread_out(count: int) -> list[int]:
        offset = int(rng.integers(n_locations))
        return [(offset + k * n_locations // count) % n_locations for k in range(count)]

    truck_at = spread_out(n_trucks)
    pkg_at = spread_out(n_packages)

    hyps: list[tuple[tuple[int, int], ...]] = []
    while len(hyps) < n_hyps:
        pkgs = sorted(int(p) for p in rng.choice(n_packages, size=atoms_per_hyp, replace=False))
        hyp = []
        for p in pkgs:
            target = int(rng.integers(n_locations - 1))
            hyp.append((p, target if target < pkg_at[p] else target + 1))
        if tuple(hyp) not in hyps:
            hyps.append(tuple(hyp))
    true_hyp = hyps[int(rng.integers(n_hyps))]

    plan: list[str] = []
    trucks = list(truck_at)

    def drive(t: int, target: int) -> None:
        path = _road_path(adj, trucks[t], target)
        plan.extend(f"(drive t{t + 1} l{a + 1} l{b + 1})" for a, b in zip(path, path[1:]))
        trucks[t] = target

    for p, target in true_hyp:
        source = pkg_at[p]
        t = min(range(n_trucks), key=lambda k: (len(_road_path(adj, trucks[k], source)), k))
        drive(t, source)
        plan.append(f"(load p{p + 1} t{t + 1} l{source + 1})")
        drive(t, target)
        plan.append(f"(unload p{p + 1} t{t + 1} l{target + 1})")

    def hyp_line(hyp) -> str:
        return ", ".join(f"(at-pkg p{p + 1} l{loc + 1})" for p, loc in hyp) + "\n"

    objects = " ".join(
        [f"t{i + 1}" for i in range(n_trucks)] + ["- truck"]
        + [f"p{i + 1}" for i in range(n_packages)] + ["- package"]
        + [f"l{i + 1}" for i in range(n_locations)] + ["- location"]
    )
    init = [f"(at-truck t{t + 1} l{loc + 1})" for t, loc in enumerate(truck_at)]
    init += [f"(at-pkg p{p + 1} l{loc + 1})" for p, loc in enumerate(pkg_at)]
    init += [f"(link l{a + 1} l{b + 1})" for a in range(n_locations) for b in sorted(adj[a])]
    init.append("(= (total-cost) 0)")
    init_str = "\n         ".join(init)
    template = (
        "(define (problem toy-logistics-p)\n"
        "  (:domain toy-logistics)\n"
        f"  (:objects {objects})\n"
        f"  (:init {init_str})\n"
        "  (:goal (and <HYPOTHESIS>))\n"
        "  (:metric minimize (total-cost)))\n"
    )

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "domain.pddl").write_text(LOGISTICS_DOMAIN)
    (directory / "template.pddl").write_text(template)
    (directory / "hyps.dat").write_text("".join(hyp_line(h) for h in hyps))
    (directory / "obs.dat").write_text("".join(step + "\n" for step in plan))
    (directory / "real_hyp.dat").write_text(hyp_line(true_hyp))


def logistics(root: Path, rng: np.random.Generator, n_instances: int, **sizes) -> None:
    for i in range(n_instances):
        logistics_instance(root / f"logistics-{i:02d}", rng, **sizes)


def apply_plan(problem, action_ids) -> str | None:
    """Apply actions in order from s0 under their pre/add/delete lists.

    Returns None when every action is applicable, else the first failure.
    """
    state = set(problem.s0)
    for step, aid in enumerate(action_ids, start=1):
        action = problem.actions[aid]
        if not action.pre <= state:
            return f"step {step} {action.name}: preconditions unmet"
        state -= action.delete
        state |= action.add
    return None
