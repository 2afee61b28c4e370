"""Relaxed planning graphs from one delete-relaxed fixpoint per problem.

Each GroundProblem computes its fixpoint when it is built and keeps it
as relaxed_fixpoint.  The fixpoint also indexes each reachable fact's
first achievers, the actions that add it one level below its own.  The
supporter sampler walks that index alone (see sampling): every first
achiever's preconditions lie at lower fact levels, so each step of the
walk goes down a level and the walk ends once only s0 facts are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grounding import GroundProblem


@dataclass
class RelaxedPlanningGraph:
    """First-appearance levels of facts and actions under delete relaxation.

    fact_levels[f] is the first level at which f becomes true (0 = initial);
    action_levels[t] holds the actions first applicable at level t.
    """

    fact_levels: dict[int, int]
    action_levels: list[frozenset[int]]
    levels: int
    goal: frozenset[int]
    fact_count: int
    unreachable: bool = False
    unreached_goal_facts: frozenset[int] = field(default_factory=frozenset)


@dataclass(frozen=True)
class RelaxedFixpoint:
    """Goal-independent delete-relaxation levels of one problem.

    fact_levels holds every reachable fact: s0 first, then level by level
    in id order, so the facts of levels 0..k are its first level_ends[k]
    entries.  action_levels[t] holds the actions first applicable at level
    t, ending with the batch, if any, that adds no new fact.
    first_achievers maps each reachable fact outside s0 to the actions
    that add it at the action level just below its fact level, sorted by
    id.
    """

    fact_levels: dict[int, int]
    level_ends: list[int]
    action_levels: list[frozenset[int]]
    first_achievers: dict[int, tuple[int, ...]]

    @property
    def levels(self) -> int:
        return len(self.level_ends) - 1


def compute_fixpoint(problem: GroundProblem) -> RelaxedFixpoint:
    """Level-ordered generalized Dijkstra with unit costs: an action becomes
    applicable at the level where its last unmet precondition is reached."""
    actions = problem.actions
    unmet = [len(a.pre) for a in actions]
    needed_by: dict[int, list[int]] = {}
    for a in actions:
        for f in a.pre:
            needed_by.setdefault(f, []).append(a.id)

    fact_levels = {f: 0 for f in problem.s0}
    level_ends = [len(fact_levels)]
    action_levels: list[frozenset[int]] = []
    first_achievers: dict[int, tuple[int, ...]] = {}
    ready = [a.id for a in actions if not a.pre]
    frontier = problem.s0
    level = 0
    while True:
        for f in frontier:
            for aid in needed_by.get(f, ()):
                unmet[aid] -= 1
                if not unmet[aid]:
                    ready.append(aid)
        if not ready:
            break
        batch = sorted(ready)
        ready = []
        action_levels.append(frozenset(batch))
        new_facts: dict[int, list[int]] = {}  # new fact -> its achievers
        for aid in batch:
            for f in actions[aid].add:
                if f not in fact_levels:
                    new_facts.setdefault(f, []).append(aid)
        if not new_facts:
            break
        level += 1
        frontier = sorted(new_facts)
        for f in frontier:
            fact_levels[f] = level
            first_achievers[f] = tuple(new_facts[f])
        level_ends.append(len(fact_levels))

    return RelaxedFixpoint(fact_levels, level_ends, action_levels, first_achievers)


def build_rpg(problem: GroundProblem, goal: frozenset[int]) -> RelaxedPlanningGraph:
    """The levels up to the first one at which all goal facts are reached.

    This is a prefix of the problem's fixpoint.  Unreachable goals yield
    the full graph, flagged, rather than an error.  Estimation reads the
    fixpoint directly; this per-goal view is what the tests check against
    the layered reference.
    """
    fp = problem.relaxed_fixpoint
    unreached = frozenset(f for f in goal if f not in fp.fact_levels)
    if unreached:
        return RelaxedPlanningGraph(
            dict(fp.fact_levels),
            list(fp.action_levels),
            fp.levels,
            goal,
            problem.fact_count,
            unreachable=True,
            unreached_goal_facts=unreached,
        )
    level = max((fp.fact_levels[f] for f in goal), default=0)
    fact_levels = dict(islice(fp.fact_levels.items(), fp.level_ends[level]))
    return RelaxedPlanningGraph(
        fact_levels, fp.action_levels[:level], level, goal, problem.fact_count
    )
