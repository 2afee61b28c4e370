"""The delete-relaxed planning graph: one fixpoint per problem.

Each GroundProblem computes its fixpoint when it is built and keeps it
as relaxed_fixpoint.  The graph also indexes each reachable fact's
first achievers, the actions that add it one level below its own.  The
supporter sampler walks that index alone (see sampling): every first
achiever's preconditions lie at lower fact levels, so each step of the
walk goes down a level and the walk ends once only s0 facts are needed.
A per-goal graph (build_rpg) is a prefix of the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grounding import GroundProblem


@dataclass(frozen=True)
class RelaxedPlanningGraph:
    """First-appearance levels of facts and actions under delete relaxation.

    fact_levels[f] is the first level at which f becomes true (0 = s0); it
    lists s0 first, then level by level in id order.  action_levels[t]
    holds the actions first applicable at level t; run to its fixpoint,
    the graph ends with the batch, if any, that adds no new fact.
    first_achievers maps each reached fact outside s0 to the actions that
    add it at the action level just below its fact level, sorted by id.
    unreached_goal_facts names the goal facts that no level reaches.
    """

    fact_levels: dict[int, int]
    action_levels: list[frozenset[int]]
    first_achievers: dict[int, tuple[int, ...]]
    unreached_goal_facts: frozenset[int] = frozenset()

    @property
    def levels(self) -> int:
        return max(self.fact_levels.values(), default=0)

    @property
    def unreachable(self) -> bool:
        return bool(self.unreached_goal_facts)


def compute_fixpoint(problem: GroundProblem) -> RelaxedPlanningGraph:
    """Level-ordered generalized Dijkstra with unit costs: an action becomes
    applicable at the level where its last unmet precondition is reached."""
    actions = problem.actions
    unmet = [len(a.pre) for a in actions]
    needed_by: dict[int, list[int]] = {}
    for aid, a in enumerate(actions):
        for f in a.pre:
            needed_by.setdefault(f, []).append(aid)

    fact_levels = {f: 0 for f in problem.s0}
    action_levels: list[frozenset[int]] = []
    first_achievers: dict[int, tuple[int, ...]] = {}
    ready = [aid for aid, a in enumerate(actions) if not a.pre]
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

    return RelaxedPlanningGraph(fact_levels, action_levels, first_achievers)


def build_rpg(problem: GroundProblem, goal: frozenset[int]) -> RelaxedPlanningGraph:
    """The levels up to the first one at which all goal facts are reached.

    This is a prefix of the problem's fixpoint.  Unreachable goals yield
    the full graph, flagged, rather than an error.  Estimation reads the
    fixpoint directly; this per-goal view is what the tests check against
    the layered reference.
    """
    graph = problem.relaxed_fixpoint
    unreached = frozenset(f for f in goal if f not in graph.fact_levels)
    if unreached:
        return replace(graph, unreached_goal_facts=unreached)
    level = max((graph.fact_levels[f] for f in goal), default=0)
    fact_levels = {f: lv for f, lv in graph.fact_levels.items() if lv <= level}
    first_achievers = {f: a for f, a in graph.first_achievers.items() if f in fact_levels}
    return RelaxedPlanningGraph(fact_levels, graph.action_levels[:level], first_achievers)
