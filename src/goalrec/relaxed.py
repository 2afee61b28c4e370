"""Relaxed planning graphs from one delete-relaxed fixpoint per problem."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice

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
    first_achievers maps each fact that a reachable action adds to the
    earliest action level holding such an action, and those actions
    sorted by id.
    """

    fact_levels: dict[int, int]
    level_ends: list[int]
    action_levels: list[frozenset[int]]
    first_achievers: dict[int, tuple[int, tuple[int, ...]]]

    @property
    def levels(self) -> int:
        return len(self.level_ends) - 1


# `estimate` is public, so callers may estimate goals of one problem on
# their own threads; the first to need the fixpoint computes it and the
# others wait for that one.
_fixpoint_lock = threading.Lock()


def fixpoint(problem: GroundProblem) -> RelaxedFixpoint:
    """The problem's fixpoint, computed on first use and kept on the problem."""
    cached = problem.relaxed_fixpoint
    if cached is None:
        with _fixpoint_lock:
            cached = problem.relaxed_fixpoint
            if cached is None:
                cached = problem.relaxed_fixpoint = _compute_fixpoint(problem)
    return cached


def _compute_fixpoint(problem: GroundProblem) -> RelaxedFixpoint:
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
    achievers: dict[int, tuple[int, list[int]]] = {}
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
        new_facts = set()
        for aid in batch:
            for f in actions[aid].add:
                entry = achievers.get(f)
                if entry is None:
                    achievers[f] = (level, [aid])
                elif entry[0] == level:
                    entry[1].append(aid)
                if f not in fact_levels:
                    new_facts.add(f)
        if not new_facts:
            break
        level += 1
        frontier = sorted(new_facts)
        for f in frontier:
            fact_levels[f] = level
        level_ends.append(len(fact_levels))

    first_achievers = {f: (t, tuple(aids)) for f, (t, aids) in achievers.items()}
    return RelaxedFixpoint(fact_levels, level_ends, action_levels, first_achievers)


def build_rpg(problem: GroundProblem, goal: frozenset[int]) -> RelaxedPlanningGraph:
    """The levels up to the first one at which all goal facts are reached.

    This is a prefix of the problem's fixpoint.  Unreachable goals yield
    the full graph, flagged, rather than an error, so a recognizer can
    still assign such hypotheses an all-zero table.
    """
    fp = fixpoint(problem)
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
