"""Reference relaxed planning graph and sampler, kept only for testing.

Relaxed states, relaxed action application and reachability on a graph
are used by the tests that replay sampled supporter sets.  Then there is
the layered construction that rescans every action at every level, and
the supporter sampler that looks for a demanded fact's candidates by
scanning the graph's action levels upward, one round per level down
from the graph's top.  The package computes one fixpoint per problem and
walks its first-achiever index instead, with no level bound; tests check
that both give equal graphs, and, with the scan on the graph of every
fact, equal sample lists and equal selection counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from goalrec.errors import InapplicableActionError, UnknownIdError, UnsupportedFactError
from goalrec.grounding import GroundAction
from goalrec.relaxed import RelaxedPlanningGraph
from goalrec.sampling import SupporterSampleSet


@dataclass(frozen=True)
class RelaxedState:
    """A planning state under delete relaxation; only ever grows."""

    facts: frozenset[int]

    def __contains__(self, fact_id: int) -> bool:
        return fact_id in self.facts

    def union(self, fact_ids) -> "RelaxedState":
        return RelaxedState(self.facts | frozenset(fact_ids))


def relaxed_apply(state: RelaxedState, action: GroundAction) -> RelaxedState:
    """Apply an action ignoring its delete list."""
    if not action.pre <= state.facts:
        missing = sorted(action.pre - state.facts)
        raise InapplicableActionError(
            f"action {action.name} inapplicable; unmet preconditions: {missing}"
        )
    return state.union(action.add)


def relaxed_reachable(rpg: RelaxedPlanningGraph, fact_id: int) -> bool:
    if not 0 <= fact_id < rpg.fact_count:
        raise UnknownIdError(f"unknown fact id: {fact_id}")
    return fact_id in rpg.fact_levels


def build_rpg_layered(problem, goal: frozenset[int]) -> RelaxedPlanningGraph:
    """Expand levels until all goal facts are reached or a fixpoint occurs."""
    fact_levels = {f: 0 for f in problem.s0}
    action_levels: list[frozenset[int]] = []
    seen_actions: set[int] = set()
    reached = set(problem.s0)
    level = 0

    while not goal <= reached:
        new_actions = frozenset(
            a.id
            for a in problem.actions
            if a.id not in seen_actions and a.pre <= reached
        )
        new_facts = set()
        for aid in new_actions:
            new_facts |= problem.actions[aid].add - reached
        if not new_facts:
            # Fixpoint; record the last applicable batch for completeness.
            if new_actions:
                action_levels.append(new_actions)
                seen_actions |= new_actions
            return RelaxedPlanningGraph(
                fact_levels,
                action_levels,
                level,
                goal,
                problem.fact_count,
                unreachable=True,
                unreached_goal_facts=frozenset(goal - reached),
            )
        action_levels.append(new_actions)
        seen_actions |= new_actions
        level += 1
        for f in sorted(new_facts):
            fact_levels[f] = level
        reached |= new_facts

    return RelaxedPlanningGraph(fact_levels, action_levels, level, goal, problem.fact_count)


def sample_subgoal_supporters_scan(subgoal, rpg, s0, n, sampler, problem):
    """Sample n supporter sets for one subgoal, scanning levels for candidates."""
    if n < 1:
        raise ValueError("n must be positive")
    if subgoal in s0:
        return [SupporterSampleSet(frozenset()) for _ in range(n)]

    actions = problem.actions
    counts = sampler.counts
    samples: list[SupporterSampleSet] = []

    for _ in range(n):
        demanded = {subgoal}
        found: set[int] = set()
        sups: set[int] = set()

        for t in range(rpg.levels, -1, -1):
            new_demanded: set[int] = set()
            while demanded:
                p = min(demanded)  # deterministic pop order
                demanded.discard(p)

                candidates: list[int] = []
                for t2 in range(0, min(t + 1, len(rpg.action_levels))):
                    for aid in sorted(rpg.action_levels[t2]):
                        if p in actions[aid].add:
                            candidates.append(aid)
                    if candidates:
                        break
                if not candidates:
                    raise UnsupportedFactError(
                        f"no supporter for demanded fact {problem.fact_name(p)}"
                    )

                min_count = min(counts.get(a, 0) for a in candidates)
                best = [a for a in candidates if counts.get(a, 0) == min_count]
                chosen = int(best[sampler.rng.integers(len(best))])

                found.add(p)
                sups.add(chosen)
                counts[chosen] = counts.get(chosen, 0) + 1

                for need in actions[chosen].pre:
                    if need not in s0 and need not in found and need not in demanded:
                        new_demanded.add(need)
                for got in actions[chosen].add:
                    if got in demanded:
                        demanded.discard(got)
                        found.add(got)
                    if got in new_demanded:
                        new_demanded.discard(got)
                        found.add(got)
            demanded |= new_demanded

        samples.append(SupporterSampleSet(frozenset(sups)))

    return samples
