"""Reference relaxed planning graph and sampler, kept only for testing.

Relaxed states, relaxed action application and reachability on a graph
are used by the tests that replay sampled supporter sets.  Then there is
the layered construction that rescans every action at every level, and
the supporter sampler that looks for a demanded fact's candidates by
scanning the graph's action levels upward, one round per level down
from the graph's top, with one draw per chosen supporter.  The package
computes one fixpoint per problem and walks its first-achiever index
instead, with no level bound and no draw over a single candidate; tests
check that both give equal graphs, and, with the scan on the graph of
every fact, equal sample lists and equal generator states.  Both keep
their selection counts inside one call.  Last, the combiner that draws one
pick at a time, which the package replaces by one draw per goal, checked
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from goalrec.errors import GoalRecError, ParameterError, UnreachableGoalError
from goalrec.grounding import GroundAction
from goalrec.relaxed import RelaxedPlanningGraph
from goalrec.sampling import SupporterSampleSet


class InapplicableActionError(GoalRecError):
    """Action applied in a state that does not satisfy its preconditions."""


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


def relaxed_reachable(rpg: RelaxedPlanningGraph, fact_id: int, fact_count: int) -> bool:
    if not 0 <= fact_id < fact_count:
        raise ParameterError(f"unknown fact id: {fact_id}")
    return fact_id in rpg.fact_levels


def build_rpg_layered(problem, goal: frozenset[int]) -> RelaxedPlanningGraph:
    """Expand levels until all goal facts are reached or a fixpoint occurs."""
    fact_levels = {f: 0 for f in problem.s0}
    action_levels: list[frozenset[int]] = []
    first_achievers: dict[int, tuple[int, ...]] = {}
    seen_actions: set[int] = set()
    reached = set(problem.s0)
    level = 0

    while not goal <= reached:
        new_actions = frozenset(
            aid
            for aid, a in enumerate(problem.actions)
            if aid not in seen_actions and a.pre <= reached
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
                first_achievers,
                unreached_goal_facts=frozenset(goal - reached),
            )
        action_levels.append(new_actions)
        seen_actions |= new_actions
        level += 1
        for f in sorted(new_facts):
            fact_levels[f] = level
            first_achievers[f] = tuple(
                sorted(a for a in new_actions if f in problem.actions[a].add)
            )
        reached |= new_facts

    return RelaxedPlanningGraph(fact_levels, action_levels, first_achievers)


def sample_subgoal_supporters_scan(subgoal, rpg, s0, n, rng, problem):
    """Sample n supporter sets for one subgoal, scanning levels for candidates."""
    if subgoal in s0:
        return [SupporterSampleSet(frozenset()) for _ in range(n)]

    actions = problem.actions
    counts: dict[int, int] = {}
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
                    raise UnreachableGoalError(
                        f"no supporter for demanded fact {problem.facts[p]}"
                    )

                min_count = min(counts.get(a, 0) for a in candidates)
                best = [a for a in candidates if counts.get(a, 0) == min_count]
                chosen = int(best[rng.integers(len(best))])

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


def generate_goal_supporters_sequential(pools, n, rng):
    """Combine per-subgoal pools, in sorted-subgoal order, into n per-goal
    sets, each consuming one unconsumed set per pool, drawn uniformly
    without replacement."""
    pools = [list(pool) for pool in pools]
    combined: list[SupporterSampleSet] = []
    for _ in range(n):
        union: set[int] = set()
        for pool in pools:
            pick = int(rng.integers(len(pool)))
            union |= pool.pop(pick).actions
        combined.append(SupporterSampleSet(frozenset(union)))
    return combined
