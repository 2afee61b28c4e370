"""Sampling supporter-action sets per subgoal and combining them per goal.

A supporter of a fact f is an action with f in its add list.  Per subgoal,
N sets are sampled by walking the relaxed planning graph from the goal
level down.  The candidates for a demanded fact are its first achievers:
the supporters at the earliest action level that holds one, looked up in
the problem's fixpoint (see relaxed.fixpoint) and sorted by id; a level
above the current one or beyond the graph's last action level yields none.
Among the candidates an action selected the fewest times so far is
picked (ties broken uniformly at random).  The N per-subgoal sets are
then combined into N per-goal sets by drawing one unconsumed set per
subgoal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamplesError, ParameterError, UnsupportedFactError
from .grounding import GroundProblem
from .relaxed import RelaxedPlanningGraph, fixpoint

# Stream tag separating the per-goal combination draw from per-subgoal draws.
COMBINE_STREAM = 0xC0FFEE
# Lookup result for a fact that no reachable action adds.
_NO_ACHIEVERS = (float("inf"), ())


@dataclass(frozen=True)
class SupporterSampleSet:
    """One sampled set of supporter actions for a subgoal fact or a goal."""

    actions: frozenset[int]
    subgoal: int  # fact id for per-subgoal samples, goal index for combined ones


@dataclass
class SamplerState:
    """Single-owner selection counts plus a seeded random stream."""

    rng: np.random.Generator
    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_seed(cls, seed: int, *stream: int) -> "SamplerState":
        if seed < 0:
            raise ParameterError(f"seed must be non-negative, got {seed}")
        return cls(np.random.default_rng(np.random.SeedSequence([seed, *stream])))


def sample_subgoal_supporters(
    subgoal: int,
    rpg: RelaxedPlanningGraph,
    s0: frozenset[int],
    n: int,
    sampler: SamplerState,
    problem: GroundProblem,
) -> list[SupporterSampleSet]:
    """Sample n supporter sets for one subgoal fact.

    A subgoal already true in s0 needs no support and yields n empty sets.
    """
    if n < 1:
        raise ParameterError(f"number of samples must be positive, got {n}")
    if subgoal in s0:
        return [SupporterSampleSet(frozenset(), subgoal) for _ in range(n)]

    actions = problem.actions
    first_achievers = fixpoint(problem).first_achievers
    last_level = len(rpg.action_levels) - 1  # levels - 1 for a reachable goal
    counts = sampler.counts
    count_of = counts.get
    draw = sampler.rng.integers
    samples: list[SupporterSampleSet] = []

    for _ in range(n):
        demanded = {subgoal}
        found: set[int] = set()
        sups: set[int] = set()

        for t in range(rpg.levels, -1, -1):
            if not demanded:
                break  # nothing is demanded at this or any lower level
            cap = min(t, last_level)
            new_demanded: set[int] = set()
            while demanded:
                p = min(demanded)  # deterministic pop order
                demanded.discard(p)

                level, candidates = first_achievers.get(p, _NO_ACHIEVERS)
                if level > cap:
                    raise UnsupportedFactError(
                        f"no supporter for demanded fact {problem.fact_name(p)}"
                    )

                if len(candidates) > 1:
                    min_count = min(count_of(a, 0) for a in candidates)
                    best = [a for a in candidates if count_of(a, 0) == min_count]
                else:
                    best = candidates
                chosen = int(best[draw(len(best))])

                found.add(p)
                sups.add(chosen)
                counts[chosen] = count_of(chosen, 0) + 1

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

        samples.append(SupporterSampleSet(frozenset(sups), subgoal))

    return samples


def generate_goal_supporters(
    per_subgoal: dict[int, list[SupporterSampleSet]],
    n: int,
    goal: frozenset[int],
    sampler: SamplerState,
    goal_index: int = 0,
) -> list[SupporterSampleSet]:
    """Combine per-subgoal samples into n per-goal sets, each consuming one
    unconsumed sample per subgoal, drawn uniformly without replacement."""
    for subgoal in goal:
        available = per_subgoal.get(subgoal, [])
        if len(available) < n:
            raise InsufficientSamplesError(
                f"subgoal {subgoal} has {len(available)} samples, need {n}"
            )

    pools = {subgoal: list(per_subgoal[subgoal]) for subgoal in goal}
    combined: list[SupporterSampleSet] = []
    for _ in range(n):
        union: set[int] = set()
        for subgoal in sorted(goal):
            pool = pools[subgoal]
            pick = int(sampler.rng.integers(len(pool)))
            union |= pool.pop(pick).actions
        combined.append(SupporterSampleSet(frozenset(union), goal_index))
    return combined
