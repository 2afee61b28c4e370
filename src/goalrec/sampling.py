"""Sampling supporter-action sets per subgoal and combining them per goal.

A supporter of a fact f is an action with f in its add list.  Per subgoal,
N sets are sampled by walking the problem's relaxed fixpoint (see
relaxed.fixpoint) down from the subgoal in rounds.  The candidates for a
demanded fact are its first achievers, the supporters one level below
it, sorted by id; among them an action selected the fewest times so far
is picked, and its preconditions outside s0 are demanded in the next
round.  Those preconditions lie at lower fact levels, so each round's
facts lie a level lower than the last round's and the walk ends by s0.
Only a tie between several least-selected actions draws from the random
stream, uniformly.  The N per-subgoal sets are then combined into N
per-goal sets, each taking one unconsumed set per subgoal uniformly at
random; one draw per goal makes every pick.  Both give the stream that
one Generator.integers call per pick would: a bound of 1 consumes no
state, and an array of bounds is drawn in order, as one call per bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamplesError, ParameterError, UnsupportedFactError
from .grounding import GroundProblem
from .relaxed import fixpoint

# Stream tag separating the per-goal combination draw from per-subgoal draws.
COMBINE_STREAM = 0xC0FFEE


@dataclass(frozen=True)
class SupporterSampleSet:
    """One sampled set of supporter actions for a subgoal fact or a goal."""

    actions: frozenset[int]


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
    problem: GroundProblem, subgoal: int, n: int, sampler: SamplerState
) -> list[SupporterSampleSet]:
    """Sample n supporter sets for one subgoal fact.

    A subgoal already true in s0 needs no support and yields n empty sets;
    one that is relaxed-unreachable raises UnsupportedFactError.
    """
    if n < 1:
        raise ParameterError(f"number of samples must be positive, got {n}")
    s0 = problem.s0
    if subgoal in s0:
        return [SupporterSampleSet(frozenset()) for _ in range(n)]

    first_achievers = fixpoint(problem).first_achievers
    # The subgoal is the only fact the walk can lack achievers for: every
    # precondition it demands later belongs to a reachable action.
    if subgoal not in first_achievers:
        raise UnsupportedFactError(f"no supporter for demanded fact {problem.fact_name(subgoal)}")

    actions = problem.actions
    counts = sampler.counts
    count_of = counts.get
    draw = sampler.rng.integers
    samples: list[SupporterSampleSet] = []

    for _ in range(n):
        demanded = {subgoal}
        found: set[int] = set()
        sups: set[int] = set()

        # Each round demands only preconditions of first achievers, which
        # lie a fact level lower than the round's facts, and never s0
        # facts, so the rounds end.
        while demanded:
            new_demanded: set[int] = set()
            while demanded:
                p = min(demanded)  # deterministic pop order
                demanded.discard(p)

                candidates = first_achievers[p]
                if len(candidates) > 1:
                    min_count = min(count_of(a, 0) for a in candidates)
                    candidates = [a for a in candidates if count_of(a, 0) == min_count]
                # A draw over one candidate returns 0 and consumes no random state.
                if len(candidates) == 1:
                    chosen = candidates[0]
                else:
                    chosen = candidates[draw(len(candidates))]

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
            demanded = new_demanded

        samples.append(SupporterSampleSet(frozenset(sups)))

    return samples


def generate_goal_supporters(
    per_subgoal: dict[int, list[SupporterSampleSet]],
    n: int,
    goal: frozenset[int],
    sampler: SamplerState,
) -> list[SupporterSampleSet]:
    """Combine per-subgoal samples into n per-goal sets, each consuming one
    unconsumed sample per subgoal, drawn uniformly without replacement."""
    if n < 1:
        raise ParameterError(f"number of samples must be positive, got {n}")
    for subgoal in goal:
        available = per_subgoal.get(subgoal, [])
        if len(available) < n:
            raise InsufficientSamplesError(
                f"subgoal {subgoal} has {len(available)} samples, need {n}"
            )

    pools = [list(per_subgoal[subgoal]) for subgoal in sorted(goal)]
    if not pools:
        return [SupporterSampleSet(frozenset()) for _ in range(n)]
    # Pick i from a pool draws below the pool's length minus i.  One call
    # over every bound, iteration by iteration and subgoals in sorted order,
    # gives the values and the final state of one call per pick.
    lengths = np.array([len(pool) for pool in pools])
    picks = sampler.rng.integers(lengths - np.arange(n)[:, None]).tolist()
    combined: list[SupporterSampleSet] = []
    for row in picks:
        union: set[int] = set()
        for pool, pick in zip(pools, row):
            union |= pool.pop(pick).actions
        combined.append(SupporterSampleSet(frozenset(union)))
    return combined
