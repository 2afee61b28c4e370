"""Sampling supporter-action sets per subgoal and combining them per goal.

A supporter of a fact f is an action with f in its add list.  Per subgoal, N
sets are sampled by walking the problem's relaxed fixpoint
(problem.relaxed_fixpoint) down from the subgoal, one pass per round over
the round's demanded facts in id order.  A demanded fact's candidates are
its first achievers, the supporters one level below it, sorted by id; an
action selected the fewest times so far in the call is picked, and its
preconditions outside s0 and not yet found are needed, the next round's
demand.  A fact is found once an action is picked for it, or once a picked
action adds it while it is demanded or needed; a found fact is never
demanded again in that walk.  Needed facts lie a level lower than the
round's, so the walk ends by s0; a subgoal in s0 demands nothing.  Only a
tie between least-selected actions draws from the random stream,
uniformly.  A walk that meets no demanded fact with two first achievers
has no choice to make, whatever the counts, so it is walked once and its
set repeated N times, with no draw.  The N per-subgoal sets of a goal
with two or more subgoals are then combined into N per-goal sets, each
taking one unconsumed set per subgoal uniformly at random; one draw per
goal makes every pick.  Both give the stream that one Generator.integers
call per pick would: a bound of 1 consumes no state, and an array of
bounds is drawn in order, as one call per bound.  A goal with one subgoal
takes its subgoal's N sets as they were walked: combining them would only
permute them, which no count over the sets can see.

sample_combined_sets is the one entry and checks N and the seed.  Subgoal
k of the goal's sorted facts draws from the stream (seed, goal index, k),
the combination from (seed, goal index, COMBINE_STREAM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnreachableGoalError
from .grounding import GroundProblem

# Stream tag separating the per-goal combination draw from per-subgoal draws.
COMBINE_STREAM = 0xC0FFEE


@dataclass(frozen=True)
class SupporterSampleSet:
    """One sampled set of supporter actions for a subgoal fact or a goal."""

    actions: frozenset[int]


def sample_subgoal_supporters(
    problem: GroundProblem, subgoal: int, n: int, rng: np.random.Generator
) -> list[SupporterSampleSet]:
    """Sample n supporter sets for one subgoal fact.

    A subgoal already true in s0 demands nothing and yields n empty sets;
    one that is relaxed-unreachable raises UnreachableGoalError, since no
    real plan reaches it either.
    """
    s0 = problem.s0
    first_achievers = problem.relaxed_fixpoint.first_achievers
    start = {subgoal} - s0
    # The subgoal is the only fact the walk can lack achievers for: every
    # precondition it demands later belongs to a reachable action.
    if not start <= first_achievers.keys():
        raise UnreachableGoalError(f"no supporter for demanded fact {problem.facts[subgoal]}")

    actions = problem.actions
    counts: dict[int, int] = {}
    count_of = counts.get
    draw = rng.integers
    samples: list[SupporterSampleSet] = []

    for _ in range(n):
        demanded = start
        found: set[int] = set()
        sups: set[int] = set()
        choice = False

        # A fact is found once an action is picked for it, or once a picked
        # action adds it while it is demanded or needed; a found fact is
        # never demanded again in this walk.  The add loop marks both, since
        # the action picked for a demanded fact adds it.  Needed facts lie a
        # level lower than the round's and outside s0, so the rounds end.
        while demanded:
            needed: set[int] = set()
            for p in sorted(demanded):
                if p in found:
                    continue
                candidates = first_achievers[p]
                if len(candidates) > 1:
                    choice = True
                    min_count = min(count_of(a, 0) for a in candidates)
                    candidates = [a for a in candidates if count_of(a, 0) == min_count]
                # A draw over one candidate returns 0 and consumes no random state.
                chosen = candidates[draw(len(candidates)) if len(candidates) > 1 else 0]

                sups.add(chosen)
                counts[chosen] = count_of(chosen, 0) + 1

                action = actions[chosen]
                for need in action.pre:
                    if need not in s0 and need not in found:
                        needed.add(need)
                for got in action.add:
                    if got in demanded or got in needed:
                        found.add(got)
            demanded = needed

        samples.append(SupporterSampleSet(frozenset(sups)))
        # Whether a walk meets a choice does not depend on the counts, so
        # only the first walk can meet none; then every later walk takes the
        # same forced picks and draws nothing, and the first stands for all n.
        if not choice:
            return samples * n

    return samples


def generate_goal_supporters(
    pools: list[list[SupporterSampleSet]], n: int, rng: np.random.Generator
) -> list[SupporterSampleSet]:
    """Combine pools of n sets, one per subgoal in sorted order, into n
    per-goal sets, each taking one unconsumed set per pool uniformly."""
    # Pick i from a pool draws below n - i.  One call over every bound,
    # iteration by iteration and pools in order, gives the values and the
    # final state of one call per pick; with no pools it draws nothing.
    bounds = np.arange(n, 0, -1)[:, None].repeat(len(pools), axis=1)
    picks = rng.integers(bounds).tolist()
    pools = [list(pool) for pool in pools]
    combined: list[SupporterSampleSet] = []
    for row in picks:
        union: set[int] = set()
        for pool, pick in zip(pools, row):
            union |= pool.pop(pick).actions
        combined.append(SupporterSampleSet(frozenset(union)))
    return combined


def sample_combined_sets(
    problem: GroundProblem, goal_index: int, n: int, seed: int
) -> list[SupporterSampleSet]:
    """Run the two sampling stages: n sets, none when the goal is relaxed-unreachable.

    n and seed are checked first, whatever the goal.  A goal with one
    subgoal gets that subgoal's sets in walk order and no combination draw.
    """
    if n < 1:
        raise ParameterError(f"number of samples must be positive, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    goal = problem.goal(goal_index)
    if not goal <= problem.relaxed_fixpoint.fact_levels.keys():
        return []
    pools = [
        sample_subgoal_supporters(problem, subgoal, n, np.random.default_rng([seed, goal_index, k]))
        for k, subgoal in enumerate(sorted(goal))
    ]
    if len(pools) == 1:
        return pools[0]
    return generate_goal_supporters(
        pools, n, np.random.default_rng([seed, goal_index, COMBINE_STREAM])
    )
