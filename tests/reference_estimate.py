"""Reference aggregations, kept only for testing.

These are the definitional forms, in exact fractions over the n combined
supporter sets.  Empirical-union gives a fact outside s0 the share of the
sets that hold an action adding it.  Noisy-or counts, per action, the sets
that hold it (c) and gives a fact outside s0 1 − Π(1 − c/n) over the
counted actions that add it.  s0 facts get 1.  The package counts and
multiplies in floats instead; tests check that both give the same table.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from goalrec.grounding import GroundProblem
from goalrec.sampling import sample_combined_sets


def action_counts(problem: GroundProblem, goal_index: int, n: int, seed: int) -> Counter:
    """How many of the n combined sets hold each action."""
    return Counter(
        aid for sample in sample_combined_sets(problem, goal_index, n, seed) for aid in sample.actions
    )


def noisy_or_probabilities(
    problem: GroundProblem, goal_index: int, n: int, seed: int
) -> list[Fraction]:
    counts = action_counts(problem, goal_index, n, seed)
    probabilities = []
    for fact in range(problem.fact_count):
        miss = Fraction(0 if fact in problem.s0 else 1)
        for aid, count in counts.items():
            if fact in problem.actions[aid].add:
                miss *= 1 - Fraction(count, n)
        probabilities.append(1 - miss)
    return probabilities


def empirical_union_probabilities(
    problem: GroundProblem, goal_index: int, n: int, seed: int
) -> list[Fraction]:
    samples = sample_combined_sets(problem, goal_index, n, seed)
    return [
        Fraction(1)
        if fact in problem.s0
        else Fraction(
            sum(any(fact in problem.actions[aid].add for aid in s.actions) for s in samples), n
        )
        for fact in range(problem.fact_count)
    ]
