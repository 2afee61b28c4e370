"""Reference noisy-or aggregation, kept only for testing.

This is the definitional form: an action's count c is the number of the n
combined supporter sets that hold it, and a fact outside s0 gets
1 − Π(1 − c/n) over the counted actions that add it, in exact fractions.
s0 facts get 1.  The package multiplies float miss probabilities in place
instead; tests check that both give the same table.
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
