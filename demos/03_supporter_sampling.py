"""Inspect the supporter-action sampling behind the probability estimator.

For the grid goal (is-at c1) there are two optimal relaxed routes; the
min-count selection rule rotates between them, so the sampled sets split
roughly evenly between the two corridors.  The goal has one subgoal, so
its sets are printed in walk order, uncombined: a walk after one down the
left corridor finds the middle one less selected, so sets 0-1, 2-3 and so
on each take both corridors, and a draw decides only which comes first.
"""

from pathlib import Path

from goalrec import load_instance, prepare_instance
from goalrec.sampling import sample_combined_sets

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    problem, _ = prepare_instance(load_instance(FIXTURES / "grid"))
    combined = sample_combined_sets(problem, goal_index=0, n=10, seed=0)

    print("10 sampled supporter sets for goal (is-at c1):")
    for i, sample in enumerate(combined):
        names = sorted(problem.actions[aid].name for aid in sample.actions)
        print(f"  sample {i}: {' '.join(names)}")

    left = sum(
        1
        for sample in combined
        if problem.action_id("(m c6 c1)") in sample.actions
    )
    print()
    print(f"sets using the left corridor:   {left}")
    print(f"sets using the middle corridor: {10 - left}")


if __name__ == "__main__":
    main()
