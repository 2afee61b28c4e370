"""Compare the sampling estimator against the exact optimal-plan oracle.

The estimator never enumerates plans: it samples supporter-action sets on
the relaxed planning graph. On the grid fixture its tables land close to
the exact ones, and both table sources recognize the same goal.
"""

from pathlib import Path

import numpy as np

from goalrec import (
    estimate,
    exact_oracle,
    load_instance,
    prepare_instance,
    recognize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    problem, events = prepare_instance(load_instance(FIXTURES / "grid"))

    for goal_index in range(len(problem.goals)):
        exact = exact_oracle(problem, goal_index)
        sampled = estimate(problem, goal_index, n=10, seed=0)
        diff = np.abs(exact.p - sampled.p)
        print(f"goal {goal_index}:")
        print(f"  max |exact - sampled| = {diff.max():.3f}")
        print(f"  mean |exact - sampled| = {diff.mean():.3f}")
        worst = int(diff.argmax())
        print(
            f"  largest gap at {problem.facts[worst]}: "
            f"exact {exact.p[worst]:.2f}, sampled {sampled.p[worst]:.2f}"
        )

    exact_result = recognize(
        problem, [exact_oracle(problem, i) for i in range(2)], events
    )
    sampled_result = recognize(
        problem, [estimate(problem, i, seed=0) for i in range(2)], events
    )
    print()
    print(f"recognized with exact tables:   {sorted(exact_result.recognized)}")
    print(f"recognized with sampled tables: {sorted(sampled_result.recognized)}")


if __name__ == "__main__":
    main()
