"""Walk through goal recognition on the bundled 5x5 grid instance.

An agent starts at c23 and may be heading for c1 (goal 0) or c5 (goal 1).
After observing two moves toward the left wall, the heuristic separates
the goals: facts observed so far have positive probability only under
goal 0.  The recognizer is fed one observation at a time, and at the end
it explains each score as a reward term and the facts it is penalized for.
"""

from pathlib import Path

from goalrec import Recognizer, exact_oracle, load_instance, prepare_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    instance = load_instance(FIXTURES / "grid")
    problem, events = prepare_instance(instance)
    print(f"instance: {instance.name}")
    print(f"facts: {problem.fact_count}, actions: {len(problem.actions)}")
    print(f"hypotheses: {[sorted(problem.facts[f] for f in g) for g in problem.goals]}")
    print(f"observations: {instance.observations}")
    print()

    tables = [exact_oracle(problem, i) for i in range(len(problem.goals))]
    print("exact observation probabilities (nonzero rows):")
    for i, table in enumerate(tables):
        rows = [
            f"  {problem.facts[f]}: {table.p[f]:.1f}"
            for f in range(problem.fact_count)
            if table.p[f] > 0
        ]
        print(f"goal {i}:")
        print("\n".join(rows))
    print()

    recognizer = Recognizer(problem, tables)
    for t, event in enumerate(events, start=1):
        h = recognizer.observe(event)
        scores = ", ".join(f"{x:+.4f}" for x in h)
        recognized = [g for g, x in enumerate(h) if x == max(h)]
        print(f"after observation {t}: h = [{scores}], recognized = {recognized}")
    print()
    for g, goal in enumerate(recognizer.explain()):
        print(
            f"goal {g}: reward {goal['reward']:.4f}, "
            f"remaining {goal['remaining']:.4f}, penalized for {goal['penalized_facts']}"
        )
    print(f"final recognized goal set: {recognized}")
    print(f"true goal index: {instance.true_goal_index}")


if __name__ == "__main__":
    main()
