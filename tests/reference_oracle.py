"""Reference exact oracle that lists every cost-optimal plan, kept only for testing.

A uniform-cost search records every equal-cost predecessor of each state,
a recursive walk lists every optimal plan from the goal states back to s0,
and the table is the fraction of plans whose observed facts contain each
fact.  The number of plans, and so the time, grows exponentially with the
grid side; the package counts the plans in the search instead, and tests
check that both give equal tables, equal errors and the same cap boundary.
"""

from __future__ import annotations

import heapq

import numpy as np

from goalrec.errors import ParameterError, SearchCapExceededError, UnreachableGoalError
from goalrec.grounding import GroundProblem
from goalrec.probability import DEFAULT_STATE_CAP, EXACT, FactProbabilityTable


def optimal_plans(problem: GroundProblem, goal_index: int, max_states: int):
    """Enumerate all cost-optimal plans via a uniform-cost predecessor DAG."""
    goal = problem.goals[goal_index]
    start = frozenset(problem.s0)
    dist: dict[frozenset[int], object] = {start: 0}
    preds: dict[frozenset[int], list] = {start: []}
    heap = [(0, 0, start)]
    tie = 1
    best = None
    goal_states = []
    expanded: set[frozenset[int]] = set()

    while heap:
        g, _, state = heapq.heappop(heap)
        if g != dist.get(state):
            continue
        if best is not None and g > best:
            break
        if goal <= state:
            best = g
            goal_states.append(state)
            continue  # optimal plans never pass through a goal state
        if state in expanded:
            continue
        expanded.add(state)
        if len(expanded) > max_states:
            raise SearchCapExceededError(f"state cap exceeded: {max_states}")
        for aid, action in enumerate(problem.actions):
            if not action.pre <= state:
                continue
            succ = frozenset((state - action.delete) | action.add)
            ng = g + action.cost
            if best is not None and ng > best:
                continue
            old = dist.get(succ)
            if old is None or ng < old:
                dist[succ] = ng
                preds[succ] = [(state, aid)]
                heapq.heappush(heap, (ng, tie, succ))
                tie += 1
            elif ng == old:
                preds[succ].append((state, aid))

    if best is None:
        raise UnreachableGoalError(f"goal {goal_index} is unreachable under full semantics")

    plans: list[tuple[int, ...]] = []

    def walk(state, suffix, on_path):
        if state == start:
            plans.append(tuple(reversed(suffix)))
            return
        for prev, aid in preds[state]:
            if prev in on_path:
                continue  # zero-cost cycle guard
            walk(prev, suffix + [aid], on_path | {prev})

    for gs in goal_states:
        walk(gs, [], {gs})
    return plans


def exact_oracle_enumerated(
    problem: GroundProblem,
    goal_index: int,
    max_states: int = DEFAULT_STATE_CAP,
) -> FactProbabilityTable:
    """Exact table under a uniform distribution over cost-optimal plans.

    p[f] is the fraction of optimal plans whose observed facts (s0 plus the
    union of add effects) contain f.
    """
    if max_states < 1:
        raise ParameterError(f"state cap must be positive, got {max_states}")
    plans = optimal_plans(problem, goal_index, max_states)
    counts = np.zeros(problem.fact_count)
    for plan in plans:
        observed = set(problem.s0)
        for aid in plan:
            observed |= problem.actions[aid].add
        counts[sorted(observed)] += 1.0
    return FactProbabilityTable(
        goal_index, counts / len(plans), source=EXACT
    )
