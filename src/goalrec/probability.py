"""Per-goal fact observation probability tables.

The sampling estimator turns combined supporter sets into an empirical
fraction per fact; an exhaustive optimal-plan oracle provides exact
probabilities on small instances under a uniform distribution over
cost-optimal plans.  Initial-state facts are always assigned probability 1.
"""

from __future__ import annotations

import heapq
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchCapExceededError, UnknownIdError, UnreachableGoalError
from .grounding import GroundProblem
from .relaxed import build_rpg
from .sampling import (
    COMBINE_STREAM,
    SamplerState,
    SupporterSampleSet,
    generate_goal_supporters,
    sample_subgoal_supporters,
)

EMPIRICAL_UNION = "empirical-union"
NOISY_OR = "noisy-or"
EXACT = "exact"

DEFAULT_N_SAMPLES = 10
DEFAULT_STATE_CAP = 10**6


@dataclass
class FactProbabilityTable:
    goal_index: int
    p: np.ndarray  # length |F|, entries in [0, 1]
    unreachable: bool = False
    source: str = EMPIRICAL_UNION

    def not_observed(self, fact_id: int) -> float:
        if not 0 <= fact_id < len(self.p):
            raise UnknownIdError(f"unknown fact id: {fact_id}")
        return 1.0 - float(self.p[fact_id])

    def to_csv(self, problem: GroundProblem) -> str:
        out = io.StringIO()
        out.write(f"# aggregation: {self.source}\n")
        out.write("fact_name,p_observed,p_not_observed\n")
        for fact in problem.facts:
            p = float(self.p[fact.id])
            out.write(f"{fact.name},{p},{1.0 - p}\n")
        return out.getvalue()


def sample_combined_sets(
    problem: GroundProblem, goal_index: int, n: int, seed: int
) -> list[SupporterSampleSet] | None:
    """Run the two sampling stages; None when the goal is relaxed-unreachable."""
    goal = problem.goals[goal_index]
    rpg = build_rpg(problem, goal)
    if rpg.unreachable:
        return None
    per_subgoal = {}
    for ordinal, subgoal in enumerate(sorted(goal)):
        sampler = SamplerState.from_seed(seed, goal_index, ordinal)
        per_subgoal[subgoal] = sample_subgoal_supporters(
            subgoal, rpg, problem.s0, n, sampler, problem
        )
    combiner = SamplerState.from_seed(seed, goal_index, COMBINE_STREAM)
    return generate_goal_supporters(per_subgoal, n, goal, combiner, goal_index)


def estimate(
    problem: GroundProblem,
    goal_index: int,
    n: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    aggregation: str = EMPIRICAL_UNION,
) -> FactProbabilityTable:
    """Estimate observation probabilities from n sampled supporter sets.

    empirical-union: fraction of combined sets containing a supporter of f.
    noisy-or: 1 - prod_a (1 - count(a)/n) over supporters of f, assuming
    per-action independence.
    """
    if aggregation not in (EMPIRICAL_UNION, NOISY_OR):
        raise ParameterError(f"unknown aggregation: {aggregation}")
    if n < 1:
        raise ParameterError(f"number of samples must be positive, got {n}")
    combined = sample_combined_sets(problem, goal_index, n, seed)
    p = np.zeros(problem.fact_count)
    if combined is None:
        p[sorted(problem.s0)] = 1.0
        return FactProbabilityTable(goal_index, p, unreachable=True, source=aggregation)

    if aggregation == EMPIRICAL_UNION:
        for sample in combined:
            covered: set[int] = set()
            for aid in sample.actions:
                covered |= problem.actions[aid].add
            p[sorted(covered)] += 1.0
        p /= n
    else:
        action_counts = np.zeros(len(problem.actions))
        for sample in combined:
            action_counts[sorted(sample.actions)] += 1.0
        miss = np.ones(problem.fact_count)
        for action in problem.actions:
            if action_counts[action.id] == 0:
                continue
            q = 1.0 - action_counts[action.id] / n
            for f in action.add:
                miss[f] *= q
        p = 1.0 - miss

    p[sorted(problem.s0)] = 1.0
    return FactProbabilityTable(goal_index, p, source=aggregation)


# ── Exhaustive oracle ────────────────────────────────────────────────────


def _optimal_plans(problem: GroundProblem, goal: frozenset[int], max_states: int):
    """Enumerate all cost-optimal plans via a uniform-cost predecessor DAG."""
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
            raise SearchCapExceededError(max_states)
        for action in problem.actions:
            if not action.pre <= state:
                continue
            succ = frozenset((state - action.delete) | action.add)
            ng = g + action.cost
            if best is not None and ng > best:
                continue
            old = dist.get(succ)
            if old is None or ng < old:
                dist[succ] = ng
                preds[succ] = [(state, action.id)]
                heapq.heappush(heap, (ng, tie, succ))
                tie += 1
            elif ng == old:
                preds[succ].append((state, action.id))

    if best is None:
        raise UnreachableGoalError("goal unreachable under full semantics")

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


def exact_oracle(
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
    plans = _optimal_plans(problem, problem.goals[goal_index], max_states)
    counts = np.zeros(problem.fact_count)
    for plan in plans:
        observed = set(problem.s0)
        for aid in plan:
            observed |= problem.actions[aid].add
        counts[sorted(observed)] += 1.0
    return FactProbabilityTable(
        goal_index, counts / len(plans), source=EXACT
    )
