"""Per-goal fact observation probability tables.

The sampling estimator turns combined supporter sets into an empirical
fraction per fact.  The exact oracle gives the probabilities under a
uniform distribution over cost-optimal plans; it counts the plans in one
uniform-cost search and never lists them, so its cost follows the number
of reachable states, not of plans.  Initial-state facts get probability 1.
"""

from __future__ import annotations

import heapq
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchCapExceededError, UnknownIdError
from .errors import UnreachableGoalError, ValidationError
from .grounding import GroundProblem
from .sampling import sample_combined_sets

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
        for aid in np.flatnonzero(action_counts).tolist():
            q = 1.0 - action_counts[aid] / n
            for f in problem.actions[aid].add:
                miss[f] *= q
        p = 1.0 - miss

    p[sorted(problem.s0)] = 1.0
    return FactProbabilityTable(goal_index, p, source=aggregation)


# ── Exact oracle ─────────────────────────────────────────────────────────


def exact_oracle(
    problem: GroundProblem,
    goal_index: int,
    max_states: int = DEFAULT_STATE_CAP,
) -> FactProbabilityTable:
    """Exact table under a uniform distribution over cost-optimal plans.

    p[f] = (N - N_f) / N, where N counts the optimal plans and N_f those in
    which no action adds f; s0 facts get 1.0.  One uniform-cost search
    counts them: each state on its frontier holds fact_count + 1 ints (N and
    every N_f over its optimal paths from s0), so memory is at most one such
    list per reached state.  Zero-cost self-loops are skipped; any other
    zero-cost edge into an expanded state, as every zero-cost cycle makes,
    raises ValidationError.  More than max_states non-goal expansions raise
    SearchCapExceededError.
    """
    if max_states < 1:
        raise ParameterError(f"state cap must be positive, got {max_states}")
    goal = problem.goal(goal_index)
    start = frozenset(problem.s0)
    dist: dict[frozenset[int], object] = {start: 0}
    paths = {start: [1] * (problem.fact_count + 1)}  # the frontier's counts
    heap = [(0, 0, start)]
    tie = 1
    best = None
    total = [0] * (problem.fact_count + 1)
    expanded = 0

    while heap:
        g, _, state = heapq.heappop(heap)
        if g != dist[state]:
            continue
        if best is not None and g > best:
            break
        counts = paths.pop(state)  # final: each state gets here once
        if goal <= state:
            best = g
            total = [t + c for t, c in zip(total, counts)]
            continue  # optimal plans never pass through a goal state
        expanded += 1
        if expanded > max_states:
            raise SearchCapExceededError(max_states)
        for action in problem.actions:
            if not action.pre <= state:
                continue
            succ = frozenset((state - action.delete) | action.add)
            ng = g + action.cost
            old = dist.get(succ)
            if (best is not None and ng > best) or (old is not None and ng > old):
                continue
            masked = counts.copy()
            for f in action.add:
                masked[f] = 0
            if old is None or ng < old:
                dist[succ] = ng
                paths[succ] = masked
                heapq.heappush(heap, (ng, tie, succ))
                tie += 1
            elif succ in paths:
                paths[succ] = [a + b for a, b in zip(paths[succ], masked)]
            elif succ != state:  # expanded at cost ng, so the action costs 0
                raise ValidationError(f"zero-cost action {action.name} returns to a counted state")

    if best is None:
        raise UnreachableGoalError("goal unreachable under full semantics")
    n = total[-1]
    p = np.array([(n - n_f) / n for n_f in total[:-1]])
    p[sorted(problem.s0)] = 1.0
    return FactProbabilityTable(goal_index, p, source=EXACT)
