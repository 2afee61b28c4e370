"""Per-goal fact observation probability tables.

The sampling estimator turns combined supporter sets into an empirical
fraction per fact.  The exact oracle gives the probabilities under a
uniform distribution over cost-optimal plans; it counts the plans in one
uniform-cost search and never lists them, so its cost follows the number
of reachable states, not of plans.  Initial-state facts get probability 1.
"""

from __future__ import annotations

import csv
import heapq
import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SearchCapExceededError
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

    def to_csv(self, problem: GroundProblem) -> str:
        out = io.StringIO()
        out.write(f"# aggregation: {self.source}\n")
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["fact_name", "p_observed", "p_not_observed"])
        for fact_id, name in enumerate(problem.facts):
            p = float(self.p[fact_id])
            rows.writerow([name, p, 1.0 - p])
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
    samples = sample_combined_sets(problem, goal_index, n, seed)
    actions = problem.actions
    p = np.zeros(problem.fact_count)
    counts: Counter[int] = Counter()
    if aggregation == EMPIRICAL_UNION:
        for sample in samples:
            covered: set[int] = set()
            for aid in sample.actions:
                covered |= actions[aid].add
            counts.update(covered)
        p[list(counts)] = list(counts.values())
        p /= n
    else:
        for sample in samples:
            counts.update(sample.actions)
        # Each fact's miss product runs over its actions in ascending id.
        miss: dict[int, float] = {}
        for aid in sorted(counts):
            q = 1.0 - counts[aid] / n
            for f in actions[aid].add:
                miss[f] = miss.get(f, 1.0) * q
        p[list(miss)] = [1.0 - m for m in miss.values()]

    p[sorted(problem.s0)] = 1.0
    return FactProbabilityTable(goal_index, p, unreachable=not samples, source=aggregation)


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
            raise SearchCapExceededError(f"state cap exceeded: {max_states}")
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
        raise UnreachableGoalError(f"goal {goal_index} is unreachable under full semantics")
    n = total[-1]
    p = np.array([(n - n_f) / n for n_f in total[:-1]])
    p[sorted(problem.s0)] = 1.0
    return FactProbabilityTable(goal_index, p, source=EXACT)
