"""Reference scoring, kept only for testing.

This is the definitional form of the ranking heuristic: the state and the
table are mapped to vectors, the masked product s⊙p and the direction to p
are built per goal, and both norms are recomputed at every step from the
whole observed state.  The package keeps one matrix of directions and
overwrites the columns of newly observed facts instead; tests check that
both give `==` scores.
"""

import numpy as np

from goalrec.errors import ParameterError
from goalrec.grounding import GroundProblem
from goalrec.probability import FactProbabilityTable
from goalrec.recognition import ObservationEvent

from reference_rpg import RelaxedState


def map_state(state: frozenset[int], fact_count: int) -> np.ndarray:
    """0/1 indicator vector of a planning state."""
    v = np.zeros(fact_count)
    ids = sorted(state)
    if ids and (ids[0] < 0 or ids[-1] >= fact_count):
        raise ParameterError("state contains fact ids outside the problem")
    v[ids] = 1.0
    return v


def map_probs(table: FactProbabilityTable) -> np.ndarray:
    return np.array(table.p, dtype=float)


def odot(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Masked elementwise product: s*v where v > 0, s elsewhere."""
    if s.shape != v.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {v.shape}")
    return np.where(v > 0, s * v, s)


def direction(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return y - x


def heuristic(s0v: np.ndarray, stv: np.ndarray, pv: np.ndarray) -> float:
    covered_start = float(np.linalg.norm(direction(odot(s0v, pv), pv)))
    covered_now = float(np.linalg.norm(direction(odot(stv, pv), pv)))
    return covered_start - covered_now


def progress(
    state: RelaxedState, obs: ObservationEvent, problem: GroundProblem
) -> RelaxedState:
    """Fold one observation into the observed relaxed state.

    Preconditions of observed actions are not enforced: observation
    sequences may be incomplete and intermediate states unknown.
    """
    if obs.action_id is not None:
        if not 0 <= obs.action_id < len(problem.actions):
            raise ParameterError(f"unknown action id: {obs.action_id}")
        return state.union(problem.actions[obs.action_id].add)
    if any(f < 0 or f >= problem.fact_count for f in obs.state_facts):
        raise ParameterError("observed state contains unknown fact ids")
    return state.union(obs.state_facts)
