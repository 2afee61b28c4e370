"""The streaming recognizer: every goal scored per observed fact.

A goal's score is the l2 length of the direction from the masked initial state
to its probability vector p, minus that length from the observed relaxed state
s.  The direction has entry p_f - s_f*p_f where p_f > 0 and -s_f where p_f = 0,
so observing a zero-probability fact punishes the goal.  `Recognizer` keeps the
directions as the rows of a goals x facts matrix: an observed fact sets its
column to 0 where p_f > 0 and to -1 where p_f = 0, and every row is re-normed
in one np.vecdot call, which runs the same per-row dot as row.dot(row).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grounding import GroundProblem
from .probability import FactProbabilityTable


@dataclass(frozen=True)
class ObservationEvent:
    """Either one observed action or one observed set of state facts."""

    action_id: int | None = None
    state_facts: frozenset[int] | None = None

    def __post_init__(self):
        if (self.action_id is None) == (self.state_facts is None):
            raise ParameterError("exactly one of action_id/state_facts must be set")

    @classmethod
    def action(cls, action_id: int) -> "ObservationEvent":
        return cls(action_id=action_id)

    @classmethod
    def state(cls, facts) -> "ObservationEvent":
        return cls(state_facts=frozenset(facts))


def map_state(state: frozenset[int], fact_count: int) -> np.ndarray:
    """0/1 indicator vector of a planning state."""
    v = np.zeros(fact_count)
    v[sorted(state)] = 1.0
    return v


def progress(observed, obs: ObservationEvent, problem: GroundProblem) -> list[int]:
    """The facts an observation adds that are not in `observed` yet.  An
    action's preconditions are not enforced: observations may be partial."""
    if obs.action_id is not None:
        if not 0 <= obs.action_id < len(problem.actions):
            raise ParameterError(f"unknown action id: {obs.action_id}")
        added = problem.actions[obs.action_id].add
    else:
        added = obs.state_facts
        if any(f < 0 or f >= problem.fact_count for f in added):
            raise ParameterError("observed state contains unknown fact ids")
    return sorted(f for f in added if f not in observed)


def heuristic(start: np.ndarray, directions: np.ndarray) -> list[float]:
    """Each goal's reward term minus the length of its direction row.  np.vecdot
    runs the same dot per row as row.dot(row) and np.linalg.norm, so every length
    is theirs to the last bit."""
    return (start - np.sqrt(np.vecdot(directions, directions))).tolist()


@dataclass
class TraceStep:
    t: int  # number of observations folded in
    heuristic: list[float]  # one score per goal
    recognized: list[int]  # the goals with the top score, ascending

    @classmethod
    def of(cls, t: int, scores: list[float]) -> "TraceStep":
        """The step at t in which every goal with the top score is recognized."""
        top = max(scores)
        return cls(t, scores, [i for i, h in enumerate(scores) if h == top])


@dataclass
class RecognitionTrace:
    steps: list[TraceStep]

    def records(self) -> list[dict]:
        """The steps as JSON-ready dicts, as traces are written everywhere."""
        return [{"t": s.t, "h": s.heuristic, "recognized": s.recognized} for s in self.steps]

    def to_json(self) -> str:
        return json.dumps(self.records(), indent=2)


class Recognizer:
    """Online scores of every goal of `problem`, one table per goal."""

    def __init__(self, problem: GroundProblem, tables: list[FactProbabilityTable]):
        if not problem.goals:
            raise ParameterError("at least one goal is required")
        shape = (len(problem.goals), problem.fact_count)
        if len(tables) != shape[0]:
            raise ParameterError(f"{len(tables)} probability tables for {shape[0]} goals")
        try:
            probs = np.array([t.p for t in tables], dtype=float)
        except ValueError:  # ragged or non-numeric tables
            probs = None
        if probs is None or probs.shape != shape:
            raise ParameterError(f"every table needs {problem.fact_count} probabilities")
        # min() rejects NaN too; it raises on an empty matrix, which needs no check.
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise ParameterError("probabilities must lie in [0, 1]")
        s0 = map_state(problem.s0, problem.fact_count)
        self.problem = problem
        self.positive = probs > 0
        self.directions = np.where(self.positive, probs - s0 * probs, -s0)
        # Stored: deriving positive[:, f] - 1.0 in fold made observe_us 11-22 % slower.
        self.observed_value = self.positive - 1.0
        self.start = np.sqrt(np.vecdot(self.directions, self.directions))
        self.observed = dict.fromkeys(sorted(problem.s0))  # insertion-ordered set

    def scores(self) -> list[float]:
        """Current scores; exactly 0.0 for every goal before any observation."""
        return heuristic(self.start, self.directions)

    def fold(self, obs: ObservationEvent) -> None:
        """Fold one observation in without scoring."""
        for f in progress(self.observed, obs, self.problem):
            self.directions[:, f] = self.observed_value[:, f]
            self.observed[f] = None

    def observe(self, obs: ObservationEvent) -> list[float]:
        """Fold one observation in and return the scores after it."""
        self.fold(obs)
        return self.scores()

    def run(self, observations: list[ObservationEvent]) -> RecognitionTrace:
        """One trace step per observation."""
        return RecognitionTrace(
            [TraceStep.of(t, self.observe(obs)) for t, obs in enumerate(observations, start=1)]
        )

    def explain(self) -> list[dict]:
        """Per goal: the reward term, the length left on the facts with positive
        probability, and the observed zero-probability facts outside s0 (an s0 fact
        reads -1 in both terms from the start), by name in observed order."""
        seen = [f for f in self.observed if f not in self.problem.s0]
        return [
            {"reward": float(reward), "remaining": float(np.linalg.norm(row[pos])),
             "penalized_facts": [self.problem.facts[f] for f in seen if not pos[f]]}
            for reward, row, pos in zip(self.start, self.directions, self.positive)
        ]


def recognize(
    problem: GroundProblem, tables: list[FactProbabilityTable], observations: list[ObservationEvent]
) -> TraceStep:
    """The step after all observations, scored once: ties all win."""
    recognizer = Recognizer(problem, tables)
    for obs in observations:
        recognizer.fold(obs)
    return TraceStep.of(len(observations), recognizer.scores())


def recognize_online(
    problem: GroundProblem, tables: list[FactProbabilityTable], observations: list[ObservationEvent]
) -> RecognitionTrace:
    """Incremental recognition: one timed step per observation."""
    return Recognizer(problem, tables).run(observations)
