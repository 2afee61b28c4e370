"""The streaming recognizer: every goal scored per observed fact.

A goal's score is the l2 length of the direction from the masked initial state
to its probability vector p, minus that length from the observed relaxed state
s.  The direction has entry p_f - s_f*p_f where p_f > 0 and -s_f where p_f = 0,
so observing a zero-probability fact punishes the goal.  `Recognizer` keeps the
directions as the rows of a goals x facts matrix: an observed fact sets its
column to 0 where p_f > 0 and to -1 where p_f = 0, and each row is re-normed.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnknownIdError
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
            raise UnknownIdError(f"unknown action id: {obs.action_id}")
        added = problem.actions[obs.action_id].add
    else:
        added = obs.state_facts
        if any(f < 0 or f >= problem.fact_count for f in added):
            raise UnknownIdError("observed state contains unknown fact ids")
    return sorted(f for f in added if f not in observed)


def heuristic(start: list[float], directions: np.ndarray) -> list[float]:
    """Each goal's reward term minus the length of its direction row.  Per row, as
    np.linalg.norm computes it: one einsum over the matrix differs in the last bits."""
    return [s - math.sqrt(row.dot(row)) for s, row in zip(start, directions)]


@dataclass
class RecognitionResult:
    heuristic: dict[int, float]  # goal index -> score
    recognized: frozenset[int]  # argmax set
    t: int  # number of observations folded in


@dataclass
class TraceStep:
    t: int
    heuristic: list[float]
    recognized: list[int]


@dataclass
class RecognitionTrace:
    steps: list[TraceStep]

    def final_recognized(self) -> frozenset[int]:
        return frozenset(self.steps[-1].recognized) if self.steps else frozenset()

    def records(self) -> list[dict]:
        """The steps as JSON-ready dicts, as traces are written everywhere."""
        return [{"t": s.t, "h": s.heuristic, "recognized": s.recognized} for s in self.steps]

    def to_json(self) -> str:
        return json.dumps(self.records(), indent=2)


def _argmax_set(scores: list[float]) -> frozenset[int]:
    top = max(scores)
    return frozenset(i for i, h in enumerate(scores) if h == top)


class Recognizer:
    """Online scores of every goal of `problem`, one table per goal."""

    def __init__(self, problem: GroundProblem, tables: list[FactProbabilityTable]):
        if len(tables) != len(problem.goals):
            raise ParameterError(f"{len(tables)} probability tables for {len(problem.goals)} goals")
        if any(np.shape(t.p) != (problem.fact_count,) for t in tables):
            raise ParameterError(f"every table needs {problem.fact_count} probabilities")
        probs = np.array([t.p for t in tables], dtype=float).reshape(len(tables), problem.fact_count)
        if not ((probs >= 0.0) & (probs <= 1.0)).all():
            raise ParameterError("probabilities must lie in [0, 1]")
        s0 = map_state(problem.s0, problem.fact_count)
        self.problem = problem
        self.positive = probs > 0
        self.directions = np.where(self.positive, probs - s0 * probs, -s0)
        self.observed_value = np.where(self.positive, 0.0, -1.0)
        self.start = [math.sqrt(row.dot(row)) for row in self.directions]
        self.observed = dict.fromkeys(sorted(problem.s0))  # insertion-ordered set

    def scores(self) -> list[float]:
        """Current scores; exactly 0.0 for every goal before any observation."""
        return heuristic(self.start, self.directions)

    def observe(self, obs: ObservationEvent) -> list[float]:
        """Fold one observation in and return the scores after it."""
        new = progress(self.observed, obs, self.problem)
        for f in new:
            self.directions[:, f] = self.observed_value[:, f]
            self.observed[f] = None
        return self.scores()

    def run(self, observations: list[ObservationEvent]) -> RecognitionTrace:
        """One trace step per observation."""
        steps = []
        for t, obs in enumerate(observations, start=1):
            scores = self.observe(obs)
            steps.append(TraceStep(t, scores, sorted(_argmax_set(scores))))
        return RecognitionTrace(steps)

    def explain(self) -> list[dict]:
        """Per goal: the reward term, the length left on the facts with positive
        probability, and the observed zero-probability facts, by name in observed order."""
        return [
            {"reward": reward, "remaining": float(np.linalg.norm(row[pos])),
             "penalized_facts": [self.problem.fact_name(f) for f in self.observed if not pos[f]]}
            for reward, row, pos in zip(self.start, self.directions, self.positive)
        ]


def recognize(
    problem: GroundProblem, tables: list[FactProbabilityTable], observations: list[ObservationEvent]
) -> RecognitionResult:
    """Score every goal against all observations; ties all win."""
    recognizer = Recognizer(problem, tables)
    scores = recognizer.scores()
    for obs in observations:
        scores = recognizer.observe(obs)
    return RecognitionResult(dict(enumerate(scores)), _argmax_set(scores), len(observations))


def recognize_online(
    problem: GroundProblem, tables: list[FactProbabilityTable], observations: list[ObservationEvent]
) -> RecognitionTrace:
    """Incremental recognition: one timed step per observation."""
    return Recognizer(problem, tables).run(observations)
