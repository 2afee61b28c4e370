"""Goal recognition from fact observation probabilities over STRIPS domains."""

from .bench import (
    EvaluationReport,
    RecognitionInstance,
    build_problem,
    load_instance,
    precision,
    prepare_instance,
    run_benchmark,
    spread,
)
from .grounding import GroundAction, GroundFact, GroundProblem, ground
from .negation import compile_negations
from .pddl import DomainAst, Literal, ProblemAst, parse_domain, parse_problem
from .probability import FactProbabilityTable, estimate, exact_oracle
from .recognition import (
    ObservationEvent,
    RecognitionTrace,
    Recognizer,
    recognize,
    recognize_online,
)
from .relaxed import RelaxedPlanningGraph, build_rpg
from .sampling import (
    SamplerState,
    SupporterSampleSet,
    generate_goal_supporters,
    sample_subgoal_supporters,
)

__all__ = [
    "DomainAst",
    "EvaluationReport",
    "FactProbabilityTable",
    "GroundAction",
    "GroundFact",
    "GroundProblem",
    "Literal",
    "ObservationEvent",
    "ProblemAst",
    "RecognitionInstance",
    "RecognitionTrace",
    "Recognizer",
    "RelaxedPlanningGraph",
    "SamplerState",
    "SupporterSampleSet",
    "build_problem",
    "build_rpg",
    "compile_negations",
    "estimate",
    "exact_oracle",
    "generate_goal_supporters",
    "ground",
    "load_instance",
    "parse_domain",
    "parse_problem",
    "precision",
    "prepare_instance",
    "recognize",
    "recognize_online",
    "run_benchmark",
    "sample_subgoal_supporters",
    "spread",
]
