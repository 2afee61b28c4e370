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
    "build_problem",
    "compile_negations",
    "estimate",
    "exact_oracle",
    "ground",
    "load_instance",
    "parse_domain",
    "parse_problem",
    "precision",
    "prepare_instance",
    "recognize",
    "recognize_online",
    "run_benchmark",
    "spread",
]
