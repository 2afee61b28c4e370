"""Goal recognition from fact observation probabilities over STRIPS domains."""

from .bench import (
    EvaluationReport,
    RecognitionInstance,
    build_problem,
    load_instance,
    prepare_instance,
    run_benchmark,
)
from .grounding import GroundAction, GroundProblem
from .probability import FactProbabilityTable, estimate, exact_oracle
from .recognition import (
    ObservationEvent,
    RecognitionTrace,
    Recognizer,
    recognize,
    recognize_online,
)

__all__ = [
    "EvaluationReport",
    "FactProbabilityTable",
    "GroundAction",
    "GroundProblem",
    "ObservationEvent",
    "RecognitionInstance",
    "RecognitionTrace",
    "Recognizer",
    "build_problem",
    "estimate",
    "exact_oracle",
    "load_instance",
    "prepare_instance",
    "recognize",
    "recognize_online",
    "run_benchmark",
]
