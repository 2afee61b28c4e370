"""Exception hierarchy shared across the package."""


class GoalRecError(Exception):
    """Base class for all errors raised by this package."""


class PddlSyntaxError(GoalRecError):
    """Malformed s-expression input."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedRequirementError(GoalRecError):
    """Domain declares a requirement tag outside the supported subset."""

    def __init__(self, tag):
        self.tag = tag
        super().__init__(f"unsupported requirement: {tag}")


class ParameterError(GoalRecError, ValueError):
    """A numeric option or argument outside its valid range."""


class ValidationError(GoalRecError):
    """AST-level consistency violation (arity, undeclared names, ...)."""


class GroundingError(GoalRecError):
    """Failure while instantiating schemas or mapping hypothesis literals."""


class InapplicableActionError(GoalRecError):
    """Action applied in a state that does not satisfy its preconditions."""


class UnknownIdError(GoalRecError):
    """Fact or action id outside the problem's index range."""


class UnsupportedFactError(GoalRecError):
    """A subgoal given to the sampler has no first achiever: it is neither
    in s0 nor relaxed-reachable.  The facts the walk demands below a
    subgoal are preconditions of reachable actions and always have one.
    """


class InsufficientSamplesError(GoalRecError):
    """Fewer per-subgoal supporter sets available than requested."""


class SearchCapExceededError(GoalRecError):
    """Exhaustive search hit the configured state cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"state cap exceeded: {cap}")


class UnreachableGoalError(GoalRecError):
    """Goal unreachable under full (non-relaxed) semantics."""


class DatasetError(GoalRecError):
    """Benchmark instance or dataset cannot be loaded."""
