"""Exception hierarchy shared across the package: one class per fault a
caller can act on."""


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


class ParameterError(GoalRecError, ValueError):
    """An argument outside its valid range, or one that names no goal, fact
    or action of the problem."""


class ValidationError(GoalRecError):
    """Well-formed input outside the supported subset or inconsistent with
    itself (arity, undeclared names, type misfits, ...)."""


class DatasetError(GoalRecError):
    """Benchmark instance or dataset cannot be loaded."""


class SearchCapExceededError(GoalRecError):
    """Exhaustive search hit the configured state cap."""


class UnreachableGoalError(GoalRecError):
    """A goal, or a subgoal given to the sampler, that no plan reaches; a
    fact unreachable in the relaxed problem is unreachable in the real one."""
