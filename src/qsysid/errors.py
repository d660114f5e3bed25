"""Exception types shared across the toolkit."""


class QsysidError(Exception):
    """Base class for everything this package raises on purpose."""


class InvalidParametersError(QsysidError, ValueError):
    """A physical parameter or argument violates its documented range;
    `field` names the parameter when one alone is at fault."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class NumericError(QsysidError, RuntimeError):
    """A numerical routine hit non-finite values or failed to converge."""


class ConfigError(QsysidError, ValueError):
    """A config file is structurally or semantically invalid."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        if key is not None:
            message = f"{message} (key: {key})"
        super().__init__(message)


class FormatError(QsysidError, ValueError):
    """A record or result file violates its format contract; `event` is the
    index of the offending event, `line` its line in the file."""

    def __init__(self, message: str, line: int | None = None, event: int | None = None):
        self.line = line
        self.event = event
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class NoEstimateError(QsysidError, RuntimeError):
    """Every grid candidate was excluded, so no estimate exists."""


class StatisticsError(QsysidError, RuntimeError):
    """Too few surviving samples to form the requested statistic."""


class ConvergenceError(QsysidError, RuntimeError):
    """An iterative solve ran out of budget before reaching tolerance."""


class StepSizeError(QsysidError, RuntimeError):
    """A fixed-step integration shows error growth; a smaller step is needed."""
