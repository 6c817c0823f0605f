"""Exception hierarchy.

``ValidationError`` (and subclasses) mark caller mistakes; everything else
is a runtime failure.  The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""


class ContourSeekerError(Exception):
    pass


class ValidationError(ContourSeekerError):
    """Bad user input: malformed config, degenerate bounds, duplicate rows."""


class IngestionError(ValidationError):
    """Malformed tabular data; carries the offending row number when known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EvaluationError(ContourSeekerError):
    """A simulator could not produce a response for a requested point."""


class IllConditionedModelError(ContourSeekerError):
    """Gram factorization failed even at the maximum jitter level."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class FitFailureError(ContourSeekerError):
    """No optimizer start produced a factorizable model."""


class MetricUndefinedError(ContourSeekerError):
    """Reference contour is empty; the accuracy metric cannot be computed."""


class CampaignError(ContourSeekerError):
    """An adaptive campaign aborted; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
