"""Shared exception types.

Kept in one place so the CLI can map them onto exit codes without
importing half the package: validation/parse problems exit 2,
degenerate fits exit 3.
"""


class FransonError(Exception):
    """Base class for everything raised deliberately by this package."""


class ValidationError(FransonError):
    """A parameter or configuration violates a documented invariant."""


class ParseError(FransonError):
    """A config/scenario file could not be parsed."""


class FitDegenerate(FransonError):
    """Fringe fit cannot determine a visibility (e.g. flat scan).

    The offending estimate (V=0, sigma_v=inf) is attached so callers
    that prefer a flagged value over an exception can still get one.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate
