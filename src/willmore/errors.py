"""Exception types raised by the synthesis pipeline.

Every failure mode that callers are expected to catch has its own class here;
generic ValueError/TypeError are reserved for programming errors (bad shapes,
mixed exact and float loops).
"""


class WillmoreError(Exception):
    """Base class for all pipeline-specific failures."""


class DenominatorVanishes(WillmoreError):
    """Exact evaluation hit a denominator below the configured floor."""


class LambdaZero(WillmoreError):
    """A loop element with negative powers was evaluated at lambda = 0."""


class SingularLocus(WillmoreError):
    """The Gram factorization lost positivity (degeneracy locus reached)."""


class ResidualTooLarge(WillmoreError):
    """A factorization identity failed beyond the allowed residual."""


class StepSizeTooCoarse(WillmoreError):
    """ODE step-doubling disagreement exceeded tolerance."""


class ExactPathRequired(WillmoreError):
    """The requested analysis only exists on the exact backend."""


class FirstCoordinateVanishes(WillmoreError):
    """Projection to the sphere divided by a vanishing first coordinate."""


class PotentialFormatError(WillmoreError):
    """A potential file failed to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)
        self.line = line
        self.column = column
