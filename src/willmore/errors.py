"""Exception types raised by the synthesis pipeline.

Every failure mode that callers are expected to catch has its own class here;
generic ValueError/TypeError are reserved for programming errors (bad shapes,
mixed exact and float loops).
"""


class WillmoreError(Exception):
    """Base class for all pipeline-specific failures."""


class DenominatorVanishes(WillmoreError):
    """Exact evaluation hit a denominator below scalars.DENOMINATOR_FLOOR."""


class LambdaZero(WillmoreError):
    """A loop element with negative powers was evaluated at lambda = 0."""


class SingularLocus(WillmoreError):
    """The Gram factorization fails at a sample: its Gram matrix lost
    positivity (degeneracy locus reached) or is not finite (overflow far
    from the origin)."""


class ResidualTooLarge(WillmoreError):
    """A factorization identity failed beyond the allowed residual."""


class StepSizeTooCoarse(WillmoreError):
    """A step-refined estimate did not settle within its tolerance: the
    frame ODE's step doubling, or verify's isotropy step refinement."""


class ExactPathRequired(WillmoreError):
    """The requested analysis needs exact lifts (a pair built from an exact frame)."""


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
