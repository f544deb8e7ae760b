"""Shared exception types with stable machine-readable prefixes."""


class TauresError(Exception):
    """Base class for all package errors."""

    prefix = "error"

    def __str__(self):
        return "{}: {}".format(self.prefix, super().__str__())


class FieldError(TauresError):
    """Bad field data: composite p, reducible modulus, division by zero."""

    prefix = "error[field]"


class SkewParseError(TauresError):
    """Syntax or semantic error in an expression or manifest.

    Carries a 1-based line:column location of the first offending token.
    """

    prefix = "error[parse]"

    def __init__(self, message, line=0, col=0):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        return "{} {}:{}: {}".format(self.prefix, self.line, self.col,
                                     Exception.__str__(self))


class PrecisionError(TauresError):
    """A coefficient below the precision floor was requested, or an
    operand is not known deep enough for the requested output."""

    prefix = "error[precision]"


class ConvergenceError(TauresError):
    """No convergence exponent k1 certified within the search cap."""

    prefix = "error[convergence]"


class DimensionError(TauresError):
    """Matrix or basis dimensions do not match."""

    prefix = "error[dimension]"


class NotInvertibleError(TauresError):
    """A pivot column is exactly zero during elimination; one known to
    vanish only down to the working floor raises PrecisionError."""

    prefix = "error[invert]"
