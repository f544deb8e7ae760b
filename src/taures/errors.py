"""Shared exception types with stable prefixes and CLI exit codes."""


class TauresError(Exception):
    """Base class for all package errors."""

    prefix = "error"
    exit_code = 1

    def __str__(self):
        return "{}: {}".format(self.prefix, super().__str__())


class FieldError(TauresError):
    """Bad field data: composite p, reducible modulus, division by zero."""

    prefix = "error[field]"
    exit_code = 3


class SkewParseError(TauresError):
    """Syntax or semantic error in an expression or manifest.

    Carries a 1-based line:column location of the first offending token.
    """

    prefix = "error[parse]"
    exit_code = 2

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
    exit_code = 5


class ConvergenceError(TauresError):
    """No convergence exponent k1 certified within the search cap."""

    prefix = "error[convergence]"
    exit_code = 4


class DimensionError(TauresError):
    """Matrix or basis dimensions do not match."""

    prefix = "error[dimension]"
    exit_code = 3


class NotInvertibleError(TauresError):
    """A pivot column is exactly zero during elimination; one known to
    vanish only down to the working floor raises PrecisionError."""

    prefix = "error[invert]"
    exit_code = 3
