"""Exception types shared across the library."""


class TritangleError(Exception):
    """Base class for all library-specific errors."""


class ZeroScale(TritangleError, ValueError):
    """Scaling a state by zero would produce the (invalid) zero vector."""


class NonFinite(TritangleError, ValueError):
    """A double-backend value is NaN or infinite."""


class BackendMismatch(TritangleError, TypeError):
    """Exact and floating-point values were combined in one operation."""


class ImpossibleOutcome(TritangleError):
    """Requested measurement outcome has probability zero."""


class NotSeparable(TritangleError):
    """Factor extraction was requested for a non-separable state."""


class ResidualNonzero(TritangleError):
    """Extracted factors fail to reproduce the amplitudes.

    Unreachable in the exact backend.  A double state can pass the
    separability test (every entry within eps) and still be too far from a
    product for the rebuild tolerance of :func:`extract_factors`.
    """


class KetSyntaxError(TritangleError):
    """Malformed ket expression.

    Carries the character offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} (at offset {offset}"
        if self.expected:
            detail += ", expected " + " or ".join(sorted(self.expected))
        detail += ")"
        super().__init__(detail)


class MixedArity(KetSyntaxError):
    """Two- and three-qubit kets were mixed in one expression."""


class InputFileError(TritangleError):
    """A state file named on the command line could not be read."""


class EmptyState(TritangleError):
    """All amplitudes cancelled; the zero vector is not a state."""


class UnsupportedIrrational(TritangleError):
    """Term prefactors cannot be pulled into a single common sqrt divisor."""
