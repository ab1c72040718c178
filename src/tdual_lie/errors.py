"""Exception types shared across the package, and the helpers that read
user input into them."""

QUOTE_LIMIT = 60  # characters of user input an error message repeats


def quote(text: str, show=repr) -> str:
    """`show(text)` for a one-line message; longer input is cut to its first
    QUOTE_LIMIT characters, followed by its length."""
    if len(text) <= QUOTE_LIMIT:
        return show(text)
    return f"{show(text[:QUOTE_LIMIT])}... ({len(text)} characters)"


def escape(text: str) -> str:
    """repr(text) unquoted: control characters escaped, plain text as is."""
    return repr(text)[1:-1]


def ascii_int(text: str, signed: bool = False) -> int:
    """int(text) for text of ASCII digits, after one "-" when `signed`.

    int() alone also takes "_", "+", surrounding spaces and other scripts'
    digits; here they raise ValueError, like text that is no integer.
    """
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not written in ASCII digits: {quote(text)}")
    return int(text)  # ValueError past Python's 4300-digit limit


class TdualError(Exception):
    """Base class for all errors raised by this package."""


class NotBetweenLattices(TdualError):
    """A lattice does not sit between the coroot and coweight lattices."""


class InvalidSeries(TdualError):
    """A simple series, rank or Cartan matrix outside the classification."""


class InvalidCenterSubgroup(TdualError):
    """Fundamental-group generators do not define a subgroup of the center."""


class RequiresExplicitB(TdualError):
    """The level formula for the commutator map only applies to simply
    connected groups; a group with pi_1 != 0 must be given the commutator
    map explicitly."""


class InvalidCommutator(TdualError):
    """A commutator matrix has a denominator below 1, does not vanish on the
    diagonal, is not antisymmetric mod 1, or has entries outside [0, 1)."""


class NotACycle(TdualError):
    """The given twist representative is not killed by the degree-2
    differential, so it does not represent a degree-3 class."""


class DimensionMismatch(TdualError):
    """Vector or matrix dimensions do not agree."""


class Unavailable(TdualError):
    """No Dynkin-diagram isomorphism onto the dual group exists.

    Carries the failed search evidence in ``.evidence``.
    """

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InadmissibleCutoff(TdualError):
    """A cutoff profile violates the boundary/plateau requirements."""


class UsageError(TdualError):
    """Malformed command-line input."""
