"""Exception types shared across the package.

``InputError`` and its subclasses cover malformed documents, presentations
and certificates (CLI exit code 2).  ``CapExceededError`` signals that an
enumeration outgrew, or would outgrow, its element cap (CLI exit code 3).
Everything else is a precondition violation surfaced to the caller.
"""


class NeutralRepError(Exception):
    """Base class for every package-specific error."""


class InputError(NeutralRepError):
    """Malformed input document, group presentation, or certificate."""


class InvalidInvariantFactorsError(InputError):
    """Invariant factor list violates d_i >= 2 or the divisibility chain."""


class InfiniteGroupError(InputError):
    """Relation matrix presents an infinite group."""


class DuplicateCharacterError(InputError):
    """Two representation entries reduce to the same character."""


class BadCoordinateLengthError(InputError):
    """Coordinate tuple length does not match the number of invariant factors."""


class NonPositiveMultiplicityError(InputError):
    """Eigenspace multiplicities must be integers >= 1."""


class MalformedCertificateError(InputError):
    """Certificate is structurally unusable (re-verification cannot start)."""


class CapExceededError(NeutralRepError):
    """An enumeration exceeded, or was predicted to exceed, the configured
    element cap; ``size`` is the predicted size when one was computed."""

    def __init__(self, cap, message=None, size=None):
        self.cap = cap
        self.size = size
        super().__init__(message or f"closure exceeded the element cap ({cap})")


class NotCyclicError(NeutralRepError):
    """Operation requires a cyclic group (a single invariant factor)."""


class NonCyclicPrimaryPartError(NeutralRepError):
    """Operation requires the p-primary part to be cyclic (p-rank <= 1)."""


class GeometryInputError(InputError):
    """Invalid curve or pointed-variety instance data."""


class MissingQuotientGenusError(GeometryInputError):
    """A prime divisor of the automorphism order has no quotient-genus entry."""

    def __init__(self, prime):
        self.prime = prime
        super().__init__(f"missing quotient_genus entry for prime {prime}")


class InvalidGenusError(GeometryInputError):
    """Genus data out of range (g < 2, or a quotient genus outside [0, g])."""


class MissingFixedDimError(GeometryInputError):
    """A prime divisor of the automorphism order has no fixed-dim entry."""

    def __init__(self, prime):
        self.prime = prime
        super().__init__(f"missing fixed_dim entry for prime {prime}")


class InvalidDimsError(GeometryInputError):
    """Dimension data out of range (dim < 1, or a fixed dim outside [0, dim])."""


class ExtraneousPrimeError(GeometryInputError):
    """Per-prime data supplied for a key that is not a prime divisor of n."""

    def __init__(self, key, n):
        self.key = key
        self.n = n
        super().__init__(f"entry {key!r} is not a prime divisor of n = {n}")
