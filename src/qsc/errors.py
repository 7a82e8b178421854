"""Exception types shared across the package."""


class QscError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"


class InvalidArgument(QscError, ValueError):
    """An argument violates an operation's preconditions."""

    kind = "invalid-argument"


class ZeroMassProjection(QscError):
    """Projection onto a subspace carrying (numerically) no probability mass.

    No shipped rule raises it: at every delta ``QcvParams`` accepts, the
    quantum Condorcet projection keeps more than 1/m of a row's mass.
    """

    kind = "zero-mass-projection"


class ResourceLimit(QscError):
    """A configured size cap (support combinations, dimension) was exceeded."""

    kind = "resource-limit"


class ParseError(QscError):
    """Malformed profile document or rule specification.

    ``locus`` points at the offending field, e.g. ``voters[1].pure[0]``.
    """

    kind = "parse-error"

    def __init__(self, message: str, locus: str | None = None):
        super().__init__(message)
        self.locus = locus
