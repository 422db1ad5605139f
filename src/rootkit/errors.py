"""Exception types shared across the package."""


class RootSystemError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(RootSystemError):
    """A Cartan type string does not match ``<family letter><rank>``."""


class InadmissibleRank(RootSystemError):
    """The rank is outside the admissible range for the family."""


class NotARoot(RootSystemError):
    """A vector expected to be a root is not in the root set."""


class NotPositiveRoot(RootSystemError):
    """A vector expected to be a positive root is not one."""


class BadIndex(RootSystemError):
    """A simple-root index is out of range."""


class InvariantViolation(RootSystemError):
    """A mathematical invariant the package relies on failed to hold.

    Signals a bug in the package rather than bad user input.
    """


class NonIntegralSolution(InvariantViolation):
    """Expressing a root over the base produced non-integer coefficients."""


class NotSpecial(RootSystemError):
    """The simple root does not have multiplicity 1 in the highest root."""


class NotLong(RootSystemError):
    """The root is not in the long length class."""


class MultiplicityZero(RootSystemError):
    """The simple root does not appear in the given root."""


class NeitherSpecialNorCospecial(RootSystemError):
    """The simple root is neither special nor co-special."""
