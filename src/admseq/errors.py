"""Exception types shared across the package, and the readers of
integer inputs and vertex ids that raise them."""

from operator import index


class AdmseqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCartanError(AdmseqError):
    """Matrix is not a symmetric generalized Cartan matrix."""


class IndecomposabilityError(AdmseqError):
    """Graph is disconnected / Cartan matrix splits into blocks."""


class AcyclicityError(AdmseqError):
    """Orientation contains an oriented cycle."""


class FilterViolationError(AdmseqError):
    """Vertex set is not upward closed in the path order."""


class NotAdmissibleError(AdmseqError):
    """A letter of the sequence is not a sink in the running orientation.

    ``index`` is the 1-based position of the offending letter.
    """

    def __init__(self, index, letter):
        self.index = index
        self.letter = letter
        super().__init__(f"letter {letter} at position {index} is not a sink")


class BaseQuiverMismatchError(AdmseqError):
    """Binary operation on sequences with different base quivers."""


class InvalidMultiplicityError(AdmseqError):
    """Multiplicity vector has no admissible realization.

    ``level`` is the 1-based level set that breaks the filter or hull
    condition.
    """

    def __init__(self, level, reason):
        self.level = level
        super().__init__(f"level {level}: {reason}")


class EmptySequenceError(AdmseqError):
    """Operation requires a nonempty sequence."""


class NotPrincipalError(AdmseqError):
    """Sequence is not principal."""


class NotCompleteError(AdmseqError):
    """Sequence is not complete (some vertex multiplicity differs from 1)."""


class NotReducedError(AdmseqError):
    """The word of the sequence is not reduced."""


class NotSinkError(AdmseqError):
    """Reflection functor applied at a vertex that is not a sink."""


class NotSourceError(AdmseqError):
    """Reflection functor applied at a vertex that is not a source."""


class UndecidedError(AdmseqError):
    """Preprojectivity could not be decided within the iteration budget."""


def _int_tuple(values, what):
    """The values as a tuple of ints, each read with ``operator.index``:
    a float, a string or a Fraction is an AdmseqError, not truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise AdmseqError(f"{what} must be integers") from None


def _list(values, message, least=0):
    """The values read once into a list; a value that cannot be iterated,
    or that gives fewer than ``least`` items, is an AdmseqError with the
    given message."""
    try:
        items = iter(values)
    except TypeError:
        raise AdmseqError(message) from None
    values = list(items)
    if len(values) < least:
        raise AdmseqError(message)
    return values


def _int(value, what):
    """The value as an int, read with ``operator.index`` as ``_int_tuple`` reads."""
    try:
        return index(value)
    except TypeError:
        raise AdmseqError(f"{what} must be an integer") from None


def _vertex(n, x):
    """x as a vertex 1..n, read with ``_int``: the one reader of a single
    vertex id."""
    x = _int(x, "vertex")
    if not 0 < x <= n:
        raise AdmseqError(f"{x} is not a vertex 1..{n}")
    return x
