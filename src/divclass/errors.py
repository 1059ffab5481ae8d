"""Exception hierarchy shared by the whole package, its input guards, and the excerpt they quote."""

import operator
import reprlib
from collections.abc import Mapping, Set


class DivclassError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DivclassError):
    """Caller-supplied data is malformed or out of range (CLI exit code 1)."""


class LimitExceededError(InputError):
    """A configurable enumeration cap was hit before the computation finished."""


class InternalInvariantError(DivclassError):
    """A mathematical invariant the library guarantees was violated.

    Seeing this means a bug in the library, never bad input
    (CLI exit code 2).
    """


class _Excerpt(reprlib.Repr):
    """``reprlib``'s limits, with an integer past 128 bits written as its bit count.

    ``reprlib`` writes an integer out in full before shortening it, which
    raises ``ValueError`` past the interpreter's digit limit.
    """

    def repr_int(self, x, level):
        bits = x.bit_length()
        return repr(x) if bits <= 128 else f"<{bits}-bit integer>"


_EXCERPT = _Excerpt()
_EXCERPT.maxstring, _EXCERPT.maxlevel = 60, 2


def excerpt(value) -> str:
    """``repr(value)`` if short, else shortened before it is written and cut at 100 characters."""
    text = _EXCERPT.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


def require(value, kind, needs: str):
    """``value`` if it is a ``kind``, else the package's one wrong-type ``InputError``."""
    if isinstance(value, kind):
        return value
    raise InputError(f"{needs}, got {excerpt(value)}")


def as_integer(value, what: str) -> int:
    """``value`` as an int through ``operator.index``; a bool or a non-int is an ``InputError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {excerpt(value)}")


def as_tuple(value, what: str) -> tuple:
    """``value`` as a tuple; anything but an ordered container is an ``InputError``.

    A string, bytes, mapping or set iterates as characters, keys or in hash
    order, never as the entries it seems to hold, so each is refused.
    """
    if not isinstance(value, (str, bytes, Mapping, Set)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be a sequence, got {excerpt(value)}")


def integer_vector(values, what: str, entry: str = "entry") -> tuple:
    """``values`` as a tuple of ints: ``as_tuple`` on the vector, ``as_integer`` on each entry."""
    label = f"{what} {entry}"
    return tuple(as_integer(x, label) for x in as_tuple(values, what))
