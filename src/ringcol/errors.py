"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so new error conditions
should reuse one of the classes below rather than raising bare ValueErrors.
Every defect of a coloring, whichever it is, raises the one ColoringError,
and every integer (a parameter or a color) is read by the one rule ``is_int``
(``all_int`` states it for many values at once).
"""

from __future__ import annotations

from typing import Iterable


class RingcolError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RingcolError, ValueError):
    """A parameter is no integer or outside its domain (n < 1, k < 3, bad t, ...)."""


def is_int(value: object) -> bool:
    """The integer rule: an ``int`` itself, so a bool, IntEnum, float or str is none."""
    return type(value) is int


def all_int(values: Iterable[object]) -> bool:
    """``is_int`` of every value at once, at C speed: each one's type is ``int`` itself."""
    return {int}.issuperset(map(type, values))


def check_int(name: str, value: object, low: int) -> int:
    """``value`` if it is an integer (``is_int``) >= low, else ParameterError."""
    if not is_int(value) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


class ParityError(ParameterError):
    """The requested operation is only defined for an even layer count."""


class ColoringError(RingcolError, ValueError):
    """Any defect of an edge coloring relative to a graph: an edge uncolored
    or not in the graph, a color that is no integer or outside [1, t], or a
    declared t above the graph's edge count, where no interval t-coloring
    exists."""


class FormatError(RingcolError, ValueError):
    """A JSON document does not conform to the documented graph/coloring schema."""


class SoundnessError(RingcolError, RuntimeError):
    """An internal soundness check failed, such as a search witness that the
    verifier rejects. This is a bug in the package, never bad input, and the
    check runs under ``python -O`` too."""
