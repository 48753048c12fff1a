"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so new error conditions
should reuse one of the classes below rather than raising bare ValueErrors.
"""

from __future__ import annotations


class RingcolError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RingcolError, ValueError):
    """A parameter is outside its documented domain (n < 1, k < 3, bad t, ...)."""


class ParityError(ParameterError):
    """The requested operation is only defined for an even layer count."""


class ColoringError(RingcolError, ValueError):
    """Base class for defects of an edge coloring relative to a graph."""


class IncompleteColoringError(ColoringError):
    """The coloring leaves at least one edge of the graph uncolored."""


class ColoringMismatchError(ColoringError):
    """The coloring mentions an edge that does not exist in the graph."""


class ColorRangeError(ColoringError):
    """A color lies outside the declared palette [1, t]."""


class FormatError(RingcolError, ValueError):
    """A JSON document does not conform to the documented graph/coloring schema."""


class SoundnessError(RingcolError, RuntimeError):
    """An internal soundness check failed, such as a search witness that the
    verifier rejects. This is a bug in the package, never bad input, and the
    check runs under ``python -O`` too."""
