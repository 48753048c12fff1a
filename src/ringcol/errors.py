"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so new error conditions
should reuse one of the classes below rather than raising bare ValueErrors.
Every defect of a coloring, whichever it is, raises the one ColoringError.
"""

from __future__ import annotations


class RingcolError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RingcolError, ValueError):
    """A parameter is no integer or outside its domain (n < 1, k < 3, bad t, ...)."""


class ParityError(ParameterError):
    """The requested operation is only defined for an even layer count."""


class ColoringError(RingcolError, ValueError):
    """Any defect of an edge coloring relative to a graph: an edge uncolored
    or not in the graph, or a color that is no integer or outside [1, t]."""


class FormatError(RingcolError, ValueError):
    """A JSON document does not conform to the documented graph/coloring schema."""


class SoundnessError(RingcolError, RuntimeError):
    """An internal soundness check failed, such as a search witness that the
    verifier rejects. This is a bug in the package, never bad input, and the
    check runs under ``python -O`` too."""
