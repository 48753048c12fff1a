"""Edge colorings, vertex spectra, and the interval-coloring verifier.

A coloring is "interval" when it is proper, every color of the declared
palette [1, t] appears on some edge, and the colors incident to each vertex
form a run of d(x) consecutive integers. The verifier checks the three
conditions independently and returns full evidence for any failure, which is
what makes it usable as the trusted side of every search and construction in
this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import (
    ColorRangeError,
    ColoringMismatchError,
    IncompleteColoringError,
    ParameterError,
)
from .graphs import Edge, Graph, Vertex

__all__ = [
    "EdgeColoring",
    "Spectrum",
    "VerificationReport",
    "spectrum",
    "verify",
    "used_colors",
]


@dataclass(frozen=True)
class EdgeColoring:
    """A total map from edges to colors in [1, t], with t declared explicitly.

    t is declared rather than inferred from the maximum color so that an
    unused color is an observable defect: palette coverage is part of being
    an interval t-coloring, not an afterthought.
    """

    colors: Mapping[Edge, int]
    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ParameterError(f"t must be >= 0, got {self.t}")
        for e, c in self.colors.items():
            if not isinstance(c, int) or isinstance(c, bool):
                raise ColorRangeError(f"color of {e} must be an integer, got {c!r}")
            if not 1 <= c <= self.t:
                raise ColorRangeError(f"color {c} of {e} outside palette [1, {self.t}]")


@dataclass(frozen=True)
class Spectrum:
    """The sorted colors on edges incident to one vertex."""

    vertex: Vertex
    colors: tuple[int, ...]

    def is_consecutive(self) -> bool:
        """True when the colors form a gap-free run (|s| values spanning |s|)."""
        if not self.colors:
            return True
        return self.colors[-1] - self.colors[0] + 1 == len(self.colors)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail evidence for the three interval-coloring conditions.

    is_proper   <=> proper_violations is empty
    is_interval <=> is_proper and gap_vertices is empty
    covers_palette <=> missing_colors is empty
    """

    t: int
    is_proper: bool
    is_interval: bool
    covers_palette: bool
    proper_violations: tuple[tuple[Vertex, int, tuple[Edge, ...]], ...] = ()
    gap_vertices: tuple[tuple[Vertex, Spectrum], ...] = ()
    missing_colors: tuple[int, ...] = ()

    @property
    def is_interval_coloring(self) -> bool:
        """True exactly when the coloring is an interval t-coloring."""
        return self.is_proper and self.is_interval and self.covers_palette


def _check_edges_known(g: Graph, coloring: EdgeColoring) -> None:
    for e in coloring.colors:
        if e not in g.edge_set:
            raise ColoringMismatchError(f"colored edge {e} does not exist in the graph")


def _check_total(g: Graph, coloring: EdgeColoring) -> None:
    missing = [e for e in g.edges if e not in coloring.colors]
    if missing:
        raise IncompleteColoringError(
            f"coloring leaves {len(missing)} edge(s) uncolored, first: {missing[0]}"
        )


def spectrum(g: Graph, coloring: EdgeColoring, v: Vertex) -> Spectrum:
    """Colors on the edges incident to v, sorted ascending.

    Raises IncompleteColoringError if any incident edge is uncolored and
    KeyError for an unknown vertex.
    """
    if v not in g.adjacency:
        raise KeyError(f"unknown vertex {v}")
    incident = g.adjacency[v]
    missing = [e for e in incident if e not in coloring.colors]
    if missing:
        raise IncompleteColoringError(f"edge {missing[0]} incident to {v} is uncolored")
    return Spectrum(vertex=v, colors=tuple(sorted({coloring.colors[e] for e in incident})))


def verify(g: Graph, coloring: EdgeColoring) -> VerificationReport:
    """Check properness, per-vertex consecutiveness, and palette coverage.

    The coloring must be total on E(g) and stay inside [1, t]; those are
    input defects and raise, while the three interval conditions are results
    and come back in the report with their supporting evidence.
    """
    _check_edges_known(g, coloring)
    _check_total(g, coloring)

    violations: list[tuple[Vertex, int, tuple[Edge, ...]]] = []
    gaps: list[tuple[Vertex, Spectrum]] = []

    colors = coloring.colors
    for v in g.vertices:
        incident = g.adjacency[v]
        spect = Spectrum(vertex=v, colors=tuple(sorted({colors[e] for e in incident})))
        if len(spect.colors) != len(incident):
            by_color: dict[int, list[Edge]] = {}
            for e in incident:
                by_color.setdefault(colors[e], []).append(e)
            for c, clashing in sorted(by_color.items()):
                if len(clashing) > 1:
                    violations.append((v, c, tuple(clashing)))
        # d(v) distinct colors spanning exactly d(v) values; collisions shrink
        # the spectrum below d(v), so improper vertices always land here too.
        if len(spect.colors) != len(incident) or not spect.is_consecutive():
            gaps.append((v, spect))

    present = set(coloring.colors.values())
    missing = tuple(c for c in range(1, coloring.t + 1) if c not in present)

    is_proper = not violations
    return VerificationReport(
        t=coloring.t,
        is_proper=is_proper,
        is_interval=is_proper and not gaps,
        covers_palette=not missing,
        proper_violations=tuple(violations),
        gap_vertices=tuple(gaps),
        missing_colors=missing,
    )


def used_colors(coloring: EdgeColoring) -> set[int]:
    """The exact set of colors appearing on edges."""
    return set(coloring.colors.values())
