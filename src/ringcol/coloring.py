"""Edge colorings, vertex spectra, and the interval-coloring verifier.

A coloring α of a graph is an ``EdgeColoring``: α(e) is ``colors[e]``. The
spectrum S(x, α), the set of colors on the edges incident to a vertex x, is
the sorted tuple ``spectrum(g, α, x)`` returns; ``verify`` tests each vertex
by the size, first and last element of its sorted colors, and makes the
tuple only for a vertex that fails.

A coloring is "interval" when it is proper, every color of the declared
palette [1, t] appears on some edge, and the colors incident to each vertex
form a run of d(x) consecutive integers, so t is at most |E|. The verifier
checks the three conditions independently and returns full evidence for any
failure, which is what makes it usable as the trusted side of every search
and construction in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ColoringError, all_int, check_int, is_int
from .graphs import Edge, Graph, Vertex, as_vertex

__all__ = [
    "EdgeColoring",
    "VerificationReport",
    "check_total",
    "spectrum",
    "verify",
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
        check_int("t", self.t, 0)
        if all_int(self.colors.values()):
            present = set(self.colors.values())  # min and max of the distinct colors cost less
            if not present or (1 <= min(present) and max(present) <= self.t):
                return
        for e, c in self.colors.items():  # some color is at fault: name the first
            if not is_int(c):
                raise ColoringError(f"color of {e} must be an integer, got {c!r}")
            if not 1 <= c <= self.t:
                raise ColoringError(f"color {c} of {e} outside palette [1, {self.t}]")


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
    gap_vertices: tuple[tuple[Vertex, tuple[int, ...]], ...] = ()
    missing_colors: tuple[int, ...] = ()

    @property
    def is_interval_coloring(self) -> bool:
        """True exactly when the coloring is an interval t-coloring."""
        return self.is_proper and self.is_interval and self.covers_palette


def spectrum(g: Graph, coloring: EdgeColoring, v: Vertex) -> tuple[int, ...]:
    """S(v, α): the colors on the edges incident to v, sorted ascending.

    Raises ColoringError if any incident edge is uncolored. v is read by
    ``as_vertex``: a label that is no pair of integers raises ParameterError,
    and an unknown vertex KeyError.
    """
    incident = g.adjacency[as_vertex(v)]
    missing = [e for e in incident if e not in coloring.colors]
    if missing:
        raise ColoringError(f"edge {missing[0]} incident to {v} is uncolored")
    return tuple(sorted({coloring.colors[e] for e in incident}))


def check_total(g: Graph, coloring: EdgeColoring) -> None:
    """Raise ColoringError unless the coloring colors exactly the edges of g."""
    colors = coloring.colors
    # total on E(g) exactly when it colors as many edges as g has and every edge of g
    if len(colors) != len(g.edges) or not all(map(colors.__contains__, g.edges)):
        edges = set(g.edges)
        for e in colors:
            if e not in edges:
                raise ColoringError(f"colored edge {e} does not exist in the graph")
        missing_edges = [e for e in g.edges if e not in colors]
        raise ColoringError(
            f"coloring leaves {len(missing_edges)} edge(s) uncolored, first: {missing_edges[0]}"
        )


def verify(g: Graph, coloring: EdgeColoring) -> VerificationReport:
    """Check properness, per-vertex consecutiveness, and palette coverage.

    The coloring must be total on E(g) (``check_total``), stay inside [1, t]
    and declare t <= |E|, since each edge brings one color; those are input
    defects and raise ColoringError, a coloring of another graph first. The
    three interval conditions are results and come back in the report with
    their supporting evidence. ``missing_colors`` lists every unused color of
    [1, t], so it holds at most |E| colors.
    """
    check_total(g, coloring)
    if coloring.t > len(g.edges):
        raise ColoringError(f"t = {coloring.t} exceeds the graph's {len(g.edges)} edges: "
                            "no interval t-coloring exists")
    colors = coloring.colors

    violations: list[tuple[Vertex, int, tuple[Edge, ...]]] = []
    gaps: list[tuple[Vertex, tuple[int, ...]]] = []

    for v in g.vertices:
        incident = g.adjacency[v]
        spect = sorted(set(map(colors.__getitem__, incident)))
        d = len(incident)
        # d(v) distinct colors spanning exactly d(v) values passes; an isolated vertex has
        # none and passes too. Sorting a set of ints costs less than its max() and min()
        if len(spect) == d and (not d or spect[-1] - spect[0] + 1 == d):
            continue
        if len(spect) != d:
            by_color: dict[int, list[Edge]] = {}
            for e in incident:
                by_color.setdefault(colors[e], []).append(e)
            for c, clashing in sorted(by_color.items()):
                if len(clashing) > 1:
                    violations.append((v, c, tuple(clashing)))
        # collisions shrink the spectrum below d(v), so improper vertices always land here too
        gaps.append((v, tuple(spect)))

    present = set(colors.values())
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
