"""Graph data model and generators for layered ring graphs and K_{n,n}.

Vertices are labeled by 1-based (layer, index) pairs of integers (``as_vertex``).
A graph declares its label bounds (k layers, up to n vertices per layer) and is
immutable after construction, so colorings and reports can hold it safely.

The central family here is the "ring graph": k layers of n vertices arranged
in a ring, with every cyclically consecutive pair of layers joined completely.
Every vertex then has degree 2n, and for n = 1 the family degenerates to the
cycle C_k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat, starmap
from operator import lt
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import ParameterError, SoundnessError, check_int

if TYPE_CHECKING:
    from .engines import SearchPlan

__all__ = [
    "Vertex",
    "Edge",
    "Graph",
    "Composition",
    "RingParams",
    "as_vertex",
    "make_edge",
    "build_graph",
    "assemble_graph",
    "ring_graph",
    "complete_bipartite",
]


class Vertex(NamedTuple):
    """A 1-based (layer, index) vertex label. Tuple order gives the canonical
    lexicographic comparison used everywhere."""

    layer: int
    index: int


class Edge(NamedTuple):
    """An undirected edge stored with u < v so each edge has one representation."""

    u: Vertex
    v: Vertex


def as_vertex(raw: object, known: Mapping[Vertex, Vertex] = MappingProxyType({})) -> Vertex:
    """The Vertex a label spells: a Vertex, tuple or JSON list of two ints (layer,
    index), else ParameterError. The label's object in ``known`` comes back if it
    has one, so the labels of one graph or document share one object each."""
    # `type(x) is int` is errors.is_int, inlined: every edge endpoint of a file comes here
    if isinstance(raw, (tuple, list)) and len(raw) == 2 and type(raw[0]) is int and type(raw[1]) is int:
        if type(raw) is Vertex:
            return known.get(raw, raw)
        key = (raw[0], raw[1])  # a plain tuple finds the equal Vertex without making one
        return known.get(key) or Vertex(*key)
    raise ParameterError(f"a vertex label must be a (layer, index) pair of integers, got {raw!r}")


def make_edge(a: Vertex, b: Vertex) -> Edge:
    """Canonicalize an undirected edge. Loops are rejected."""
    if a == b:
        raise ParameterError(f"loop edge at {a} is not allowed")
    # tuple.__new__ skips the NamedTuple's Python-level __new__: the readers call this once per edge
    return tuple.__new__(Edge, (a, b) if a < b else (b, a))


@dataclass(frozen=True)
class RingParams:
    """Parameters (n, k) of the ring family: n vertices per layer, k >= 3 layers."""

    n: int
    k: int

    def __post_init__(self) -> None:
        check_int("n", self.n, 1)
        check_int("k", self.k, 3)

    @cached_property
    def graph(self) -> Graph:
        """The ring these parameters describe, built on first read and kept
        with them: ``ring_graph(params)`` returns it, so one command that
        builds, colors and verifies one ring holds one set of its edges."""
        n, k = self.n, self.k
        layers = [[Vertex(layer, index) for index in range(1, n + 1)] for layer in range(1, k + 1)]
        # canonical order: a vertex of layer i is below its neighbours in layer i + 1, and layer 1's
        # also below layer k's, so each vertex's edges upward come out sorted, vertex by vertex
        above = [layers[1] + layers[-1], *layers[2:], []]
        edges = map(tuple.__new__, repeat(Edge), chain.from_iterable(map(product, layers, above)))
        return assemble_graph(n, k, tuple(chain.from_iterable(layers)), tuple(edges))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over (layer, index) labels.

    ``n`` and ``k`` are label bounds (indices in [1, n], layers in [1, k]),
    not a promise that every labeled vertex exists or that layers are fully
    joined; the generators below produce the specific families. Instances are
    immutable: ``vertices`` and ``edges`` are canonically sorted tuples, and
    equality and hash range over them and the bounds. ``adjacency``, which
    maps every vertex to its sorted incident edges, is built on first read:
    writing and reading a graph, and verifying a coloring that passes, never
    read it.
    """

    n: int
    k: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def adjacency(self) -> Mapping[Vertex, tuple[Edge, ...]]:
        """Every vertex's incident edges in edge order, built on first read."""
        adjacency: dict[Vertex, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = e
            adjacency[u].append(e)
            adjacency[v].append(e)
        return {v: tuple(inc) for v, inc in adjacency.items()}

    def degree(self, v: Vertex) -> int:
        """d(v). The label is read by ``as_vertex``, so a float, bool or str
        raises ParameterError; an unknown integer label raises KeyError."""
        return len(self.adjacency[as_vertex(v)])

    def max_degree(self) -> int:
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        """Δ, scanned once per graph: the scan caps and χ' ask it on every query."""
        return max(map(len, self.adjacency.values()), default=0)

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """Neighbors of v in canonical order, its label read as in ``degree``."""
        return self._neighbors(as_vertex(v))

    def _neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """``neighbors`` of a vertex of this graph, its label unchecked."""
        return tuple(e.v if e.u == v else e.u for e in self.adjacency[v])

    @cached_property
    def diameter_and_bipartite(self) -> tuple[int, bool] | None:
        """(diameter, bipartite), or None for a graph without edges or one
        that is not connected. One BFS per vertex gives the diameter; a
        connected graph is bipartite exactly when no edge joins two vertices
        at the same BFS depth."""
        if not self.edges:
            return None
        diam = 0
        bipartite = True
        for root in self.vertices:
            depth = {root: 0}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for w in self._neighbors(v):
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        queue.append(w)
                    elif depth[w] == depth[v]:
                        bipartite = False
            if len(depth) < len(self.vertices):
                return None
            diam = max(diam, max(depth.values()))
        return diam, bipartite

    @cached_property
    def twin_classes(self) -> tuple[tuple[Vertex, ...], ...]:
        """The false-twin classes: vertices with identical neighbour sets,
        each class in vertex order and the classes ordered by their smallest
        vertex. Twins are never adjacent (a vertex is not its own neighbour),
        and two classes are either completely joined or not joined at all,
        so a graph whose classes all have n vertices is the composition
        H[K̄_n] of its quotient H (see ``composition``)."""
        classes: dict[tuple[Vertex, ...], list[Vertex]] = {}
        for v in self.vertices:
            classes.setdefault(self._neighbors(v), []).append(v)  # _neighbors() is sorted
        return tuple(tuple(members) for members in classes.values())

    @cached_property
    def composition(self) -> Composition | None:
        """The graph as H[K̄_n] when every twin class has the same size
        n >= 2, else None. The quotient H has one vertex per class, labelled
        by the class's smallest vertex, so it lives within these label
        bounds; classes are completely joined, so H's edges are the edges
        between those smallest vertices."""
        classes = {members[0]: members for members in self.twin_classes}
        n = len(self.twin_classes[0]) if classes else 0
        if n < 2 or any(len(members) != n for members in classes.values()):
            return None
        # classes and _neighbors() are in vertex order, so the edges u < w come out canonical
        edges = [tuple.__new__(Edge, (u, w)) for u in classes for w in self._neighbors(u) if u < w and w in classes]
        return Composition(assemble_graph(self.n, self.k, tuple(classes), tuple(edges)), n, classes)

    @cached_property
    def lift_plan(self) -> tuple[tuple[int, int, int], ...] | None:
        """``composition.lift_plan`` of this graph's edges over its twin
        classes, built once per graph rather than once per lifted query;
        None when the graph is no composition."""
        from .composition import lift_plan  # composition builds on this module

        composed = self.composition
        return None if composed is None else tuple(lift_plan(self.edges, composed.classes))

    @cached_property
    def search_plan(self) -> SearchPlan:
        """The static part of ``engines.edge_dfs``'s search of this graph (its
        edge order, degrees, twin keys and first-edge rule), built once per
        graph rather than once per query."""
        from .engines import search_plan  # engines builds on this module

        return search_plan(self)

    @cached_property
    def end_plan(self) -> EndPlan:
        """The places of each edge's two ends in ``vertices``, and each
        vertex's degree, counted off those places without ``adjacency``:
        ``coloring.verify`` ORs every edge's color into its ends' masks
        through it. Built once per graph rather than once per check."""
        place = {v: i for i, v in enumerate(self.vertices)}
        us = tuple(place[e.u] for e in self.edges)
        vs = tuple(place[e.v] for e in self.edges)
        deg = [0] * len(self.vertices)
        for x in chain(us, vs):
            deg[x] += 1
        return EndPlan(us, vs, tuple(deg))


class EndPlan(NamedTuple):
    """A graph's edge ends as places in its ``vertices``: ``us[i]`` and
    ``vs[i]`` are the ends of ``edges[i]``, and ``deg[x]`` is the degree of
    ``vertices[x]``. Two flat tuples of ints, not one of pairs, hold a
    32 768-edge ring in about 0.5 MB."""

    us: tuple[int, ...]
    vs: tuple[int, ...]
    deg: tuple[int, ...]


class Composition(NamedTuple):
    """A graph G = H[K̄_n]: the quotient H, the class size n, and
    ``classes``, which maps every vertex of H (its class's smallest vertex)
    to the members of its class in vertex order."""

    quotient: Graph
    n: int
    classes: Mapping[Vertex, tuple[Vertex, ...]]


def build_graph(
    n: int,
    k: int,
    vertices: Iterable[object],
    edges: Iterable[tuple[object, object]],
) -> Graph:
    """Validate labels, canonicalize edges, and assemble an immutable Graph.

    ``as_vertex`` reads every vertex and edge endpoint, once. Raises
    ParameterError on label bounds or labels that are no integers, an edge
    that is no pair, out-of-bounds labels, duplicate vertices, duplicate
    edges, loops, or edges touching unknown vertices, at the first defect in
    input order.
    """
    check_int("n", n, 1)
    check_int("k", k, 1)

    # one Vertex object per label (a caller's Vertex is kept), which as_vertex gives each endpoint
    label: dict[Vertex, Vertex] = {}
    for raw in vertices:
        v = as_vertex(raw)
        if not (1 <= v.layer <= k and 1 <= v.index <= n):
            raise ParameterError(f"vertex {v} outside the label bounds (k={k}, n={n})")
        if v in label:
            raise ParameterError(f"duplicate vertex {v}")
        label[v] = v

    # edges also kept in input order: files list them sorted, and sorting a
    # sorted list is linear where sorting the set is not
    edge_list: list[Edge] = []
    eseen: set[Edge] = set()
    for pair in edges:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ParameterError(f"an edge must be a pair of vertex labels, got {pair!r}") from None
        e = make_edge(as_vertex(a, label), as_vertex(b, label))
        if e.u not in label or e.v not in label:
            raise ParameterError(f"edge {e} touches an unknown vertex")
        if e in eseen:
            raise ParameterError(f"duplicate edge {e}")
        eseen.add(e)
        edge_list.append(e)

    edge_list.sort()
    return assemble_graph(n, k, tuple(sorted(label)), tuple(edge_list))


def assemble_graph(n: int, k: int, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> Graph:
    """The Graph on canonical tuples: ``vertices`` and ``edges`` strictly
    increasing, u < v on every edge, every label within the bounds and every
    endpoint a vertex. The generators build their labels and edges in this
    form, so no label of theirs is read twice; ``build_graph`` hands over the
    ones it read. The invariants are checked at C speed, and a broken one
    raises SoundnessError (a bug in the caller, checked under ``python -O``
    too)."""
    broken = [
        what
        for holds, what in (
            (all(map(lt, vertices, vertices[1:])), "vertices must be strictly increasing"),
            (all(map(lt, edges, edges[1:])), "edges must be strictly increasing"),
            (all(starmap(lt, edges)), "every edge must be stored as (u, v) with u < v"),
            (all(1 <= layer <= k and 1 <= index <= n for layer, index in vertices), "labels must lie within the bounds"),
            (frozenset(vertices).issuperset(chain.from_iterable(edges)), "every edge endpoint must be a vertex"),
        )
        if not holds
    ]
    if broken:
        raise SoundnessError(f"cannot assemble a graph (k={k}, n={n}): " + "; ".join(broken))
    return Graph(n=n, k=k, vertices=vertices, edges=edges)


def ring_graph(params: RingParams | None = None, *, n: int | None = None, k: int | None = None) -> Graph:
    """The 2n-regular graph on k layers of n vertices, consecutive layers
    (cyclically) joined completely.

    Accepts either a RingParams or explicit n=, k= keywords, not both. The
    result has n*k vertices, layer by layer, and n^2*k edges. It is
    ``params.graph``: every call with one RingParams object returns one Graph.
    """
    if params is None:
        params = RingParams(n, k)  # refuses a missing n or k
    elif n is not None or k is not None:
        raise ParameterError(f"ring_graph takes RingParams or n= and k=, not both: got {params}, n={n!r}, k={k!r}")
    return params.graph


def complete_bipartite(n: int) -> Graph:
    """K_{n,n} with parts stored as layers 1 and 2, every cross pair joined.

    Layer 2 plays the role the last ring layer plays inside ring_graph: the
    seed coloring in :mod:`ringcol.construct` puts its staircase on exactly
    this layer pair.
    """
    check_int("n", n, 1)
    first, second = ([Vertex(layer, index) for index in range(1, n + 1)] for layer in (1, 2))
    return assemble_graph(n, 2, (*first, *second), tuple([tuple.__new__(Edge, (a, b)) for a in first for b in second]))
