"""The one search loop, ``edge_dfs``, and ``padded``, which makes a proper query an interval one.

``edge_dfs`` takes a graph, a span t and a node limit (None for none) and
returns ``(assignment, nodes visited)``. The assignment (edge -> color) is
None when the (pruned but complete) space is exhausted, or when the search
stopped at node limit + 1: a count above the limit means the budget ran out.
It never verifies its output: ``ringcol.search.find_interval_t``, the one
road into it (χ' too, on a ``padded`` graph), re-checks every witness with
the independent verifier.

It assigns colors edge by edge in ``connected_edge_order``, pruning on
properness, on the color spread at each endpoint (the spread of a final
spectrum cannot exceed the degree), and on whether the not-yet-used colors
still fit on the remaining edges. Each prune is a mask on one candidate
bitmask per depth, built when the search enters it; the lowest untried bit
is the next color.

Symmetry. Three rules cut colorings that an automorphism of g, or the
reflection c -> t + 1 - c, maps to one the search still visits. Let r be the
first vertex of the first edge (the least vertex with an edge, so the first
member of its twin class R), and order the twin classes (``Graph.twin_classes``)
by a BFS over the quotient from R, each class's neighbour classes in order.

- Twin keys. For each class C other than R in R's component, let z be the
  first member of C's BFS parent class. The key edges z-C[0], z-C[1], ...
  carry strictly increasing colors. Sound: permuting the members of C is an
  automorphism (they are false twins), and it recolors only edges at C's
  members. Take any interval t-coloring and sort the classes in BFS order,
  permuting each so that its key colors increase (they are distinct, since
  its key edges share z). A key edge joins a class to its parent, and a
  parent comes before its child, so the key edges of a class sorted
  earlier touch no member of the class being sorted. The result is an
  interval t-coloring that meets every key. Classes outside R's component
  get no keys.
- Color 1. The first edge is r-D[0] for the class D of its other end: every
  member of D is a neighbour of r, so D's BFS parent is R and its least
  member is r's least neighbour. When the classes all have one size and the
  quotient is a connected cycle or complete graph (g itself when the classes
  have one member), the first edge gets exactly color 1. Sound: some edge
  carries color 1 (the palette is covered). The quotient is
  edge-transitive, and its automorphisms lift to g class member by class
  member, so one maps that edge to one between R and D; a permutation of R
  then moves its end in R to r. Sorting the keys (R is never sorted, so r
  stays) gives the least color on r-D, which is 1, to r-D[0].
- Reflection cap. On every other graph the first edge's color is at most
  ceil(t/2). Sound beside the keys: after the sort, r-D[0] carries the least
  color c_min of the edges r-D. If c_min > ceil(t/2), reflect and sort
  again: the first edge then carries the least reflected color on r-D,
  t + 1 - c_max <= t + 1 - c_min <= floor(t/2).

The static part of the search (the edge order, the degrees, each depth's
nearest earlier key edges and the first edge's rule) is ``Graph.search_plan``,
built once per graph. At depth i the keys admit the colors strictly between
those of the nearest key edges of the same class already colored, one below
and one above in key order; a color array that ends in the fixed colors 0,
t + 1 and the first edge's cap + 1 stands in where there is none, so the
key rule and the first edge's rule are one AND on entry.

``edge_dfs`` walks the plan with vertices as indices into ``g.vertices``
and color sets as int bitmasks (bit c is color c). It keeps, per vertex,
the colors it may still take: the palette at first, then, each time color
c lands on a vertex of degree d, that set ANDed with ``band[c]``, the colors
within distance d - 1 of c other than c (one band table of t + 1 ints per
distinct degree, built per query). The intersection of those bands is
exactly the spread window ``[highest - d + 1, lowest + d - 1]`` minus the
used colors, so one AND of both endpoints' sets gives the properness and
spread prunes at once. Each depth keeps both endpoints' sets from before its
color and puts them back when the search backs up; the coverage prune reads
a mask of the colors on no edge and its size, both kept up to date as
colors land and leave. It counts nodes in a local variable and does not
recurse: it runs from explicit per-depth state, so a graph with thousands
of edges runs into its node limit, never into the recursion limit.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts. The branching rule is part of that contract: the
search tries colors in increasing order.
"""

from __future__ import annotations

import heapq
from bisect import bisect, insort
from collections import deque
from typing import NamedTuple

from .graphs import Edge, Graph, Vertex, assemble_graph, make_edge

__all__ = ["SearchPlan", "connected_edge_order", "edge_dfs", "padded", "search_plan"]


def connected_edge_order(g: Graph) -> list[Edge]:
    """Canonical smallest-first order that keeps each prefix connected where
    possible, so early assignments constrain later ones: the next edge is the
    smallest one touching a covered vertex, else the smallest remaining one.

    The frontier heap holds every remaining edge that touches a covered
    vertex (taken edges are dropped lazily when popped), so the whole order
    costs O(|E| log |E|).
    """
    taken: set[Edge] = set()
    covered: set[Vertex] = set()
    frontier: list[Edge] = []
    order: list[Edge] = []
    by_size = iter(g.edges)  # g.edges is sorted: the fallback when the frontier is empty
    while len(order) < len(g.edges):
        while frontier and frontier[0] in taken:
            heapq.heappop(frontier)
        if frontier:
            e = heapq.heappop(frontier)
        else:
            e = next(x for x in by_size if x not in taken)
        order.append(e)
        taken.add(e)
        for v in e:
            if v not in covered:
                covered.add(v)
                for inc in g.adjacency[v]:
                    if inc not in taken:
                        heapq.heappush(frontier, inc)
    return order


def padded(g: Graph, t: int) -> Graph:
    """g plus t - d(v) pendant edges at every vertex v of degree >= 1 (t >= Δ),
    each to a new leaf: the leaves of ``g.vertices[i]`` are ``(g.k + 1 + i, j)``
    for j = 1..t - d(v), in layers above every label of g.

    g has a proper t-coloring exactly when ``padded(g, t)`` has an interval
    t-coloring. Given a proper t-coloring of g, color the pendants at v with
    the t - d(v) colors missing at v: every padded vertex then sees all of
    1..t, a run that covers the palette, and a leaf sees one color. Given an
    interval t-coloring of the padded graph, it is proper, so its colors on
    g's edges are a proper t-coloring of g. When no vertex needs a pendant
    (every vertex of degree >= 1 has degree t, as in a Δ-regular graph at
    t = Δ) the padding is g itself, the same object.
    """
    pendants = [
        Edge(v, Vertex(g.k + 1 + i, j))
        for i, v in enumerate(g.vertices)
        if g.adjacency[v]
        for j in range(1, t - len(g.adjacency[v]) + 1)
    ]
    if not pendants:
        return g
    return assemble_graph(max(g.n, t), g.k + len(g.vertices), g.vertices + tuple(e.v for e in pendants),
                          tuple(sorted(g.edges + tuple(pendants))))


# ---------------------------------------------------------------------------
# edge_dfs: the engine behind every interval query
# ---------------------------------------------------------------------------


class SearchPlan(NamedTuple):
    """The static part of ``edge_dfs``'s search of one graph with m edges,
    shared by every query on it. Vertices are indices into ``g.vertices``, and
    depth i colors ``edges[i]``."""

    edges: tuple[Edge, ...]  # connected_edge_order
    us: tuple[int, ...]  # per depth: the endpoints of edges[i]
    vs: tuple[int, ...]
    deg: tuple[int, ...]  # per vertex: its degree
    below: tuple[int, ...]  # per depth: the nearest earlier key edge of its class below it in key order, else m
    above: tuple[int, ...]  # per depth: the same above it, else m + 1; at depth 0, m + 2 (the first edge's cap)
    color_one: bool  # the first edge takes exactly color 1, else at most ceil(t/2)


def _twin_keys(g: Graph, root: Vertex) -> tuple[dict[Edge, tuple[int, int]], bool]:
    """(key edge -> (its class, its place in the class), whether color 1 applies),
    from a BFS over the quotient rooted at the class of ``root``."""
    classes = g.twin_classes
    of = {v: c for c, members in enumerate(classes) for v in members}
    # each class's neighbour classes, in class order (its first member's neighbours are sorted)
    near = [list(dict.fromkeys(of[w] for w in g.neighbors(members[0]))) for members in classes]
    keys: dict[Edge, tuple[int, int]] = {}
    reached = {of[root]}
    queue = deque(reached)
    while queue:
        parent = queue.popleft()
        z = classes[parent][0]
        for c in near[parent]:
            if c not in reached:
                reached.add(c)
                queue.append(c)
                if len(classes[c]) > 1:
                    keys.update((make_edge(z, x), (c, j)) for j, x in enumerate(classes[c]))
    # a connected quotient, regular of degree 2 (a cycle) or q - 1 (complete), over classes of one size
    degrees = {len(cs) for cs in near}
    color_one = (len({len(members) for members in classes}) == 1 and len(reached) == len(classes)
                 and degrees in ({2}, {len(classes) - 1}))
    return keys, color_one


def search_plan(g: Graph) -> SearchPlan:
    """The plan of g's search; ``Graph.search_plan`` caches it."""
    edges = connected_edge_order(g)
    m = len(edges)
    pos = {v: i for i, v in enumerate(g.vertices)}
    deg = tuple(len(g.adjacency[v]) for v in g.vertices)
    keys, color_one = _twin_keys(g, edges[0].u) if edges else ({}, False)
    below, above = [m] * m, [m + 1] * m
    colored: dict[int, list[tuple[int, int]]] = {}  # per class: (key place, depth) of the key edges so far
    for i, e in enumerate(edges):
        if e in keys:
            c, j = keys[e]
            done = colored.setdefault(c, [])
            at = bisect(done, (j, i))
            if at:
                below[i] = done[at - 1][1]
            if at < len(done):
                above[i] = done[at][1]
            insort(done, (j, i))
    if m:
        above[0] = m + 2
    return SearchPlan(tuple(edges), tuple(pos[e.u] for e in edges), tuple(pos[e.v] for e in edges), deg,
                      tuple(below), tuple(above), color_one)


def _band_tables(t: int, deg: tuple[int, ...]) -> dict[int, list[int]]:
    """For each distinct degree d, ``band[c]``: the colors a vertex of degree
    d may still take once color c is on it, as a bitmask. Its spectrum spans
    at most d colors and holds c once, so that is ``[c - d + 1, c + d - 1]``
    within the palette, without c itself."""
    return {
        d: [0] + [((1 << (min(c + d - 1, t) + 1)) - (1 << max(c - d + 1, 1))) & ~(1 << c) for c in range(1, t + 1)]
        for d in set(deg)
    }


def edge_dfs(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    edges, us, vs, deg, below, above, color_one = g.search_plan
    m = len(edges)
    if m == 0 or t > m:  # each edge brings at most one color: refused before any table is built
        return None, 0

    palette = (1 << (t + 1)) - 2
    bands = _band_tables(t, deg)
    band_u = [bands[deg[a]] for a in us]  # per depth: the band table of each endpoint
    band_v = [bands[deg[b]] for b in vs]
    avail = [palette] * len(deg)  # per vertex: the colors it may still take
    zero = palette  # bit c set while color c is on no edge
    unused = t  # the number of bits in zero
    # per depth: the color of edges[i]; then the colors that below and above read where no
    # key edge is colored: 0, t + 1, and one above the first edge's cap
    color = [0] * m + [0, t + 1, 2 if color_one else (t + 1) // 2 + 1]
    fresh = [0] * m  # per depth: the bit of color[i] if no earlier edge carries it, else 0
    cand = [0] * m  # per depth: the colors not yet tried there, as a bitmask
    keep_u = [0] * m  # per depth: both endpoints' avail before edges[i] took a color
    keep_v = [0] * m
    nodes = 0

    i = 0
    while True:
        # Entering depth i: the candidates are the colors edges[i] may take in
        # this state, and backing up to depth i restores the same state, so
        # the mask is built once and the lowest untried bit is taken each time.
        a, b = us[i], vs[i]
        avail_a = keep_u[i] = avail[a]
        avail_b = keep_v[i] = avail[b]
        # strictly between the colors at the nearest keys below and above
        mask = avail_a & avail_b & ((1 << color[above[i]]) - (2 << color[below[i]]))
        if unused >= m - i:  # each later edge can bring at most one unused color in
            mask &= zero if unused == m - i else 0
        while not mask:  # no color left at depth i: back up and withdraw the previous edge's color
            if i == 0:
                return None, nodes
            i -= 1
            a, b = us[i], vs[i]
            avail_a = avail[a] = keep_u[i]
            avail_b = avail[b] = keep_v[i]
            bit = fresh[i]
            if bit:
                zero |= bit
                unused += 1
            mask = cand[i]

        nodes += 1
        if limit is not None and nodes > limit:
            return None, nodes
        bit = mask & -mask
        cand[i] = mask ^ bit
        c = color[i] = bit.bit_length() - 1
        avail[a] = avail_a & band_u[i][c]
        avail[b] = avail_b & band_v[i][c]
        bit &= zero
        fresh[i] = bit
        if bit:
            zero ^= bit
            unused -= 1
        # At the last edge the coverage prune admits only colors that leave no
        # unused one, so every palette color is on some edge.
        if i == m - 1:
            return dict(zip(edges, color)), nodes
        i += 1
