"""The one search loop, ``edge_dfs``, and ``padded``, which makes a proper query an interval one.

``edge_dfs`` takes a graph, a span t and a node limit (None for none) and
returns ``(assignment, nodes visited)``. The assignment (edge -> color) is
None when the (pruned but complete) space is exhausted, or when the search
stopped at node limit + 1: a count above the limit means the budget ran out.
It never verifies its output: ``ringcol.search.find_interval_t``, the one
road into it (proper queries too, on ``padded`` graphs), re-checks every
witness with the independent verifier.

It assigns colors edge by edge in ``connected_edge_order``, pruning on
properness, on the color spread at each endpoint (the spread of a final
spectrum cannot exceed the degree), and on whether the not-yet-used colors
still fit on the remaining edges. Each prune is a mask on one candidate
bitmask per depth, built when the search enters it; the lowest untried bit
is the next color. It breaks the one global symmetry of the problem, the
reflection c -> t + 1 - c, by capping the color of the first edge at
ceil(t/2): any witness either respects the cap or reflects to one that
does, so the answer is unchanged while the space halves.

``edge_dfs`` walks ``connected_edge_order`` with vertices as indices into
``g.vertices`` and color sets as int bitmasks (bit c is color c). It keeps,
per vertex, the colors it may still take: the palette at first, then, each
time color c lands on a vertex of degree d, that set ANDed with
``band[c]``, the colors within distance d - 1 of c other than c (one band
table of t + 1 ints per distinct degree, built per query). The
intersection of those bands is exactly the spread window
``[highest - d + 1, lowest + d - 1]`` minus the used colors, so one AND of
both endpoints' sets gives the properness and spread prunes at once. Each
depth keeps both endpoints' sets from before its color and puts them back
when the search backs up; the coverage prune reads a mask of the colors on
no edge and its size, both kept up to date as colors land and leave. It
counts nodes in a local variable and does not recurse: it runs from
explicit per-depth state, so a graph with thousands of edges runs into its
node limit, never into the recursion limit.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts. The branching rule is part of that contract: the
search tries colors in increasing order.
"""

from __future__ import annotations

import heapq

from .graphs import Edge, Graph, Vertex, assemble_graph

__all__ = ["connected_edge_order", "edge_dfs", "padded"]


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


def _indexed_edge_order(g: Graph) -> tuple[list[Edge], list[int], list[int], list[int]]:
    """``connected_edge_order`` with each edge's endpoints as indices into
    ``g.vertices``, and every vertex's degree under the same index."""
    edges = connected_edge_order(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    deg = [len(g.adjacency[v]) for v in g.vertices]
    return edges, [pos[e.u] for e in edges], [pos[e.v] for e in edges], deg


def _band_tables(t: int, deg: list[int]) -> dict[int, list[int]]:
    """For each distinct degree d, ``band[c]``: the colors a vertex of degree
    d may still take once color c is on it, as a bitmask. Its spectrum spans
    at most d colors and holds c once, so that is ``[c - d + 1, c + d - 1]``
    within the palette, without c itself."""
    return {
        d: [0] + [((1 << (min(c + d - 1, t) + 1)) - (1 << max(c - d + 1, 1))) & ~(1 << c) for c in range(1, t + 1)]
        for d in set(deg)
    }


def edge_dfs(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    edges, us, vs, deg = _indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return None, 0

    palette = (1 << (t + 1)) - 2
    bands = _band_tables(t, deg)
    band_u = [bands[deg[a]] for a in us]  # per depth: the band table of each endpoint
    band_v = [bands[deg[b]] for b in vs]
    # per depth: the colors edges[i] may take before any other prune; the
    # first edge's colors stop at the reflection cap
    base = [palette] * m
    base[0] = (1 << ((t + 1) // 2 + 1)) - 2
    avail = [palette] * len(deg)  # per vertex: the colors it may still take
    zero = palette  # bit c set while color c is on no edge
    unused = t  # the number of bits in zero
    color = [0] * m  # per depth: the color of edges[i]
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
        mask = base[i] & avail_a & avail_b
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

