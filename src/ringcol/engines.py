"""The exhaustive interval-coloring engines and the proper-coloring DFS.

Each engine takes a graph, a span t and a node budget, and returns an
assignment edge -> color or None once the whole (pruned but complete) space
is exhausted; it raises ``OutOfBudget`` at the first node past the budget's
limit, with ``budget.nodes`` at limit + 1. The engines never verify their
own output: ``ringcol.search`` wraps them in queries that re-check every
witness with the independent verifier.

* ``edge_dfs`` answers every interval query (``find_interval_t``). It
  assigns colors edge by edge in ``connected_edge_order``, pruning on
  properness, on the color spread at each endpoint (the spread of a final
  spectrum cannot exceed the degree), and on whether the not-yet-used
  colors still fit on the remaining edges. Each prune is a mask on one
  candidate bitmask per depth, built when the search enters it; the lowest
  untried bit is the next color.
* ``start_assignment``, the independent reference that the tests check
  ``edge_dfs`` against, is run by nothing in the package. It enumerates,
  per vertex in BFS order, the lowest color of its spectrum, one admissible
  range per vertex (earlier neighbours' windows must overlap its own; the
  designated edge obeys the reflection cap), then decides an exact
  assignment of each edge to a color in both endpoints' windows by
  fewest-options-first backtracking on index arrays and int bitmasks.

Both engines break the one global symmetry of the problem, the reflection
c -> t + 1 - c, by capping the color of a designated edge (the canonically
smallest one) at ceil(t/2): any witness either respects the cap or reflects
to one that does, so the answer is unchanged while the space halves.

``edge_dfs`` and ``proper_dfs`` walk ``connected_edge_order`` with vertices
as indices into ``g.vertices`` and color sets as int bitmasks (bit c is
color c). ``edge_dfs`` keeps, per vertex, the colors it may still take:
the palette at first, then, each time color c lands on a vertex of degree
d, that set ANDed with ``band[c]``, the colors within distance d - 1 of c
other than c (one band table of t + 1 ints per distinct degree, built per
query). The intersection of those bands is exactly the spread window
``[highest - d + 1, lowest + d - 1]`` minus the used colors, so one AND of
both endpoints' sets gives the properness and spread prunes at once. Each
depth keeps both endpoints' sets from before its color and puts them back
when the search backs up; the coverage prune reads a mask of the colors on
no edge and its size, both kept up to date as colors land and leave.
``proper_dfs`` builds one mask per depth of the colors free at both
endpoints among those it may open. Both count nodes in a local variable
against the budget's limit and write the count back to ``budget.nodes`` on
every exit; ``Budget.spend`` serves ``start_assignment``. No function here
recurses: every search runs from explicit per-depth state, so a graph with
thousands of edges runs into its node budget, never into the recursion
limit.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts. The branching rules are part of that contract:
``edge_dfs`` and ``proper_dfs`` try colors in increasing order; the window
assignment branches on the first free edge (in edge order) with at most one
option, else on the first edge with the fewest options, and tries colors in
increasing order.
"""

from __future__ import annotations

import heapq
from collections import deque

from .graphs import Edge, Graph, Vertex

__all__ = ["Budget", "OutOfBudget", "connected_edge_order", "edge_dfs", "start_assignment", "proper_dfs"]


class OutOfBudget(Exception):
    pass


class Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None) -> None:
        self.nodes = 0
        self.limit = limit

    def spend(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise OutOfBudget


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


def _bfs_vertex_order(g: Graph) -> list[Vertex]:
    order: list[Vertex] = []
    seen: set[Vertex] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


# ---------------------------------------------------------------------------
# edge_dfs: the engine behind every interval query
# ---------------------------------------------------------------------------


def _indexed_edge_order(g: Graph) -> tuple[list[Edge], list[int], list[int], list[int]]:
    """``connected_edge_order`` with each edge's endpoints as indices into
    ``g.vertices``, and every vertex's degree under the same index."""
    edges = connected_edge_order(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    deg = [g.degree(v) for v in g.vertices]
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


def edge_dfs(g: Graph, t: int, budget: Budget) -> dict[Edge, int] | None:
    edges, us, vs, deg = _indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return None

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
    nodes = budget.nodes
    limit = budget.limit

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
                budget.nodes = nodes
                return None
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
            budget.nodes = nodes
            raise OutOfBudget
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
            budget.nodes = nodes
            return dict(zip(edges, color))
        i += 1


# ---------------------------------------------------------------------------
# start_assignment: the independent reference the tests compare against
# ---------------------------------------------------------------------------


def start_assignment(g: Graph, t: int, budget: Budget) -> dict[Edge, int] | None:
    verts = [v for v in _bfs_vertex_order(g) if g.degree(v) > 0]
    nv = len(verts)
    if nv == 0:
        return None
    deg = [g.degree(v) for v in verts]
    if any(d > t for d in deg):
        return None  # no spectrum window fits: the start space is empty

    pos = {v: i for i, v in enumerate(verts)}
    earlier: list[list[int]] = [[] for _ in range(nv)]
    for e in g.edges:
        iu, iv = pos[e.u], pos[e.v]
        if iu > iv:
            iu, iv = iv, iu
        earlier[iv].append(iu)

    e0 = min(g.edges)
    cap = (t + 1) // 2
    e0_first, e0_last = sorted((pos[e0.u], pos[e0.v]))

    start = [0] * nv
    cover = [0] * (t + 2)

    def covers_palette() -> bool:
        return all(cover[c] > 0 for c in range(1, t + 1))

    def parity_ok() -> bool:
        # Each vertex must use every color of its window exactly once, so the
        # edges of one color form a perfect matching on the vertices whose
        # window contains it: an odd count is an immediate contradiction.
        return all(cover[c] % 2 == 0 for c in range(1, t + 1))

    def start_range(i: int) -> tuple[int, int]:
        # Every earlier neighbour j leaves the shared edge a usable color
        # only if the windows overlap: s_j - d + 1 <= s <= s_j + d_j - 1.
        d = deg[i]
        lo, hi = 1, t - d + 1
        for j in earlier[i]:
            sj = start[j]
            lo = max(lo, sj - d + 1)
            hi = min(hi, sj + deg[j] - 1)
        if i == e0_last:
            if start[e0_first] > cap:
                return 1, 0  # designated edge forced above the reflection cap
            hi = min(hi, cap)
        return lo, hi

    # Depth i holds vertex i: the next start to try there and the last
    # admissible one, fixed when the depth is entered.
    next_s = [0] * nv
    last_s = [0] * nv
    next_s[0], last_s[0] = start_range(0)
    i = 0
    while True:
        if i == nv:
            if covers_palette() and parity_ok():
                found = _assign_in_windows(g, t, budget, pos, start, deg, e0, cap)
                if found is not None:
                    return found
        elif next_s[i] <= last_s[i]:
            budget.spend()
            s = start[i] = next_s[i]
            next_s[i] = s + 1
            for c in range(s, s + deg[i]):
                cover[c] += 1
            i += 1
            if i < nv:
                next_s[i], last_s[i] = start_range(i)
            continue
        elif i == 0:
            return None
        i -= 1  # back up: withdraw the start of the previous vertex
        s = start[i]
        for c in range(s, s + deg[i]):
            cover[c] -= 1


def _assign_in_windows(
    g: Graph,
    t: int,
    budget: Budget,
    pos: dict[Vertex, int],
    start: list[int],
    deg: list[int],
    e0: Edge,
    cap: int,
) -> dict[Edge, int] | None:
    """Exact assignment once every spectrum window is fixed: each edge takes a
    color in the intersection of its endpoints' windows, all colors distinct
    at every vertex. Window sizes equal degrees, so a solution uses each
    window color exactly once and is an interval coloring by construction.

    Edges are indexed by their place in the sorted ``g.edges`` and vertices
    by ``pos``. An edge's domain and a vertex's used colors are int bitmasks
    (bit c is color c), so the options of a free edge are
    ``dom & ~(used[u] | used[v])``. Each node branches on the first free edge
    (in edge order) with at most one option, else on the first edge with the
    fewest options, and tries its colors in increasing order; node counts
    depend on this tie rule. The free edges stay in a sorted list: a chosen
    edge leaves it and returns to the same slot when its colors run out. An
    explicit stack of (edge, slot, color bit, untried bits) frames drives
    the search, so its depth is not bounded by Python's recursion limit.
    """
    free: list[tuple[int, int, int, int]] = []  # (edge index, pos of u, pos of v, domain)
    for i, e in enumerate(g.edges):
        iu, iv = pos[e.u], pos[e.v]
        lo = max(start[iu], start[iv])
        hi = min(start[iu] + deg[iu] - 1, start[iv] + deg[iv] - 1)
        if e == e0:
            hi = min(hi, cap)
        if lo > hi:
            return None
        free.append((i, iu, iv, (1 << (hi + 1)) - (1 << lo)))

    used = [0] * len(start)
    stack: list[list] = []  # [free entry, slot in free, color bit, untried bits]
    spend = budget.spend
    while free:
        best_n = t + 1  # more than any option count
        for k, entry in enumerate(free):
            _, iu, iv, dom = entry
            opts = dom & ~(used[iu] | used[iv])
            n = opts.bit_count()
            if n < best_n:
                best, slot, best_opts, best_n = entry, k, opts, n
                if n <= 1:
                    break
        if best_opts:
            del free[slot]
            stack.append([best, slot, 0, best_opts])
        # Try the next color of the top frame, backing up past frames whose
        # colors are exhausted (their edges return to their slots).
        while stack:
            frame = stack[-1]
            _, iu, iv, _ = frame[0]
            bit = frame[2]
            if bit:
                used[iu] ^= bit
                used[iv] ^= bit
            rest = frame[3]
            if rest:
                spend()
                bit = rest & -rest
                frame[2], frame[3] = bit, rest ^ bit
                used[iu] |= bit
                used[iv] |= bit
                break
            stack.pop()
            free.insert(frame[1], frame[0])
        else:
            return None
    edges = g.edges
    return {edges[frame[0][0]]: frame[2].bit_length() - 1 for frame in stack}


# ---------------------------------------------------------------------------
# Proper (not necessarily interval) edge coloring, for the chromatic index
# ---------------------------------------------------------------------------


def proper_dfs(g: Graph, t: int, budget: Budget) -> dict[Edge, int] | None:
    edges, us, vs, deg = _indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return {}

    # opened[h]: colors 1..min(t, h + 1), the ones an edge may take when h is
    # the highest color opened before it
    opened = [(1 << (min(t, h + 1) + 1)) - 2 for h in range(t + 1)]
    used = [0] * len(deg)  # per vertex: bit c set when color c is on it
    color = [0] * m  # per depth: the color of edges[i]
    cand = [0] * m  # per depth: the colors not yet tried there, as a bitmask
    high = [0] * m  # per depth: the highest color opened before edges[i]
    nodes = budget.nodes
    limit = budget.limit

    i = 0
    while True:
        a, b = us[i], vs[i]
        mask = opened[high[i]] & ~(used[a] | used[b])
        while not mask:  # no color left at depth i: back up and withdraw the previous edge's color
            if i == 0:
                budget.nodes = nodes
                return None
            i -= 1
            a, b = us[i], vs[i]
            bit = 1 << color[i]
            used[a] ^= bit
            used[b] ^= bit
            mask = cand[i]

        nodes += 1
        if limit is not None and nodes > limit:
            budget.nodes = nodes
            raise OutOfBudget
        bit = mask & -mask
        cand[i] = mask ^ bit
        c = color[i] = bit.bit_length() - 1
        used[a] |= bit
        used[b] |= bit
        if i == m - 1:
            budget.nodes = nodes
            return dict(zip(edges, color))
        i += 1
        high[i] = max(high[i - 1], c)
