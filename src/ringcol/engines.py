"""The two exhaustive interval-coloring engines and the proper-coloring DFS.

Each engine takes a graph, a span t and a node budget, and returns an
assignment edge -> color or None once the whole (pruned but complete) space
is exhausted; ``Budget.spend`` raises ``OutOfBudget`` when the node budget
runs out. The engines never verify their own output: ``ringcol.search``
wraps them in queries that re-check every witness with the independent
verifier.

* ``edge_dfs`` assigns colors edge by edge in a fixed connectivity-friendly
  order, pruning on properness, on the color spread at each endpoint (the
  spread of a final spectrum cannot exceed the degree), and on whether the
  not-yet-used colors still fit on the remaining edges.
* ``start_assignment`` first enumerates, per vertex, the lowest color of its
  spectrum; each edge may then only take colors in the intersection of its
  endpoints' spectrum windows, and a per-window exact assignment is decided
  by backtracking with a fewest-options-first edge order. This prunes far
  harder on dense instances.

Both engines break the one global symmetry of the problem, the reflection
c -> t + 1 - c, by capping the color of a designated edge (the canonically
smallest one) at ceil(t/2): any witness either respects the cap or reflects
to one that does, so the answer is unchanged while the space halves.

Everything is deterministic: fixed vertex and edge orders, no randomness,
reproducible node counts.
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
# Engine 1: edge-by-edge DFS
# ---------------------------------------------------------------------------


def edge_dfs(g: Graph, t: int, budget: Budget) -> dict[Edge, int] | None:
    edges = connected_edge_order(g)
    m = len(edges)
    if m == 0:
        return None

    deg = {v: g.degree(v) for v in g.vertices}
    used: dict[Vertex, set[int]] = {v: set() for v in g.vertices}
    lo: dict[Vertex, int] = {}
    hi: dict[Vertex, int] = {}
    count = [0] * (t + 1)
    assignment: dict[Edge, int] = {}
    first_cap = (t + 1) // 2

    def rec(i: int, unused: int) -> bool:
        if i == m:
            return unused == 0
        e = edges[i]
        u, v = e
        remaining_after = m - i - 1
        cap = first_cap if i == 0 else t
        used_u, used_v = used[u], used[v]
        for c in range(1, cap + 1):
            if c in used_u or c in used_v:
                continue
            ulo, uhi = lo.get(u, c), hi.get(u, c)
            nulo, nuhi = min(ulo, c), max(uhi, c)
            if nuhi - nulo + 1 > deg[u]:
                continue
            vlo, vhi = lo.get(v, c), hi.get(v, c)
            nvlo, nvhi = min(vlo, c), max(vhi, c)
            if nvhi - nvlo + 1 > deg[v]:
                continue
            new_unused = unused - 1 if count[c] == 0 else unused
            if new_unused > remaining_after:
                continue

            budget.spend()
            used_u.add(c)
            used_v.add(c)
            old = (lo.get(u), hi.get(u), lo.get(v), hi.get(v))
            lo[u], hi[u] = nulo, nuhi
            lo[v], hi[v] = nvlo, nvhi
            count[c] += 1
            assignment[e] = c

            if rec(i + 1, new_unused):
                return True

            del assignment[e]
            count[c] -= 1
            used_u.discard(c)
            used_v.discard(c)
            _restore(lo, hi, u, old[0], old[1])
            _restore(lo, hi, v, old[2], old[3])
        return False

    return dict(assignment) if rec(0, t) else None


def _restore(lo: dict[Vertex, int], hi: dict[Vertex, int], v: Vertex, old_lo: int | None, old_hi: int | None) -> None:
    if old_lo is None:
        lo.pop(v, None)
        hi.pop(v, None)
    else:
        lo[v] = old_lo
        hi[v] = old_hi  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Engine 2: spectrum-start enumeration + exact window assignment
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
    i_e0u, i_e0v = pos[e0.u], pos[e0.v]

    start = [0] * nv
    cover = [0] * (t + 2)

    def window_ok(i: int, s: int) -> bool:
        d = deg[i]
        for j in earlier[i]:
            sj = start[j]
            if sj + deg[j] - 1 < s or s + d - 1 < sj:
                return False  # the shared edge would have no usable color
        if i == max(i_e0u, i_e0v):
            if max(s, start[min(i_e0u, i_e0v)]) > cap:
                return False  # designated edge forced above the reflection cap
        return True

    def covers_palette() -> bool:
        return all(cover[c] > 0 for c in range(1, t + 1))

    def parity_ok() -> bool:
        # Each vertex must use every color of its window exactly once, so the
        # edges of one color form a perfect matching on the vertices whose
        # window contains it: an odd count is an immediate contradiction.
        return all(cover[c] % 2 == 0 for c in range(1, t + 1))

    def enumerate_starts(i: int) -> dict[Edge, int] | None:
        if i == nv:
            if not covers_palette() or not parity_ok():
                return None
            return _assign_in_windows(g, t, budget, pos, start, deg, e0, cap)
        d = deg[i]
        for s in range(1, t - d + 2):
            if not window_ok(i, s):
                continue
            budget.spend()
            start[i] = s
            for c in range(s, s + d):
                cover[c] += 1
            found = enumerate_starts(i + 1)
            for c in range(s, s + d):
                cover[c] -= 1
            if found is not None:
                return found
        return None

    return enumerate_starts(0)


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
    window color exactly once and is an interval coloring by construction."""
    edges = list(g.edges)
    domains: dict[Edge, list[int]] = {}
    for e in edges:
        iu, iv = pos[e.u], pos[e.v]
        lo = max(start[iu], start[iv])
        hi = min(start[iu] + deg[iu] - 1, start[iv] + deg[iv] - 1)
        if e == e0:
            hi = min(hi, cap)
        if lo > hi:
            return None
        domains[e] = list(range(lo, hi + 1))

    used: dict[Vertex, set[int]] = {v: set() for v in g.vertices}
    assignment: dict[Edge, int] = {}
    unassigned = set(edges)

    def options(e: Edge) -> list[int]:
        uu, uv = used[e.u], used[e.v]
        return [c for c in domains[e] if c not in uu and c not in uv]

    def rec() -> bool:
        if not unassigned:
            return True
        best: Edge | None = None
        best_opts: list[int] = []
        for e in sorted(unassigned):
            opts = options(e)
            if best is None or len(opts) < len(best_opts):
                best, best_opts = e, opts
                if len(opts) <= 1:
                    break
        assert best is not None
        if not best_opts:
            return False
        unassigned.remove(best)
        for c in best_opts:
            budget.spend()
            assignment[best] = c
            used[best.u].add(c)
            used[best.v].add(c)
            if rec():
                return True
            used[best.u].discard(c)
            used[best.v].discard(c)
            del assignment[best]
        unassigned.add(best)
        return False

    return dict(assignment) if rec() else None


# ---------------------------------------------------------------------------
# Proper (not necessarily interval) edge coloring, for the chromatic index
# ---------------------------------------------------------------------------


def proper_dfs(g: Graph, t: int, budget: Budget) -> dict[Edge, int] | None:
    edges = connected_edge_order(g)
    m = len(edges)
    if m == 0:
        return {}

    used: dict[Vertex, set[int]] = {v: set() for v in g.vertices}
    assignment: dict[Edge, int] = {}

    def rec(i: int, palette_high: int) -> bool:
        if i == m:
            return True
        e = edges[i]
        used_u, used_v = used[e.u], used[e.v]
        for c in range(1, min(t, palette_high + 1) + 1):
            if c in used_u or c in used_v:
                continue
            budget.spend()
            used_u.add(c)
            used_v.add(c)
            assignment[e] = c
            if rec(i + 1, max(palette_high, c)):
                return True
            del assignment[e]
            used_u.discard(c)
            used_v.discard(c)
        return False

    return dict(assignment) if rec(0, 0) else None

