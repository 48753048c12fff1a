"""Compositions G = H[K̄_n] and the lift of an interval coloring of H to G.

G is the composition H[K̄_n] of its quotient H when its false-twin classes
(``Graph.twin_classes``) all have the same size n >= 2 (``Graph.composition``
is then not None): each class is a copy
of the edgeless K̄_n standing for one vertex of H, and two classes are
completely joined exactly when their H-vertices are adjacent. The ring is
one: ring(n, k) = C_k[K̄_n] for k != 4, and ring(n, 4) = K_{2n,2n}, which is
K_2[K̄_{2n}]. The quotient has no twins of its own, so one level suffices.

Every lift colors from one symmetric n x n block table. For 0 <= j <= n - 1
and 1-based p, q, let c = ((p + q - 2) mod n) + 1; then F_j(p, q) is c + n
when c < min(p, j + 1) and c otherwise. F_j is symmetric, because c < p
exactly when p + q - 1 > n, exactly when c < q. Its row p is the run of n
consecutive colors starting at min(p, j + 1), and it uses every color
1..n + j. The two end cases are the circulant Latin square F_0 and the
staircase F_{n-1}(p, q) = p + q - 1 of ``construct.staircase_coloring``.

Write alpha for an interval s-coloring of H and p, q for the positions of an
edge's endpoints inside their classes. With (s, j) = divmod(t, n), every
H-edge uv becomes a K_{n,n} colored n(alpha(uv) - 1) + F_j(p, q). At a
vertex (u, p) the block of each H-edge is a run of n colors starting at
n(alpha - 1) + min(p, j + 1), and the alpha values at u are d_H(u)
consecutive integers, so the runs tile into one run of n*d_H(u) = d_G
colors. The block of alpha = a covers n(a - 1) + 1 .. n*a + j, so every
color 1..n*s + j = t lands on some edge: the lift is an interval t-coloring.
``search.find_interval_t`` still re-checks every lifted witness with the
verifier, and ``construct.t_coloring`` lifts a closed-form coloring of C_k
with the same table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .engines import edge_dfs
from .graphs import Edge, Graph, make_edge

__all__ = ["block_table", "overfull", "lift", "composition_lift"]


def block_table(n: int, j: int) -> tuple[tuple[int, ...], ...]:
    """F_j (0 <= j <= n - 1) as rows: ``block_table(n, j)[p - 1][q - 1]``
    is F_j(p, q)."""
    rows = []
    for p in range(1, n + 1):
        low = min(p, j + 1)
        cs = ((p + q - 2) % n + 1 for q in range(1, n + 1))
        rows.append(tuple(c + n if c < low else c for c in cs))
    return tuple(rows)


def overfull(h: Graph) -> bool:
    """|E(H)| > Delta(H) * floor(|V(H)| / 2): the Delta matchings of a proper
    Delta-coloring cannot hold every edge, so chi'(H) = Delta + 1. An
    interval-colorable graph has chi' = Delta (Asratian–Kamalian: colors mod
    Delta are proper), so an overfull H has no interval coloring at any t."""
    return len(h.edges) > h.max_degree() * (len(h.vertices) // 2)


def lift(g: Graph, alpha: Mapping[Edge, int], table: Sequence[Sequence[int]]) -> dict[Edge, int]:
    """g's edge colors n(alpha(uv) - 1) + table[p - 1][q - 1] from alpha, an
    edge coloring of the quotient of ``g.composition`` (which must not be
    None)."""
    n, position = g.composition.n, g.composition.position
    colors = {}
    for e in g.edges:
        (u, p), (v, q) = position[e.u], position[e.v]
        colors[e] = n * (alpha[make_edge(u, v)] - 1) + table[p - 1][q - 1]
    return colors


def composition_lift(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    """An engine in the contract of ``ringcol.engines``: when g = H[K̄_n] and
    t >= n, the F_j lift of ``edge_dfs(H, s, limit)``'s witness, with
    (s, j) = divmod(t, n), and that search's nodes. No assignment means no
    lifted witness, never that g has none: g is no composition, t < n, H is
    overfull (0 nodes each), H has no interval s-coloring, or the budget ran
    out on H."""
    composed = g.composition
    if composed is None or t < composed.n or overfull(composed.quotient):
        return None, 0
    s, j = divmod(t, composed.n)
    alpha, nodes = edge_dfs(composed.quotient, s, limit)
    if alpha is None:
        return None, nodes
    return lift(g, alpha, block_table(composed.n, j)), nodes
