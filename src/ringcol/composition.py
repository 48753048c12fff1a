"""Compositions G = H[K̄_n] and the lift of an interval coloring of H to G.

G is the composition H[K̄_n] of its quotient H when its false-twin classes
(``Graph.twin_classes``) all have the same size n >= 2 (``Graph.composition``
is then not None and maps each vertex of H to its class): each class is a
copy of the edgeless K̄_n standing for one vertex of H, and two classes are
completely joined exactly when their H-vertices are adjacent. The ring is
one: ring(n, k) = C_k[K̄_n] for k != 4, and ring(n, 4) = K_{2n,2n}, which is
K_2[K̄_{2n}]. The quotient has no twins of its own, so one level suffices.

Every lift colors from one symmetric n x n block table. For 0 <= j <= n - 1
and 1-based p, q, let c = ((p + q - 2) mod n) + 1; then F_j(p, q) is c + n
when c < min(p, j + 1) and c otherwise. F_j is symmetric, because c < p
exactly when p + q - 1 > n, exactly when c < q. Its row p is the run of n
consecutive colors starting at min(p, j + 1), and it uses every color
1..n + j. The two end cases are the circulant Latin square F_0 and the
staircase F_{n-1}(p, q) = p + q - 1.

Write alpha for an interval s-coloring of H. With (s, j) = divmod(t, n),
``lift`` colors each G-edge it is given from the K_{n,n} over its H-edge uv:
the p-th member of u's class and the q-th member of v's get
n(alpha(uv) - 1) + F_j(p, q), whichever way round uv is read, since F_j is
symmetric. At a vertex (u, p) the block of each H-edge is a run of n
colors starting at n(alpha - 1) + min(p, j + 1), and the alpha values at u
are d_H(u) consecutive integers, so the runs tile into one run of
n*d_H(u) = d_G colors. The block of alpha = a covers
n(a - 1) + 1 .. n*a + j, so every color 1..n*s + j = t lands on some edge:
the lift is an interval t-coloring. ``lift`` is the one place that rule is
written. It colors exactly the edges its caller passes, keyed by those very
objects, in one pass; ``lift_plan`` is that pass's static part (each edge's
class pair and places), which a graph keeps as ``Graph.lift_plan``.
``search.composition_lift`` lifts a quotient witness that ``edge_dfs`` found
onto g.edges, ``search.find_interval_t`` re-checks every such witness with
the verifier, and ``ringcol.construct`` lifts closed-form colorings of C_k
and K_2 onto the edges of the ring and of K_{n,n}.

``overfull`` and ``asratian_kamalian_bound`` state the theorems that rule a
span out. Two places compare a span with them: ``search.scan_cap`` caps a
span scan, and ``construct.bounds_summary`` sets ``W_exact`` where ``W_lower``
meets the Asratian–Kamalian bound.
This module is lift math only and imports no search engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SoundnessError
from .graphs import Edge, Graph, Vertex

__all__ = ["block_table", "overfull", "asratian_kamalian_bound", "lift_plan", "lift"]


@lru_cache(maxsize=128)
def block_table(n: int, j: int) -> tuple[tuple[int, ...], ...]:
    """F_j (0 <= j <= n - 1) as rows: ``block_table(n, j)[p - 1][q - 1]``
    is F_j(p, q). Memoized: every query of one (n, j) gets the same table."""
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


def asratian_kamalian_bound(diam: int, max_degree: int, bipartite: bool) -> int:
    """Asratian–Kamalian (J. Combin. Theory B 62, 1994): a connected
    interval-colorable graph of diameter diam has W <= diam*(Delta-1) + 1 when
    it is bipartite and W <= (diam+1)*(Delta-1) + 1 in general."""
    return (diam if bipartite else diam + 1) * (max_degree - 1) + 1


def lift_plan(
    edges: Iterable[Edge],
    classes: Mapping[Vertex, Sequence[Vertex]],
) -> Iterator[tuple[int, int, int]]:
    """The static part of a lift onto ``edges``, one triple per edge in their
    order: the edge's class pair as i * len(classes) + k, where its ends lie
    in the i-th and k-th class of ``classes``, and their 0-based places p and
    q in those classes. An edge with an end in no class raises
    SoundnessError. ``Graph.lift_plan`` keeps a composed graph's plan."""
    m = len(classes)
    place = {x: (i, p) for i, members in enumerate(classes.values()) for p, x in enumerate(members)}
    for x, y in edges:
        try:
            (i, p), (k, q) = place[x], place[y]
        except KeyError:
            raise SoundnessError(f"edge {Edge(x, y)} has an end in no class") from None
        yield i * m + k, p, q


def lift(
    edges: Sequence[Edge],
    classes: Mapping[Vertex, Sequence[Vertex]],
    alpha: Mapping[Edge, int],
    table: Sequence[Sequence[int]],
    plan: Iterable[tuple[int, int, int]] | None = None,
) -> dict[Edge, int]:
    """The colors of ``edges``, in their order and keyed by those very
    objects, from the blocks over alpha, an edge coloring of a graph whose
    vertex u stands for the class ``classes[u]``: the p-th member of u's
    class and the q-th member of v's get n(alpha(uv) - 1) +
    table[p - 1][q - 1], with n = len(table) and the table symmetric. An
    edge that joins two classes whose vertices alpha colors no edge between
    raises SoundnessError. ``plan`` is ``lift_plan(edges, classes)``, made
    here in the same pass unless the caller kept one."""
    n = len(table)
    m = len(classes)
    index = {u: i for i, u in enumerate(classes)}
    shift = {}
    for (u, v), a in alpha.items():
        i, k = index[u], index[v]
        shift[i * m + k] = shift[k * m + i] = n * (a - 1)
    colors = {}
    try:
        for e, (pair, p, q) in zip(edges, plan or lift_plan(edges, classes)):
            colors[e] = shift[pair] + table[p][q]
    except KeyError:
        raise SoundnessError(f"edge {e} lies in no block over alpha") from None
    return colors
