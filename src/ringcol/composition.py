"""Compositions G = H[K̄_n] and the lift of an interval coloring of H to G.

G is the composition H[K̄_n] of its quotient H when its false-twin classes
(``Graph.twin_classes``) all have the same size n >= 2 (``Graph.composition``
is then not None): each class is a copy
of the edgeless K̄_n standing for one vertex of H, and two classes are
completely joined exactly when their H-vertices are adjacent. The ring is
one: ring(n, k) = C_k[K̄_n] for k != 4, and ring(n, 4) = K_{2n,2n}, which is
K_2[K̄_{2n}]. The quotient has no twins of its own, so one level suffices.

Write alpha for an interval s-coloring of H and p, q for the 1-based
positions of an edge's endpoints inside their classes. Every H-edge uv
becomes a K_{n,n} between the classes of u and v, colored from the block
that starts at n(alpha(uv) - 1) + 1:

* the Latin lift, t = n*s: color n(alpha - 1) + ((p + q) mod n) + 1, so
  the n edges of one block at a vertex take the block's n colors once each;
* the staircase lift, t = n(s + 1) - 1: color n(alpha - 1) + p + q - 1, so
  the n edges of one block at vertex (u, p) take n(alpha - 1) + p up to
  n*alpha + p - 1 (the staircase of ``construct.staircase_coloring``,
  shifted by n per step of alpha).

At a vertex the alpha values are d_H(u) consecutive integers, so the blocks
tile into one run of n*d_H(u) = d_G colors, and every color 1..t lands on
some edge: the lift is an interval t-coloring. ``search.find_interval_t``
still re-checks every lifted witness with the verifier.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .engines import edge_dfs
from .graphs import Edge, Graph, make_edge

__all__ = ["latin_color", "staircase_color", "lift_rule", "lift", "composition_lift"]

ColorRule = Callable[[int, int, int, int], int]


def latin_color(n: int, a: int, p: int, q: int) -> int:
    """The Latin lift's color of edge (u, p)(v, q) when alpha(uv) = a."""
    return n * (a - 1) + (p + q) % n + 1


def staircase_color(n: int, a: int, p: int, q: int) -> int:
    """The staircase lift's color of edge (u, p)(v, q) when alpha(uv) = a."""
    return n * (a - 1) + p + q - 1


def lift_rule(n: int, t: int) -> tuple[int, ColorRule] | None:
    """The quotient span s and the color rule that lift an interval
    s-coloring of H to an interval t-coloring of H[K̄_n] (n >= 2), or None
    when neither lift reaches t. At most one does: n cannot divide both t
    and t + 1."""
    if t % n == 0:
        return t // n, latin_color
    if (t + 1) % n == 0 and t + 1 > n:  # s >= 1
        return (t + 1) // n - 1, staircase_color
    return None


def lift(g: Graph, alpha: Mapping[Edge, int], color: ColorRule) -> dict[Edge, int]:
    """g's edge colors under ``color`` from alpha, an edge coloring of the
    quotient of ``g.composition`` (which must not be None)."""
    n, position = g.composition.n, g.composition.position
    colors = {}
    for e in g.edges:
        (u, p), (v, q) = position[e.u], position[e.v]
        colors[e] = color(n, alpha[make_edge(u, v)], p, q)
    return colors


def composition_lift(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    """An engine in the contract of ``ringcol.engines``: when g = H[K̄_n] and
    a lift reaches t, the lift of ``edge_dfs(H, s, limit)``'s witness and
    that search's nodes. No assignment means no lifted witness, never that g
    has none: the rule does not apply (0 nodes), H has no interval
    s-coloring, or the budget ran out on H."""
    composed = g.composition
    rule = composed and lift_rule(composed.n, t)
    if not rule:
        return None, 0
    s, color = rule
    alpha, nodes = edge_dfs(composed.quotient, s, limit)
    if alpha is None:
        return None, nodes
    return lift(g, alpha, color), nodes
