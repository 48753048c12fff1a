"""Closed-form colorings and bounds for the ring family.

Two explicit constructions live here, and both color through
``composition.lift``, the one rule that turns a quotient coloring and a block
table into edge colors:

* a staircase coloring of K_{n,n} that colors edge (p, q) with p + q - 1,
  giving an interval (2n-1)-coloring of the complete bipartite layer pair:
  the lift of the one-edge K_2 colored 1 through the staircase table F_{n-1};
* ``t_coloring``, an interval t-coloring of the ring for even k and every t
  in the feasible range [2n, 2n + n*k/2 - 1]. It lifts a closed-form
  interval s-coloring alpha of C_k through the layers, ring(n, k) =
  C_k[K̄_n], with (s, j) = divmod(t, n): layer pair (i, i+1) carries the
  block table F_j shifted by n(alpha_i - 1). No t needs a search.

At the top of the range F_j is the staircase and alpha climbs by one per
pair from the wrap pair (k, 1) up to the middle pair and mirrors on the way
back down: that is the mirrored staircase, ``mirrored_staircase_coloring``.

The closed-form facts (chromatic index by parity, least span 2n, the widest
known span, and the feasible range in between) are assembled by
``bounds_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EdgeColoring
from .composition import asratian_kamalian_bound, block_table, lift
from .errors import ParameterError, ParityError, check_int
from .graphs import RingParams, Vertex, as_vertex, complete_bipartite, make_edge, ring_graph

__all__ = [
    "BoundsSummary",
    "staircase_coloring",
    "mirrored_staircase_coloring",
    "widest_constructed_t",
    "expected_spectrum",
    "ring_chromatic_index",
    "bounds_summary",
    "t_coloring",
]


def staircase_coloring(n: int) -> EdgeColoring:
    """Interval (2n-1)-coloring of complete_bipartite(n), in its edge order:
    edge ((2,p),(1,q)) gets color p + q - 1, so colors run down the
    anti-diagonals."""
    check_int("n", n, 1)
    g = complete_bipartite(n)
    classes = {members[0]: members for members in (g.vertices[:n], g.vertices[n:])}
    colors = lift(g.edges, classes, {make_edge(Vertex(1, 1), Vertex(2, 1)): 1}, block_table(n, n - 1))
    return EdgeColoring(colors=colors, t=2 * n - 1)


def widest_constructed_t(params: RingParams) -> int:
    """The color count used by mirrored_staircase_coloring: 2n + n*k/2 - 1."""
    if params.k % 2 != 0:
        raise ParityError(f"construction needs an even layer count, got k={params.k}")
    return 2 * params.n + params.n * params.k // 2 - 1


def mirrored_staircase_coloring(params: RingParams) -> EdgeColoring:
    """Interval (2n + n*k/2 - 1)-coloring of ring_graph(params) for even k:
    ``t_coloring`` at the top of the range.

    The wrap pair (k, 1) carries the plain staircase p + q - 1; for
    i = 1 .. k/2 - 1 the pairs (i, i+1) and (k-i, k-i+1) both carry the
    staircase shifted by i*n; the middle pair (k/2, k/2+1) carries it
    shifted by n*k/2.
    """
    return t_coloring(params, widest_constructed_t(params))


def expected_spectrum(params: RingParams, v: Vertex) -> range:
    """Closed-form spectrum of vertex (i, j) under the mirrored staircase.

    With m = min(i-1, k-i) the incident shifts are m*n and (m+1)*n, so the
    spectrum is the run j + m*n .. j + (m+2)*n - 1. For layers 1 and k this
    is j .. j + 2n - 1; for layers up to k/2 it climbs by n per layer, and
    above the middle it mirrors back down because the paired layers share
    their shift.
    """
    n, k = params.n, params.k
    if k % 2 != 0:
        raise ParityError(f"closed-form spectra need an even layer count, got k={k}")
    i, j = v = as_vertex(v)
    if not (1 <= i <= k and 1 <= j <= n):
        raise ParameterError(f"vertex {v} outside the (n={n}, k={k}) ring")
    m = min(i - 1, k - i)
    return range(j + m * n, j + (m + 2) * n)


def ring_chromatic_index(params: RingParams) -> int:
    """Chromatic index of the ring graph: 2n when n*k is even, else 2n + 1."""
    n, k = params.n, params.k
    return 2 * n if (n * k) % 2 == 0 else 2 * n + 1


@dataclass(frozen=True)
class BoundsSummary:
    """All closed-form facts about one (n, k) instance.

    ``interval_colorable`` holds exactly when the chromatic index equals the
    degree 2n, i.e. when n*k is even. When it fails, no interval coloring
    exists at any t and the span fields stay None. ``W_lower`` is what the
    mirrored construction reaches for even k. ``W_exact`` equals it where it
    meets the Asratian–Kamalian bound (k/2)(2n - 1) + 1 (the ring is then
    connected and bipartite with diameter k/2 and degree 2n), that is on
    every ring(n, 4) and every even cycle ring(1, k), and is None elsewhere.
    ``feasible_t`` is the inclusive range of t values, every one of which
    admits an interval coloring when k is even.
    """

    n: int
    k: int
    chromatic_index: int
    interval_colorable: bool
    w: int | None
    W_lower: int | None
    W_exact: int | None
    feasible_t: tuple[int, int] | None


def bounds_summary(params: RingParams) -> BoundsSummary:
    n, k = params.n, params.k
    chi = ring_chromatic_index(params)
    colorable = chi == 2 * n

    w = 2 * n if colorable else None
    W_lower = widest_constructed_t(params) if (colorable and k % 2 == 0) else None
    at_theorem_cap = W_lower == asratian_kamalian_bound(k // 2, 2 * n, bipartite=True)
    W_exact = W_lower if at_theorem_cap else None
    feasible = (2 * n, W_lower) if W_lower is not None else None
    return BoundsSummary(
        n=n,
        k=k,
        chromatic_index=chi,
        interval_colorable=colorable,
        w=w,
        W_lower=W_lower,
        W_exact=W_exact,
        feasible_t=feasible,
    )


def t_coloring(params: RingParams, t: int) -> EdgeColoring:
    """An interval t-coloring of ring_graph(params) for any feasible t.

    With d = min(i, k - i) + 1 for layer pair (i, i+1) (the wrap pair is
    i = k, so d = 1) and (s, j) = divmod(t, n), alpha_i = d when d <= s and
    s - (d - s) mod 2 otherwise is an interval s-coloring of C_k for every
    2 <= s <= k/2 + 1: d changes by one from pair to pair, alpha follows it
    up to s and then alternates between s - 1 and s, and it takes every
    value 1..s. ``composition.lift`` gives edge ((i, p), (i+1, q)) the color
    n(alpha_i - 1) + F_j(p, q), with layer i as the class of Vertex(i, 1):
    the layers, not the twin classes of ring_graph(params), which for k = 4
    are the two sides of K_{2n,2n}. It lifts onto ring_graph(params).edges,
    the graph kept with params, so the colors are keyed by that graph's own
    edges, in its order. Raises ParityError for odd k and
    ParameterError for a t that is no integer or outside [2n, 2n + n*k/2 - 1].
    """
    n, k = params.n, params.k
    top = widest_constructed_t(params)
    if not 2 * n <= check_int("t", t, 1) <= top:
        raise ParameterError(f"t={t} outside the feasible range [{2 * n}, {top}]")
    s, j = divmod(t, n)
    g = ring_graph(params)
    layers = [g.vertices[at:at + n] for at in range(0, n * k, n)]  # ring_graph lists them layer by layer
    alpha = {}
    for i in range(1, k + 1):
        d = min(i, k - i) + 1
        alpha[make_edge(layers[i - 1][0], layers[i % k][0])] = d if d <= s else s - (d - s) % 2
    colors = lift(g.edges, {layer[0]: layer for layer in layers}, alpha, block_table(n, j))
    return EdgeColoring(colors=colors, t=t)
