"""Closed-form colorings and bounds for the ring family.

Two explicit constructions live here:

* a staircase coloring of K_{n,n} that colors edge (p, q) with p + q - 1,
  giving an interval (2n-1)-coloring of the complete bipartite layer pair;
* a mirrored staircase coloring of the ring graph for even k, which places
  shifted copies of that staircase on each layer pair, with shifts climbing
  by n per pair from the wrap pair up to the middle pair and mirrored on the
  way back down. It uses t = 2n + n*k/2 - 1 colors, the widest interval
  coloring this package can build directly.

The closed-form facts (chromatic index by parity, least span 2n, the widest
known span, and the feasible range in between) are assembled by
``bounds_summary``. For a t strictly inside the feasible range no direct
construction is known here, so ``t_coloring`` delegates to the exhaustive
search oracle for a witness instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import search
from .coloring import EdgeColoring
from .errors import BudgetExhaustedError, ParameterError, ParityError, SoundnessError
from .graphs import Edge, RingParams, Vertex, make_edge, ring_graph

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
    """Interval (2n-1)-coloring of complete_bipartite(n): edge ((2,p),(1,q))
    gets color p + q - 1, so colors run down the anti-diagonals."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    colors: dict[Edge, int] = {}
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            colors[make_edge(Vertex(2, p), Vertex(1, q))] = p + q - 1
    return EdgeColoring(colors=colors, t=2 * n - 1)


def widest_constructed_t(params: RingParams) -> int:
    """The color count used by mirrored_staircase_coloring: 2n + n*k/2 - 1."""
    if params.k % 2 != 0:
        raise ParityError(f"construction needs an even layer count, got k={params.k}")
    return 2 * params.n + params.n * params.k // 2 - 1


def mirrored_staircase_coloring(params: RingParams) -> EdgeColoring:
    """Interval (2n + n*k/2 - 1)-coloring of ring_graph(params) for even k.

    Rule order: the wrap pair (k, 1) carries the plain staircase; then for
    i = 1 .. k/2 - 1 the pairs (i, i+1) and (k-i, k-i+1) both carry the
    staircase shifted by i*n; finally the middle pair (k/2, k/2+1) carries
    the staircase shifted by n*k/2. For even k these pairs partition the
    edge set, which is checked at the end.
    """
    n, k = params.n, params.k
    if k % 2 != 0:
        raise ParityError(f"construction needs an even layer count, got k={k}")

    colors: dict[Edge, int] = {}
    # one Vertex per label, shared by every edge that touches it
    layers = {layer: [Vertex(layer, index) for index in range(1, n + 1)] for layer in range(1, k + 1)}

    def paint_pair(lo_layer: int, hi_layer: int, shift: int) -> None:
        for p, a in enumerate(layers[lo_layer], 1):
            for q, b in enumerate(layers[hi_layer], 1):
                e = make_edge(a, b)
                if e in colors:
                    raise SoundnessError(f"edge {e} colored twice")
                colors[e] = p + q - 1 + shift

    paint_pair(k, 1, 0)
    for i in range(1, k // 2):
        paint_pair(i, i + 1, i * n)
        paint_pair(k - i, k - i + 1, i * n)
    paint_pair(k // 2, k // 2 + 1, n * k // 2)

    if len(colors) != n * n * k:
        raise SoundnessError("the layer-pair rules must color every edge exactly once")
    return EdgeColoring(colors=colors, t=widest_constructed_t(params))


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
    i, j = v.layer, v.index
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
    at_theorem_cap = W_lower == search.asratian_kamalian_bound(k // 2, 2 * n, bipartite=True)
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


def t_coloring(params: RingParams, t: int, cfg: search.SearchConfig | None = None) -> EdgeColoring:
    """An interval t-coloring of ring_graph(params) for any feasible t.

    The top of the range comes straight from the construction; all other t
    are answered by the exhaustive search oracle, which is guaranteed a
    witness exists anywhere in the range. Raises ParityError for odd k,
    ParameterError for t outside [2n, 2n + n*k/2 - 1], and
    BudgetExhaustedError if a configured search budget runs out (it never
    silently claims infeasibility). A search that calls a t in the range
    infeasible contradicts the construction and raises SoundnessError.
    """
    n = params.n
    top = widest_constructed_t(params)
    if not 2 * n <= t <= top:
        raise ParameterError(f"t={t} outside the feasible range [{2 * n}, {top}]")
    if t == top:
        return mirrored_staircase_coloring(params)

    outcome = search.find_interval_t(ring_graph(params), t, cfg)
    if outcome.status == "witness":
        assert outcome.witness is not None
        return outcome.witness
    if outcome.status == "exhausted_budget":
        raise BudgetExhaustedError(
            f"search budget exhausted before finding a t={t} coloring "
            f"(nodes={outcome.nodes_explored})"
        )
    raise SoundnessError(
        f"search reports t={t} infeasible for (n={n}, k={params.k}); "
        "this contradicts the feasible range and indicates a bug"
    )
