"""Hypothesis strategies for small labelled graphs, shared by the test modules."""

from hypothesis import strategies as st

from ringcol import EdgeColoring, Vertex, build_graph

# The seed of the tests that pin their draws with ``@seed(SEED)`` and ``database=None``.
# ``derandomize=True`` seeds a draw with a digest of the test function's code, so every
# edit to a test body silently tests other graphs. A fixed seed with no example database
# draws the same examples whatever the test's name or body (checked on hypothesis 6.155.2),
# so an edit changes what a test checks, never what it checks it on.
SEED = 2007


def _room(labels: int) -> int:
    """Edges a simple graph on this many vertices can have."""
    return labels * (labels - 1) // 2


@st.composite
def graph_inputs(draw, max_edges=12):
    """(n, k, vertices, edges) for ``build_graph``: label bounds k <= 4 and
    n <= 3, and a random vertex subset with a random set of pairs on it,
    both in random order. Isolated vertices and disconnected graphs occur.

    The edge count is drawn first, and half the draws come from 6..max_edges:
    a uniform subset of pairs is mostly empty or a single edge, while the
    engines' search orders differ mainly on the larger graphs.
    """
    m = draw(st.integers(min(6, max_edges), max_edges) | st.integers(0, max_edges))
    k, n = draw(st.sampled_from([(k, n) for k in range(1, 5) for n in range(1, 4) if _room(k * n) >= m]))
    labels = [Vertex(layer, index) for layer in range(1, k + 1) for index in range(1, n + 1)]
    need = next(c for c in range(len(labels) + 1) if _room(c) >= m)
    size = draw(st.integers(need, len(labels)))
    vertices = draw(st.permutations(labels))[:size]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    edges = draw(st.permutations(pairs))[:m]
    return n, k, vertices, edges


def small_graphs(max_edges=12):
    """Graphs built from ``graph_inputs``."""
    return graph_inputs(max_edges).map(lambda args: build_graph(*args))


@st.composite
def colorings(draw, g):
    """Any map from g's edges to a palette [1, t], in random order: t reaches
    2|E| + 1, so unused colors, clashes and gaps all occur, and an edgeless
    g may get t = 0."""
    t = draw(st.integers(1 if g.edges else 0, 2 * len(g.edges) + 1))
    edges = draw(st.permutations(g.edges))
    return EdgeColoring({e: draw(st.integers(1, t)) for e in edges}, t)


@st.composite
def compositions(draw, max_quotient_edges=6, sizes=(2, 3)):
    """(H, n, G): a graph H from ``graph_inputs`` and its composition
    G = H[K̄_n], in which every vertex of H becomes n pairwise non-adjacent
    copies, each joined to every copy of its neighbours. G's labels are a
    random permutation of a (|V(H)| layers, n indices) grid, so a copy's
    label says nothing about the vertex of H it stands for.
    """
    h = build_graph(*draw(graph_inputs(max_quotient_edges)))
    n = draw(st.sampled_from(sizes))
    layers = max(1, len(h.vertices))
    grid = [Vertex(layer, index) for layer in range(1, layers + 1) for index in range(1, n + 1)]
    image = draw(st.permutations(grid))
    copies = {x: image[i * n:(i + 1) * n] for i, x in enumerate(h.vertices)}
    edges = [(a, b) for e in h.edges for a in copies[e.u] for b in copies[e.v]]
    return h, n, build_graph(n, layers, image[:n * len(h.vertices)], edges)
