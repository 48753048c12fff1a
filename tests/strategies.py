"""Hypothesis strategies for small labelled graphs, shared by the test modules."""

from hypothesis import strategies as st

from ringcol import Vertex, build_graph


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
