from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringcol import (
    Edge,
    ParameterError,
    RingParams,
    SoundnessError,
    Vertex,
    build_graph,
    complete_bipartite,
    make_edge,
    mirrored_staircase_coloring,
    ring_graph,
    spectrum,
)
from ringcol.graphs import assemble_graph

import reference
from strategies import compositions, graph_inputs


def is_connected(g):
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(g.vertices)


def test_ring_1_3_is_triangle():
    g = ring_graph(RingParams(1, 3))
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert {g.degree(v) for v in g.vertices} == {2} and g.max_degree() == 2


def test_ring_1_4_is_c4():
    g = ring_graph(RingParams(1, 4))
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert g.max_degree() == 2


def test_ring_2_4_counts_and_regularity():
    g = ring_graph(RingParams(2, 4))
    assert len(g.vertices) == 8
    assert len(g.edges) == 16
    assert {g.degree(v) for v in g.vertices} == {4}
    for v in g.vertices:
        assert g.degree(v) == 4


@given(n=st.integers(1, 5), k=st.integers(3, 10))
@settings(max_examples=40, deadline=None)
def test_ring_invariants(n, k):
    g = ring_graph(RingParams(n, k))
    assert len(g.vertices) == n * k
    assert len(g.edges) == n * n * k
    assert {g.degree(v) for v in g.vertices} == {2 * n}
    assert g.max_degree() == 2 * n
    # handshake
    assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


@given(k=st.integers(3, 12))
@settings(max_examples=20, deadline=None)
def test_ring_degenerates_to_cycle(k):
    g = ring_graph(RingParams(1, k))
    assert len(g.edges) == len(g.vertices) == k
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert is_connected(g)


@given(n=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_complete_bipartite_invariants(n):
    g = complete_bipartite(n)
    assert len(g.vertices) == 2 * n
    assert len(g.edges) == n * n
    assert {g.degree(v) for v in g.vertices} == {n} and g.max_degree() == n
    layers = {v.layer for v in g.vertices}
    assert layers == {1, 2}
    for e in g.edges:
        assert {e.u.layer, e.v.layer} == {1, 2}
    # every cross pair joined
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            assert make_edge(Vertex(2, p), Vertex(1, q)) in g.edge_set


def test_complete_bipartite_small_cases():
    assert len(complete_bipartite(1).edges) == 1
    g = complete_bipartite(2)  # a 4-cycle
    assert len(g.edges) == 4 and g.max_degree() == 2
    assert len(complete_bipartite(3).edges) == 9


def test_params_validation():
    with pytest.raises(ParameterError):
        RingParams(0, 4)
    with pytest.raises(ParameterError):
        RingParams(2, 2)
    with pytest.raises(ParameterError):
        complete_bipartite(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ring_graph(RingParams(2, 4), n=3, k=5),
        lambda: ring_graph(RingParams(2, 4), k=4),
        lambda: ring_graph(n=3),
        lambda: ring_graph(k=5),
        lambda: ring_graph(),
    ],
    ids=["params-and-both", "params-and-k", "n-only", "k-only", "nothing"],
)
def test_ring_graph_takes_one_spelling_of_its_parameters(call):
    # RingParams(n, k) refuses a missing n or k; both spellings at once are refused, never one ignored
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_graph(2.5, 4, [], []),
        lambda: build_graph(2, True, [], []),
        lambda: build_graph(2, 4, [(1.5, 1)], []),
        lambda: build_graph(2, 4, [(1, True)], []),
        lambda: build_graph(1, 2, [(1, 1), (2, 1)], [((1.0, 1), (2, True))]),
        lambda: build_graph(1, 2, [Vertex(1, 1), Vertex(2, 1)], [(Vertex(1.0, 1), Vertex(2, 1))]),
        lambda: build_graph(1, 2, [[1, 1], [2, 1]], [[[1, 1], [2, True]]]),
        lambda: complete_bipartite(True),
        lambda: complete_bipartite(2.5),
    ],
    ids=["build_graph-n-float", "build_graph-k-bool", "build_graph-layer-float", "build_graph-index-bool",
         "build_graph-endpoints-float-and-bool", "build_graph-Vertex-endpoint-float",
         "build_graph-list-endpoint-bool", "complete_bipartite-bool", "complete_bipartite-float"],
)
def test_non_integer_labels_raise_parameter_error(call):
    # as RingParams does: a float or bool is refused, never accepted or met with a bare TypeError
    with pytest.raises(ParameterError, match="integer"):
        call()


def test_degree_of_unknown_vertex_raises():
    g = ring_graph(RingParams(1, 3))
    with pytest.raises(KeyError):
        g.degree(Vertex(9, 9))


@pytest.mark.parametrize("lookup", ["degree", "neighbors", "spectrum"])
@pytest.mark.parametrize("label", [Vertex(1.0, True), (True, 1.0), (1.0, 1), "11"])
def test_lookups_read_their_label_like_build_graph(lookup, label):
    # a float or bool equal to 1 hashes like 1: without the label rule each of these answers for (1, 1)
    g = ring_graph(RingParams(2, 4))
    c = mirrored_staircase_coloring(RingParams(2, 4))
    ask = {"degree": g.degree, "neighbors": g.neighbors, "spectrum": lambda v: spectrum(g, c, v)}[lookup]
    assert ask((1, 1)) == ask(Vertex(1, 1))
    with pytest.raises(ParameterError, match="pair of integers"):
        ask(label)
    with pytest.raises(KeyError):
        ask((9, 9))


def test_path_on_three_vertices_not_regular():
    vs = [Vertex(1, 1), Vertex(2, 1), Vertex(3, 1)]
    g = build_graph(1, 3, vs, [(vs[0], vs[1]), (vs[1], vs[2])])
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2]
    assert g.max_degree() == 2


def test_single_edge_max_degree():
    vs = [Vertex(1, 1), Vertex(2, 1)]
    g = build_graph(1, 2, vs, [(vs[0], vs[1])])
    assert g.max_degree() == 1


def test_edges_are_canonical_and_deduplicated():
    a, b = Vertex(2, 1), Vertex(1, 1)
    e = make_edge(a, b)
    assert (e.u, e.v) == (b, a)
    with pytest.raises(ParameterError):
        make_edge(a, a)
    vs = [a, b]
    with pytest.raises(ParameterError):
        build_graph(1, 2, vs, [(a, b), (b, a)])


def test_build_graph_rejects_unknown_endpoints_and_bad_labels():
    a, b = Vertex(1, 1), Vertex(2, 1)
    with pytest.raises(ParameterError):
        build_graph(1, 2, [a], [(a, b)])
    with pytest.raises(ParameterError):
        build_graph(1, 1, [Vertex(2, 1)], [])
    with pytest.raises(ParameterError):
        build_graph(1, 2, [a, a], [])


# ---------------------------------------------------------------------------
# false-twin classes
# ---------------------------------------------------------------------------


def test_twin_classes_of_rings():
    assert ring_graph(n=3, k=6).twin_classes == tuple(
        tuple(Vertex(layer, index) for index in (1, 2, 3)) for layer in range(1, 7)
    )
    # ring(n, 4) = K_{2n,2n}: layers 1 and 3 share their neighbours, and so do 2 and 4
    assert ring_graph(n=1, k=4).twin_classes == ((Vertex(1, 1), Vertex(3, 1)), (Vertex(2, 1), Vertex(4, 1)))
    assert ring_graph(n=1, k=5).twin_classes == tuple((v,) for v in ring_graph(n=1, k=5).vertices)


def test_isolated_vertices_are_twins():
    a, b, c, d = Vertex(1, 1), Vertex(1, 2), Vertex(2, 1), Vertex(2, 2)
    g = build_graph(2, 2, [a, b, c, d], [(a, c)])
    assert g.twin_classes == ((a,), (b, d), (c,))


@given(args=graph_inputs())
@settings(max_examples=100, deadline=None)
def test_twin_classes_partition_by_neighbourhood(args):
    g = build_graph(*args)
    classes = g.twin_classes
    assert sorted(v for members in classes for v in members) == list(g.vertices)
    assert [members[0] for members in classes] == sorted(members[0] for members in classes)
    for members in classes:
        assert list(members) == sorted(members)
        assert len({frozenset(g.neighbors(v)) for v in members}) == 1
    assert len({frozenset(g.neighbors(members[0])) for members in classes}) == len(classes)


# ---------------------------------------------------------------------------
# build_graph against the plain reference builder
# ---------------------------------------------------------------------------

SHAPES = ("Vertex", "tuple", "list")


def _shaped(label, shape):
    return {"Vertex": Vertex(*label), "tuple": tuple(label), "list": list(label)}[shape]


@st.composite
def relabelled_rings(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(3, 6))
    g = ring_graph(n=n, k=k)
    to = dict(zip(g.vertices, draw(st.permutations(g.vertices))))
    edges = draw(st.permutations([(to[e.u], to[e.v]) for e in g.edges]))
    return n, k, [to[v] for v in g.vertices], edges


@st.composite
def builder_inputs(draw, defect=False):
    """Arguments for build_graph with labels as Vertex, tuple or list; with
    ``defect``, one loop, duplicate, unknown endpoint, out-of-bounds label or
    non-integer label is inserted, and the kind is returned alongside. A
    non-integer label is a vertex's or endpoint's layer or index spelt as a
    float, bool or str; a float or bool equal to the integer (1.0 for 1)
    matches an existing label under ==, so only a type check refuses it."""
    n, k, vertices, edges = draw(graph_inputs() | relabelled_rings())
    vertices, edges = list(vertices), list(edges)
    kind = None
    if defect:
        in_bounds = [Vertex(layer, index) for layer in range(1, k + 1) for index in range(1, n + 1)]
        outside = [Vertex(0, 1), Vertex(k + 1, 1), Vertex(1, 0), Vertex(1, n + 1)]
        kinds = ["loop", "unknown endpoint", "out of bounds", "non-integer label"]
        kinds += ["duplicate vertex"] if vertices else []
        kinds += ["duplicate edge"] if edges else []
        kind = draw(st.sampled_from(kinds))
        if kind == "loop":
            v = draw(st.sampled_from(in_bounds))
            edges.insert(draw(st.integers(0, len(edges))), (v, v))
        elif kind == "unknown endpoint":
            stranger = draw(st.sampled_from([v for v in in_bounds if v not in vertices] + outside))
            other = draw(st.sampled_from([v for v in in_bounds + outside if v != stranger]))
            pair = draw(st.sampled_from([(stranger, other), (other, stranger)]))
            edges.insert(draw(st.integers(0, len(edges))), pair)
        elif kind == "non-integer label":
            v = draw(st.sampled_from(vertices or in_bounds))
            axis = draw(st.sampled_from(("layer", "index")))
            x = getattr(v, axis)
            bad = v._replace(**{axis: draw(st.sampled_from([float(x), str(x)] + [True] * (x == 1)))})
            if draw(st.booleans()):
                vertices.insert(draw(st.integers(0, len(vertices))), bad)
            else:
                other = draw(st.sampled_from([w for w in vertices or in_bounds if w != v] or [Vertex(0, 1)]))
                pair = draw(st.sampled_from([(bad, other), (other, bad)]))
                edges.insert(draw(st.integers(0, len(edges))), pair)
        elif kind == "out of bounds":
            vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(outside)))
        elif kind == "duplicate vertex":
            vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(vertices)))
        else:
            a, b = draw(st.sampled_from(edges))
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(a, b), (b, a)])))
    vshape, eshape = draw(st.sampled_from(SHAPES)), draw(st.sampled_from(SHAPES))
    args = n, k, [_shaped(v, vshape) for v in vertices], [(_shaped(a, eshape), _shaped(b, eshape)) for a, b in edges]
    return kind, args


def _built(builder, args):
    """The graph's vertices, edges and adjacency in order, or the exception
    type and message."""
    try:
        g = builder(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g.vertices, g.edges, list(g.adjacency.items())


@given(case=builder_inputs())
@settings(max_examples=150, deadline=None)
def test_build_graph_matches_the_reference(case):
    _, args = case
    assert _built(build_graph, args) == _built(reference.build_graph, args)
    g = build_graph(*args)
    # one Vertex object per label, shared by every edge and adjacency key
    labels = {id(v) for v in g.vertices}
    assert {id(v) for e in g.edges for v in e} <= labels
    assert {id(v) for v in g.adjacency} == labels


@given(case=builder_inputs(defect=True))
@settings(max_examples=150, deadline=None)
def test_build_graph_rejects_defects_like_the_reference(case):
    kind, args = case
    got = _built(build_graph, args)
    assert got == _built(reference.build_graph, args)
    assert got[0] is ParameterError, kind


# ---------------------------------------------------------------------------
# the assembler behind the generators
# ---------------------------------------------------------------------------

GENERATED = (
    [ring_graph(n=n, k=k) for k in (3, 4, 5, 6) for n in (1, 2, 3, 4)]
    + [complete_bipartite(n) for n in (1, 2, 3, 4)]
)
QUOTIENTS = [g.composition.quotient for g in GENERATED if g.composition is not None]


@pytest.mark.parametrize("g", GENERATED + QUOTIENTS, ids=lambda g: f"n{g.n}-k{g.k}-m{len(g.edges)}")
def test_assembled_graphs_match_the_reference(g):
    assert _built(reference.build_graph, (g.n, g.k, g.vertices, g.edges)) == (g.vertices, g.edges, list(g.adjacency.items()))
    labels = {id(v) for v in g.vertices}
    assert {id(v) for e in g.edges for v in e} <= labels
    assert {id(v) for v in g.adjacency} == labels


@given(case=compositions())
@settings(max_examples=50, deadline=None)
def test_assembled_quotients_match_the_reference(case):
    _, _, g = case
    assume(g.composition is not None)  # only the graph without vertices has none
    q = g.composition.quotient
    assert _built(reference.build_graph, (q.n, q.k, q.vertices, q.edges)) == (q.vertices, q.edges, list(q.adjacency.items()))
    assert {id(v) for e in q.edges for v in e} <= {id(v) for v in q.vertices}


def _mutants():
    g = ring_graph(n=2, k=4)
    vs, es = g.vertices, g.edges
    last = vs[-1]
    return {
        "unsorted vertices": (2, 4, (vs[1], vs[0], *vs[2:]), es, "vertices must be strictly increasing"),
        "unsorted edges": (2, 4, vs, (es[1], es[0], *es[2:]), "edges must be strictly increasing"),
        "duplicate edge": (2, 4, vs, (*es[:3], es[2], *es[3:]), "edges must be strictly increasing"),
        "loop": (2, 4, vs, (*es, Edge(last, last)), "u < v"),
        "unknown endpoint": (2, 4, vs[:-1], es, "endpoint must be a vertex"),
        "out-of-bounds label": (1, 4, vs, es, "within the bounds"),
    }


@pytest.mark.parametrize("kind", sorted(_mutants()))
def test_assembler_refuses_broken_invariants(kind):
    # SoundnessError, not assert: the check stands under python -O
    n, k, vertices, edges, broken = _mutants()[kind]
    with pytest.raises(SoundnessError, match=broken):
        assemble_graph(n, k, vertices, edges)
