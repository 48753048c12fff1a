import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcol import (
    ParameterError,
    ParityError,
    RingParams,
    Vertex,
    bounds_summary,
    complete_bipartite,
    find_interval_t,
    expected_spectrum,
    make_edge,
    mirrored_staircase_coloring,
    ring_chromatic_index,
    ring_graph,
    spectrum,
    staircase_coloring,
    t_coloring,
    verify,
    widest_constructed_t,
)

import reference


# ---------------------------------------------------------------------------
# staircase coloring of K_{n,n}
# ---------------------------------------------------------------------------


def test_staircase_n1_single_edge():
    c = staircase_coloring(1)
    assert c.t == 1
    assert list(c.colors.values()) == [1]


def test_staircase_n2_explicit_values():
    c = staircase_coloring(2)
    expected = {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3}
    for (p, q), color in expected.items():
        assert c.colors[make_edge(Vertex(2, p), Vertex(1, q))] == color
    assert c.t == 3


def test_staircase_n3_verified_and_spans_palette():
    g = complete_bipartite(3)
    c = staircase_coloring(3)
    assert c.t == 5
    assert set(c.colors.values()) == set(range(1, 6))
    report = verify(g, c)
    assert report.is_interval_coloring
    for v in g.vertices:
        assert len(spectrum(g, c, v)) == 3


@given(n=st.integers(1, 8))
@settings(max_examples=16, deadline=None)
def test_staircase_is_interval_for_all_n(n):
    g, c = complete_bipartite(n), staircase_coloring(n)
    assert verify(g, c).is_interval_coloring
    assert list(c.colors) == list(g.edges)  # colored in the graph's edge order


# ---------------------------------------------------------------------------
# mirrored staircase coloring of the ring
# ---------------------------------------------------------------------------


def test_mirrored_c4_explicit_values():
    c = mirrored_staircase_coloring(RingParams(1, 4))
    assert c.t == 3
    assert c.colors[make_edge(Vertex(4, 1), Vertex(1, 1))] == 1  # wrap pair
    assert c.colors[make_edge(Vertex(1, 1), Vertex(2, 1))] == 2
    assert c.colors[make_edge(Vertex(3, 1), Vertex(4, 1))] == 2  # mirrored pair
    assert c.colors[make_edge(Vertex(2, 1), Vertex(3, 1))] == 3  # middle pair


def test_mirrored_c6_explicit_values():
    c = mirrored_staircase_coloring(RingParams(1, 6))
    assert c.t == 4
    around = [(6, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    colors = [c.colors[make_edge(Vertex(a, 1), Vertex(b, 1))] for a, b in around]
    assert colors == [1, 2, 3, 4, 3, 2]


def test_mirrored_2_4_span():
    c = mirrored_staircase_coloring(RingParams(2, 4))
    assert c.t == 2 * 2 + 2 * 4 // 2 - 1 == 7


def test_mirrored_rejects_odd_k_even_when_nk_is_even():
    with pytest.raises(ParityError):
        mirrored_staircase_coloring(RingParams(2, 5))
    with pytest.raises(ParityError):
        mirrored_staircase_coloring(RingParams(1, 3))


@given(n=st.integers(1, 5), half_k=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_mirrored_is_interval_with_exact_span(n, half_k):
    params = RingParams(n, 2 * half_k)
    g = ring_graph(params)
    c = mirrored_staircase_coloring(params)
    assert c.t == widest_constructed_t(params)
    report = verify(g, c)
    assert report.is_interval_coloring
    assert set(c.colors.values()) == set(range(1, c.t + 1))


@given(n=st.integers(1, 4), half_k=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_paired_layer_pairs_share_colors(n, half_k):
    k = 2 * half_k
    c = mirrored_staircase_coloring(RingParams(n, k))
    for i in range(1, half_k):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                low = c.colors[make_edge(Vertex(i, p), Vertex(i + 1, q))]
                high = c.colors[make_edge(Vertex(k - i, p), Vertex(k - i + 1, q))]
                assert low == high


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------


@given(n=st.integers(1, 5), half_k=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_spectra_match_closed_form(n, half_k):
    params = RingParams(n, 2 * half_k)
    g = ring_graph(params)
    c = mirrored_staircase_coloring(params)
    for v in g.vertices:
        assert spectrum(g, c, v) == tuple(expected_spectrum(params, v))


def test_closed_form_details():
    params = RingParams(2, 6)
    # outer layers: j .. j + 2n - 1
    assert list(expected_spectrum(params, Vertex(1, 1))) == [1, 2, 3, 4]
    assert list(expected_spectrum(params, Vertex(6, 2))) == [2, 3, 4, 5]
    # climbing side: shifts grow by n per layer up to the middle
    assert list(expected_spectrum(params, Vertex(2, 1))) == [3, 4, 5, 6]
    assert list(expected_spectrum(params, Vertex(3, 1))) == [5, 6, 7, 8]
    # above the middle the paired layers repeat the same windows
    assert list(expected_spectrum(params, Vertex(4, 1))) == [5, 6, 7, 8]
    assert list(expected_spectrum(params, Vertex(5, 1))) == [3, 4, 5, 6]


@given(n=st.integers(1, 4), half_k=st.integers(2, 5), j=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_spectra_are_mirror_symmetric_across_the_ring(n, half_k, j):
    # layer i and layer k+1-i see the same window: the construction reuses
    # each shift on a pair of layer pairs placed symmetrically on the ring
    params = RingParams(n, 2 * half_k)
    if j > n:
        j = n
    k = params.k
    for i in range(1, k + 1):
        a = expected_spectrum(params, Vertex(i, j))
        b = expected_spectrum(params, Vertex(k + 1 - i, j))
        assert list(a) == list(b)


def test_climbing_formula_holds_below_the_middle():
    # for layers 2 .. k/2 the window is j + (i-1)n .. j + (i+1)n - 1
    for n, k in [(1, 6), (2, 8), (3, 10)]:
        params = RingParams(n, k)
        for i in range(2, k // 2 + 1):
            for j in range(1, n + 1):
                got = list(expected_spectrum(params, Vertex(i, j)))
                assert got == list(range(j + (i - 1) * n, j + (i + 1) * n))


def test_palette_coverage_witness_vertices():
    # the last-indexed vertices of layers 2 .. k/2 jointly cover the colors
    # from 2n up to the top of the palette
    for n, k in [(1, 4), (2, 4), (2, 6), (3, 8)]:
        params = RingParams(n, k)
        g = ring_graph(params)
        c = mirrored_staircase_coloring(params)
        union = set()
        for i in range(2, k // 2 + 1):
            union |= set(spectrum(g, c, Vertex(i, n)))
        assert union == set(range(2 * n, c.t + 1))


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_chromatic_index_formula():
    assert ring_chromatic_index(RingParams(1, 3)) == 3
    assert ring_chromatic_index(RingParams(2, 5)) == 4
    assert ring_chromatic_index(RingParams(1, 4)) == 2


def test_bounds_summary_odd_product():
    b = bounds_summary(RingParams(1, 3))
    assert b.chromatic_index == 3
    assert not b.interval_colorable
    assert b.w is None and b.W_lower is None and b.feasible_t is None
    assert b.W_exact is None


def test_bounds_summary_2_4():
    b = bounds_summary(RingParams(2, 4))
    assert b.interval_colorable
    assert b.chromatic_index == 4
    assert b.w == 4
    assert b.W_lower == 7
    assert b.W_exact == 7
    assert b.feasible_t == (4, 7)


def test_bounds_summary_1_6():
    b = bounds_summary(RingParams(1, 6))
    assert b.interval_colorable
    assert b.w == 2
    assert b.W_lower == 4
    assert b.W_exact == 4  # the even cycle meets the Asratian–Kamalian bound k/2 + 1
    assert b.feasible_t == (2, 4)


@pytest.mark.parametrize("n, k", [(1, 4), (1, 6), (1, 8), (2, 4)])
def test_W_exact_is_the_greatest_span_found_by_exhaustion(n, k):
    g = ring_graph(RingParams(n, k))
    W = bounds_summary(RingParams(n, k)).W_exact
    assert find_interval_t(g, W).status == "witness"
    # every t above W up to |E| is refuted by search, no theorem cited
    assert all(find_interval_t(g, t).status == "infeasible" for t in range(W + 1, len(g.edges) + 1))


def test_W_exact_is_unset_below_the_theorem_bound():
    # the construction's 2n + nk/2 - 1 stays below (k/2)(2n - 1) + 1 here
    for n, k in ((2, 6), (3, 6)):
        assert bounds_summary(RingParams(n, k)).W_exact is None


def test_bounds_summary_odd_k_even_product():
    # colorable, least span known, but no constructed widest span for odd k
    b = bounds_summary(RingParams(2, 5))
    assert b.interval_colorable
    assert b.w == 4
    assert b.W_lower is None and b.feasible_t is None


# ---------------------------------------------------------------------------
# arbitrary feasible spans
# ---------------------------------------------------------------------------


def test_t_coloring_top_of_range_is_the_construction():
    c = t_coloring(RingParams(1, 4), 3)
    assert c.colors == mirrored_staircase_coloring(RingParams(1, 4)).colors


def test_t_coloring_alternating_c4():
    params = RingParams(1, 4)
    c = t_coloring(params, 2)
    report = verify(ring_graph(params), c)
    assert report.is_interval_coloring
    assert set(c.colors.values()) == {1, 2}


def test_t_coloring_range_and_parity_errors():
    with pytest.raises(ParameterError):
        t_coloring(RingParams(1, 4), 4)
    with pytest.raises(ParameterError):
        t_coloring(RingParams(1, 4), 1)
    with pytest.raises(ParityError):
        t_coloring(RingParams(2, 5), 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: staircase_coloring(True),
        lambda: staircase_coloring(2.5),
        lambda: staircase_coloring("3"),
        lambda: t_coloring(RingParams(2, 4), "5"),
        lambda: expected_spectrum(RingParams(2, 4), Vertex(1.0, 1)),
        lambda: expected_spectrum(RingParams(2, 4), Vertex(True, 1)),
    ],
    ids=["staircase-bool", "staircase-float", "staircase-str", "t_coloring-str-t",
         "expected_spectrum-float-layer", "expected_spectrum-bool-layer"],
)
def test_constructions_refuse_what_is_no_integer(call):
    # the integer rule and the label rule of the package, never a bare TypeError or a silent answer
    with pytest.raises(ParameterError, match="integer"):
        call()


def test_mirrored_staircase_is_the_papers_rule_edge_by_edge():
    # the paper's rule, written out on its own: edge ((i, p), (i+1, q)) gets p + q - 1 + shift(i), the
    # wrap pair (k, 1) unshifted, pairs i and k - i shifted by i*n, and the middle pair by n*k/2
    for n in range(1, 6):
        for k in (4, 6, 8, 10):
            shift = {k: 0, k // 2: n * k // 2}
            for i in range(1, k // 2):
                shift[i] = shift[k - i] = i * n
            c = mirrored_staircase_coloring(RingParams(n, k))
            assert len(c.colors) == n * n * k
            for i in range(1, k + 1):
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        e = make_edge(Vertex(i, p), Vertex(i % k + 1, q))
                        assert c.colors[e] == p + q - 1 + shift[i], (n, k, e)


def test_t_coloring_verifies_at_every_t_of_the_range():
    for n in range(1, 5):
        for k in range(4, 11, 2):
            params = RingParams(n, k)
            g = ring_graph(params)
            for t in range(2 * n, widest_constructed_t(params) + 1):
                c = t_coloring(params, t)
                assert c.t == t and verify(g, c).is_interval_coloring, (n, k, t)
                assert list(c.colors) == list(g.edges), (n, k, t)  # lifted onto the ring's own edge order
                assert all(map(operator.is_, c.colors, g.edges)), (n, k, t)  # keyed by its very edges


def test_t_coloring_is_the_block_rule_over_a_closed_form_of_c_k():
    # each layer is the class of its first vertex, also at k = 4, where the twin classes of the ring
    # are the two sides of K_{2n,2n}; alpha is the closed-form interval s-coloring of C_k
    for n in range(1, 5):
        for k in range(4, 11, 2):
            params = RingParams(n, k)
            g = ring_graph(params)
            position = {v: (Vertex(v.layer, 1), v.index) for v in g.vertices}
            for t in range(2 * n, widest_constructed_t(params) + 1):
                s, j = divmod(t, n)
                alpha = {}
                for i in range(1, k + 1):
                    d = min(i, k - i) + 1
                    alpha[make_edge(Vertex(i, 1), Vertex(i % k + 1, 1))] = d if d <= s else s - (d - s) % 2
                assert t_coloring(params, t).colors == reference.lifted_colors(g, position, alpha, n, j), (n, k, t)
