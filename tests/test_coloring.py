from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcol import (
    ColoringError,
    Edge,
    EdgeColoring,
    RingParams,
    Vertex,
    build_graph,
    complete_bipartite,
    make_edge,
    mirrored_staircase_coloring,
    ring_graph,
    spectrum,
    staircase_coloring,
    verify,
)

import reference
from strategies import colorings, small_graphs


def cycle(k):
    return ring_graph(RingParams(1, k))


def cycle_coloring(k, colors, t):
    """Colors listed around the cycle: (x1,x2), (x2,x3), ..., (xk,x1)."""
    assert len(colors) == k
    mapping = {}
    for i, c in enumerate(colors, start=1):
        nxt = 1 if i == k else i + 1
        mapping[make_edge(Vertex(i, 1), Vertex(nxt, 1))] = c
    return EdgeColoring(colors=mapping, t=t)


def test_spectrum_on_hand_colored_c4():
    g = cycle(4)
    c = cycle_coloring(4, [1, 2, 3, 2], t=3)
    # the corner between the edges colored 2 and 3
    assert spectrum(g, c, Vertex(3, 1)) == (2, 3)
    assert spectrum(g, c, Vertex(1, 1)) == (1, 2)


def test_spectrum_of_degree_one_vertex():
    vs = [Vertex(1, 1), Vertex(2, 1)]
    g = build_graph(1, 2, vs, [(vs[0], vs[1])])
    c = EdgeColoring(colors={make_edge(*vs): 5}, t=5)
    assert spectrum(g, c, vs[0]) == (5,)


def test_spectrum_of_ring_2_4_first_layer():
    params = RingParams(2, 4)
    g = ring_graph(params)
    c = mirrored_staircase_coloring(params)
    assert spectrum(g, c, Vertex(1, 1)) == (1, 2, 3, 4)


def test_verify_accepts_constructed_c4_coloring():
    params = RingParams(1, 4)
    g = ring_graph(params)
    c = mirrored_staircase_coloring(params)
    assert c.t == 3
    report = verify(g, c)
    assert report.is_proper and report.is_interval and report.covers_palette
    assert report.is_interval_coloring


def test_verify_flags_adjacent_equal_colors():
    g = cycle(4)
    report = verify(g, cycle_coloring(4, [1, 1, 2, 2], t=2))
    assert not report.is_proper
    assert not report.is_interval
    assert report.proper_violations
    # collisions also shrink spectra below the degree, so evidence is doubled
    assert report.gap_vertices


def test_verify_flags_gaps_and_missing_colors():
    g = cycle(4)
    report = verify(g, cycle_coloring(4, [1, 3, 1, 3], t=3))
    assert report.is_proper
    assert not report.is_interval
    assert not report.covers_palette
    assert report.missing_colors == (2,)
    gap_specs = dict(report.gap_vertices)
    assert all(colors == (1, 3) for colors in gap_specs.values())
    assert len(gap_specs) == 4


def test_partial_coloring_rejected():
    g = cycle(4)
    full = dict(cycle_coloring(4, [1, 2, 1, 2], t=2).colors)
    removed, _ = full.popitem()
    partial = EdgeColoring(colors=full, t=2)
    with pytest.raises(ColoringError):
        verify(g, partial)
    with pytest.raises(ColoringError):
        spectrum(g, partial, removed.u)


def test_color_out_of_range_rejected():
    e = make_edge(Vertex(1, 1), Vertex(2, 1))
    with pytest.raises(ColoringError):
        EdgeColoring(colors={e: 0}, t=3)
    with pytest.raises(ColoringError):
        EdgeColoring(colors={e: 4}, t=3)
    # colors follow the package's one integer rule: an int subclass is none
    for color in (2.0, True, IntEnum("Color", "RED BLUE").BLUE, "2"):
        with pytest.raises(ColoringError, match="must be an integer"):
            EdgeColoring(colors={e: color}, t=3)


_RED_BLUE = IntEnum("Color", "RED BLUE")


@pytest.mark.parametrize("bad, message", [
    (True, "color of {e} must be an integer, got True"),
    (2.0, "color of {e} must be an integer, got 2.0"),
    (_RED_BLUE.BLUE, "color of {e} must be an integer, got <Color.BLUE: 2>"),
    (0, "color 0 of {e} outside palette [1, 2]"),
    (3, "color 3 of {e} outside palette [1, 2]"),
], ids=["bool", "float", "IntEnum", "zero", "t-plus-one"])
def test_a_bad_color_is_named_at_its_first_edge(bad, message):
    # the check runs over all colors at once; the message still names the first offending edge
    colors = dict(cycle_coloring(4, [1, 2, 1, 2], t=2).colors)
    second, *_, last = colors
    colors[second] = colors[last] = bad
    with pytest.raises(ColoringError) as info:
        EdgeColoring(colors=colors, t=2)
    assert str(info.value) == message.format(e=second)


def test_verify_reads_the_palette_of_a_mapping_changed_after_the_check():
    # two distinct colors at t = 2 cover [1, 2] only if both lie in it: verify reads min and max
    for stray in (0, 3):
        colors = dict(cycle_coloring(4, [1, 2, 1, 2], t=2).colors)
        c = EdgeColoring(colors=colors, t=2)
        for e in [e for e, col in colors.items() if col == 1]:
            colors[e] = stray
        report = verify(cycle(4), c)
        assert report.missing_colors == (1,) and not report.covers_palette, stray
        assert report == reference.verify(cycle(4), c), stray


def test_unknown_edge_rejected():
    g = cycle(4)
    stray = make_edge(Vertex(1, 1), Vertex(3, 1))  # a chord C4 does not have
    colors = dict(cycle_coloring(4, [1, 2, 1, 2], t=2).colors)
    colors[stray] = 1
    with pytest.raises(ColoringError):
        verify(g, EdgeColoring(colors=colors, t=2))


FIRST, LAST = make_edge(Vertex(1, 1), Vertex(2, 1)), make_edge(Vertex(3, 1), Vertex(4, 1))  # C4's first and last edges
STRAY, SWAPPED = make_edge(Vertex(1, 1), Vertex(3, 1)), Edge(FIRST.v, FIRST.u)  # a chord, and FIRST backwards


@pytest.mark.parametrize(
    "drop, add, message",
    [
        ((), (STRAY,), f"colored edge {STRAY} does not exist in the graph"),
        ((FIRST, LAST), (), f"coloring leaves 2 edge(s) uncolored, first: {FIRST}"),
        # as many colored edges as C4 has: the count alone does not show the defect
        ((FIRST,), (STRAY,), f"colored edge {STRAY} does not exist in the graph"),
        ((FIRST,), (SWAPPED,), f"colored edge {SWAPPED} does not exist in the graph"),
        # a stray edge is named before a missing one
        ((FIRST, LAST), (STRAY,), f"colored edge {STRAY} does not exist in the graph"),
    ],
    ids=["stray", "missing", "swapped-for-stray", "swapped-endpoints", "stray-and-missing"],
)
def test_verify_names_the_first_stray_or_missing_edge(drop, add, message):
    colors = dict(cycle_coloring(4, [1, 2, 1, 2], t=2).colors)
    for e in drop:
        del colors[e]
    colors.update(dict.fromkeys(add, 1))
    with pytest.raises(ColoringError) as info:
        verify(cycle(4), EdgeColoring(colors=colors, t=2))
    assert str(info.value) == message


@given(n=st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_proper_spectra_have_degree_many_colors(n):
    g = complete_bipartite(n)
    c = staircase_coloring(n)
    for v in g.vertices:
        assert len(spectrum(g, c, v)) == g.degree(v)


@given(colors=st.lists(st.integers(1, 6), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_verifier_is_pure_and_evidence_matches_flags(colors):
    g = cycle(5)
    c = cycle_coloring(5, colors, t=6)
    first = verify(g, c)
    second = verify(g, c)
    assert first == second
    assert first.is_proper == (not first.proper_violations)
    assert first.is_interval == (first.is_proper and not first.gap_vertices)
    assert first.covers_palette == (not first.missing_colors)
    if not first.is_interval:
        assert first.gap_vertices or first.proper_violations
    if not first.covers_palette:
        assert first.missing_colors


@given(n=st.integers(1, 3), half_k=st.integers(2, 4), shift=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_shifting_colors_preserves_properness_and_runs(n, half_k, shift):
    params = RingParams(n, 2 * half_k)
    g = ring_graph(params)
    c = mirrored_staircase_coloring(params)
    shifted = EdgeColoring(
        colors={e: col + shift for e, col in c.colors.items()}, t=c.t + shift
    )
    base = verify(g, c)
    moved = verify(g, shifted)
    assert base.is_interval_coloring
    assert moved.is_proper and moved.is_interval
    # colors 1..shift are now unused, so full-palette coverage is lost
    assert not moved.covers_palette
    assert moved.missing_colors == tuple(range(1, shift + 1))


@given(g=small_graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_verify_matches_the_reference_verifier(g, data):
    # isolated vertices, clashes, gaps and unused colors all occur in the draw
    c = data.draw(colorings(g))
    assert verify(g, c) == reference.verify(g, c)


def test_an_isolated_vertex_passes_the_verifier():
    vs = [Vertex(1, 1), Vertex(1, 2), Vertex(2, 1)]
    g = build_graph(2, 2, vs, [(vs[0], vs[2])])
    c = EdgeColoring({make_edge(vs[0], vs[2]): 1}, 1)
    assert verify(g, c).is_interval_coloring and verify(g, c) == reference.verify(g, c)
