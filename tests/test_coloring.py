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


def refusal(t, m):
    """verify's message for a declared t above the graph's m edges."""
    return f"t = {t} exceeds the graph's {m} edges: no interval t-coloring exists"


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
    # two distinct colors at t = 2 cover [1, 2] only if both lie in it. A negative color or a float
    # has no bit for the bit test, so verify reads such a mapping with its per-vertex loop alone
    for stray in (0, 3, -1, 2.0):
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


@given(colors=st.lists(st.integers(1, 6), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_verifier_is_pure_and_evidence_matches_flags(colors):
    # six colors on the five edges of C_5 cannot all appear, so t = 6 is refused there
    with pytest.raises(ColoringError, match=f"^{refusal(6, 5)}$"):
        verify(cycle(5), cycle_coloring(5, colors[:5], t=6))
    g = cycle(6)
    c = cycle_coloring(6, colors, t=6)
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
    assert base.is_interval_coloring
    if shifted.t > len(g.edges):  # only on n = 1 rings: a cycle can have fewer edges than the shifted span
        with pytest.raises(ColoringError, match=f"^{refusal(shifted.t, len(g.edges))}$"):
            verify(g, shifted)
        return
    moved = verify(g, shifted)
    assert moved.is_proper and moved.is_interval
    # colors 1..shift are now unused, so full-palette coverage is lost
    assert not moved.covers_palette
    assert moved.missing_colors == tuple(range(1, shift + 1))


@given(g=small_graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_verify_matches_the_reference_verifier(g, data):
    # isolated vertices, clashes, gaps and unused colors all occur in the draw
    c = data.draw(colorings(g))
    if c.t > len(g.edges):  # no interval t-coloring exists, so verify refuses the input
        with pytest.raises(ColoringError, match=f"^{refusal(c.t, len(g.edges))}$"):
            verify(g, c)
    else:
        assert verify(g, c) == reference.verify(g, c)


def test_an_isolated_vertex_passes_the_verifier():
    vs = [Vertex(1, 1), Vertex(1, 2), Vertex(2, 1)]
    g = build_graph(2, 2, vs, [(vs[0], vs[2])])
    c = EdgeColoring({make_edge(vs[0], vs[2]): 1}, 1)
    assert verify(g, c).is_interval_coloring and verify(g, c) == reference.verify(g, c)


def climb(top):
    """Colors around a cycle of 2 * top - 2 edges, an interval top-coloring:
    up from 1 to top, then down to 2."""
    return list(range(1, top + 1)) + list(range(top - 1, 1, -1))


def star_graph(leaves, extra=()):
    """A center (1, 2) joined to the first ``leaves`` of ``leaves`` + 1 vertices of
    layer 2, the vertex (1, 1) isolated and before the center in vertex order, and
    ``extra`` edges (a, b) between the a-th and b-th layer-2 vertices, 0-based."""
    center, isolated = Vertex(1, 2), Vertex(1, 1)
    outer = [Vertex(2, i) for i in range(1, leaves + 2)]
    edges = [(center, w) for w in outer[:leaves]] + [(outer[a], outer[b]) for a, b in extra]
    return build_graph(leaves + 1, 2, [isolated, center, *outer], edges), center


@pytest.mark.parametrize("leaves, extra, colors, t", [
    # three edges, two colors in one run at the center: only the count of its bits shows the clash
    (3, (), (1, 1, 2), 2),
    # three distinct colors at the center, not in one run: only the run test shows the gap
    (3, ((2, 3),), (1, 2, 4, 3), 4),
    # the same two defects beside each other
    (3, (), (1, 1, 3), 3),
    (4, (), (1, 2, 2, 4), 4),
], ids=["count-only", "run-only", "count-and-run", "clash-and-gap"])
def test_the_bit_test_finds_each_failing_vertex(leaves, extra, colors, t):
    g, center = star_graph(leaves, extra)
    c = EdgeColoring(dict(zip(g.edges, colors)), t)
    report = verify(g, c)
    assert report == reference.verify(g, c)
    assert [v for v, _ in report.gap_vertices] == [center]  # the isolated vertex passes


@pytest.mark.parametrize("top", [4095, 4096])
def test_verify_on_either_side_of_the_bit_bound(top):
    # colors below 4 096 take the bit test, which builds the graph's end plan; a color of 4 096
    # sends the check to the per-vertex loop, which needs none. Each report equals the reference's
    for clash in (False, True):
        g = cycle(2 * top - 2)
        colors = climb(top)
        if clash:
            colors[0] = colors[1]  # (x1, x2) and (x2, x3) share color 2, and color 1 goes unused
        c = cycle_coloring(len(colors), colors, top)
        report = verify(g, c)
        assert report == reference.verify(g, c)
        assert report.is_interval_coloring != clash
        assert ("end_plan" in vars(g)) == (top < 4096)


def test_verify_a_long_cycle_above_the_bit_bound():
    # C_16382 interval-colored at t = 8 192 = 16 382 / 2 + 1, its greatest span, and a copy of it with
    # one clash: both are read by the per-vertex loop, and each report equals the reference's
    colors = climb(8192)
    g = cycle(len(colors))
    c = cycle_coloring(len(colors), colors, 8192)
    assert verify(g, c) == reference.verify(g, c) and verify(g, c).is_interval_coloring
    colors[-1] = colors[-2]  # (x16381, x16382) and (x16382, x1) share color 3
    c = cycle_coloring(len(colors), colors, 8192)
    report = verify(g, c)
    assert report == reference.verify(g, c)
    assert not report.is_proper and report.covers_palette
