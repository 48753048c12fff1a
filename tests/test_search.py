import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ringcol import (
    EdgeColoring,
    Graph,
    ParameterError,
    RingParams,
    SearchConfig,
    SoundnessError,
    Vertex,
    build_graph,
    complete_bipartite,
    compute_chromatic_index,
    find_interval_t,
    make_edge,
    mirrored_staircase_coloring,
    ring_chromatic_index,
    ring_graph,
    scan_cap,
    span_profile,
    spectrum,
    verify,
)
from ringcol import composition, engines, search

import reference
from reference import run_engine, start_assignment
from strategies import SEED, compositions, small_graphs


def cycle(k):
    return ring_graph(RingParams(1, k))


def path(n):
    vertices = [Vertex(1, i) for i in range(1, n + 1)]
    return build_graph(n, 1, vertices, list(zip(vertices, vertices[1:])))


# ---------------------------------------------------------------------------
# feasibility queries
# ---------------------------------------------------------------------------


def test_triangle_has_no_interval_coloring_at_any_t():
    g = cycle(3)
    for t in range(1, len(g.edges) + 1):
        assert find_interval_t(g, t).status == "infeasible"


def test_c4_alternating_witness_at_two_colors():
    g = cycle(4)
    outcome = find_interval_t(g, 2)
    assert outcome.status == "witness"
    w = outcome.witness
    assert verify(g, w).is_interval_coloring
    for v in g.vertices:
        assert spectrum(g, w, v) == (1, 2)


def test_c4_infeasible_at_four_colors():
    g = cycle(4)
    assert find_interval_t(g, 4).status == "infeasible"
    assert run_engine(start_assignment, g, 4)[0] == "infeasible"


def test_t_above_edge_count_is_infeasible_without_search(monkeypatch):
    # no special case in find_interval_t answers here: the lift skips a quotient asked above its cap,
    # and edge_dfs refuses a t above its edge count before it builds its per-t tables, so a huge t
    # costs neither time nor memory (C4 and ring(2,4) are compositions, C5 is none, and the
    # edgeless graph on three vertices is one over a single vertex)
    def no_tables(t, deg):
        raise AssertionError(f"band tables built for t = {t}")

    monkeypatch.setattr(engines, "_band_tables", no_tables)
    edgeless = build_graph(1, 3, [Vertex(1, 1), Vertex(2, 1), Vertex(3, 1)], [])
    for g in (cycle(4), ring_graph(RingParams(2, 4)), cycle(5), edgeless):
        for t in (len(g.edges) + 1, 10**9):
            outcome = find_interval_t(g, t)
            assert (outcome.status, outcome.nodes_explored, outcome.source) == ("infeasible", 0, "search")


def test_every_witness_passes_the_verifier():
    for n, k, t in [(1, 4, 2), (1, 4, 3), (1, 6, 3), (2, 4, 4), (2, 4, 7)]:
        g = ring_graph(RingParams(n, k))
        outcome = find_interval_t(g, t)
        assert outcome.status == "witness"
        report = verify(g, outcome.witness)
        assert report.is_interval_coloring
        assert outcome.witness.t == t
        assert run_engine(start_assignment, g, t)[0] == "witness"  # re-verified there too


def test_bad_parameters_rejected():
    g = cycle(4)
    with pytest.raises(ParameterError):
        find_interval_t(g, 0)
    with pytest.raises(ParameterError):
        SearchConfig(node_limit=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ring_graph(RingParams(2.5, 4)),
        lambda: ring_graph(n=2, k=4.0),
        lambda: RingParams(True, 4),
        lambda: SearchConfig(node_limit=True),
        lambda: find_interval_t(cycle(4), 4.0),
        lambda: find_interval_t(cycle(4), True),
        lambda: find_interval_t(cycle(4), "3"),
        lambda: search.find_proper_t(cycle(4), 2.0),
        lambda: search.find_proper_t(cycle(4), True),
        lambda: EdgeColoring({}, "3"),
        lambda: EdgeColoring({cycle(4).edges[0]: 1}, True),
    ],
    ids=[
        "RingParams-n-float", "ring_graph-k-float", "RingParams-n-bool", "node_limit-bool",
        "find_interval_t-float", "find_interval_t-bool", "find_interval_t-str", "find_proper_t-float",
        "find_proper_t-bool", "EdgeColoring-t-str", "EdgeColoring-t-bool",
    ],
)
def test_non_integer_parameters_raise_parameter_error(call):
    # a float, str or bool is refused as a ParameterError, never a bare TypeError or a silent 1
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_budget_cutoff_is_never_reported_as_infeasible():
    g = ring_graph(RingParams(2, 4))
    outcome = find_interval_t(g, 8, SearchConfig(node_limit=10))
    assert outcome.status == "exhausted_budget"
    assert outcome.nodes_explored == 11  # the first over-budget node aborts


def test_engines_return_their_node_count_and_stop_one_past_the_limit():
    big = ring_graph(RingParams(8, 16))
    assert engines.edge_dfs(big, 40, 5_000) == (None, 5_001)
    assert engines.edge_dfs(big, 16, 1_000) == (None, 1_001)  # its witness takes 1 024 nodes
    # C5 at t=2 is refuted on node 4: a count at the limit is no cut
    assert engines.edge_dfs(cycle(5), 2, 3) == engines.edge_dfs(cycle(5), 2, 4) == (None, 4)
    edgeless = build_graph(1, 1, [Vertex(1, 1)], [])
    assert engines.edge_dfs(edgeless, 1, None) == (None, 0)
    # a proper query searches nothing below Delta, and gives an edgeless graph the empty coloring
    below = search.find_proper_t(big, 15)
    assert (below.status, below.nodes_explored) == ("infeasible", 0)
    empty = search.find_proper_t(edgeless, 1)
    assert (empty.status, empty.witness.colors, empty.nodes_explored) == ("witness", {}, 0)
    # each reference engine keeps the answer it reaches on the last allowed node, and stops one node
    # past every limit below it
    for engine, n, k, t, nodes in [
        (reference.edge_dfs, 2, 3, 4, 33),
        (reference.unkeyed_edge_dfs, 2, 4, 7, 100),
        (reference.proper_dfs, 2, 3, 4, 33),
        (start_assignment, 2, 6, 4, 36),  # a witness: its last node is one of the window assignment's
        (start_assignment, 1, 5, 2, 5),  # refuted after the last start: no window vector passes parity
        (start_assignment, 2, 3, 6, 105),  # a witness after window assignments that fail, one at node 24
    ]:
        g = ring_graph(RingParams(n, k))
        at = engine(g, t, nodes)
        assert at == engine(g, t, None) and at[1] == nodes, engine.__name__
        assert all(engine(g, t, limit) == (None, limit + 1) for limit in range(nodes)), engine.__name__


@pytest.mark.parametrize("query, n, k, t, status, nodes", [
    (find_interval_t, 2, 6, 9, "witness", 8),  # lifted from C6 at s = 4: the quotient's nodes count
    (find_interval_t, 2, 3, 7, "infeasible", 263),  # C3 is overfull, so no lift: ring(2,3) alone
    (search.find_proper_t, 2, 3, 4, "witness", 33),
    (search.find_proper_t, 1, 5, 2, "infeasible", 4),
])
def test_an_answer_on_the_last_allowed_node_stands(query, n, k, t, status, nodes):
    g = ring_graph(RingParams(n, k))
    at = query(g, t, SearchConfig(node_limit=nodes))
    assert (at.status, at.nodes_explored) == (status, nodes)
    below = query(g, t, SearchConfig(node_limit=nodes - 1))
    assert (below.status, below.nodes_explored) == ("exhausted_budget", nodes)


def test_compute_w_budget_is_inconclusive():
    # ring(2,3) = C3[K̄2], and C3 is overfull, so no lift is tried: the budget runs out on ring(2,3)
    # itself
    g = ring_graph(RingParams(2, 3))
    profile = span_profile(g, SearchConfig(node_limit=5))
    report = profile.w
    assert report.value is None
    assert report.status == "inconclusive"
    assert (profile.trail[0], report.nodes_explored) == ((4, "exhausted_budget"), 6)


def test_compute_chromatic_index_budget_gives_no_value():
    # ring(2,3) is regular and no composition the lift can use (C3 is overfull): its one query, the
    # interval one at t = Delta = 4, takes 33 nodes, so a budget of 2 cuts it and leaves chi' open,
    # neither Delta nor Delta + 1
    value, nodes = compute_chromatic_index(ring_graph(RingParams(2, 3)), SearchConfig(node_limit=2))
    assert value is None and nodes == 3
    assert compute_chromatic_index(ring_graph(RingParams(2, 3)), SearchConfig(node_limit=33)) == (4, 33)


def test_compute_W_budget_degrades_to_lower_bound():
    g = ring_graph(RingParams(2, 3))
    # the Giaro–Kubale–Małafiejski cap is 8: 100 nodes find the t = 6 witness (58 nodes) but
    # exhaust neither t = 7 (263 nodes) nor t = 8 (235)
    assert scan_cap(g) == (8, "giaro_kubale_malafiejski")
    report = span_profile(g, SearchConfig(node_limit=100)).W
    assert report.value == 6
    assert report.status == "lower_bound_only"


# ---------------------------------------------------------------------------
# search order and depth
# ---------------------------------------------------------------------------


_PINNED_NODE_COUNTS = [
    ("start_assignment", 2, 6, 4, "witness", 36),
    ("start_assignment", 2, 6, 5, "witness", 3_134),
    ("start_assignment", 2, 6, 6, "witness", 134),
    ("start_assignment", 2, 6, 7, "witness", 26_307),
    ("start_assignment", 2, 6, 8, "exhausted_budget", 50_001),
    ("start_assignment", 3, 6, 9, "witness", 8_006),
    ("start_assignment", 3, 4, 8, "exhausted_budget", 50_001),
    ("edge_dfs", 2, 3, 7, "infeasible", 263),
    ("edge_dfs", 2, 6, 9, "witness", 869),
    ("edge_dfs", 3, 4, 10, "witness", 16_293),
    ("edge_dfs", 3, 4, 11, "exhausted_budget", 50_001),
    ("find_interval_t", 2, 3, 7, "infeasible", 263),
    ("find_interval_t", 2, 6, 9, "witness", 8),
    ("find_interval_t", 3, 4, 10, "witness", 1),
    ("find_interval_t", 3, 4, 11, "witness", 1),
    ("find_interval_t", 3, 6, 14, "witness", 8),
    ("find_proper_t", 2, 3, 4, "witness", 33),
    ("find_proper_t", 2, 5, 4, "witness", 105),
    ("find_proper_t", 1, 5, 2, "infeasible", 4),
]


@pytest.mark.parametrize(
    "engine, n, k, t, status, nodes",
    [
        # the start_assignment rows predate the engine column and keep their ids
        pytest.param(*row, id="-".join(map(str, row[1:] if row[0] == "start_assignment" else row)))
        for row in _PINNED_NODE_COUNTS
    ],
)
def test_start_assignment_node_counts_are_pinned(engine, n, k, t, status, nodes):
    # Node counts depend on the exact search order of each engine (edge
    # order, start ranges, branching tie rule, color order): a change to any
    # of them shows up here. edge_dfs and start_assignment, the reference
    # engine, run directly on the ring. find_interval_t lifts a quotient
    # witness first (ring(2,k) = C_k[K̄2], ring(3,6) = C6[K̄3], ring(3,4) =
    # K2[K̄6]; not over ring(2,3)'s overfull C3) and counts the quotient's
    # nodes with the ring's.
    g = ring_graph(RingParams(n, k))
    if engine in ("start_assignment", "edge_dfs"):
        got = run_engine(start_assignment if engine == "start_assignment" else engines.edge_dfs, g, t, 50_000)[:2]
    else:
        query = search.find_proper_t if engine == "find_proper_t" else find_interval_t
        outcome = query(g, t, SearchConfig(node_limit=50_000))
        got = (outcome.status, outcome.nodes_explored)
    assert got == (status, nodes)


def test_a_graph_builds_its_search_plan_once(monkeypatch):
    # the edge order, the twin keys and the first edge's rule are built per graph, not per query:
    # ring(2,3)'s five interval queries (no lift: C3 is overfull) share one plan
    built = []
    plan = engines.search_plan
    monkeypatch.setattr(engines, "search_plan", lambda g: built.append(g) or plan(g))
    g = ring_graph(RingParams(2, 3))
    profile = span_profile(g)
    assert [t for t, _ in profile.trail] == [4, 5, 6, 7, 8]
    assert built == [g]
    assert g.search_plan.color_one  # the quotient C3 = K_3: the first edge takes color 1


def test_window_assignment_needs_no_recursion_on_1024_edges():
    params = RingParams(8, 16)
    g = ring_graph(params)
    known = mirrored_staircase_coloring(params)
    pos = {v: i for i, v in enumerate(g.vertices)}
    start = [min(known.colors[e] for e in g.adjacency[v]) for v in g.vertices]
    deg = [g.degree(v) for v in g.vertices]
    # cap = t keeps the known windows admissible for the designated edge
    found, nodes = reference._assign_in_windows(g, known.t, None, 0, pos, start, deg, min(g.edges), known.t)
    assert verify(g, EdgeColoring(found, known.t)).is_interval_coloring
    assert nodes == len(g.edges) == 1_024


def test_start_enumeration_needs_no_recursion_on_1200_vertices():
    status, nodes, _ = run_engine(start_assignment, cycle(1200), 2)
    assert (status, nodes) == ("witness", 2_400)  # one start per vertex, one color per edge


def test_edge_dfs_runs_out_of_budget_instead_of_stack_on_1024_edges():
    # t = 80 on C16[K̄8] asks C16 for s = 10 colors, above its Asratian–Kamalian bound 9: the
    # quotient is not searched, and edge_dfs searches the ring on the whole budget
    g = ring_graph(RingParams(8, 16))
    outcome = find_interval_t(g, 80, SearchConfig(node_limit=20_000))
    assert (outcome.status, outcome.nodes_explored, outcome.source) == ("exhausted_budget", 20_001, "search")


def test_no_quotient_search_above_its_theorem_cap_on_1024_edges():
    # C16 is connected and bipartite with diameter 8 and degree 2, so no s above 8 * (2 - 1) + 1 = 9
    # has an interval s-coloring of it: s = 10 at t = 80, 81 and 87 is skipped without a node
    g = ring_graph(RingParams(8, 16))
    for t in (80, 81, 87):
        assert search.composition_lift(g, t, 20_000) == (None, 0), t
    outcome = find_interval_t(g, 79, SearchConfig(node_limit=20_000))  # s = 9 = W(C16), j = 7
    assert (outcome.status, outcome.nodes_explored, outcome.source) == ("witness", 1_144, "composition_lift")


def test_a_lift_answers_on_1024_edges_from_the_quotient_cycle():
    # t = 40 = 8 * 5: a 5-coloring of C16 found in 27 nodes, lifted by F_0 (a Latin square) to ring(8,16)
    g = ring_graph(RingParams(8, 16))
    outcome = find_interval_t(g, 40, SearchConfig(node_limit=5_000))
    assert (outcome.status, outcome.nodes_explored, outcome.source) == ("witness", 27, "composition_lift")
    assert verify(g, outcome.witness).is_interval_coloring


def test_a_proper_query_at_the_degree_of_a_ring_is_lifted():
    # ring(8,16) is 16-regular, so padded(g, 16) is g itself: chi' = 16 off one query, where
    # find_interval_t lifts a 2-coloring of C16, found in 16 nodes, and a search of the ring takes 1 024
    g = ring_graph(RingParams(8, 16))
    assert engines.padded(g, 16) is g
    cfg = SearchConfig(node_limit=5_000)
    assert compute_chromatic_index(g, cfg) == (16, 16)
    outcome = find_interval_t(engines.padded(g, 16), 16, cfg)
    assert (outcome.status, outcome.nodes_explored, outcome.source) == ("witness", 16, "composition_lift")
    assert verify(g, outcome.witness).is_proper


def test_proper_search_needs_no_recursion_on_1024_edges():
    # at t = 17 each of the 128 vertices gets one pendant, to a leaf of its own, so the padded graph
    # (1 152 edges) has no twins and no lift: edge_dfs searches it, one color per edge
    g = ring_graph(RingParams(8, 16))
    outcome = find_interval_t(engines.padded(g, 17), 17, SearchConfig(node_limit=5_000))
    assert (outcome.status, outcome.nodes_explored, outcome.source) == ("witness", 1_152, "search")
    assert verify(g, _on_g(g, outcome.witness)).is_proper


# ---------------------------------------------------------------------------
# span scans
# ---------------------------------------------------------------------------


def house():
    """The 4-cycle 1-2-3-4 plus a vertex 5 joined to 2 and 3: Delta = 3, 6 edges."""
    v = [Vertex(1, i) for i in range(1, 6)]
    return build_graph(5, 1, v, [(v[0], v[1]), (v[1], v[2]), (v[2], v[3]), (v[3], v[0]), (v[1], v[4]), (v[2], v[4])])


def test_least_span_small_cases():
    assert span_profile(cycle(4)).w.value == 2
    assert span_profile(ring_graph(RingParams(2, 4))).w.value == 4
    c3 = span_profile(cycle(3)).w
    assert c3.value is None
    assert c3.status == "not_interval_colorable"
    # w > Delta: a scan capped at Delta = 3 would call the house not interval-colorable
    g = house()
    profile = span_profile(g)
    assert (g.max_degree(), profile.t_max, profile.t_max_source) == (3, 6, "edges")
    assert (profile.w.value, profile.w.status) == (4, "exact")


def test_greatest_span_c4():
    # the trail stops at the cap; test_nothing_above_the_scan_cap_is_feasible refutes every t above it
    profile = span_profile(cycle(4))
    assert profile.W.value == 3
    assert profile.W.status == "exact"
    assert profile.trail == ((2, "witness"), (3, "witness"))


def test_greatest_span_c6():
    profile = span_profile(cycle(6))
    assert profile.W.value == 4
    assert profile.W.status == "exact"
    assert profile.trail == ((2, "witness"), (3, "witness"), (4, "witness"))


def test_greatest_span_c4_default_cap_is_the_theorem_bound():
    profile = span_profile(cycle(4))
    assert profile.W.value == 3
    assert profile.W.status == "exact"
    assert (profile.t_max, profile.t_max_source) == (3, "asratian_kamalian_bipartite")
    assert profile.trail == ((2, "witness"), (3, "witness"))
    # a single query never cites the theorem: t=4 is still refuted by search
    assert find_interval_t(cycle(4), 4).nodes_explored > 0


def test_span_profile_of_ring_2_4_asks_four_queries(monkeypatch):
    asked = []
    original = search.find_interval_t

    def counting(g, t, cfg=None):
        asked.append(t)
        return original(g, t, cfg)

    monkeypatch.setattr(search, "find_interval_t", counting)
    shape = vars(Graph)["diameter_and_bipartite"]  # the BFS behind the scan cap
    bfs, shapes = shape.func, []
    monkeypatch.setattr(shape, "func", lambda g: shapes.append(g) or bfs(g))
    g = ring_graph(RingParams(2, 4))
    profile = span_profile(g)
    assert asked == [4, 5, 6, 7]
    assert shapes == [g, g.composition.quotient]  # one BFS for the profile's cap, one for the lift's K_2
    assert [t for t, _ in profile.trail] == asked
    assert (profile.w.value, profile.w.status) == (4, "exact")
    assert (profile.W.value, profile.W.status) == (7, "exact")
    assert (profile.t_max, profile.t_max_source) == (7, "asratian_kamalian_bipartite")
    assert profile.continuity_status == "ok"
    # every query of the cell is one of the four interval queries: chi' is read off t = 4
    assert profile.chi_prime == 4
    assert profile.nodes_explored == profile.w.nodes_explored + (
        profile.W.nodes_explored + sum(original(g, t).nodes_explored for t in (5, 6))
    )


@pytest.mark.parametrize("k, W, cap", [(5, 7, 10), (6, 9, 10), (7, 9, 13), (8, 11, 13)])
def test_greatest_span_of_ring_2_k_by_exhaustion(k, W, cap):
    # the paper states none of these: every t above W up to the Asratian–Kamalian cap is refuted
    # (ring(2,8) at t = 12, about 1 M nodes, is the largest). For even k, W meets the paper's lower
    # bound 2n + nk/2 - 1; for k = 5 and 7 it falls one short of that value
    profile = span_profile(ring_graph(RingParams(2, k)))
    assert (profile.w.value, profile.w.status) == (4, "exact")
    assert (profile.W.value, profile.W.status, profile.t_max) == (W, "exact", cap)
    assert profile.continuity_status == "ok"


def test_scan_views_count_exactly_the_queries_they_make(monkeypatch):
    made = []
    original = search.find_interval_t

    def recording(g, t, cfg=None):
        outcome = original(g, t, cfg)
        made.append((t, outcome.nodes_explored))
        return outcome

    monkeypatch.setattr(search, "find_interval_t", recording)
    g = ring_graph(RingParams(2, 3))
    for view in (search.compute_w, search.compute_W):
        made.clear()
        assert view(g).nodes_explored == sum(nodes for _, nodes in made)
    made.clear()
    profile = span_profile(g)
    assert profile.continuity == ((4, "witness"), (5, "witness"), (6, "witness"))
    asked = [t for t, _ in made]
    assert sorted(asked) == sorted(set(asked)), "span_profile asked some t twice"
    assert profile.nodes_explored == sum(nodes for _, nodes in made)  # chi' = 4 is read off t = 4
    assert profile.chi_prime == 4


@given(g=small_graphs(), limit=st.none() | st.integers(1, 300))
@example(g=house(), limit=None)  # w = 4 > Delta = 3
@settings(max_examples=80, deadline=None)
def test_span_profile_reads_what_the_scans_report(g, limit):
    # one ascending pass over [max degree, cap] yields the same reports, node counts included, as
    # the scans that stop early, and holds scan_cap's cap and the continuity prefix of its trail;
    # budgets from 1 to 300 nodes put cuts below, between and above witnesses
    cfg = SearchConfig(node_limit=limit)
    profile = span_profile(g, cfg)
    assert profile.w == search.compute_w(g, cfg)
    assert profile.W == search.compute_W(g, cfg)
    assert (profile.t_max, profile.t_max_source) == scan_cap(g)
    assert [t for t, _ in profile.trail] == list(range(max(1, g.max_degree()), profile.t_max + 1))
    if profile.w.value is not None and profile.W.value is not None:
        assert profile.continuity == profile.trail[:profile.W.value - profile.trail[0][0] + 1]
        assert profile.continuity == tuple(search.continuity_scan(g, cfg, t_hi=profile.W.value))
    else:
        assert profile.continuity is None


def test_scan_cap_sources():
    g = cycle(4)
    assert scan_cap(g) == (3, "asratian_kamalian_bipartite")
    assert scan_cap(cycle(3)) == (0, "overfull")  # 3 edges, 1 per matching: no t is asked
    assert scan_cap(ring_graph(RingParams(3, 3))) == (0, "overfull")  # nk odd: 27 edges > 6 * 4
    assert scan_cap(ring_graph(RingParams(2, 3))) == (8, "giaro_kubale_malafiejski")  # below AK's 10
    assert scan_cap(path(3)) == (2, "edges")  # 2|V| - 4 ties |E|: no theorem needed
    two_paths = build_graph(1, 4, [Vertex(i, 1) for i in range(1, 5)],
                            [(Vertex(1, 1), Vertex(2, 1)), (Vertex(3, 1), Vertex(4, 1))])
    assert scan_cap(two_paths) == (2, "edges")  # disconnected: the theorem does not apply
    triangles = build_graph(3, 3, [Vertex(layer, i) for layer in (1, 2, 3) for i in (1, 2, 3)],
                            [(Vertex(a, i), Vertex(b, i)) for i in (1, 2, 3) for a, b in ((1, 2), (2, 3), (1, 3))])
    assert triangles.diameter_and_bipartite is None
    assert scan_cap(triangles) == (0, "overfull")  # 9 edges > 2 * floor(9 / 2): no theorem on W needed


def _cap_corpus():
    graphs = [(f"C{k}", cycle(k)) for k in range(3, 9)]
    graphs += [(f"K{n},{n}", complete_bipartite(n)) for n in (1, 2, 3, 4)]
    graphs += [(f"ring(2,{k})", ring_graph(RingParams(2, k))) for k in (3, 4)]
    graphs += [(f"P{n}", path(n)) for n in (3, 4, 5)]  # 2|V| - 4 = W on P3: the theorem cap is tight
    return graphs


def _feasible_above_the_scan_cap(g):
    """The first (t, engine) above ``scan_cap(g)`` that is not refuted, or None. The worst
    refutation takes 100 212 nodes (ring(2,4), t = 9); the budget turns a runaway search
    into a failure instead of a hang."""
    budget = SearchConfig(node_limit=1_000_000)
    cap, _ = scan_cap(g)
    for t in range(cap + 1, len(g.edges) + 1):
        if find_interval_t(g, t, budget).status != "infeasible":
            return t, "edge_dfs"
        # start_assignment needs about 11 s per 16-edge graph (K4,4 and ring(2,4), which are
        # isomorphic); edge_dfs alone covers those
        if len(g.edges) < 16 and run_engine(start_assignment, g, t)[0] != "infeasible":
            return t, "start_assignment"
    return None


def test_nothing_above_the_scan_cap_is_feasible():
    # guards the cited theorems: a mis-stated bound shows up as a witness here. C3, C5 and C7
    # are overfull, so every t of theirs is exhausted
    for label, g in _cap_corpus():
        assert _feasible_above_the_scan_cap(g) is None, label


def test_the_cap_guard_catches_a_mis_stated_overfull_rule(monkeypatch):
    # >= in place of >: C4 (4 edges, 2 matchings of 2) would pass for overfull and get cap 0,
    # yet it has an interval 2-coloring
    monkeypatch.setattr(search, "overfull", lambda g: len(g.edges) >= g.max_degree() * (len(g.vertices) // 2))
    assert scan_cap(cycle(4)) == (0, "overfull")
    assert _feasible_above_the_scan_cap(cycle(4)) == (2, "edge_dfs")


def petersen():
    """The Petersen graph: 3-regular, 10 vertices, 15 edges, so not overfull, and chi' = 4."""
    outer, inner = ([Vertex(layer, i) for i in range(1, 6)] for layer in (1, 2))
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)] + [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    return build_graph(5, 2, outer + inner, edges + list(zip(outer, inner)))


def _queries_on_other_graphs(monkeypatch, g):
    """(graph, t, outcome) of every ``find_interval_t`` call the search module
    makes on a graph other than g: the chi' query of a graph that is not its
    own padding at Delta."""
    made = []
    original = search.find_interval_t

    def counting(h, t, cfg=None):
        outcome = original(h, t, cfg)
        if h is not g:
            made.append((h, t, outcome))
        return outcome

    monkeypatch.setattr(search, "find_interval_t", counting)
    return made


def test_chromatic_index_small_cases():
    assert compute_chromatic_index(cycle(3)) == (3, 0)  # overfull: Delta + 1 with no query
    assert compute_chromatic_index(cycle(4)) == (2, 1)  # regular: the interval query at Delta
    assert compute_chromatic_index(complete_bipartite(3)) == (3, 1)  # K2[K̄3]: one lifted node
    assert compute_chromatic_index(path(3))[0] == 2  # not regular: the query on padded(g, Delta)
    assert compute_chromatic_index(petersen()) == (4, 154)  # regular, and infeasible at Delta = 3
    assert compute_chromatic_index(build_graph(1, 1, [Vertex(1, 1)], [])) == (0, 0)


@pytest.mark.parametrize("label, g, chi", [
    ("C3", cycle(3), 3), ("C4", cycle(4), 2), ("K3,3", complete_bipartite(3), 3),
    ("ring(2,4)", ring_graph(RingParams(2, 4)), 4), ("Petersen", petersen(), 4),
])
def test_span_profile_settles_the_chromatic_index(monkeypatch, label, g, chi):
    # chi' of an overfull graph is Delta + 1 by theorem, and a regular one is its own padding at Delta,
    # so chi' is read off the profile's own query at t = Delta (infeasible on the Petersen graph): no
    # query on another graph, no node twice
    made = _queries_on_other_graphs(monkeypatch, g)
    profile = span_profile(g)
    assert (profile.chi_prime, made) == (chi, [])
    assert profile.settled
    assert profile.nodes_explored == sum(find_interval_t(g, t).nodes_explored for t, _ in profile.trail)


def test_span_profile_of_a_path_asks_one_query_on_its_padding(monkeypatch):
    # a path is not overfull, and its ends need a pendant each at Delta = 2: chi' = 2 comes from one
    # query on padded(path, 2), beside the profile's own queries on the path
    g = path(4)
    made = _queries_on_other_graphs(monkeypatch, g)
    profile = span_profile(g)
    assert profile.chi_prime == 2
    assert [(h, t, o.status) for h, t, o in made] == [(engines.padded(g, 2), 2, "witness")]
    interval = sum(find_interval_t(g, t).nodes_explored for t, _ in profile.trail)
    assert profile.nodes_explored == interval + made[0][2].nodes_explored


def test_a_graph_that_is_its_own_padding_reads_chi_off_its_own_query(monkeypatch):
    # padded(g, Delta) is g itself when no vertex needs a pendant, and an isolated vertex takes none:
    # C4 plus an isolated vertex is not regular, yet chi' = 2 is read off the profile's t = 2 query
    c4 = cycle(4)
    g = build_graph(1, 5, [*c4.vertices, Vertex(5, 1)], c4.edges)
    assert engines.padded(c4, 2) is c4 and engines.padded(g, 2) is g
    made = _queries_on_other_graphs(monkeypatch, g)
    profile = span_profile(g)
    assert (profile.chi_prime, made) == (2, [])
    assert profile.nodes_explored == sum(find_interval_t(g, t).nodes_explored for t, _ in profile.trail)


def test_chi_prime_of_a_graph_with_no_interval_delta_coloring_asks_the_padding():
    # vertices 1..5, edges 12, 13, 14, 23, 25, 45: Delta = 3 at vertices 1 and 2 only, 6 edges, so
    # neither regular nor overfull. A proper 3-coloring exists but no interval one, so reading the
    # profile's own t = 3 answer would give chi' = 4
    v = [Vertex(1, i) for i in range(1, 6)]
    g = build_graph(5, 1, v, [(v[a - 1], v[b - 1]) for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 5))])
    assert (g.max_degree(), composition.overfull(g), find_interval_t(g, 3).status) == (3, False, "infeasible")
    assert span_profile(g).chi_prime == compute_chromatic_index(g)[0] == reference.chromatic_index(g, 10_000) == 3


@given(g=small_graphs())
@settings(max_examples=100, deadline=None, database=None)
@seed(SEED)
def test_chromatic_index_matches_two_proper_queries(g):
    # the reference asks proper_dfs at Delta, then at Delta + 1, with no theorem
    want = reference.chromatic_index(g, 20_000)
    value, _ = compute_chromatic_index(g)
    assert value is not None  # with no budget the one query always decides
    if want is not None:
        assert value == want


def test_proper_coloring_search_statuses():
    # C5 is its own padding at 2 and an odd cycle: no proper 2-coloring, a proper 3-coloring
    g = cycle(5)
    assert _padded_statuses_agree(g, 2, None).status == "infeasible"
    assert _padded_statuses_agree(g, 3, None).status == "witness"


def test_continuity_scan_results():
    assert span_profile(cycle(4)).continuity == ((2, "witness"), (3, "witness"))
    assert span_profile(cycle(6)).continuity == ((2, "witness"), (3, "witness"), (4, "witness"))
    assert span_profile(cycle(3)).continuity is None


def test_engine_witness_is_reverified(monkeypatch):
    g = cycle(6)  # no twins, so no lift: edge_dfs answers
    bad = {e: 1 for e in g.edges}
    monkeypatch.setattr(search, "edge_dfs", lambda g, t, limit: (dict(bad), 1))
    with pytest.raises(SoundnessError):
        find_interval_t(g, 2)
    monkeypatch.undo()
    # find_proper_t re-checks the part on g of the witness find_interval_t gives for padded(g, 3): all
    # the pendants are dropped, and whatever else is there must be a proper coloring of g
    one_color = lambda h, t, cfg=None: search.SearchOutcome("witness", EdgeColoring({e: 1 for e in h.edges}, t), 1)
    chord = make_edge(Vertex(1, 1), Vertex(4, 1))
    stray = build_graph(1, 6, g.vertices, g.edges + (chord,))  # g plus a chord, padded in its place
    other = lambda h, t, cfg=None: find_interval_t(engines.padded(stray, t), t, cfg)
    for fake in (one_color, other):  # an improper part on g; a part with an edge g does not have
        monkeypatch.setattr(search, "find_interval_t", fake)
        with pytest.raises(SoundnessError):
            search.find_proper_t(g, 3)


def test_continuity_scan_with_explicit_top():
    scan = search.continuity_scan(ring_graph(RingParams(2, 4)), t_hi=7)
    assert scan == [(4, "witness"), (5, "witness"), (6, "witness"), (7, "witness")]


# ---------------------------------------------------------------------------
# composition lift
# ---------------------------------------------------------------------------


def test_block_tables_are_symmetric_runs_covering_n_plus_j_colors():
    for n in range(1, 16):
        for j in range(n):
            table = composition.block_table(n, j)
            for p, row in enumerate(table, 1):
                start = min(p, j + 1)
                assert sorted(row) == list(range(start, start + n)), (n, j, p)
                assert row == tuple(table[q - 1][p - 1] for q in range(1, n + 1)), (n, j, p)
            assert {c for row in table for c in row} == set(range(1, n + j + 1)), (n, j)
        # at j = 0 every row is 1..n, a Latin square; at j = n - 1 the table is the staircase p + q - 1
        staircase = tuple(tuple(p + q - 1 for q in range(1, n + 1)) for p in range(1, n + 1))
        assert composition.block_table(n, n - 1) == staircase


def _table_id(size, j):
    """The id of F_j among size x size tables: its ends keep the names of the Latin and staircase blocks."""
    return {0: "latin_color", size - 1: "staircase_color"}.get(j, f"F_{j}")


@pytest.mark.parametrize("n, k, t, s, j", [
    pytest.param(n, k, t, s, j, id=f"{n}-{k}-{t}-{s}-{_table_id(2 * n if k == 4 else n, j)}")
    for n, k, t, s, j in [
        (2, 6, 8, 4, 0),  # C6[K̄2]
        (2, 6, 9, 4, 1),
        (3, 6, 9, 3, 0),  # C6[K̄3]
        (3, 6, 14, 4, 2),
        (3, 6, 7, 2, 1),
        (3, 6, 10, 3, 1),
        (3, 6, 13, 4, 1),
        (3, 4, 6, 1, 0),  # ring(3,4) = K_{6,6} = K2[K̄6]
        (3, 4, 11, 1, 5),
        (3, 4, 7, 1, 1),
        (3, 4, 8, 1, 2),
        (3, 4, 9, 1, 3),
        (3, 4, 10, 1, 4),
    ]
])
def test_lifted_witnesses_are_the_formulas_over_a_quotient_witness(n, k, t, s, j):
    g = ring_graph(RingParams(n, k))
    assert divmod(t, g.composition.n) == (s, j)
    alpha, nodes = engines.edge_dfs(g.composition.quotient, s, None)
    outcome = find_interval_t(g, t)
    assert (outcome.status, outcome.source, outcome.nodes_explored) == ("witness", "composition_lift", nodes)
    assert dict(outcome.witness.colors) == reference.lifted_colors(g, reference.twin_positions(g), alpha, g.composition.n, j)
    assert verify(g, outcome.witness).is_interval_coloring


def test_no_lift_below_one_quotient_color_or_over_an_overfull_quotient():
    assert search.composition_lift(ring_graph(RingParams(3, 6)), 2, None) == (None, 0)  # s = 0
    # C3 is overfull (3 edges, 1 per matching): ring(2,3) = C3[K̄2] never searches its quotient
    g = ring_graph(RingParams(2, 3))
    assert composition.overfull(g.composition.quotient)
    assert all(search.composition_lift(g, t, None) == (None, 0) for t in range(1, len(g.edges) + 1))
    assert not composition.overfull(cycle(4))  # even cycles have interval colorings


def test_the_quotient_of_a_composition():
    h, n, classes = ring_graph(RingParams(3, 6)).composition
    assert (n, h.vertices) == (3, tuple(Vertex(layer, 1) for layer in range(1, 7)))
    assert h.edges == cycle(6).edges  # one vertex per layer, labelled by its smallest member
    assert list(classes) == list(h.vertices)
    assert classes[Vertex(4, 1)] == (Vertex(4, 1), Vertex(4, 2), Vertex(4, 3))
    h, n, _ = complete_bipartite(4).composition
    assert (n, len(h.vertices), len(h.edges)) == (4, 2, 1)
    assert cycle(6).composition is None  # every class is a single vertex
    assert path(3).composition is None  # classes of 2 and 1


def _ring_2_3_beside_a_square():
    """(C3 + K2)[K̄2]: ring(2,3) with a disjoint K_{2,2} on layers 4 and 5. The quotient is not
    overfull (4 edges, 2 matchings of 2), yet its C3 has no interval coloring at any s."""
    ring = ring_graph(RingParams(2, 3))
    square = [Vertex(layer, i) for layer in (4, 5) for i in (1, 2)]
    edges = [tuple(e) for e in ring.edges] + [(a, b) for a in square[:2] for b in square[2:]]
    return build_graph(2, 5, ring.vertices + tuple(square), edges)


def test_no_lifted_witness_falls_back_to_the_search_with_the_budget_left():
    g = _ring_2_3_beside_a_square()
    lift_nodes = search.composition_lift(g, 6, None)[1]
    assert lift_nodes == 5
    plain = run_engine(engines.edge_dfs, g, 6)
    outcome = find_interval_t(g, 6)
    assert (outcome.status, outcome.source) == ("witness", "search")
    assert outcome.nodes_explored == lift_nodes + plain[1]
    assert outcome.witness.colors == plain[2].colors
    # a limit the quotient uses up exactly leaves the search one node: the first over the limit
    spent = find_interval_t(g, 6, SearchConfig(node_limit=lift_nodes))
    assert (spent.status, spent.nodes_explored, spent.source) == ("exhausted_budget", lift_nodes + 1, "search")
    # a limit the quotient's own search runs into ends the query there
    ring = ring_graph(RingParams(2, 8))
    cut = find_interval_t(ring, 10, SearchConfig(node_limit=5))
    assert (cut.status, cut.nodes_explored, cut.source) == ("exhausted_budget", 6, "composition_lift")


def _first_row_shifted(table, by):
    return (tuple(c + by for c in table[0]), *table[1:])


_TABLE = composition.block_table  # the mutants below wrap the real table while it is patched


# "latin_color" runs the mutant at j = 0 (t = 8 on C6[K̄2]), "staircase_color" at j = n - 1 (t = 9)
@pytest.mark.parametrize("end, mutant", [
    ("latin_color", lambda n, j: _TABLE(n, j + 1)),  # min(p, j + 2) in place of min(p, j + 1)
    ("latin_color", lambda n, j: _first_row_shifted(_TABLE(n, j), 1)),
    ("staircase_color", lambda n, j: _first_row_shifted(_TABLE(n, j), 1)),
    ("staircase_color", lambda n, j: _first_row_shifted(_TABLE(n, j), -1)),
])
def test_a_mis_stated_lift_raises_soundness_error(monkeypatch, end, mutant):
    g = ring_graph(RingParams(2, 6))
    t = 8 if end == "latin_color" else 9
    assert find_interval_t(g, t).source == "composition_lift"  # g's lift plan and the true table are now cached
    assert g.lift_plan is not None
    monkeypatch.setattr(search, "block_table", mutant)
    with pytest.raises(SoundnessError, match="composition_lift"):
        find_interval_t(g, t)


@given(composed=compositions(), data=st.data())
@settings(max_examples=60, deadline=None, database=None)
@seed(SEED)
def test_lift_is_the_block_rule_edge_by_edge_for_every_table(composed, data):
    _, _, g = composed
    if g.composition is None:  # a quotient with twins of its own can leave classes of unequal size
        return
    h, n, classes = g.composition
    alpha = {e: data.draw(st.integers(1, 4)) for e in h.edges}  # any coloring: the rule needs no interval
    for j in range(n):
        lifted = composition.lift(g.edges, classes, alpha, composition.block_table(n, j))
        assert lifted == reference.lifted_colors(g, reference.twin_positions(g), alpha, n, j), j
        # the plan g keeps for its queries gives the same colors
        assert composition.lift(g.edges, classes, alpha, composition.block_table(n, j), g.lift_plan) == lifted, j


def test_a_lift_colors_the_callers_own_edges_in_their_order():
    g = ring_graph(RingParams(3, 6))
    h, n, classes = g.composition
    alpha, _ = engines.edge_dfs(h, 4, None)
    for plan in (None, g.lift_plan):
        lifted = composition.lift(g.edges, classes, alpha, composition.block_table(n, 1), plan)
        assert len(lifted) == len(g.edges) and all(a is b for a, b in zip(lifted, g.edges))
    witness = find_interval_t(g, 13).witness
    assert witness is not None and all(a is b for a, b in zip(witness.colors, g.edges))


def test_an_edge_outside_the_blocks_over_alpha_raises_soundness_error():
    g = ring_graph(RingParams(2, 6))
    h, n, classes = g.composition
    table = composition.block_table(n, 0)
    alpha = dict.fromkeys(h.edges, 1)
    dropped = h.edges[2]
    del alpha[dropped]
    of = {x: u for u, members in classes.items() for x in members}
    first = next(e for e in g.edges if {of[e.u], of[e.v]} == set(dropped))  # the first edge in dropped's block
    for plan in (None, g.lift_plan):
        with pytest.raises(SoundnessError, match=f"edge {re.escape(str(first))} lies in no block over alpha"):
            composition.lift(g.edges, classes, alpha, table, plan)
    twins = make_edge(Vertex(1, 1), Vertex(1, 2))  # both ends in one class: no block holds it
    with pytest.raises(SoundnessError, match="lies in no block over alpha"):
        composition.lift([twins], classes, dict.fromkeys(h.edges, 1), table)
    stray = make_edge(Vertex(1, 1), Vertex(7, 1))  # an end in no class
    with pytest.raises(SoundnessError, match="has an end in no class"):
        composition.lift([stray], classes, dict.fromkeys(h.edges, 1), table)


def test_block_tables_are_memoized():
    assert composition.block_table(5, 2) is composition.block_table(5, 2)
    assert composition.block_table(5, 2) is not composition.block_table(5, 3)


@given(composed=compositions(max_quotient_edges=10))
@settings(max_examples=100, deadline=None, database=None)
@seed(SEED)
def test_no_connected_quotient_has_a_span_above_its_theorem_cap(composed):
    # the rule composition_lift uses to skip a quotient search, checked by exhausting the quotient
    _, _, g = composed
    h = None if g.composition is None else g.composition.quotient
    if h is None or h.diameter_and_bipartite is None:
        return
    for s in range(scan_cap(h)[0] + 1, len(h.edges) + 1):
        assert engines.edge_dfs(h, s, None)[0] is None, s


@given(composed=compositions())
@settings(max_examples=60, deadline=None, database=None)
@seed(SEED)
def test_lifted_queries_agree_with_plain_search_on_compositions(composed):
    # covers disconnected quotients and isolated vertices; a quotient with twins of its own merges
    # classes, so the lift may apply with a larger n or not at all
    h, n, g = composed
    if h.vertices and len(h.twin_classes) == len(h.vertices):  # H has no twins: its copies are G's classes
        assert (g.composition.n, len(g.composition.quotient.edges)) == (n, len(h.edges))
    for t in range(1, len(g.edges) + 1):
        found, nodes = engines.edge_dfs(g, t, 2_000)
        if nodes > 2_000:  # undecided by plain search: a lift may still find a witness
            outcome = find_interval_t(g, t, SearchConfig(node_limit=2_000))
        else:
            outcome = find_interval_t(g, t)
            assert outcome.status == ("infeasible" if found is None else "witness"), t
            if outcome.source == "search":
                assert outcome.nodes_explored == search.composition_lift(g, t, None)[1] + nodes, t
        if outcome.status == "witness":
            assert verify(g, outcome.witness).is_interval_coloring, t


# ---------------------------------------------------------------------------
# determinism, budgets and agreement with the reference engine
# ---------------------------------------------------------------------------


def test_queries_are_deterministic():
    g = ring_graph(RingParams(2, 4))
    a = find_interval_t(g, 7)
    b = find_interval_t(g, 7)
    assert a.nodes_explored == b.nodes_explored
    assert a.witness.colors == b.witness.colors


@given(k=st.integers(3, 7), t=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_edge_dfs_and_start_assignment_agree_on_cycles(k, t):
    g = cycle(k)
    assert find_interval_t(g, t).status == run_engine(start_assignment, g, t)[0]


@given(n=st.integers(1, 3), t=st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_edge_dfs_and_start_assignment_agree_on_complete_bipartite(n, t):
    g = complete_bipartite(n)
    assert find_interval_t(g, t).status == run_engine(start_assignment, g, t)[0]


def test_oracle_matches_formulas_on_even_product_grid():
    for n in (1, 2):
        for k in range(3, 7):
            if (n * k) % 2:
                continue
            params = RingParams(n, k)
            g = ring_graph(params)
            w = span_profile(g).w
            assert w.value == 2 * n and w.status == "exact"
            assert compute_chromatic_index(g)[0] == ring_chromatic_index(params)


def test_known_bipartite_span_extremes():
    # K_{n,n} spans exactly n .. 2n-1; check the edges of that window at n=3
    g = complete_bipartite(3)
    assert find_interval_t(g, 2).status == "infeasible"
    assert find_interval_t(g, 3).status == "witness"
    assert find_interval_t(g, 5).status == "witness"
    assert find_interval_t(g, 6).status == "infeasible"


def _quadratic_edge_order(g):
    """Reference for connected_edge_order: rescans every remaining edge per step."""
    remaining = set(g.edges)
    covered = set()
    order = []
    while remaining:
        touching = [e for e in remaining if e.u in covered or e.v in covered]
        e = min(touching) if touching else min(remaining)
        order.append(e)
        remaining.remove(e)
        covered.add(e.u)
        covered.add(e.v)
    return order


@given(g=small_graphs(max_edges=66))
@settings(max_examples=200, deadline=None)
def test_connected_edge_order_matches_the_reference(g):
    assert engines.connected_edge_order(g) == _quadratic_edge_order(g)


@given(g=small_graphs(max_edges=12))
@settings(max_examples=100, deadline=None, database=None)
@seed(SEED)
def test_engines_agree_on_small_graphs(g):
    # covers disconnected graphs and isolated vertices
    for t in range(1, len(g.edges) + 1):
        statuses = {
            find_interval_t(g, t, SearchConfig(node_limit=20_000)).status,
            run_engine(start_assignment, g, t, 20_000)[0],
        }
        assert len(statuses - {"exhausted_budget"}) <= 1, (t, statuses)
    # Vizing: max degree + 1 colors always suffice for a simple graph (and |E| colors always do)
    if g.edges:
        assert _padded_statuses_agree(g, min(g.max_degree() + 1, len(g.edges)), None).status == "witness"


def _overfull(g):
    return len(g.edges) > g.max_degree() * (len(g.vertices) // 2)


@given(g=small_graphs(max_edges=12).filter(_overfull))
@settings(max_examples=60, deadline=None, database=None)
@seed(SEED)
def test_overfull_graphs_have_no_interval_coloring(g):
    # the rule behind scan_cap's cap 0: chi' = Delta + 1 on an overfull graph, and an interval
    # coloring taken mod Delta would be a proper Delta-coloring
    assert composition.overfull(g)
    for t in range(1, len(g.edges) + 1):
        found, nodes = engines.edge_dfs(g, t, 20_000)
        if nodes <= 20_000:
            assert found is None, t


@given(g=small_graphs(max_edges=12), limit=st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_more_budget_never_flips_a_definite_answer(g, limit):
    for t in range(1, len(g.edges) + 1):
        first = find_interval_t(g, t, SearchConfig(node_limit=limit))
        if first.status == "exhausted_budget":
            continue
        for cfg in (SearchConfig(node_limit=4 * limit), SearchConfig()):
            again = find_interval_t(g, t, cfg)
            assert (again.status, again.nodes_explored) == (first.status, first.nodes_explored), (t, limit)


def _on_g(g, witness):
    """A coloring of a padding of g without its pendants: the part on g's edges, at the same t."""
    return EdgeColoring({e: c for e, c in witness.colors.items() if e in g.edge_set}, witness.t)


def _padded_statuses_agree(g, t, limit):
    """``find_interval_t`` on ``engines.padded(g, t)`` and the plain proper
    search in tests/reference.py give the same status unless a budget cuts
    either, and every witness's part on g is proper. Returns the padded query."""
    outcome = find_interval_t(engines.padded(g, t), t, SearchConfig(node_limit=limit))
    found, nodes = reference.proper_dfs(g, t, limit)
    if found is not None:
        assert verify(g, EdgeColoring(found, t)).is_proper, t
    if outcome.status == "exhausted_budget" or (limit is not None and nodes > limit):
        return outcome
    assert outcome.status == ("infeasible" if found is None else "witness"), t
    if found is not None:
        assert verify(g, _on_g(g, outcome.witness)).is_proper, t
    return outcome


@given(g=small_graphs(max_edges=12), limit=st.none() | st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_dfs_engines_match_their_plain_references(g, limit):
    # edge_dfs: same outcome, same node count (the first over-budget node
    # included) and the same witness items in the same order, at every t up
    # to |E| + 1 (the first t whose palette cannot be covered). A padded
    # query, at every t in [Delta, |E|], is held to the plain proper search by
    # status only.
    for t in range(1, len(g.edges) + 2):
        assert reference.trace(engines.edge_dfs, g, t, limit) == reference.trace(reference.edge_dfs, g, t, limit), t
        if g.max_degree() <= t <= len(g.edges):
            _padded_statuses_agree(g, t, limit)


def _p4_with_its_middle_edge_first():
    """P_4 a-b-c-d labelled so that b-c is the least edge. Its interval
    3-colorings put color 2 on b-c, so a search that forced color 1 onto the
    first edge here would call it infeasible."""
    b, c, a, d = Vertex(1, 1), Vertex(1, 2), Vertex(2, 1), Vertex(2, 2)
    return build_graph(2, 2, [a, b, c, d], [(b, c), (a, b), (c, d)])


def _wagner_graph():
    """The Möbius ladder on 8 vertices, labelled around its rim: 3-regular and
    vertex-transitive, but no automorphism maps a rim edge to a spoke. Its
    interval 6-colorings carry color 1 on spokes only, never on the rim edge
    that sorts first, so a search that forced color 1 onto the first edge of
    every regular graph would call t = 6 infeasible."""
    rim = [Vertex(1, i) for i in range(1, 9)]
    return build_graph(8, 1, rim, [(rim[i], rim[(i + 1) % 8]) for i in range(8)] + [(rim[i], rim[i + 4]) for i in range(4)])


@given(g=st.one_of(
    small_graphs(max_edges=12),
    compositions().map(lambda composed: composed[2]),
    st.tuples(small_graphs(max_edges=8), st.integers(0, 2)).map(lambda p: engines.padded(p[0], p[0].max_degree() + p[1])),
))
@example(g=_p4_with_its_middle_edge_first())
@example(g=_wagner_graph())
@settings(max_examples=150, deadline=None, database=None)
@seed(SEED)
def test_symmetry_rules_keep_the_status_of_the_unkeyed_search(g):
    # the twin keys and the first edge's color 1 or reflection cap cut only colorings that an
    # automorphism or the reflection maps into the space still searched: wherever both searches
    # decide within the budget, edge_dfs reaches the status of the search with the reflection cap alone
    for t in range(1, len(g.edges) + 2):
        found, nodes = engines.edge_dfs(g, t, 1_000)
        plain, plain_nodes = reference.unkeyed_edge_dfs(g, t, 1_000)
        if nodes <= 1_000 and plain_nodes <= 1_000:
            assert (found is None) == (plain is None), t


@given(g=small_graphs(max_edges=12))
@settings(max_examples=300, deadline=None, database=None)
@seed(SEED)
def test_proper_queries_agree_with_the_plain_proper_search(g):
    # unbudgeted, at every t in [Delta, |E|]: a proper t-coloring of g is an
    # interval t-coloring of padded(g, t), read back on g's edges
    for t in range(max(g.max_degree(), 1), len(g.edges) + 1):
        _padded_statuses_agree(g, t, None)


@given(g=small_graphs(max_edges=12), t=st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_padding_gives_every_vertex_of_g_degree_t(g, t):
    t = max(t, g.max_degree())
    p = engines.padded(g, t)
    assert [e for e in p.edges if e in g.edge_set] == list(g.edges)
    for v in g.vertices:
        assert p.degree(v) == (t if g.degree(v) else 0), v
    assert all(p.degree(v) == 1 for v in p.vertices if v not in g.adjacency)


def test_a_proper_query_far_above_the_edge_count_searches_at_the_edge_count():
    # no proper coloring needs more than |E| colors: C4 at t = 20 000 is padded to degree 4, not 20 000
    outcome = search.find_proper_t(cycle(4), 20_000)
    assert (outcome.status, outcome.witness.t) == ("witness", 20_000)
    assert max(outcome.witness.colors.values()) <= 4
    assert verify(cycle(4), outcome.witness).is_proper


@pytest.mark.extended
def test_dfs_engines_match_their_plain_references_on_the_desk_corpus():
    graphs = [cycle(k) for k in range(3, 9)] + [complete_bipartite(n) for n in (1, 2, 3, 4)]
    graphs += [ring_graph(RingParams(n, k)) for n, k in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 6), (2, 8))]
    for g in graphs:
        for t in range(1, min(len(g.edges), 18) + 1):
            assert reference.trace(engines.edge_dfs, g, t, 60_000) == reference.trace(reference.edge_dfs, g, t, 60_000), t
        for t in (g.max_degree(), g.max_degree() + 1):
            if t <= len(g.edges):
                _padded_statuses_agree(g, t, 60_000)
