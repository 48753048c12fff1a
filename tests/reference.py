"""Straightforward references that the tests hold the fast code to.

``start_assignment`` is the independent engine that the tests check
``edge_dfs`` against; nothing in the package runs it. It enumerates, per
vertex in BFS order, the lowest color of its spectrum, one admissible range
per vertex (earlier neighbours' windows must overlap its own; the designated
edge obeys the reflection cap), then decides an exact assignment of each
edge to a color in both endpoints' windows by fewest-options-first
backtracking on index arrays and int bitmasks. ``ringcol.graphs.build_graph``
must match the plain ``build_graph`` here, which makes a new ``Vertex`` for
every label and endpoint, checks every one of them for two ``int`` entries
(a float or bool equal to an integer label included), and validates in the
same order with the same messages. It builds its own adjacency lists too
and holds ``Graph.adjacency``, which the library builds on first read, to
them. ``ringcol.io.coloring_from_dict`` must match the plain
``coloring_from_dict`` in the same way.

``edge_dfs`` is the plain form of ``ringcol.engines.edge_dfs``, which the
fast one must match node for node: per-vertex used colors with the spread
window recomputed from the lowest and highest used color at each depth,
and ``bit_count`` for the coverage prune.
Its symmetry rules are read off their definitions: each twin key is checked
against every key edge of its class colored so far (``twin_keys``), and the
first edge takes color 1 when ``cycle_or_complete_quotient`` holds, else at
most ceil(t/2). ``unkeyed_edge_dfs`` is the same loop with the reflection
cap alone, the search before the keys and color 1: ``edge_dfs`` must reach
its status wherever both decide.

``proper_dfs`` is the independent reference for ``ringcol.engines.padded``
and for chi', a search the package no longer runs: it colors g's own edges,
scanning colors with ``range``, and breaks the permutation symmetry of color
classes by opening color c + 1 only once colors 1..c are used. g has a
proper t-coloring exactly when ``find_interval_t`` finds an interval
t-coloring of ``padded(g, t)`` (lifted where the padding is a composition),
so the two agree on every status, not on node counts.

``chromatic_index`` is chi' by that proper search alone, at the maximum
degree and one above it, with no theorem: the reference for
``ringcol.search.compute_chromatic_index``, which asks ``find_interval_t``
about ``padded(g, Delta)`` and reads its answer off a span profile's own
query when that padding is g itself.

``verify`` is the interval-coloring verifier written from the definitions,
a sorted spectrum at every vertex, which ``ringcol.verify`` must match
report for report.

``lifted_colors`` is the composition lift written edge by edge from the
definition of the block table F_j, which ``ringcol.composition.lift`` and
every coloring built on it must match.

Every search here speaks the contract of ``ringcol.engines``: it takes
``(g, t, limit)`` (None for no limit), counts its nodes in a local variable
and returns ``(assignment | None, nodes)``, stopping with
``(None, limit + 1)`` at the first node past the limit.
"""

from collections import deque
from itertools import combinations

from ringcol import (Edge, EdgeColoring, FormatError, Graph, ParameterError, SearchConfig, SoundnessError,
                     VerificationReport, Vertex, make_edge, search)
from ringcol.engines import connected_edge_order


def label(raw):
    """A new Vertex for a (layer, index) pair of two ``int``s, else ParameterError."""
    if not (isinstance(raw, (tuple, list)) and len(raw) == 2 and all(type(x) is int for x in raw)):
        raise ParameterError(f"a vertex label must be a (layer, index) pair of integers, got {raw!r}")
    return Vertex(*raw)


def build_graph(n, k, vertices, edges):
    """The same Graph as ``ringcol.build_graph``, or the same exception."""
    for name, bound in (("n", n), ("k", k)):
        if type(bound) is not int or bound < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {bound!r}")

    vseen = set()
    for raw in vertices:
        v = label(raw)
        if not (1 <= v.layer <= k and 1 <= v.index <= n):
            raise ParameterError(f"vertex {v} outside the label bounds (k={k}, n={n})")
        if v in vseen:
            raise ParameterError(f"duplicate vertex {v}")
        vseen.add(v)

    eseen = set()
    for pair in edges:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ParameterError(f"an edge must be a pair of vertex labels, got {pair!r}")
        e = make_edge(label(pair[0]), label(pair[1]))
        if e.u not in vseen or e.v not in vseen:
            raise ParameterError(f"edge {e} touches an unknown vertex")
        if e in eseen:
            raise ParameterError(f"duplicate edge {e}")
        eseen.add(e)

    vsorted = tuple(sorted(vseen))
    esorted = tuple(sorted(eseen))
    adjacency = {v: [] for v in vsorted}
    for e in esorted:
        adjacency[e.u].append(e)
        adjacency[e.v].append(e)
    adj = {v: tuple(inc) for v, inc in adjacency.items()}

    if sum(len(inc) for inc in adj.values()) != 2 * len(esorted):
        raise SoundnessError("adjacency lists must hold every edge once per endpoint")
    g = Graph(n=n, k=k, vertices=vsorted, edges=esorted)
    if list(g.adjacency.items()) != list(adj.items()):  # the library builds it on first read
        raise SoundnessError("the graph's adjacency differs from the reference's lists")
    return g


def coloring_from_dict(doc):
    """The same EdgeColoring as ``ringcol.io.coloring_from_dict``, or the same exception."""
    if not isinstance(doc, dict):
        raise FormatError("coloring document must be a JSON object")
    for key in ("t", "edges"):
        if key not in doc:
            raise FormatError(f"coloring document missing key {key!r}")
    if not isinstance(doc["edges"], list):
        raise FormatError(f"coloring edges must be a list, got {doc['edges']!r}")
    colors = {}
    for entry in doc["edges"]:
        if not (isinstance(entry, dict) and all(key in entry for key in ("u", "v", "color"))):
            raise FormatError(f"coloring entry must have u, v, color, got {entry!r}")
        e = make_edge(label(entry["u"]), label(entry["v"]))
        if e in colors:
            raise FormatError(f"edge {e} colored twice in document")
        colors[e] = entry["color"]
    return EdgeColoring(colors=colors, t=doc["t"])


def verify(g, coloring):
    """The same VerificationReport as ``ringcol.verify`` for a coloring total on
    E(g) with t <= |E| (``verify`` refuses a larger t), read off the
    definitions: every vertex's spectrum sorted, a clash for each color on two
    or more of its edges, and a gap wherever the spectrum is not d(v)
    consecutive colors."""
    colors = coloring.colors
    violations, gaps = [], []
    for v in g.vertices:
        incident = g.adjacency[v]
        spect = tuple(sorted({colors[e] for e in incident}))
        for c in spect:
            clashing = tuple(e for e in incident if colors[e] == c)
            if len(clashing) > 1:
                violations.append((v, c, clashing))
        # spect[0] + i, not range(): a mapping changed after EdgeColoring's check may hold a float
        if spect and spect != tuple(spect[0] + i for i in range(len(incident))):
            gaps.append((v, spect))
    present = set(colors.values())
    missing = tuple(c for c in range(1, coloring.t + 1) if c not in present)
    return VerificationReport(
        t=coloring.t,
        is_proper=not violations,
        is_interval=not violations and not gaps,
        covers_palette=not missing,
        proper_violations=tuple(violations),
        gap_vertices=tuple(gaps),
        missing_colors=missing,
    )


def lifted_colors(g, position, alpha, n, j):
    """g's colors lifted from alpha, an edge coloring of a quotient whose
    classes have n vertices: ``position`` maps each vertex of g to its
    quotient vertex and its 1-based place p in the class, and edge
    (u, p)(v, q) gets n(alpha(uv) - 1) + F_j(p, q), where F_j(p, q) is
    c + n when c < min(p, j + 1) and c otherwise, for c = ((p + q - 2) mod n) + 1."""
    colors = {}
    for e in g.edges:
        (u, p), (v, q) = position[e.u], position[e.v]
        c = (p + q - 2) % n + 1
        colors[e] = n * (alpha[make_edge(u, v)] - 1) + (c + n if c < min(p, j + 1) else c)
    return colors


def twin_positions(g):
    """vertex -> (its twin class's smallest vertex, its 1-based place in the class)."""
    return {v: (members[0], p) for members in g.twin_classes for p, v in enumerate(members, 1)}


def run_engine(engine, g, t, node_limit=None):
    """(status, nodes, witness) of one engine at span t, from the query body
    of ``find_interval_t``: a witness is re-checked with the verifier as an
    interval coloring."""
    outcome = search._query(g, t, node_limit, engine)
    return outcome.status, outcome.nodes_explored, outcome.witness


def indexed_edge_order(g):
    """``connected_edge_order`` with each edge's endpoints as indices into
    ``g.vertices``, and every vertex's degree under the same index."""
    edges = connected_edge_order(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    return edges, [pos[e.u] for e in edges], [pos[e.v] for e in edges], [g.degree(v) for v in g.vertices]


def twin_keys(g, root):
    """key edge -> (its twin class, its place in the class): a BFS over the
    quotient from the class of ``root`` gives every class C it reaches but the
    root a parent, and the edges from the parent's first member to C's
    members, in vertex order, must carry increasing colors."""
    classes = g.twin_classes
    of = {v: c for c, members in enumerate(classes) for v in members}
    parent = {of[root]: None}
    order = [of[root]]
    for c in order:  # order grows as the BFS reaches new classes
        for w in g.neighbors(classes[c][0]):
            if of[w] not in parent:
                parent[of[w]] = c
                order.append(of[w])
    return {make_edge(classes[p][0], x): (c, j)
            for c, p in parent.items() if p is not None
            for j, x in enumerate(classes[c])}


def cycle_or_complete_quotient(g):
    """Whether g's twin classes all have one size and its quotient is a
    connected cycle or a complete graph on at least two classes."""
    classes = g.twin_classes
    if len({len(members) for members in classes}) != 1 or len(classes) < 2:
        return False
    of = {v: c for c, members in enumerate(classes) for v in members}
    joined = {frozenset((of[e.u], of[e.v])) for e in g.edges}
    if joined == {frozenset(pair) for pair in combinations(range(len(classes)), 2)}:
        return True
    reached = {0}
    for _ in classes:
        reached |= {c for pair in joined if pair & reached for c in pair}
    return len(reached) == len(classes) and all(sum(c in pair for pair in joined) == 2 for c in reached)


def edge_dfs(g, t, limit):
    """The same search as ``ringcol.engines.edge_dfs``: same nodes, same witness."""
    return _plain_edge_dfs(g, t, limit, keyed=True)


def unkeyed_edge_dfs(g, t, limit):
    """``edge_dfs`` with the reflection cap as its one symmetry rule."""
    return _plain_edge_dfs(g, t, limit, keyed=False)


def _plain_edge_dfs(g, t, limit, keyed):
    edges, us, vs, deg = indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return None, 0

    used = [0] * len(deg)  # per vertex: bit c set when color c is on it
    count = [0] * (t + 1)  # per color: edges carrying it
    zero = palette = (1 << (t + 1)) - 2  # zero: bit c set while color c is on no edge
    cap = 1 if keyed and cycle_or_complete_quotient(g) else (t + 1) // 2
    first = (1 << (cap + 1)) - 2  # the first edge's colors: 1..cap
    # per depth: every earlier key edge of its class, with whether it comes before it in key order
    keys = twin_keys(g, edges[0].u) if keyed else {}
    earlier = [[(h, keys[edges[h]][1] < keys[e][1]) for h in range(i)
                if e in keys and edges[h] in keys and keys[edges[h]][0] == keys[e][0]]
               for i, e in enumerate(edges)]
    color = [0] * m  # per depth: the color of edges[i]
    cand = [0] * m  # per depth: the colors not yet tried there, as a bitmask
    nodes = 0

    i = 0
    while True:
        a, b = us[i], vs[i]
        used_a, used_b = used[a], used[b]
        mask = (palette if i else first) & ~(used_a | used_b)
        for h, before in earlier[i]:
            mask &= ~((2 << color[h]) - 1) if before else (1 << color[h]) - 1
        # a spread of at most d keeps a new color in [highest - d + 1, lowest + d - 1]
        if used_a:
            d = deg[a]
            mask &= (1 << ((used_a & -used_a).bit_length() - 1 + d)) - (1 << max(used_a.bit_length() - d, 0))
        if used_b:
            d = deg[b]
            mask &= (1 << ((used_b & -used_b).bit_length() - 1 + d)) - (1 << max(used_b.bit_length() - d, 0))
        unused = zero.bit_count()
        if unused >= m - i:  # each later edge can bring at most one unused color in
            mask &= zero if unused == m - i else 0
        while not mask:  # back up and withdraw the previous edge's color
            if i == 0:
                return None, nodes
            i -= 1
            a, b = us[i], vs[i]
            c = color[i]
            bit = 1 << c
            used[a] ^= bit
            used[b] ^= bit
            count[c] -= 1
            if count[c] == 0:
                zero |= bit
            mask = cand[i]

        nodes += 1
        if limit is not None and nodes > limit:
            return None, nodes
        bit = mask & -mask
        cand[i] = mask ^ bit
        c = color[i] = bit.bit_length() - 1
        used[a] |= bit
        used[b] |= bit
        if count[c] == 0:
            zero ^= bit
        count[c] += 1
        if i == m - 1:
            return dict(zip(edges, color)), nodes
        i += 1


def proper_dfs(g, t, limit):
    """A proper coloring with at most t colors, by plain search with color
    opening: an edge may take color c + 1 only once colors 1..c are used."""
    edges, us, vs, deg = indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return {}, 0

    used = [0] * len(deg)  # per vertex: bit c set when color c is on it
    color = [0] * m  # per depth: the color of edges[i], 0 = none tried yet
    high = [0] * m  # per depth: the highest color opened before edges[i]
    nodes = 0

    i = 0
    while True:
        a, b = us[i], vs[i]
        c = color[i]
        if c:  # withdraw the color tried last at this depth
            bit = 1 << c
            used[a] ^= bit
            used[b] ^= bit
        taken = used[a] | used[b]
        for c in range(c + 1, min(t, high[i] + 1) + 1):
            if not taken >> c & 1:
                break
        else:  # no color left at depth i: back up to the previous edge
            color[i] = 0
            if i == 0:
                return None, nodes
            i -= 1
            continue
        nodes += 1
        if limit is not None and nodes > limit:
            return None, nodes
        bit = 1 << c
        used[a] |= bit
        used[b] |= bit
        color[i] = c
        if i == m - 1:
            return dict(zip(edges, color)), nodes
        high[i + 1] = max(high[i], c)
        i += 1


def chromatic_index(g, limit):
    """chi' by proper search alone, with no theorem: ``proper_dfs`` at the
    maximum degree, then one above it. None when the budget cuts a query."""
    if not g.edges:
        return 0
    for t in (g.max_degree(), g.max_degree() + 1):
        found, nodes = proper_dfs(g, t, limit)
        if nodes > limit:
            return None
        if found is not None:
            return t
    raise AssertionError("no proper coloring with max degree + 1 colors: Vizing's theorem fails")


def trace(engine, g, t, node_limit=None):
    """(witness items in order or None, nodes) of one raw engine call, for
    comparing two engines node for node; nothing is verified here."""
    found, nodes = engine(g, t, node_limit)
    return (None if found is None else list(found.items())), nodes


def _bfs_vertex_order(g: Graph) -> list[Vertex]:
    order: list[Vertex] = []
    seen: set[Vertex] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def start_assignment(g: Graph, t: int, limit: int | None) -> tuple[dict[Edge, int] | None, int]:
    verts = [v for v in _bfs_vertex_order(g) if g.degree(v) > 0]
    nv = len(verts)
    if nv == 0:
        return None, 0
    deg = [g.degree(v) for v in verts]
    if any(d > t for d in deg):
        return None, 0  # no spectrum window fits: the start space is empty

    pos = {v: i for i, v in enumerate(verts)}
    earlier: list[list[int]] = [[] for _ in range(nv)]
    for e in g.edges:
        iu, iv = pos[e.u], pos[e.v]
        if iu > iv:
            iu, iv = iv, iu
        earlier[iv].append(iu)

    e0 = min(g.edges)
    cap = (t + 1) // 2
    e0_first, e0_last = sorted((pos[e0.u], pos[e0.v]))

    start = [0] * nv
    cover = [0] * (t + 2)

    def parity_ok() -> bool:
        # Each vertex must use every color of its window exactly once, so the
        # edges of one color form a perfect matching on the vertices whose
        # window contains it: an odd count is an immediate contradiction.
        return all(cover[c] % 2 == 0 for c in range(1, t + 1))

    def start_range(i: int) -> tuple[int, int]:
        # Every earlier neighbour j leaves the shared edge a usable color
        # only if the windows overlap: s_j - d + 1 <= s <= s_j + d_j - 1.
        d = deg[i]
        lo, hi = 1, t - d + 1
        for j in earlier[i]:
            sj = start[j]
            lo = max(lo, sj - d + 1)
            hi = min(hi, sj + deg[j] - 1)
        if i == e0_last:
            if start[e0_first] > cap:
                return 1, 0  # designated edge forced above the reflection cap
            hi = min(hi, cap)
        return lo, hi

    # Depth i holds vertex i: the next start to try there and the last
    # admissible one, fixed when the depth is entered.
    next_s = [0] * nv
    last_s = [0] * nv
    next_s[0], last_s[0] = start_range(0)
    nodes = 0
    i = 0
    while True:
        if i == nv:
            # the windows cover the palette; asked at every full start vector, so scanned at C speed
            if 0 not in cover[1 : t + 1] and parity_ok():
                found, nodes = _assign_in_windows(g, t, limit, nodes, pos, start, deg, e0, cap)
                if found is not None or (limit is not None and nodes > limit):
                    return found, nodes
        elif next_s[i] <= last_s[i]:
            nodes += 1
            if limit is not None and nodes > limit:
                return None, nodes
            s = start[i] = next_s[i]
            next_s[i] = s + 1
            for c in range(s, s + deg[i]):
                cover[c] += 1
            i += 1
            if i < nv:
                next_s[i], last_s[i] = start_range(i)
            continue
        elif i == 0:
            return None, nodes
        i -= 1  # back up: withdraw the start of the previous vertex
        s = start[i]
        for c in range(s, s + deg[i]):
            cover[c] -= 1


def _assign_in_windows(
    g: Graph,
    t: int,
    limit: int | None,
    nodes: int,
    pos: dict[Vertex, int],
    start: list[int],
    deg: list[int],
    e0: Edge,
    cap: int,
) -> tuple[dict[Edge, int] | None, int]:
    """Exact assignment once every spectrum window is fixed: each edge takes a
    color in the intersection of its endpoints' windows, all colors distinct
    at every vertex. Window sizes equal degrees, so a solution uses each
    window color exactly once and is an interval coloring by construction.
    ``nodes`` is the count so far, continued here and returned with the
    assignment under the contract of the module's engines.

    Edges are indexed by their place in the sorted ``g.edges`` and vertices
    by ``pos``. An edge's domain and a vertex's used colors are int bitmasks
    (bit c is color c), so the options of a free edge are
    ``dom & ~(used[u] | used[v])``. Each node branches on the first free edge
    (in edge order) with at most one option, else on the first edge with the
    fewest options, and tries its colors in increasing order; node counts
    depend on this tie rule. The free edges stay in a sorted list: a chosen
    edge leaves it and returns to the same slot when its colors run out. An
    explicit stack of (edge, slot, color bit, untried bits) frames drives
    the search, so its depth is not bounded by Python's recursion limit.
    """
    free: list[tuple[int, int, int, int]] = []  # (edge index, pos of u, pos of v, domain)
    for i, e in enumerate(g.edges):
        iu, iv = pos[e.u], pos[e.v]
        lo = max(start[iu], start[iv])
        hi = min(start[iu] + deg[iu] - 1, start[iv] + deg[iv] - 1)
        if e == e0:
            hi = min(hi, cap)
        if lo > hi:
            return None, nodes
        free.append((i, iu, iv, (1 << (hi + 1)) - (1 << lo)))

    used = [0] * len(start)
    stack: list[list] = []  # [free entry, slot in free, color bit, untried bits]
    while free:
        best_n = t + 1  # more than any option count
        for k, entry in enumerate(free):
            _, iu, iv, dom = entry
            opts = dom & ~(used[iu] | used[iv])
            n = opts.bit_count()
            if n < best_n:
                best, slot, best_opts, best_n = entry, k, opts, n
                if n <= 1:
                    break
        if best_opts:
            del free[slot]
            stack.append([best, slot, 0, best_opts])
        # Try the next color of the top frame, backing up past frames whose
        # colors are exhausted (their edges return to their slots).
        while stack:
            frame = stack[-1]
            _, iu, iv, _ = frame[0]
            bit = frame[2]
            if bit:
                used[iu] ^= bit
                used[iv] ^= bit
            rest = frame[3]
            if rest:
                nodes += 1
                if limit is not None and nodes > limit:
                    return None, nodes
                bit = rest & -rest
                frame[2], frame[3] = bit, rest ^ bit
                used[iu] |= bit
                used[iv] |= bit
                break
            stack.pop()
            free.insert(frame[1], frame[0])
        else:
            return None, nodes
    edges = g.edges
    return {edges[frame[0][0]]: frame[2].bit_length() - 1 for frame in stack}, nodes
