"""Straightforward references that the tests hold the fast code to.

``find_interval_t`` always runs ``edge_dfs``; the tests reach the
independent reference engine, ``start_assignment``, through ``run_engine``
to check ``edge_dfs`` against it. ``build_graph`` is the plain graph builder
that ``ringcol.graphs.build_graph`` must match: it makes a new ``Vertex``
for every label and endpoint and validates in the same order.

``edge_dfs`` and ``proper_dfs`` are the plain forms of the two depth-first
searches, which the fast ones must match node for node: per-vertex used
colors with the spread window recomputed from the lowest and highest used
color at each depth, ``bit_count`` for the coverage prune, a ``range`` scan
for the next proper color, and ``Budget.spend`` at every node.
"""

from ringcol import EdgeColoring, Graph, ParameterError, SoundnessError, Vertex, make_edge, verify
from ringcol.engines import Budget, OutOfBudget, _indexed_edge_order


def build_graph(n, k, vertices, edges):
    """The same Graph as ``ringcol.build_graph``, or the same exception."""
    if n < 1 or k < 1:
        raise ParameterError(f"label bounds must be positive, got n={n}, k={k}")

    vseen = set()
    for raw in vertices:
        v = Vertex(*raw)
        if not (1 <= v.layer <= k and 1 <= v.index <= n):
            raise ParameterError(f"vertex {v} outside label bounds (k={k}, n={n})")
        if v in vseen:
            raise ParameterError(f"duplicate vertex {v}")
        vseen.add(v)

    eseen = set()
    for a, b in edges:
        e = make_edge(Vertex(*a), Vertex(*b))
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
    return Graph(n=n, k=k, vertices=vsorted, edges=esorted, adjacency=adj)


def run_engine(engine, g, t, node_limit=None):
    """(status, nodes, witness) of one engine at span t, in the statuses of
    ``find_interval_t``; a witness is re-checked with the verifier."""
    budget = Budget(node_limit)
    try:
        found = engine(g, t, budget)
    except OutOfBudget:
        return "exhausted_budget", budget.nodes, None
    if found is None:
        return "infeasible", budget.nodes, None
    witness = EdgeColoring(found, t)
    if not verify(g, witness).is_interval_coloring:
        raise SoundnessError(f"{engine.__name__} produced a non-interval witness at t={t}")
    return "witness", budget.nodes, witness


def edge_dfs(g, t, budget):
    """The same search as ``ringcol.engines.edge_dfs``: same nodes, same witness."""
    edges, us, vs, deg = _indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return None

    used = [0] * len(deg)  # per vertex: bit c set when color c is on it
    count = [0] * (t + 1)  # per color: edges carrying it
    zero = palette = (1 << (t + 1)) - 2  # zero: bit c set while color c is on no edge
    first = (1 << ((t + 1) // 2 + 1)) - 2  # the first edge's colors: up to the reflection cap
    color = [0] * m  # per depth: the color of edges[i]
    cand = [0] * m  # per depth: the colors not yet tried there, as a bitmask

    i = 0
    while True:
        a, b = us[i], vs[i]
        used_a, used_b = used[a], used[b]
        mask = (palette if i else first) & ~(used_a | used_b)
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
                return None
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

        budget.spend()
        bit = mask & -mask
        cand[i] = mask ^ bit
        c = color[i] = bit.bit_length() - 1
        used[a] |= bit
        used[b] |= bit
        if count[c] == 0:
            zero ^= bit
        count[c] += 1
        if i == m - 1:
            return dict(zip(edges, color))
        i += 1


def proper_dfs(g, t, budget):
    """The same search as ``ringcol.engines.proper_dfs``: same nodes, same witness."""
    edges, us, vs, deg = _indexed_edge_order(g)
    m = len(edges)
    if m == 0:
        return {}

    used = [0] * len(deg)  # per vertex: bit c set when color c is on it
    color = [0] * m  # per depth: the color of edges[i], 0 = none tried yet
    high = [0] * m  # per depth: the highest color opened before edges[i]

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
                return None
            i -= 1
            continue
        budget.spend()
        bit = 1 << c
        used[a] |= bit
        used[b] |= bit
        color[i] = c
        if i == m - 1:
            return dict(zip(edges, color))
        high[i + 1] = max(high[i], c)
        i += 1


def trace(engine, g, t, node_limit=None):
    """(outcome, nodes, witness items in order) of one raw engine call, for
    comparing two engines node for node; nothing is verified here."""
    budget = Budget(node_limit)
    try:
        found = engine(g, t, budget)
    except OutOfBudget:
        return "exhausted_budget", budget.nodes, None
    return ("none" if found is None else "found"), budget.nodes, None if found is None else list(found.items())
