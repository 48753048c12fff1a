"""Straightforward references that the tests hold the fast code to.

``find_interval_t`` always runs ``edge_dfs``; the tests reach the
independent reference engine, ``start_assignment``, through ``run_engine``
to check ``edge_dfs`` against it. ``build_graph`` is the plain graph builder
that ``ringcol.graphs.build_graph`` must match: it makes a new ``Vertex``
for every label and endpoint and validates in the same order.
"""

from ringcol import EdgeColoring, Graph, ParameterError, SoundnessError, Vertex, make_edge, verify
from ringcol.engines import Budget, OutOfBudget


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
