"""Run one engine of ``ringcol.engines`` directly, outside ``find_interval_t``.

``find_interval_t`` always runs ``edge_dfs``; the tests reach the
independent reference engine, ``start_assignment``, through ``run_engine``
to check ``edge_dfs`` against it.
"""

from ringcol import EdgeColoring, SoundnessError, verify
from ringcol.engines import Budget, OutOfBudget


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
