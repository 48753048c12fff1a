#!/usr/bin/env python3
"""Node counts of the proper search, as quoted in README's "Search engines".

Draws the 600 graphs of at most 12 edges that a derandomized hypothesis run
(``max_examples=600``) of ``tests/strategies.small_graphs()`` hands a function
``take(g)``, and measures on them:

* ``find_proper_t`` at every t in [1, |E| + 1], against ``proper_dfs`` in
  ``tests/reference.py`` (the plain proper search with color opening) where
  that exists, with whether every status agrees;
* the query at t = Δ on every drawn graph with an edge and on the Petersen
  graph minus the vertex (1, 1);
* the worst refutation at t >= Δ among the queries of the first item;
* ``compute_chromatic_index`` on the drawn graphs and Petersen minus (1, 1);
* Petersen minus (1, 1) at t = 3.

Hypothesis seeds a derandomized draw from the test function's source code
when it can read it, and from its name and signature when it cannot. ``take``
is compiled from a string, so it has no source, and the draw depends only on
the name ``take``, the signature ``(g)``, ``small_graphs`` and the hypothesis
version (6.155.2 gives README's figures).

    python3 scripts/proper_search_figures.py [--root DIR]

``--root`` is the checkout whose ``src`` and ``tests`` are measured (default:
this one), so another commit can be measured on the same graphs:
``git archive 1b98217 | tar -x -C old`` and ``--root old``. Prints one JSON
object. Needs hypothesis; 4 s on a 2-core x86 VM, CPython 3.11.7.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    from hypothesis import given, settings
    from ringcol import Vertex, build_graph, compute_chromatic_index, find_proper_t
    from strategies import small_graphs

    try:
        from reference import proper_dfs
    except ImportError:
        proper_dfs = None

    graphs = []
    space = {"graphs": graphs}
    exec("def take(g):\n    graphs.append(g)\n", space)
    given(g=small_graphs())(settings(max_examples=600, derandomize=True, deadline=None, database=None)(space["take"]))()

    outer = [Vertex(1, i) for i in range(1, 6)]
    inner = [Vertex(2, i) for i in range(1, 6)]
    petersen = ([(outer[i], outer[(i + 1) % 5]) for i in range(5)] + [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
                + list(zip(outer, inner)))
    gone = Vertex(1, 1)
    petersen_minus = build_graph(5, 2, [v for v in outer + inner if v != gone], [e for e in petersen if gone not in e])

    new = {"queries": 0, "nodes": 0, "worst_refutation": 0, "delta_queries": 0, "delta_nodes": 0, "chi_prime_nodes": 0}
    plain = {"nodes": 0, "worst_refutation": 0, "delta_nodes": 0}
    agree = True
    for g in graphs:
        delta = g.max_degree()
        for t in range(1, len(g.edges) + 2):
            outcome = find_proper_t(g, t)
            new["queries"] += 1
            new["nodes"] += outcome.nodes_explored
            if outcome.status == "infeasible" and t >= delta:
                new["worst_refutation"] = max(new["worst_refutation"], outcome.nodes_explored)
            if proper_dfs is not None:
                found, nodes = proper_dfs(g, t, None)
                plain["nodes"] += nodes
                agree &= (found is None) == (outcome.status == "infeasible")
                if found is None and t >= delta:
                    plain["worst_refutation"] = max(plain["worst_refutation"], nodes)
    for g in graphs + [petersen_minus]:
        if g.edges:
            new["delta_queries"] += 1
            new["delta_nodes"] += find_proper_t(g, g.max_degree()).nodes_explored
            if proper_dfs is not None:
                plain["delta_nodes"] += proper_dfs(g, g.max_degree(), None)[1]
        new["chi_prime_nodes"] += compute_chromatic_index(g)[1]
    at_3 = find_proper_t(petersen_minus, 3)
    print(json.dumps({
        "graphs": len(graphs),
        "find_proper_t": new,
        "proper_dfs": plain if proper_dfs is not None else None,
        "statuses_agree": agree if proper_dfs is not None else None,
        "petersen_minus_1_1_at_3": {"status": at_3.status, "nodes": at_3.nodes_explored,
                                    "proper_dfs_nodes": proper_dfs(petersen_minus, 3, None)[1] if proper_dfs else None},
    }, indent=2))


if __name__ == "__main__":
    main()
