"""Command-line front end.

Subcommands: generate, construct, verify, search, bounds, bounds-exact,
sweep, export-dot. Every invocation that argparse accepts appends one JSON
line to a manifest file (default ``runs.jsonl``) recording the command, its
parameters, the artifact paths it wrote, the exit status, and the wall time;
one that argparse refuses exits 2 (SystemExit) and appends nothing.

Exit codes (stable, also listed in the README):

    0  success; for ``verify``/``search``: the coloring is interval / found
    1  verification failure or proven infeasibility
    2  parameter error (bad n/k/t, malformed document, graph/coloring mismatch;
       for ``verify``, a coloring whose t exceeds the graph's edge count)
    3  unsupported parity (odd k where the construction needs even k)
    4  search budget exhausted
    5  I/O failure: a file unreadable, not UTF-8 or no JSON, nested past the JSON
       decoder's recursion limit, or with an integer past sys.get_int_max_str_digits()

The searching commands (``search``, ``bounds-exact`` and ``sweep``) run
``ringcol.search``'s queries (a composition lift where one reaches t, else
the one engine, ``edge_dfs``) and take only a node budget
(``--node-limit``); a span scan stops at ``search.scan_cap``, never set.
``construct`` never searches: ``construct --t`` builds its coloring in
closed form (``construct.t_coloring``). All code paths are deterministic:
identical invocations write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator

from . import io as rio
from .construct import bounds_summary, mirrored_staircase_coloring, t_coloring
from .coloring import verify
from .errors import (
    ColoringError,
    FormatError,
    ParameterError,
    ParityError,
)
from .graphs import RingParams, ring_graph
from .search import SearchConfig, find_interval_t, span_profile

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAMETER = 2
EXIT_PARITY = 3
EXIT_BUDGET = 4
EXIT_IO = 5


def _print_json(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting.

    The bulk commands allocate tuples, lists and dicts per label and edge, none
    of them in a reference cycle, so reference counting frees them all. With the
    collector on, generate, construct and verify of a 32 768-edge ring set off
    hundreds of collections, some of them full ones that re-scan every live
    tuple and dict for cycles that cannot be there.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@_gc_paused()
def cmd_generate(args: argparse.Namespace, artifacts: list[str]) -> int:
    g = ring_graph(RingParams(args.n, args.k))
    rio.write_graph(g, args.out)
    artifacts.append(args.out)
    print(f"wrote {args.out}: {len(g.vertices)} vertices, {len(g.edges)} edges")
    return EXIT_OK


@_gc_paused()
def cmd_construct(args: argparse.Namespace, artifacts: list[str]) -> int:
    params = RingParams(args.n, args.k)
    if args.t is None:
        coloring = mirrored_staircase_coloring(params)
    else:
        coloring = t_coloring(params, args.t)
    report = verify(ring_graph(params), coloring)  # the graph the coloring was lifted onto
    rio.write_coloring(coloring, args.out)
    artifacts.append(args.out)
    if not report.is_interval_coloring:
        print(f"self-verification FAILED for {args.out}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"wrote {args.out}: interval {coloring.t}-coloring of the (n={args.n}, k={args.k}) ring")
    return EXIT_OK


@_gc_paused()
def cmd_verify(args: argparse.Namespace, artifacts: list[str]) -> int:
    g = rio.load_graph(args.graph)
    report = verify(g, rio.load_coloring(args.coloring, g))
    _print_json(rio.report_to_dict(report))
    return EXIT_OK if report.is_interval_coloring else EXIT_VERIFY_FAIL


def cmd_search(args: argparse.Namespace, artifacts: list[str]) -> int:
    g = rio.load_graph(args.graph)
    outcome = find_interval_t(g, args.t, SearchConfig(node_limit=args.node_limit))
    doc = rio.outcome_to_dict(outcome)
    _print_json(doc)
    if args.out:
        rio.dump_json(doc, args.out)
        artifacts.append(args.out)
    if outcome.status == "witness":
        return EXIT_OK
    if outcome.status == "exhausted_budget":
        return EXIT_BUDGET
    return EXIT_VERIFY_FAIL


def cmd_bounds(args: argparse.Namespace, artifacts: list[str]) -> int:
    summary = bounds_summary(RingParams(args.n, args.k))
    _print_json(asdict(summary))
    return EXIT_OK


def cmd_bounds_exact(args: argparse.Namespace, artifacts: list[str]) -> int:
    params = RingParams(args.n, args.k)
    profile = span_profile(ring_graph(params), SearchConfig(node_limit=args.node_limit))
    doc = rio.profile_to_dict(params, profile)
    _print_json(doc)
    if args.out:
        rio.dump_json(doc, args.out)
        artifacts.append(args.out)
    return EXIT_OK if profile.settled else EXIT_BUDGET


def _sweep_cell(n: int, k: int, cfg: SearchConfig) -> dict[str, Any]:
    params = RingParams(n, k)
    g = ring_graph(params)
    summary = bounds_summary(params)
    profile = span_profile(g, cfg)
    chi_oracle, w_report, W_report = profile.chi_prime, profile.w, profile.W

    def blank(x: Any) -> Any:
        return "" if x is None else x

    chi_agree = "" if chi_oracle is None else ("yes" if chi_oracle == summary.chromatic_index else "no")
    if w_report.status == "inconclusive":
        w_agree = ""
    else:
        w_agree = "yes" if w_report.value == summary.w else "no"

    return {
        "n": n,
        "k": k,
        "num_vertices": len(g.vertices),
        "num_edges": len(g.edges),
        "max_degree": g.max_degree(),
        "nk_even": "yes" if (n * k) % 2 == 0 else "no",
        "chi_formula": summary.chromatic_index,
        "chi_oracle": blank(chi_oracle),
        "chi_agree": chi_agree,
        "w_formula": blank(summary.w),
        "w_oracle": blank(w_report.value),
        "w_status": w_report.status,
        "w_agree": w_agree,
        "W_lower_formula": blank(summary.W_lower),
        "W_oracle": blank(W_report.value),
        "W_status": W_report.status,
        "continuity": profile.continuity_status,
        "nodes_explored": profile.nodes_explored,
    }


def cmd_sweep(args: argparse.Namespace, artifacts: list[str]) -> int:
    if args.n_max < 1 or args.k_max < 3:
        raise ParameterError(f"grid needs n_max >= 1 and k_max >= 3, got {args.n_max}, {args.k_max}")
    cfg = SearchConfig(node_limit=args.node_limit)

    rows = [
        _sweep_cell(n, k, cfg)
        for n in range(1, args.n_max + 1)
        for k in range(3, args.k_max + 1)
    ]

    columns = list(rows[0])  # every row has _sweep_cell's keys, in its order
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    rio.dump_json(
        {
            "columns": columns,
            "grid": {"n_max": args.n_max, "k_max": args.k_max},
            "node_limit": cfg.node_limit,
            "cells": rows,
        },
        json_path,
    )
    artifacts.extend([csv_path, json_path])
    print(f"wrote {csv_path} and {json_path}: {len(rows)} cells")
    return EXIT_OK


@_gc_paused()
def cmd_export_dot(args: argparse.Namespace, artifacts: list[str]) -> int:
    g = rio.load_graph(args.graph)
    coloring = rio.load_coloring(args.coloring, g) if args.coloring else None
    Path(args.out).write_text(rio.dot_source(g, coloring), encoding="utf-8")
    artifacts.append(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built at the first call, about 2 ms, and
    shared after it. ``parse_args`` fills a new namespace on every call, so
    no option value of one command reaches the next."""
    parser = argparse.ArgumentParser(
        prog="ringcol",
        description="Interval edge colorings of ring-layered regular graphs: "
        "generators, constructions, verification, exhaustive search.",
    )
    parser.add_argument(
        "--manifest",
        default="runs.jsonl",
        help="append-only run manifest file (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[[argparse.Namespace, list[str]], int], help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("generate", cmd_generate, "build a ring graph and write its JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("construct", cmd_construct, "write an interval coloring of the (n, k) ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None, help="span to realize (default: the widest constructed)")
    p.add_argument("--out", required=True)

    p = add("verify", cmd_verify, "verify a coloring file against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)

    p = add("search", cmd_search, "decide interval t-colorability of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default=None, help="also write the outcome JSON here")

    p = add("bounds", cmd_bounds, "closed-form bounds summary for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("bounds-exact", cmd_bounds_exact, "oracle-computed w, W, chromatic index for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("sweep", cmd_sweep, "formula-vs-oracle report over the (n, k) grid")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--out", required=True, help="output prefix; writes <out>.csv and <out>.json")
    p.add_argument("--node-limit", type=int, default=None)

    p = add("export-dot", cmd_export_dot, "write GraphViz DOT for a graph (optionally colored)")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", default=None)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    started = time.perf_counter()
    artifacts: list[str] = []
    try:
        status = args.func(args, artifacts)
    except ParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_PARITY
    except (ParameterError, ColoringError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_PARAMETER
    except OSError as exc:  # io.load_json raises it for a file it cannot read or decode
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_IO

    manifest = {
        "command": args.command,
        "parameters": {
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "command", "manifest") and value is not None
        },
        "artifact_paths": artifacts,
        "exit_status": status,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    try:
        with open(args.manifest, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"warning: could not append manifest: {exc}", file=sys.stderr)

    return status


if __name__ == "__main__":
    sys.exit(main())
