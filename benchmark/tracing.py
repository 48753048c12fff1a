"""Spans around calls into ringcol's layers, recorded from outside the package.

``install`` replaces each traced public function with a wrapper in every
``ringcol`` module namespace that holds it (``ringcol.search.find_interval_t``,
the names ``cli.py`` imported, the re-exports in ``ringcol/__init__.py``), so
calls resolved through any of those attributes open a span. ``restore`` puts
the originals back. Nothing under ``src/`` is edited.

A span is (id, name, start, end, parent, run id, attrs, cost). ``cost`` is
the tracer's own time in the call outside [start, end]: creating the span and
describing the arguments and result. Spans stay in memory and are written out
by the harness when the run ends. A span's self time is its duration minus
the durations and costs of its direct children, so the tracer's bookkeeping
does not land in the parent's self time.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run: str
    attrs: dict[str, Any] | None
    cost_ns: int = 0  # the tracer's own time in this call, outside [start_ns, end_ns]


class Tracer:
    """Collects the spans of one traced pass."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, sig: inspect.Signature, describe: Callable | None,
             args: tuple, kwargs: dict) -> Any:
        enter_ns = time.perf_counter_ns()
        span = Span(len(self.spans), name, 0, 0, self._open[-1] if self._open else None, self.run, None)
        self.spans.append(span)
        self._open.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end_ns = time.perf_counter_ns()
            span.attrs = {"error": type(exc).__name__}
            raise
        else:
            span.end_ns = time.perf_counter_ns()
            if describe is not None:
                span.attrs = describe(sig.bind(*args, **kwargs).arguments, result)
            return result
        finally:
            self._open.pop()
            span.cost_ns = span.start_ns - enter_ns + time.perf_counter_ns() - span.end_ns


# ---------------------------------------------------------------------------
# What is traced, and what each span records
# ---------------------------------------------------------------------------


def graph_id(g: Any) -> list:
    """Content key of a graph: label bounds, edge count and a hash of the
    edge tuple (integer tuples hash the same in every process)."""
    return [g.n, g.k, len(g.edges), hash(g.edges) & 0xFFFFFFFF]


def _outcome(a: dict, r: Any) -> dict:
    return {"graph": graph_id(a["g"]), "t": a["t"], "status": r.status, "nodes": r.nodes_explored}


def _bound_report(a: dict, r: Any) -> dict:
    return {"graph": graph_id(a["g"]), "value": r.value, "status": r.status, "nodes": r.nodes_explored}


def _scan(a: dict, r: Any) -> dict:
    return {"graph": graph_id(a["g"]), "queries": len(r)}


def _chromatic(a: dict, r: Any) -> dict:
    return {"graph": graph_id(a["g"]), "value": r}


def _verify(a: dict, r: Any) -> dict:
    return {"edges": len(a["g"].edges), "ok": r.is_interval_coloring}


def _built(a: dict, r: Any) -> dict:
    return {"edges": len(r.edges)}


def _colored(a: dict, r: Any) -> dict:
    return {"edges": len(r.colors)}


def _dumped(a: dict, r: Any) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def _cli(a: dict, r: Any) -> dict:
    return {"exit": r}


# (layer, module, function, describe). Span names are "<layer>.<function>".
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "ringcol.cli", "main", _cli),
    ("search", "ringcol.search", "find_interval_t", _outcome),
    ("search", "ringcol.search", "find_proper_t", _outcome),
    ("search", "ringcol.search", "compute_w", _bound_report),
    ("search", "ringcol.search", "compute_W", _bound_report),
    ("search", "ringcol.search", "compute_chromatic_index", _chromatic),
    ("search", "ringcol.search", "continuity_scan", _scan),
    ("coloring", "ringcol.coloring", "verify", _verify),
    ("construct", "ringcol.construct", "mirrored_staircase_coloring", _colored),
    ("graphs", "ringcol.graphs", "build_graph", _built),
    ("graphs", "ringcol.graphs", "ring_graph", None),
    ("io", "ringcol.io", "dump_json", _dumped),
    ("io", "ringcol.io", "graph_to_dict", None),
    ("io", "ringcol.io", "coloring_to_dict", None),
    ("io", "ringcol.io", "report_to_dict", None),
    ("io", "ringcol.io", "load_json", None),
    ("io", "ringcol.io", "load_graph", None),
    ("io", "ringcol.io", "load_coloring", None),
    ("io", "ringcol.io", "graph_from_dict", None),
    ("io", "ringcol.io", "coloring_from_dict", None),
)

SCANS = ("search.compute_w", "search.compute_W", "search.compute_chromatic_index", "search.continuity_scan")
IO_DUMP = ("io.dump_json", "io.graph_to_dict", "io.coloring_to_dict", "io.report_to_dict")
IO_LOAD = ("io.load_json", "io.load_graph", "io.load_coloring", "io.graph_from_dict", "io.coloring_from_dict")
GRAPHS = ("graphs.build_graph", "graphs.ring_graph")


def _wrapper(tracer: Tracer, name: str, fn: Callable, describe: Callable | None) -> Callable:
    sig = inspect.signature(fn)

    @wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, sig, describe, args, kwargs)

    return traced


def _noop() -> None:
    pass


def wrapper_entry_cost_s(calls: int = 20_000) -> float:
    """Per-call cost of a traced call that its span's cost_ns does not see
    (entering and leaving the wrapper), calibrated on a no-op function."""
    tracer = Tracer("calibration")
    traced = _wrapper(tracer, "calibration.noop", _noop, None)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    elapsed = time.perf_counter_ns() - t0
    seen = sum(s.end_ns - s.start_ns + s.cost_ns for s in tracer.spans)
    return max(elapsed - seen, 0) / calls / 1e9


def tracer_cost_s(spans: list[Span], entry_cost_s: float) -> float:
    """The tracer's own time in one traced pass: the cost recorded in each
    span plus the calibrated wrapper entry cost per span."""
    return sum(s.cost_ns for s in spans) / 1e9 + len(spans) * entry_cost_s


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every target in every loaded ringcol module; return what to restore."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "ringcol" or name.startswith("ringcol.")]
    patched: list[tuple[Any, str, Any]] = []
    for layer, module, func, describe in TARGETS:
        original = getattr(sys.modules[module], func)
        wrapper = _wrapper(tracer, f"{layer}.{func}", original, describe)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, original))
    return patched


def restore(patched: list[tuple[Any, str, Any]]) -> None:
    for m, attr, original in reversed(patched):
        setattr(m, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics derived from one pass's spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Self time in seconds of each span, indexed by span id: its duration
    minus its direct children's durations and the tracer's cost around them."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns + s.cost_ns
    return [(s.end_ns - s.start_ns - child_ns[s.id]) / 1e9 for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = self_times(spans)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def busy(*names: str) -> float:
        return sum((own[s.id] for s in named(*names)), 0.0)

    def total(attr: str, *names: str) -> int:
        return sum(s.attrs.get(attr, 0) for s in named(*names))

    interval = [s for s in named("search.find_interval_t") if "status" in s.attrs]
    by_status: dict[str, int] = defaultdict(int)
    for s in interval:
        by_status[s.attrs["status"]] += s.attrs["nodes"]
    nodes = sum(by_status.values())
    decided = by_status["witness"] + by_status["infeasible"]
    keys = [(tuple(s.attrs["graph"]), s.attrs["t"]) for s in interval]
    query_s = busy("search.find_interval_t")
    verify_s = busy("coloring.verify")
    return {
        "search.interval_queries": len(interval),
        "search.repeat_query_frac": _ratio(len(keys) - len(set(keys)), len(keys)),
        "search.nodes_infeasible": by_status["infeasible"],
        "search.nodes_witness": by_status["witness"],
        "search.nodes_exhausted": by_status["exhausted_budget"],
        "search.decided_nodes_frac": _ratio(decided, nodes),
        "search.nodes_per_s": _ratio(nodes, query_s),
        "search.query_self_s": query_s,
        "search.proper_queries": len(named("search.find_proper_t")),
        "search.proper_nodes": total("nodes", "search.find_proper_t"),
        "search.proper_s": busy("search.find_proper_t"),
        "search.scan_self_s": busy(*SCANS),
        "io.dump_s": busy(*IO_DUMP),
        "io.load_s": busy(*IO_LOAD),
        "io.bytes_written": total("bytes", "io.dump_json"),
        "graphs.build_s": busy(*GRAPHS),
        "graphs.edges_built": total("edges", "graphs.build_graph"),
        "construct.mirrored_s": busy("construct.mirrored_staircase_coloring"),
        "construct.colored_edges": total("edges", "construct.mirrored_staircase_coloring"),
        "coloring.verify_s": verify_s,
        "coloring.verify_calls": len(named("coloring.verify")),
        "coloring.edges_verified_per_s": _ratio(total("edges", "coloring.verify"), verify_s),
        "cli.self_s": busy("cli.main"),
        "cli.commands": len(named("cli.main")),
    }


def consistency_problems(spans: list[Span]) -> list[str]:
    """Spans that raised, and scans whose BoundReport node count differs from
    the SearchOutcomes of the queries they made."""
    problems = [f"{s.name} raised {s.attrs['error']}" for s in spans if s.attrs and "error" in s.attrs]
    child_nodes: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == "search.find_interval_t" and s.parent is not None:
            child_nodes[s.parent] += s.attrs.get("nodes", 0)
    for s in spans:
        if s.name in ("search.compute_w", "search.compute_W") and "nodes" in s.attrs and s.attrs["nodes"] != child_nodes[s.id]:
            problems.append(
                f"{s.name} on {s.attrs['graph']} reports {s.attrs['nodes']} nodes, "
                f"its queries {child_nodes[s.id]}"
            )
    return problems


def shape(spans: list[Span]) -> list[tuple]:
    """The call tree without times: equal between two passes of a deterministic program."""
    return [(s.name, s.parent, json.dumps(s.attrs, sort_keys=True)) for s in spans]


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for spans in passes:
            for s in spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


TRAIL_COLUMNS = ("run", "scan", "graph", "query", "t", "status", "nodes", "self_s")


def write_trail(path: Path, passes: list[list[Span]]) -> None:
    """One row per feasibility query: the per-t trail of every scan."""
    lines = [",".join(TRAIL_COLUMNS)]
    for spans in passes:
        own = self_times(spans)
        for s in spans:
            if s.name not in ("search.find_interval_t", "search.find_proper_t") or "status" not in s.attrs:
                continue
            n, k, m, _ = s.attrs["graph"]
            scan = spans[s.parent].name if s.parent is not None else ""
            row = (s.run, scan, f"n={n} k={k} m={m}", s.name.split(".")[1], s.attrs["t"],
                   s.attrs["status"], s.attrs["nodes"], f"{own[s.id]:.6f}")
            lines.append(",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def overhead_report(untraced: list[float], traced: list[float], tracer_costs: list[float],
                    entry_cost_s: float) -> dict[str, Any]:
    """Traced minus untraced pass time (one sample of each per round, so on a
    workload with long passes it rests on few samples and can be negative),
    beside the tracer's own time as the spans record it."""
    base, with_trace = statistics.median(untraced), statistics.median(traced)
    return {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "untraced_median_s": base,
        "traced_median_s": with_trace,
        "overhead_s": with_trace - base,
        "overhead_frac": (with_trace - base) / base,
        "wrapper_entry_cost_s": entry_cost_s,
        "tracer_cost_s": tracer_costs,
        "tracer_cost_median_s": statistics.median(tracer_costs),
    }
