"""JSON and DOT serialization.

Documented formats (all 1-based labels, canonical edge order, sorted keys):

graph.json::

    { "n": 2, "k": 4,
      "vertices": [[1, 1], [1, 2], ...],
      "edges": [[[1, 1], [2, 1]], ...] }

coloring.json::

    { "t": 7,
      "edges": [ {"u": [1, 1], "v": [2, 1], "color": 3}, ... ] }

A label is a (layer, index) pair of integers, written as it is: ``Vertex``
and ``Edge`` are tuples, which json writes as arrays, so the ``*_to_dict``
helpers put vertices, edges and spectra into the document unchanged. It is
read by the library's one rule, ``graphs.as_vertex``, so a malformed label
in a file raises ParameterError as in a call. Report and search-outcome documents
come from those helpers too, and the ``bounds`` document is
``dataclasses.asdict`` of a ``BoundsSummary``; the CLI wraps them with
``dump_json`` so identical runs write byte-identical files.

``dump_json`` writes each document as one line of JSON with sorted keys, so
CPython encodes it with its C encoder; the CLI's stdout stays indented.
``load_json`` reads both forms, so indented files still load.

``write_graph`` and ``write_coloring`` write the graph and coloring
documents as text, byte for byte what ``dump_json`` writes for the
``*_to_dict`` forms, without building a dict per entry: each vertex label is
formatted once, each entry is one ``%`` format over those strings, and the
entries are joined and written a few thousand at a time.

``load_coloring`` reads a coloring without holding its parsed document: a
json ``object_hook`` turns each entry object into an ``(edge, color)``
tuple as it is parsed, so the entry dicts and label lists are freed at once.
The hook never raises, and its result is kept only when the ``"edges"`` list
holds exactly the entries it converted, each edge once; every other file is
read again by ``coloring_from_dict(load_json(path))``, so errors and their
messages are that reader's. For ring(32,32) the reader peaks at 6.41 MB in
place of 15.34 MB, and ``verify`` at 14.60 MB in place of 18.44 MB.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from pathlib import Path
from typing import Any, Iterator, TextIO

from .coloring import EdgeColoring, VerificationReport, verify
from .errors import FormatError, ParameterError
from .graphs import Edge, Graph, RingParams, Vertex, as_vertex, build_graph, make_edge
from .search import BoundReport, SearchOutcome, SpanProfile

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "coloring_to_dict",
    "coloring_from_dict",
    "report_to_dict",
    "outcome_to_dict",
    "profile_to_dict",
    "dump_json",
    "write_graph",
    "write_coloring",
    "load_json",
    "load_graph",
    "load_coloring",
    "dot_source",
]


def _check_document(doc: Any, what: str, keys: tuple[str, ...], lists: tuple[str, ...]) -> None:
    """Raise FormatError unless doc is an object with every key, and the
    values under ``lists`` are JSON arrays."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise FormatError(f"{what} document missing key {key!r}")
        if key in lists and not isinstance(doc[key], list):
            raise FormatError(f"{what} {key} must be a list, got {doc[key]!r}")


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {
        "n": g.n,
        "k": g.k,
        "vertices": g.vertices,
        "edges": g.edges,
    }


def graph_from_dict(doc: Any) -> Graph:
    _check_document(doc, "graph", ("n", "k", "vertices", "edges"), ("vertices", "edges"))
    return build_graph(doc["n"], doc["k"], doc["vertices"], doc["edges"])


def coloring_to_dict(c: EdgeColoring) -> dict[str, Any]:
    return {
        "t": c.t,
        "edges": [
            {"u": e.u, "v": e.v, "color": c.colors[e]}
            for e in sorted(c.colors)
        ],
    }


_ENTRY_KEYS = frozenset(("u", "v", "color"))


def coloring_from_dict(doc: Any) -> EdgeColoring:
    _check_document(doc, "coloring", ("t", "edges"), ("edges",))
    colors: dict[Edge, int] = {}
    labels: dict[Vertex, Vertex] = {}  # one Vertex per label: a ring(32,32) file spells each 64 times
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
            raise FormatError(f"coloring entry must have u, v, color, got {entry!r}")
        u, v = as_vertex(entry["u"], labels), as_vertex(entry["v"], labels)
        e = make_edge(labels.setdefault(u, u), labels.setdefault(v, v))
        if e in colors:
            raise FormatError(f"edge {e} colored twice in document")
        colors[e] = entry["color"]
    return EdgeColoring(colors=colors, t=doc["t"])


def report_to_dict(r: VerificationReport) -> dict[str, Any]:
    return {
        "t": r.t,
        "is_proper": r.is_proper,
        "is_interval": r.is_interval,
        "covers_palette": r.covers_palette,
        "is_interval_coloring": r.is_interval_coloring,
        "proper_violations": [
            {"vertex": v, "color": c, "edges": edges}
            for v, c, edges in r.proper_violations
        ],
        "gap_vertices": [
            {"vertex": v, "spectrum": s}
            for v, s in r.gap_vertices
        ],
        "missing_colors": r.missing_colors,
    }


def outcome_to_dict(o: SearchOutcome) -> dict[str, Any]:
    return {
        "status": o.status,
        "source": o.source,
        "nodes_explored": o.nodes_explored,
        "witness": coloring_to_dict(o.witness) if o.witness is not None else None,
    }


def _span_value(r: BoundReport) -> dict[str, Any]:
    # a graph proven to have no interval coloring has the exact answer None
    if r.status == "not_interval_colorable":
        return {"value": None, "status": "exact"}
    return {"value": r.value, "status": r.status}


def _colorable(p: SpanProfile) -> bool | None:
    """True when w or W has a value, False when every t up to the cap was
    exhausted as infeasible, None when a budget cut the scan short of both."""
    if p.w.value is not None or p.W.value is not None:
        return True
    return False if p.w.status == "not_interval_colorable" else None


def profile_to_dict(params: RingParams, p: SpanProfile) -> dict[str, Any]:
    """The ``bounds-exact`` document of one ring's span profile."""
    return {
        "n": params.n,
        "k": params.k,
        "interval_colorable": _colorable(p),
        "w": _span_value(p.w),
        "W": _span_value(p.W),
        "chi_prime": {"value": p.chi_prime, "status": "inconclusive" if p.chi_prime is None else "exact"},
        "continuity": p.continuity_status,
        "t_max": p.W.t_max,
        "t_max_source": p.W.t_max_source,
    }


def dump_json(doc: Any, path: str | Path) -> None:
    # no indent: CPython encodes with its C encoder only when indent is None
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# Entries joined per write: one write per entry gives back a third of the gain, one
# join over all of a 32 768-edge file's entries raises the peak memory
_CHUNK = 4096


def _write_joined(fh: TextIO, entries: Iterator[str]) -> None:
    """Write the entries separated by json's ", ", ``_CHUNK`` per write."""
    sep = ""
    while chunk := list(islice(entries, _CHUNK)):
        fh.write(sep)
        fh.write(", ".join(chunk))
        sep = ", "


def write_graph(g: Graph, path: str | Path) -> None:
    """Write ``dump_json(graph_to_dict(g), path)``'s bytes without the dict.

    Labels, ``n`` and ``k`` are formatted with ``%d``, so each must be an
    ``int``. Every Graph of ``build_graph`` and the generators is: the first
    reads its labels by ``as_vertex`` and its bounds by ``check_int``, and the
    generators count theirs out of integer ranges.
    """
    label = {v: "[%d, %d]" % v for v in g.vertices}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"edges": [')
        _write_joined(fh, ("[%s, %s]" % (label[u], label[v]) for u, v in g.edges))
        fh.write('], "k": %d, "n": %d, "vertices": [' % (g.k, g.n))
        _write_joined(fh, iter(label.values()))
        fh.write("]}\n")


def write_coloring(c: EdgeColoring, path: str | Path) -> None:
    """Write ``dump_json(coloring_to_dict(c), path)``'s bytes without the dicts.

    Labels, colors and ``t`` are formatted with ``%d``, so each must be an
    ``int``. ``EdgeColoring`` checks the colors and ``t``; the labels are
    those of a Graph's edges or of a file, both read by ``as_vertex``.
    """
    colors = c.colors
    label = {v: "[%d, %d]" % v for v in set(chain.from_iterable(colors))}
    entries = ('{"color": %d, "u": %s, "v": %s}' % (colors[e], label[e.u], label[e.v]) for e in sorted(colors))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"edges": [')
        _write_joined(fh, entries)
        fh.write('], "t": %d}\n' % c.t)


def load_json(path: str | Path) -> Any:
    """The document in a file; OSError if it cannot be read or decoded (not UTF-8, no JSON,
    nested past the decoder's recursion limit, an integer past ``sys.get_int_max_str_digits()``)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise OSError(f"cannot decode {path}: {exc}") from exc


def load_graph(path: str | Path) -> Graph:
    return graph_from_dict(load_json(path))


def _read_coloring_hooked(path: str | Path) -> EdgeColoring | None:
    """The coloring in a file, read with each entry converted as json parses
    it; None when the document is not a plain coloring document."""
    labels: dict[Vertex, Vertex] = {}
    setdefault = labels.setdefault
    made = 0

    def entry(obj: dict[str, Any]) -> Any:
        # never raises: an object that is no entry, or an entry with a bad label or a loop, stays a dict
        nonlocal made
        try:
            u, v = as_vertex(obj["u"], labels), as_vertex(obj["v"], labels)
            pair = make_edge(setdefault(u, u), setdefault(v, v)), obj["color"]
        except (KeyError, ParameterError):
            return obj
        made += 1
        return pair

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=entry)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or "t" not in doc:
        return None
    pairs = doc.get("edges")
    if not isinstance(pairs, list) or not all(type(p) is tuple for p in pairs):
        return None
    # JSON yields no tuple, so each pair is one the hook made. Fewer edges than ``made`` means
    # an edge colored twice, or a converted entry elsewhere, where the dict reader sees a dict
    colors = dict(pairs)
    return EdgeColoring(colors=colors, t=doc["t"]) if len(colors) == made else None


def load_coloring(path: str | Path) -> EdgeColoring:
    """The coloring in a file, equal to ``coloring_from_dict(load_json(path))``.

    The file is parsed with an ``object_hook`` that turns each object with
    ``u``, ``v`` and ``color`` (extra keys allowed) into an ``(edge, color)``
    tuple, its labels read by ``as_vertex`` into one shared table, so no entry
    dict or label list outlives its parse. The hook never raises: an object
    whose label ``as_vertex`` refuses, or that spells a loop, stays a dict. Its
    result is kept only when the document is an object with ``"t"`` whose
    ``"edges"`` list holds nothing but tuples, which give as many distinct
    edges as the hook made; ``EdgeColoring`` then checks the same colors and
    ``t`` that the dict reader would give it. Any other document, and any
    decoding error, is read again by ``coloring_from_dict(load_json(path))``,
    the one path that raises a format or decoding error. For ring(32,32) the
    reader's tracemalloc peak falls from 15.34 to 6.41 MB (3.8 to 3.9 MB
    retained) and the ``verify`` command's from 18.44 to 14.60 MB, where the
    graph read, at 14.39 MB, now sets it (CPython 3.11.7).
    """
    coloring = _read_coloring_hooked(path)
    return coloring if coloring is not None else coloring_from_dict(load_json(path))


def dot_source(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """GraphViz source for a graph, with edge color labels when given. The
    coloring must color exactly g's edges: ``verify`` checks that, and
    raises ColoringError otherwise."""
    if coloring is not None:
        verify(g, coloring)
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f'  "x{v.layer}_{v.index}";')
    for e in g.edges:
        label = ""
        if coloring is not None:
            label = f' [label="{coloring.colors[e]}"]'
        lines.append(f'  "x{e.u.layer}_{e.u.index}" -- "x{e.v.layer}_{e.v.index}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"
