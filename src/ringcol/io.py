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

``write_graph`` and ``write_coloring`` write a graph and a coloring as text,
byte for byte ``dump_json`` of their ``*_to_dict`` forms, without a dict per
entry: ``_graph_text`` and ``_coloring_text`` format each label once.

``load_graph`` and ``load_coloring`` read that exact text without json. A scan
reads 16 384 characters at a time, finds labels and colors with a regex, makes
one Vertex per distinct label string, and builds the Graph (``assemble_graph``)
or EdgeColoring, kept only if the writer's text of it is the file's, compared
piece by piece. That is exact: json would read the file as the value's own
``*_to_dict`` lists, from which the dict reader rebuilds the value, as it passed
the same checks (``assemble_graph`` refuses what ``build_graph`` would refuse or
reorder; the scan also refuses bounds below 1 and a coloring's loop or reversed
edge). Any other text, indented or in another key order say, goes to
``graph_from_dict(load_json(path))`` or ``coloring_from_dict(load_json(path))``,
whose errors and messages are the only ones raised. For ring(32,32) the readers
peak at 4.33 and 4.18 MB, the dict readers at 15.09 and 16.10, and ``verify``
at 7.45 MB (tracemalloc, CPython 3.11.7).
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice, repeat, starmap
from operator import lt
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .coloring import EdgeColoring, VerificationReport, verify
from .errors import FormatError, SoundnessError
from .graphs import Edge, Graph, RingParams, Vertex, as_vertex, assemble_graph, build_graph, make_edge
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
        "t_max": p.t_max,
        "t_max_source": p.t_max_source,
    }


def dump_json(doc: Any, path: str | Path) -> None:
    # no indent: CPython encodes with its C encoder only when indent is None
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# Entries per piece: one write per entry is slower, and more raise a reader's peak memory
_CHUNK = 1024


def _joined(entries: Iterator[str]) -> Iterator[str]:
    """The entries separated by json's ", ", ``_CHUNK`` joined per piece."""
    sep = ""
    while chunk := list(islice(entries, _CHUNK)):
        yield sep
        yield ", ".join(chunk)
        sep = ", "


def _graph_text(g: Graph) -> Iterator[str]:
    """``dump_json(graph_to_dict(g))``'s text in pieces, each label formatted once."""
    label = {v: "[%d, %d]" % v for v in g.vertices}
    yield '{"edges": ['
    yield from _joined(f"[{label[u]}, {label[v]}]" for u, v in g.edges)
    yield '], "k": %d, "n": %d, "vertices": [' % (g.k, g.n)
    yield from _joined(iter(label.values()))
    yield "]}\n"


def _coloring_text(c: EdgeColoring) -> Iterator[str]:
    """``dump_json(coloring_to_dict(c))``'s text in pieces, each label formatted once."""
    colors = c.colors
    label = {v: "[%d, %d]" % v for v in set(chain.from_iterable(colors))}
    yield '{"edges": ['
    yield from _joined(f'{{"color": {colors[e]}, "u": {label[e.u]}, "v": {label[e.v]}}}' for e in sorted(colors))
    yield '], "t": %d}\n' % c.t


def write_graph(g: Graph, path: str | Path) -> None:
    """Write ``dump_json(graph_to_dict(g), path)``'s bytes without the dict; a Graph's labels
    and bounds are ints (``build_graph`` checks them, the generators count them)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_graph_text(g))


def write_coloring(c: EdgeColoring, path: str | Path) -> None:
    """Write ``dump_json(coloring_to_dict(c), path)``'s bytes without the dicts; the colors
    and ``t`` are ints (``EdgeColoring`` checks them), and the labels too (``as_vertex``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_coloring_text(c))


def load_json(path: str | Path) -> Any:
    """The document in a file; OSError if it cannot be read or decoded (not UTF-8, no JSON,
    nested past the decoder's recursion limit, an integer past ``sys.get_int_max_str_digits()``)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise OSError(f"cannot decode {path}: {exc}") from exc


# What the writers spell. A scan only proposes a value, so these may match more than they write
_INT = "-?[0-9]+"
_LABEL = re.compile(rf"\[{_INT}, {_INT}\]")
_BOUNDS = re.compile(rf'"k": ({_INT}), "n": ({_INT})')
_COLOR = re.compile(rf'"color": ({_INT})')
_T = re.compile(rf'"t": ({_INT})\}}')
_READ = 1 << 14  # characters read per piece


class _Memo(dict):
    """``parse`` of each distinct text, called once, so one label or color is one object."""

    def __init__(self, parse: Callable[[str], Any]) -> None:
        self.parse = parse

    def __missing__(self, text: str) -> Any:
        value = self[text] = self.parse(text)
        return value


def _vertex(label: str) -> Vertex:
    layer, index = label[1:-1].split(", ")
    return Vertex(int(layer), int(index))


def _pieces(fh: TextIO, close: str) -> Iterator[str]:
    """The file's text in pieces of about ``_READ`` characters, each cut just after a ``close``."""
    rest = ""
    while block := fh.read(_READ):
        block = rest + block
        cut = block.rfind(close) + 1
        rest = block[cut:]
        yield block[:cut]
    yield rest


def _scan_graph(fh: TextIO) -> Graph | None:
    """The graph a ``write_graph`` text spells: labels before the bounds are edge ends."""
    label = _Memo(_vertex).__getitem__
    ends: list[Vertex] = []
    vertices: list[Vertex] = []
    bounds = None
    for piece in _pieces(fh, "]"):
        at = 0
        if bounds is None and (m := _BOUNDS.search(piece)):
            ends += map(label, _LABEL.findall(piece, 0, m.start()))
            bounds, at = m.groups(), m.end()
        (ends if bounds is None else vertices).extend(map(label, _LABEL.findall(piece, at)))
    if bounds is None:
        return None
    k, n = map(int, bounds)
    pair = iter(ends)
    edges = tuple(map(tuple.__new__, repeat(Edge), zip(pair, pair)))
    return assemble_graph(n, k, tuple(vertices), edges) if min(n, k) >= 1 else None  # as build_graph's check_int


def _scan_coloring(fh: TextIO) -> EdgeColoring | None:
    """The coloring a ``write_coloring`` text spells, its entries in file order."""
    vertex, color = _Memo(_vertex).__getitem__, _Memo(int).__getitem__
    colors: dict[Edge, int] = {}
    t = None
    for piece in _pieces(fh, "}"):
        ends = map(vertex, _LABEL.findall(piece))
        colors.update(zip(map(tuple.__new__, repeat(Edge), zip(ends, ends)), map(color, _COLOR.findall(piece))))
        if m := _T.search(piece):
            t = int(m[1])
    # a loop or a reversed edge would pass the text check, and the dict reader refuses or turns it round
    return EdgeColoring(colors, t) if t is not None and all(starmap(lt, colors)) else None


def _load_written(path: str | Path, scan: Callable[[TextIO], Any], text: Callable[[Any], Iterator[str]]) -> Any:
    """The value ``scan`` makes of a file if ``text`` of it is the file's text, else None."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # newline="": "\r\n" stays two characters
            value = scan(fh)
            fh.seek(0)
            return value if value is not None and all(fh.read(len(s)) == s for s in text(value)) and not fh.read(1) else None
    except (OSError, ValueError, SoundnessError):  # the dict reader raises its own error
        return None


def load_graph(path: str | Path) -> Graph:
    """The graph in a file: ``graph_from_dict(load_json(path))``'s value or error."""
    g = _load_written(path, _scan_graph, _graph_text)
    return g if g is not None else graph_from_dict(load_json(path))


def load_coloring(path: str | Path) -> EdgeColoring:
    """The coloring in a file: ``coloring_from_dict(load_json(path))``'s value or error."""
    c = _load_written(path, _scan_coloring, _coloring_text)
    return c if c is not None else coloring_from_dict(load_json(path))


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
