import gc
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcol import (
    EdgeColoring,
    FormatError,
    Graph,
    ParameterError,
    RingParams,
    Vertex,
    build_graph,
    make_edge,
    mirrored_staircase_coloring,
    ring_graph,
    span_profile,
    t_coloring,
    verify,
)
from ringcol import cli, search
from ringcol import io as rio
from ringcol.cli import main
from ringcol.io import (
    coloring_from_dict,
    coloring_to_dict,
    dot_source,
    dump_json,
    graph_from_dict,
    graph_to_dict,
    load_coloring,
    load_graph,
    load_json,
    write_coloring,
    write_graph,
)

import reference
from strategies import colorings, small_graphs


def run(tmp_path, *argv):
    return main(["--manifest", str(tmp_path / "runs.jsonl"), *argv])


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


def test_graph_round_trip():
    g = ring_graph(RingParams(2, 4))
    doc = graph_to_dict(g)
    assert doc["n"] == 2 and doc["k"] == 4
    back = graph_from_dict(json.loads(json.dumps(doc)))
    assert back == g


def test_coloring_round_trip():
    c = mirrored_staircase_coloring(RingParams(2, 4))
    doc = coloring_to_dict(c)
    back = coloring_from_dict(json.loads(json.dumps(doc)))
    assert back.t == c.t
    assert back.colors == c.colors
    # one Vertex object per label, however many entries spell it
    assert len({id(v) for e in back.colors for v in e}) == len({v for e in back.colors for v in e})


def _assert_writers_match_the_dict_path(g, c):
    """io.write_graph and io.write_coloring write the bytes of dump_json of the dict forms."""
    with tempfile.TemporaryDirectory() as tmp:
        for write, dump, value in ((write_graph, graph_to_dict, g), (write_coloring, coloring_to_dict, c)):
            fast, oracle = Path(tmp, "fast.json"), Path(tmp, "oracle.json")
            write(value, fast)
            dump_json(dump(value), oracle)
            assert fast.read_bytes() == oracle.read_bytes()


@given(g=small_graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_files_round_trip(g, data):
    c = data.draw(colorings(g))
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = Path(tmp, "g.json"), Path(tmp, "c.json")
        dump_json(graph_to_dict(g), gpath)
        dump_json(coloring_to_dict(c), cpath)
        assert load_graph(gpath) == g
        assert load_coloring(cpath) == c
        # one line, sorted keys
        for path, doc in ((gpath, graph_to_dict(g)), (cpath, coloring_to_dict(c))):
            assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True) + "\n"
        # the text writers that generate and construct use write the same bytes; small_graphs
        # draws isolated vertices and graphs with no edge, colorings unused colors and t = 0
        _assert_writers_match_the_dict_path(g, c)
        # files written with indent=2 still load to the same objects
        gpath.write_text(json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        cpath.write_text(json.dumps(coloring_to_dict(c), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        assert load_graph(gpath) == g
        assert load_coloring(cpath) == c


@pytest.mark.parametrize(
    "g, c",
    [
        (build_graph(1, 1, [], []), EdgeColoring({}, 0)),
        (build_graph(2, 2, [(2, 1), (1, 2)], []), EdgeColoring({}, 0)),
        (build_graph(2, 2, [(2, 1), (1, 2)], []), EdgeColoring({}, 3)),
        (ring_graph(RingParams(3, 6)), mirrored_staircase_coloring(RingParams(3, 6))),
        (ring_graph(RingParams(2, 6)), t_coloring(RingParams(2, 6), 8)),
    ],
    ids=["nothing", "isolated-t0", "isolated-unused-colors", "ring-3-6", "ring-2-6-t8"],
)
def test_writers_match_dump_json_on_fixed_cases(g, c):
    _assert_writers_match_the_dict_path(g, c)


@st.composite
def coloring_documents(draw):
    """A coloring document of a small graph with labels as JSON lists or
    Vertex tuples, and, unless the kind drawn is None, one defect inserted: an
    edge colored twice (in either endpoint order), an entry that is no dict or
    lacks a key, a loop, or a layer or index that is a float, str or bool."""
    g = draw(small_graphs())
    doc = coloring_to_dict(draw(colorings(g)))
    if draw(st.booleans()):
        doc = json.loads(json.dumps(doc))
    entries = doc["edges"]
    kinds = [None, "not a dict", "missing key", "loop", "non-integer label"] + ["colored twice"] * bool(entries)
    kind = draw(st.sampled_from(kinds))
    somewhere = st.integers(0, len(entries))
    vertex = [1, 1] if not g.vertices else draw(st.sampled_from(g.vertices))
    if kind == "colored twice":
        entry = draw(st.sampled_from(entries))
        u, v = draw(st.sampled_from([(entry["u"], entry["v"]), (entry["v"], entry["u"])]))
        entries.insert(draw(somewhere), {"u": u, "v": v, "color": entry["color"]})
    elif kind == "not a dict":
        entries.insert(draw(somewhere), draw(st.sampled_from([[[1, 1], [2, 1], 1], "u", 1, None])))
    elif kind == "missing key":
        entry = {"u": vertex, "v": [2, 1], "color": 1}
        del entry[draw(st.sampled_from(sorted(entry)))]
        entries.insert(draw(somewhere), entry)
    elif kind == "loop":
        entries.insert(draw(somewhere), {"u": vertex, "v": vertex, "color": 1})
    elif kind == "non-integer label" and entries:
        entry = draw(st.sampled_from(entries))
        end, axis = draw(st.sampled_from(("u", "v"))), draw(st.integers(0, 1))
        label = list(entry[end])
        label[axis] = draw(st.sampled_from([float(label[axis]), str(label[axis])] + [True] * (label[axis] == 1)))
        entry[end] = label
    elif kind == "non-integer label":
        entries.append({"u": [1.0, 1], "v": [2, 1], "color": 1})
    return kind, doc


def _read(reader, source):
    """What a reader makes of a document or file: a graph, a coloring's t and its entries
    in order, or the exception type and message."""
    try:
        value = reader(source)
    except Exception as exc:
        return type(exc), str(exc)
    return (value.t, list(value.colors.items())) if isinstance(value, EdgeColoring) else value


@given(case=coloring_documents())
@settings(max_examples=200, deadline=None)
def test_coloring_from_dict_matches_the_reference(case):
    kind, doc = case
    got = _read(coloring_from_dict, doc)
    assert got == _read(reference.coloring_from_dict, doc)
    if kind is not None:
        assert got[0] in (FormatError, ParameterError), kind


def _load_through_dict(path):
    """The dict reader that ``load_coloring`` falls back to, and must equal."""
    return coloring_from_dict(load_json(path))


@given(case=coloring_documents())
@settings(max_examples=100, deadline=None)
def test_load_coloring_matches_the_dict_reader_on_every_spelling(case):
    _, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        for text in (json.dumps(doc), json.dumps(doc, sort_keys=True), json.dumps(doc, indent=2)):
            path.write_text(text, encoding="utf-8")
            got = _read(load_coloring, path)
            assert got == _read(_load_through_dict, path)
            if isinstance(got[1], list):
                # one Vertex object per label, however many entries spell it
                ends = [v for e, _ in got[1] for v in e]
                assert len({id(v) for v in ends}) == len(set(ends))


_ENTRY = '{"u": [1, 1], "v": [2, 1], "color": 1}'


@pytest.mark.parametrize("content", [
    f'{{"t": {_ENTRY}, "edges": [{_ENTRY}]}}',
    '{"u": [1, 1], "v": [2, 1], "color": 1, "t": 1, "edges": [%s]}' % _ENTRY,
    f'{{"t": 1, "edges": [{{"u": {_ENTRY}, "v": [2, 1], "color": 1}}]}}',
    f'{{"t": 1, "edges": [{{"u": [1, 1], "v": [2, 1], "color": {_ENTRY}}}]}}',
    f'{{"t": 1, "edges": [{_ENTRY}], "x": {_ENTRY}}}',
    '{"t": 2, "edges": [%s], "edges": [{"u": [1, 1], "v": [1, 2], "color": 2}]}' % _ENTRY,
    '{"t": 2, "edges": [{"u": [1, 1], "v": [2, 1], "color": 1, "w": [9, 9]}, '
    '{"color": 2, "note": "x", "v": [3, 1], "u": [2, 1]}]}',
    f'{{"t": 1, "edges": [{{"x": {_ENTRY}}}]}}',
    '{"t": 2, "edges": [%s, {"u": [2, 1], "v": [1, 1], "color": 2}]}' % _ENTRY,
    '{"t": 2, "edges": [%s, %s]}' % (_ENTRY, _ENTRY),
    b'{"t": 1, "edges": [\xff]}',
    f'{{"edges": [{_ENTRY}]}}',
], ids=["entry-as-t", "document-entry-shaped", "entry-as-label", "entry-as-color", "entry-under-extra-key",
        "two-edges-keys", "entries-with-extra-keys", "entry-wrapped-in-edges", "colored-twice-reversed",
        "colored-twice-same-order", "not-utf8", "no-t"])
def test_load_coloring_matches_the_dict_reader_where_the_hook_could_mislead(tmp_path, content):
    # entry-shaped objects where the dict reader sees no entry: a scan finds them, so the text check must
    # send each file to the dict reader
    path = tmp_path / "c.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    assert _read(load_coloring, path) == _read(_load_through_dict, path)


_READERS = {
    "graph": (load_graph, lambda path: graph_from_dict(load_json(path))),
    "coloring": (load_coloring, _load_through_dict),
}


def _assert_readers_agree(document, path):
    fast, through_dict = _READERS[document]
    got = _read(fast, path)
    assert got == _read(through_dict, path)
    if isinstance(got, Graph):
        # one Vertex object per label, however many edges spell it
        assert len({id(v) for v in got.vertices} | {id(v) for e in got.edges for v in e}) == len(got.vertices)


def _replace(old, new):
    def mutate(text):
        assert old in text, old
        return text.replace(old, new, 1)
    return mutate


_SWAPPED_ENTRIES = _replace(
    '{"color": 3, "u": [1, 1], "v": [2, 1]}, {"color": 4, "u": [1, 1], "v": [2, 2]}',
    '{"color": 4, "u": [1, 1], "v": [2, 2]}, {"color": 3, "u": [1, 1], "v": [2, 1]}',
)
_FIRST_EDGE = "[[1, 1], [2, 1]]"
_FIRST_ENTRY_ENDS = '"u": [1, 1], "v": [2, 1]'
_ANY = [
    ("canonical", lambda text: text),
    ("no-final-newline", lambda text: text[:-1]),
    ("trailing-text", lambda text: text + "]"),
    ("crlf", lambda text: text.replace("\n", "\r\n")),
    ("extra-space", _replace(", ", ",  ")),
    ("not-utf8", lambda text: text[:30].encode() + b"\xff" + text[30:].encode()),
    ("byte-order-mark", lambda text: "\ufeff" + text),
    ("long-integer", _replace("[1, 1]", "[1%s, 1]" % ("0" * 5000))),
]
_GRAPH = [
    ("leading-zero", _replace(_FIRST_EDGE, "[[01, 1], [2, 1]]")),
    ("negative-label", _replace('"vertices": [[1, 1]', '"vertices": [[-1, 1]')),
    ("float-label", _replace(_FIRST_EDGE, "[[1.0, 1], [2, 1]]")),
    ("true-label", _replace(_FIRST_EDGE, "[[true, 1], [2, 1]]")),
    ("unsorted-edges", _replace(f"{_FIRST_EDGE}, [[1, 1], [2, 2]]", f"[[1, 1], [2, 2]], {_FIRST_EDGE}")),
    ("unsorted-vertices", _replace('"vertices": [[1, 1], [1, 2]', '"vertices": [[1, 2], [1, 1]')),
    ("reversed-endpoints", _replace(_FIRST_EDGE, "[[2, 1], [1, 1]]")),
    ("loop", _replace(_FIRST_EDGE, "[[1, 1], [1, 1]]")),
    ("duplicate-edge", _replace("[[1, 1], [2, 2]]", _FIRST_EDGE)),
    ("duplicate-vertex", _replace('"vertices": [[1, 1], [1, 2]', '"vertices": [[1, 1], [1, 1]')),
    ("unknown-endpoint", _replace('"vertices": [[1, 1], [1, 2], ', '"vertices": [[1, 1], ')),
    ("label-outside-bounds", _replace('"k": 4', '"k": 3')),
    ("zero-bounds", lambda text: '{"edges": [], "k": 0, "n": 0, "vertices": []}\n'),
    ("zero-k", lambda text: '{"edges": [], "k": 0, "n": 1, "vertices": []}\n'),
]
_COLORING = [
    ("leading-zero-color", _replace('"color": 3,', '"color": 03,')),
    ("negative-label", _replace(_FIRST_ENTRY_ENDS, '"u": [-1, 1], "v": [2, 1]')),
    ("minus-zero-label", _replace(_FIRST_ENTRY_ENDS, '"u": [-0, 1], "v": [2, 1]')),
    ("float-color", _replace('"color": 3,', '"color": 3.0,')),
    ("true-color", _replace('"color": 3,', '"color": true,')),
    ("unsorted-entries", _SWAPPED_ENTRIES),
    ("reversed-endpoints", _replace(_FIRST_ENTRY_ENDS, '"u": [2, 1], "v": [1, 1]')),
    ("loop", _replace(_FIRST_ENTRY_ENDS, '"u": [1, 1], "v": [1, 1]')),
    ("duplicate-edge", _replace('"u": [1, 1], "v": [2, 2]', _FIRST_ENTRY_ENDS)),
    ("t-below-a-color", _replace('"t": 7}', '"t": 6}')),
    ("negative-t", _replace('"t": 7}', '"t": -1}')),
    ("zero-color", _replace('"color": 3,', '"color": 0,')),
]


@pytest.mark.parametrize("document, mutate", [
    pytest.param(document, mutate, id=f"{document}-{name}")
    for document, cases in (("graph", _ANY + _GRAPH), ("coloring", _ANY + _COLORING))
    for name, mutate in cases
])
def test_readers_match_the_dict_readers_on_mutated_files(tmp_path, document, mutate):
    # files written by generate and construct, each changed in one way; a reader must return what
    # its dict reader returns, or raise what it raises, whichever of its two paths answers
    params = RingParams(2, 4)
    path = tmp_path / f"{document}.json"
    if document == "graph":
        write_graph(ring_graph(params), path)
    else:
        write_coloring(mirrored_staircase_coloring(params), path)
    text = mutate(path.read_text(encoding="utf-8"))
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_readers_agree(document, path)


@given(g=small_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_readers_match_the_dict_readers_after_any_one_edit(g, data):
    # one character of a written file replaced, taken out or put in, drawn from those the files use
    c = data.draw(colorings(g))
    with tempfile.TemporaryDirectory() as tmp:
        for document, write, value in (("graph", write_graph, g), ("coloring", write_coloring, c)):
            path = Path(tmp, f"{document}.json")
            write(value, path)
            text = path.read_text(encoding="utf-8")
            at, cut = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 1))
            new = data.draw(st.sampled_from(["", *'0123456789-[]{}, :"\n\r.etk']))
            path.write_bytes((text[:at] + new + text[at + cut:]).encode("utf-8"))
            _assert_readers_agree(document, path)


@pytest.mark.parametrize("c", [
    EdgeColoring({make_edge(Vertex(-1, 0), Vertex(2, 1)): 1, make_edge(Vertex(-1, 0), Vertex(-1, 5)): 2}, 3),
    EdgeColoring({}, 0),
    EdgeColoring({make_edge(Vertex(1, 1), Vertex(2, 10**40)): 1}, 1),
], ids=["negative-and-zero-labels", "empty", "huge-label"])
def test_load_coloring_reads_any_written_coloring(tmp_path, c):
    # labels of a coloring have no bounds, so negative and huge ones are written and read back
    path = tmp_path / "c.json"
    write_coloring(c, path)
    assert load_coloring(path) == c
    _assert_readers_agree("coloring", path)


@pytest.mark.parametrize("document", ["graph", "coloring"])
def test_readers_match_the_dict_readers_across_a_piece_boundary(tmp_path, document):
    # ring(8,16)'s files are longer than the piece the readers scan at a time; each copy below has
    # one character changed, or one space put in, within an entry's length of the first read's end
    params = RingParams(8, 16)
    path = tmp_path / f"{document}.json"
    if document == "graph":
        write_graph(ring_graph(params), path)
    else:
        write_coloring(mirrored_staircase_coloring(params), path)
    text = path.read_text(encoding="utf-8")
    assert len(text) > rio._READ + 48
    _assert_readers_agree(document, path)
    for at in range(rio._READ - 48, rio._READ + 48):
        ch = text[at]
        changed = str((int(ch) + 1) % 10) if ch.isdigit() else " " + ch
        path.write_bytes((text[:at] + changed + text[at + 1:]).encode("utf-8"))
        _assert_readers_agree(document, path)


def _traced_peak(reader, path):
    """The value a reader reads from a file and the reader's peak traced memory in bytes."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = reader(path)
        return value, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_load_graph_keeps_no_parsed_document(tmp_path):
    # the dict reader peaks at 21.7x the file's size (json's nested vertex and edge lists alive
    # at once), the label scan at 7.6x (tracemalloc, CPython 3.11)
    path = tmp_path / "g.json"
    assert run(tmp_path, "generate", "--n", "16", "--k", "16", "--out", str(path)) == 0
    g, peak = _traced_peak(load_graph, path)
    assert len(g.edges) == 16 * 16 * 16
    assert peak < 15 * path.stat().st_size, (peak, path.stat().st_size)


def test_load_coloring_keeps_no_parsed_document(tmp_path):
    # the dict reader peaks at 11.0x the file's size (every entry dict and label list alive at
    # once), the entry scan at 4.6x (tracemalloc, CPython 3.11)
    path = tmp_path / "c.json"
    assert run(tmp_path, "construct", "--n", "16", "--k", "16", "--out", str(path)) == 0
    coloring, peak = _traced_peak(load_coloring, path)
    assert len(coloring.colors) == 16 * 16 * 16
    assert peak < 7 * path.stat().st_size, (peak, path.stat().st_size)


def test_dot_source_lists_colored_edges():
    params = RingParams(1, 4)
    src = dot_source(ring_graph(params), mirrored_staircase_coloring(params))
    assert src.startswith("graph G {")
    assert '"x1_1" -- "x2_1" [label="2"];' in src


# ---------------------------------------------------------------------------
# generate / construct / verify
# ---------------------------------------------------------------------------


def test_generate_writes_graph_and_dot(tmp_path, capsys):
    # export-dot is the one way to a .dot file
    gpath, dpath = tmp_path / "g.json", tmp_path / "g.dot"
    assert run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(gpath)) == 0
    doc = load_json(gpath)
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 16
    assert run(tmp_path, "export-dot", "--graph", str(gpath), "--out", str(dpath)) == 0
    assert dpath.read_bytes() == dot_source(ring_graph(RingParams(2, 4))).encode("utf-8")
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(gpath), "--dot")
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


def test_generate_writes_the_documented_graph_document(tmp_path):
    # README's graph document, byte for byte: one line, sorted keys, labels as arrays
    out = tmp_path / "g.json"
    assert run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(out)) == 0
    assert out.read_text(encoding="utf-8") == (
        '{"edges": [[[1, 1], [2, 1]], [[1, 1], [4, 1]], [[2, 1], [3, 1]], [[3, 1], [4, 1]]], '
        '"k": 4, "n": 1, "vertices": [[1, 1], [2, 1], [3, 1], [4, 1]]}\n'
    )


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(a))
    run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_parameters(tmp_path):
    assert run(tmp_path, "generate", "--n", "0", "--k", "4", "--out", str(tmp_path / "x.json")) == 2


def test_construct_and_verify_round_trip(tmp_path):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "c.json"
    assert run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(gpath)) == 0
    assert run(tmp_path, "construct", "--n", "2", "--k", "4", "--out", str(cpath)) == 0
    assert load_json(cpath)["t"] == 7
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_verify_pauses_the_cyclic_gc_and_restores_the_callers_setting(tmp_path, monkeypatch, enabled):
    gpath, cpath, bad = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "bad.json"
    assert run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(gpath)) == 0
    assert run(tmp_path, "construct", "--n", "2", "--k", "4", "--out", str(cpath)) == 0
    bad.write_text('{"t": 7, "edges": [{"u": [1, 1]}]}')
    during = []
    monkeypatch.setattr(cli, "verify", lambda g, c: during.append(gc.isenabled()) or verify(g, c))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 0
        assert gc.isenabled() is enabled
        assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(bad)) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_construct_odd_k_exits_with_parity_code(tmp_path):
    assert run(tmp_path, "construct", "--n", "2", "--k", "5", "--out", str(tmp_path / "c.json")) == 3


def test_construct_intermediate_t(tmp_path):
    cpath = tmp_path / "c.json"
    assert run(tmp_path, "construct", "--n", "1", "--k", "4", "--t", "2", "--out", str(cpath)) == 0
    assert load_json(cpath)["t"] == 2


def test_construct_out_of_range_t(tmp_path):
    assert run(tmp_path, "construct", "--n", "1", "--k", "4", "--t", "9", "--out", str(tmp_path / "c.json")) == 2


def test_construct_takes_no_node_limit(tmp_path, capsys):
    # every t of the range is built in closed form: there is no search to budget
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "construct", "--n", "2", "--k", "4", "--t", "5", "--out", "c.json", "--node-limit", "10")
    assert exc.value.code == 2
    assert "unrecognized arguments: --node-limit 10" in capsys.readouterr().err


def test_verify_names_the_violating_vertex(tmp_path, capsys):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    run(tmp_path, "generate", "--n", "2", "--k", "4", "--out", str(gpath))
    run(tmp_path, "construct", "--n", "2", "--k", "4", "--out", str(cpath))
    capsys.readouterr()

    doc = load_json(cpath)
    # recolor one edge to collide at its shared vertex with another edge
    first, second = doc["edges"][0], doc["edges"][1]
    assert first["u"] == second["u"]
    first["color"] = second["color"]
    cpath.write_text(json.dumps(doc))

    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["is_proper"]
    assert report["proper_violations"][0]["vertex"] == first["u"]


def test_verify_prints_labels_and_spectra_as_arrays(tmp_path, capsys):
    # compared as text: a tuple in the report would never equal a parsed list
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(gpath))
    coloring = coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))
    coloring["edges"][0]["color"] = coloring["edges"][1]["color"] = 1  # both at [1, 1]
    cpath.write_text(json.dumps(coloring))
    capsys.readouterr()

    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 1
    expected = {
        "t": 3,
        "is_proper": False,
        "is_interval": False,
        "covers_palette": True,
        "is_interval_coloring": False,
        "proper_violations": [{"vertex": [1, 1], "color": 1, "edges": [[[1, 1], [2, 1]], [[1, 1], [4, 1]]]}],
        "gap_vertices": [{"vertex": [1, 1], "spectrum": [1]}, {"vertex": [2, 1], "spectrum": [1, 3]}],
        "missing_colors": [],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("color", ["3", True, 2.5])
def test_non_integer_color_exits_2_with_one_manifest_line(tmp_path, capsys, color):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(graph_to_dict(ring_graph(RingParams(1, 4)))))
    coloring = coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))
    coloring["edges"][0]["color"] = color
    cpath.write_text(json.dumps(coloring))
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2
    assert "must be an integer" in capsys.readouterr().err
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [("verify", 2)]


@pytest.mark.parametrize("t", ["3", True])
def test_non_integer_t_exits_2_with_one_manifest_line(tmp_path, capsys, t):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(graph_to_dict(ring_graph(RingParams(1, 4)))))
    coloring = coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))
    coloring["t"] = t
    cpath.write_text(json.dumps(coloring))
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2
    assert "must be an integer" in capsys.readouterr().err
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [("verify", 2)]


def test_graph_file_with_a_bool_n_exits_2_with_one_manifest_line(tmp_path, capsys):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    doc = graph_to_dict(ring_graph(RingParams(1, 4)))
    doc["n"] = True
    gpath.write_text(json.dumps(doc))
    cpath.write_text(json.dumps(coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))))
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2
    assert "must be an integer" in capsys.readouterr().err
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [("verify", 2)]


@pytest.mark.parametrize(
    "document, spoil",
    [
        ("graph", lambda g, c: g["vertices"].__setitem__(0, [1, True])),
        ("graph", lambda g, c: g["edges"][0].__setitem__(0, [1.0, 1])),
        ("graph", lambda g, c: g["edges"][0].pop()),
        ("coloring", lambda g, c: c["edges"][0].__setitem__("u", [1, "1"])),
    ],
    ids=["graph-vertex-bool", "graph-endpoint-float", "graph-one-label-edge", "coloring-u-str"],
)
def test_malformed_label_exits_2_with_one_manifest_line(tmp_path, capsys, document, spoil):
    # graph and coloring files are read by the library's one label rule
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    graph = json.loads(json.dumps(graph_to_dict(ring_graph(RingParams(1, 4)))))
    coloring = json.loads(json.dumps(coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))))
    spoil(graph, coloring)
    gpath.write_text(json.dumps(graph))
    cpath.write_text(json.dumps(coloring))
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2
    assert "pair of" in capsys.readouterr().err
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [("verify", 2)]


def test_verify_rejects_unknown_edge_as_mismatch(tmp_path):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(gpath))
    run(tmp_path, "construct", "--n", "1", "--k", "4", "--out", str(cpath))
    doc = load_json(cpath)
    doc["edges"][0]["u"] = [1, 1]
    doc["edges"][0]["v"] = [3, 1]  # a chord C4 does not have
    cpath.write_text(json.dumps(doc))
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2


def test_missing_file_is_an_io_error(tmp_path):
    assert run(tmp_path, "verify", "--graph", str(tmp_path / "no.json"), "--coloring", str(tmp_path / "no.json")) == 5


@pytest.mark.parametrize(
    "command, field",
    [("search", "vertices"), ("search", "edges"), ("verify", "vertices"), ("verify", "coloring edges"),
     ("export-dot", "edges"), ("export-dot", "coloring edges")],
)
@pytest.mark.parametrize("bad", [5, None])
def test_non_list_field_exits_2_with_one_manifest_line(tmp_path, capsys, command, field, bad):
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    graph = graph_to_dict(ring_graph(RingParams(1, 4)))
    coloring = coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))
    if field == "coloring edges":
        coloring["edges"] = bad
    else:
        graph[field] = bad
    gpath.write_text(json.dumps(graph))
    cpath.write_text(json.dumps(coloring))
    argv = {
        "search": ["--graph", str(gpath), "--t", "2"],
        "verify": ["--graph", str(gpath), "--coloring", str(cpath)],
        "export-dot": ["--graph", str(gpath), "--coloring", str(cpath), "--out", str(tmp_path / "g.dot")],
    }[command]
    assert run(tmp_path, command, *argv) == 2
    assert "must be a list" in capsys.readouterr().err
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [(command, 2)]


def test_invalid_json_is_an_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "verify", "--graph", str(bad), "--coloring", str(bad)) == 5


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 where Python sets no limit


@pytest.mark.parametrize("content", [
    b"\xff\xfe",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the JSON decoder's recursion limit
    pytest.param(b'{"n": ' + b"9" * 5_000 + b', "k": 3, "vertices": [], "edges": []}',
                 marks=pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5_000, reason="no integer digit limit below 5 000"),
                 id="long-integer"),
], ids=["not-utf8", "deep-nesting", "long-integer"])
@pytest.mark.parametrize("command, role", [
    ("verify", "graph"), ("verify", "coloring"), ("search", "graph"), ("export-dot", "graph"),
])
def test_an_undecodable_file_exits_5_with_one_manifest_line(tmp_path, capsys, content, command, role):
    gpath, cpath, bad = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "bad.json"
    gpath.write_text(json.dumps(graph_to_dict(ring_graph(RingParams(1, 4)))))
    cpath.write_text(json.dumps(coloring_to_dict(mirrored_staircase_coloring(RingParams(1, 4)))))
    bad.write_bytes(content)
    files = {"graph": str(bad if role == "graph" else gpath), "coloring": str(bad if role == "coloring" else cpath)}
    argv = {
        "verify": ["--graph", files["graph"], "--coloring", files["coloring"]],
        "search": ["--graph", files["graph"], "--t", "2"],
        "export-dot": ["--graph", files["graph"], "--out", str(tmp_path / "g.dot")],
    }[command]
    assert run(tmp_path, command, *argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err, err[:300]
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [(json.loads(line)["command"], json.loads(line)["exit_status"]) for line in lines] == [(command, 5)]


# ---------------------------------------------------------------------------
# search / bounds / bounds-exact
# ---------------------------------------------------------------------------


def test_search_witness_infeasible_and_budget(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(gpath))
    capsys.readouterr()

    # C4 = K2[K̄2]: the one color of the quotient edge lifts to t = 2 in one node
    assert run(tmp_path, "search", "--graph", str(gpath), "--t", "2") == 0
    outcome = json.loads(capsys.readouterr().out)
    assert (outcome["status"], outcome["source"], outcome["nodes_explored"]) == ("witness", "composition_lift", 1)
    assert outcome["witness"]["t"] == 2

    # t = 4 would need a 2-coloring of K2: the search on C4 refutes it
    assert run(tmp_path, "search", "--graph", str(gpath), "--t", "4") == 1
    outcome = json.loads(capsys.readouterr().out)
    assert (outcome["status"], outcome["source"]) == ("infeasible", "search")
    assert set(outcome) == {"status", "source", "nodes_explored", "witness"}

    assert run(tmp_path, "search", "--graph", str(gpath), "--t", "4", "--node-limit", "1") == 4
    assert json.loads(capsys.readouterr().out)["status"] == "exhausted_budget"


@pytest.mark.parametrize(
    "argv",
    [["construct", "--n", "1", "--k", "4", "--t", "2", "--out", "c.json"], ["search", "--graph", "g.json", "--t", "2"],
     ["bounds-exact", "--n", "1", "--k", "4"], ["sweep", "--n-max", "1", "--k-max", "3", "--out", "r"]],
)
def test_no_command_takes_a_strategy_flag(tmp_path, capsys, argv):
    # one engine answers every query: there is nothing to choose
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--strategy", "edge_dfs")
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy edge_dfs" in capsys.readouterr().err


def test_bounds_json(tmp_path, capsys):
    assert run(tmp_path, "bounds", "--n", "2", "--k", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "n": 2,
        "k": 4,
        "chromatic_index": 4,
        "interval_colorable": True,
        "w": 4,
        "W_lower": 7,
        "W_exact": 7,
        "feasible_t": [4, 7],
    }


def test_bounds_exact_c4(tmp_path, capsys):
    assert run(tmp_path, "bounds-exact", "--n", "1", "--k", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["w"] == {"value": 2, "status": "exact"}
    assert doc["W"] == {"value": 3, "status": "exact"}
    assert doc["chi_prime"] == {"value": 2, "status": "exact"}
    assert doc["interval_colorable"] is True


def test_bounds_exact_2_4_cites_the_theorem_cap(tmp_path, capsys):
    assert run(tmp_path, "bounds-exact", "--n", "2", "--k", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == {"value": 7, "status": "exact"}
    assert doc["t_max"] == 7
    assert doc["t_max_source"] == "asratian_kamalian_bipartite"
    assert doc["continuity"] == "ok"


def test_bounds_exact_explicit_t_max_wins(tmp_path, capsys):
    assert run(tmp_path, "bounds-exact", "--n", "1", "--k", "4", "--t-max", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == {"value": 3, "status": "exact"}
    assert (doc["t_max"], doc["t_max_source"]) == (4, "t_max")
    profile = span_profile(ring_graph(RingParams(1, 4)))
    assert (profile.t_max, profile.t_max_source) == (3, "asratian_kamalian_bipartite")


def test_bounds_exact_triangle(tmp_path, capsys):
    assert run(tmp_path, "bounds-exact", "--n", "1", "--k", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interval_colorable"] is False
    assert doc["w"] == {"value": None, "status": "exact"}
    assert doc["chi_prime"] == {"value": 3, "status": "exact"}


@pytest.mark.parametrize("k", [3, 5])
def test_bounds_exact_settles_an_odd_ring_by_the_overfull_rule(tmp_path, capsys, monkeypatch, k):
    # ring(3,k) with nk odd has 9k edges, more than 6 matchings of floor(3k/2) hold: no interval
    # coloring at any t, so the scan asks no t, and chi' = Delta + 1 = 7 by Vizing's theorem, with no query
    asked = []
    monkeypatch.setattr(search, "find_interval_t", lambda *a: asked.append(a))
    assert run(tmp_path, "bounds-exact", "--n", "3", "--k", str(k)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["w"] == doc["W"] == {"value": None, "status": "exact"}
    assert doc["chi_prime"] == {"value": 7, "status": "exact"}
    assert (doc["interval_colorable"], doc["continuity"]) == (False, "n/a")
    assert (doc["t_max"], doc["t_max_source"]) == (0, "overfull")
    assert asked == []


def test_bounds_exact_budget_exit(tmp_path, capsys):
    # ring(2,3)'s query at t = Delta = 4, which w and chi' both rest on, takes 33 nodes: a budget
    # that cuts every query leaves interval colorability open, not false
    assert run(tmp_path, "bounds-exact", "--n", "2", "--k", "3", "--node-limit", "10") == 4
    doc = json.loads(capsys.readouterr().out)
    assert (doc["interval_colorable"], doc["w"]) == (None, {"value": None, "status": "inconclusive"})
    # w = 4 is found within 40 nodes, while the spans above it are cut
    assert run(tmp_path, "bounds-exact", "--n", "2", "--k", "3", "--node-limit", "40") == 4
    doc = json.loads(capsys.readouterr().out)
    assert (doc["interval_colorable"], doc["w"]) == (True, {"value": 4, "status": "exact"})


def _recorded_profiles(monkeypatch):
    """Make cli's span_profile record each profile it returns, keyed by (n, k)."""
    profiles = {}

    def recording(g, cfg):
        assert (g.n, g.k) not in profiles, "a cell asked for two profiles"
        profiles[(g.n, g.k)] = span_profile(g, cfg)
        return profiles[(g.n, g.k)]

    monkeypatch.setattr(cli, "span_profile", recording)
    return profiles


@pytest.mark.parametrize("n, k, flags, settled", [
    (2, 4, ["--t-max", "8", "--node-limit", "10"], False),  # t = 8 is above the lift's reach: a search of G
    (8, 16, ["--node-limit", "5000"], False),
    (2, 4, [], True),
])
def test_bounds_exact_exit_follows_the_profile_settled(tmp_path, capsys, monkeypatch, n, k, flags, settled):
    profiles = _recorded_profiles(monkeypatch)
    code = run(tmp_path, "bounds-exact", "--n", str(n), "--k", str(k), *flags)
    assert [p.settled for p in profiles.values()] == [settled]
    assert code == (0 if settled else 4)


def test_bounds_exact_3_4_settles_W_by_a_lift(tmp_path, capsys, monkeypatch):
    # ring(3,4) = K_{6,6} = K2[K̄6]: the F_j lifts of the quotient edge's one color answer every t from
    # 6 to the Asratian-Kamalian cap 11 (j = 0..5), so W = 11 is exact with no search of ring(3,4) at all
    searched = []
    plain = search.edge_dfs

    def recording(g, t, limit):
        searched.append((g, t))
        return plain(g, t, limit)

    monkeypatch.setattr(search, "edge_dfs", recording)
    profiles = _recorded_profiles(monkeypatch)
    assert run(tmp_path, "bounds-exact", "--n", "3", "--k", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == {"value": 11, "status": "exact"}
    assert doc["w"] == {"value": 6, "status": "exact"}
    assert (doc["continuity"], doc["t_max"], doc["t_max_source"]) == ("ok", 11, "asratian_kamalian_bipartite")
    g = ring_graph(RingParams(3, 4))
    assert [t for h, t in searched if h == g] == []
    assert [(len(h.edges), t) for h, t in searched] == [(1, 1)] * 6  # the K_2 quotient, once per t
    assert profiles[(3, 4)].nodes_explored == 6  # one quotient node per t; chi' = 6 is read off t = 6


def test_bounds_exact_clamps_a_huge_t_max_to_the_edge_count(tmp_path, capsys):
    started = time.perf_counter()
    assert run(tmp_path, "bounds-exact", "--n", "1", "--k", "4", "--t-max", "1000000000") == 0
    assert time.perf_counter() - started < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == {"value": 3, "status": "exact"}
    assert (doc["t_max"], doc["t_max_source"]) == (4, "edges")


def test_bounds_exact_rejects_a_t_max_below_the_max_degree(tmp_path, capsys):
    # ring(2,4) is interval 4-colorable: a cap of 3 must not report otherwise
    assert run(tmp_path, "bounds-exact", "--n", "2", "--k", "4", "--t-max", "3") == 2
    assert capsys.readouterr().out == ""


def test_bounds_exact_on_1024_edges_ends_in_its_budget(tmp_path, capsys):
    assert run(tmp_path, "bounds-exact", "--n", "8", "--k", "16", "--node-limit", "5000") == 4
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["k"], doc["chi_prime"]) == (8, 16, {"value": 16, "status": "exact"})
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["exit_status"] for line in lines] == [4]


@pytest.mark.parametrize("n, k, chi", [(5, 5, 11), (5, 3, 11), (7, 3, 15)])
def test_bounds_exact_settles_an_overfull_ring_by_vizing_alone(tmp_path, capsys, n, k, chi):
    # nk odd: the ring is overfull, so chi' = Delta + 1 and no t is asked; a proper search of
    # ring(5,5) at t = Delta + 1 = 11 ran past 2 M nodes undecided
    started = time.perf_counter()
    assert run(tmp_path, "bounds-exact", "--n", str(n), "--k", str(k)) == 0
    assert time.perf_counter() - started < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["chi_prime"], doc["t_max_source"]) == ({"value": chi, "status": "exact"}, "overfull")


def test_sweeps_and_bounds_exact_of_rings_run_no_proper_search(tmp_path, monkeypatch):
    # every ring is overfull or regular, so its own padding at Delta: chi' comes from Vizing's theorem
    # or from the profile's own t = Delta query, and no query asks about any graph but the profiled ring
    profiled, calls = [], []
    profile, query = cli.span_profile, search.find_interval_t

    def profiling(g, cfg):
        profiled.append(g)
        return profile(g, cfg)

    def counting(g, t, cfg=None):
        if g is not profiled[-1]:
            calls.append((len(g.edges), t))
        return query(g, t, cfg)

    monkeypatch.setattr(cli, "span_profile", profiling)
    monkeypatch.setattr(search, "find_interval_t", counting)
    # the budget keeps the refutations above W on ring(2,5) and ring(2,6) short; it cuts no chi' query
    out = str(tmp_path / "report")
    assert run(tmp_path, "sweep", "--n-max", "2", "--k-max", "6", "--node-limit", "20000", "--out", out) == 0
    cells = load_json(tmp_path / "report.json")["cells"]
    assert [cell["chi_agree"] for cell in cells] == ["yes"] * 8
    assert run(tmp_path, "bounds-exact", "--n", "5", "--k", "5") == 0
    assert (len(profiled), calls) == (9, [])


# ---------------------------------------------------------------------------
# sweep / export-dot / manifest
# ---------------------------------------------------------------------------


def test_sweep_small_grid(tmp_path, capsys):
    out = tmp_path / "report"
    assert run(tmp_path, "sweep", "--n-max", "1", "--k-max", "6", "--out", str(out)) == 0
    csv_text = (tmp_path / "report.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + 4  # header + k = 3..6
    doc = load_json(tmp_path / "report.json")
    cells = {(cell["n"], cell["k"]): cell for cell in doc["cells"]}
    assert cells[(1, 3)]["w_status"] == "not_interval_colorable"
    assert cells[(1, 3)]["continuity"] == "n/a"
    assert cells[(1, 5)]["w_status"] == "not_interval_colorable"
    assert cells[(1, 4)]["w_oracle"] == 2
    assert cells[(1, 4)]["W_oracle"] == 3
    assert cells[(1, 6)]["W_oracle"] == 4
    assert cells[(1, 6)]["continuity"] == "ok"
    assert all(cell["chi_agree"] == "yes" for cell in doc["cells"])


def test_sweep_node_column_counts_every_query_of_the_cell(tmp_path, monkeypatch):
    # one profile per cell, whose count already includes the chi' queries
    profiles = _recorded_profiles(monkeypatch)
    out = tmp_path / "report"
    assert run(tmp_path, "sweep", "--n-max", "2", "--k-max", "3", "--out", str(out)) == 0
    cells = load_json(tmp_path / "report.json")["cells"]
    assert {(cell["n"], cell["k"]): cell["nodes_explored"] for cell in cells} == {
        cell: profile.nodes_explored for cell, profile in profiles.items()
    }


def test_sweep_rejects_empty_grid(tmp_path):
    assert run(tmp_path, "sweep", "--n-max", "0", "--k-max", "4", "--out", str(tmp_path / "r")) == 2


def test_export_dot(tmp_path):
    gpath, cpath, dpath = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "g.dot"
    run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(gpath))
    run(tmp_path, "construct", "--n", "1", "--k", "4", "--out", str(cpath))
    assert run(tmp_path, "export-dot", "--graph", str(gpath), "--coloring", str(cpath), "--out", str(dpath)) == 0
    assert "label=" in dpath.read_text()


@pytest.mark.parametrize("defect", ["stray edge", "missing edge"])
def test_export_dot_refuses_a_coloring_of_another_graph(tmp_path, capsys, defect):
    # the same totality check as verify, with its message, and no DOT file written
    gpath, cpath, dpath = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "g.dot"
    run(tmp_path, "generate", "--n", "1", "--k", "4", "--out", str(gpath))
    if defect == "stray edge":
        run(tmp_path, "construct", "--n", "2", "--k", "4", "--out", str(cpath))
    else:
        run(tmp_path, "construct", "--n", "1", "--k", "4", "--out", str(cpath))
        doc = load_json(cpath)
        doc["edges"].pop()
        cpath.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "verify", "--graph", str(gpath), "--coloring", str(cpath)) == 2
    message = capsys.readouterr().err
    assert ("does not exist in the graph" if defect == "stray edge" else "uncolored") in message
    assert run(tmp_path, "export-dot", "--graph", str(gpath), "--coloring", str(cpath), "--out", str(dpath)) == 2
    assert capsys.readouterr().err == message
    assert not dpath.exists()


def test_construct_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(tmp_path, "construct", "--n", "2", "--k", "6", "--out", str(a))
    run(tmp_path, "construct", "--n", "2", "--k", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_node_limit_reaches_the_manifest(tmp_path, capsys):
    # a run's budget is read from its flags alone, so its manifest line replays it
    gpath = tmp_path / "g.json"
    run(tmp_path, "generate", "--n", "1", "--k", "6", "--out", str(gpath))
    capsys.readouterr()
    assert run(tmp_path, "search", "--graph", str(gpath), "--t", "3", "--node-limit", "1") == 4
    assert json.loads(capsys.readouterr().out)["status"] == "exhausted_budget"
    assert run(tmp_path, "bounds-exact", "--n", "1", "--k", "4", "--node-limit", "7") == 0
    assert run(tmp_path, "sweep", "--n-max", "1", "--k-max", "4", "--out", str(tmp_path / "s"), "--node-limit", "50") == 0
    lines = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [(m["command"], m["parameters"].get("node_limit")) for m in lines] == [
        ("generate", None), ("search", 1), ("bounds-exact", 7), ("sweep", 50)]
    assert load_json(tmp_path / "s.json")["node_limit"] == 50


@pytest.mark.extended
def test_full_sweep_settles_the_2_4_row_exactly(tmp_path):
    out = tmp_path / "report"
    assert run(tmp_path, "sweep", "--n-max", "2", "--k-max", "4", "--out", str(out)) == 0
    cells = {(c["n"], c["k"]): c for c in load_json(tmp_path / "report.json")["cells"]}
    row = cells[(2, 4)]
    assert row["w_oracle"] == 4 and row["w_status"] == "exact" and row["w_agree"] == "yes"
    assert row["W_oracle"] == 7 and row["W_status"] == "exact"
    assert row["W_lower_formula"] == 7
    assert row["chi_agree"] == "yes"
    assert row["continuity"] == "ok"


def test_one_parser_serves_every_call_and_no_option_leaks(tmp_path):
    # main builds its parser once per process; each call still starts from the defaults
    assert cli.build_parser() is cli.build_parser()
    a, b, g = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "g.json"
    assert run(tmp_path, "construct", "--n", "2", "--k", "6", "--t", "8", "--out", str(a)) == 0
    assert run(tmp_path, "generate", "--n", "2", "--k", "6", "--out", str(g)) == 0
    assert run(tmp_path, "construct", "--n", "2", "--k", "6", "--out", str(b)) == 0
    assert (load_coloring(a).t, load_coloring(b).t) == (8, 9)  # 9 = 2n + nk/2 - 1, the widest
    lines = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [sorted(m["parameters"]) for m in lines] == [["k", "n", "out", "t"], ["k", "n", "out"], ["k", "n", "out"]]
    parser = cli.build_parser()
    assert parser.parse_args(["construct", "--n", "32", "--k", "32", "--t", "64", "--out", "x"]).t == 64
    assert parser.parse_args(["construct", "--n", "32", "--k", "32", "--out", "x"]).t is None
    assert not hasattr(parser.parse_args(["generate", "--n", "1", "--k", "3", "--out", "x"]), "t")


def test_every_run_appends_a_manifest_line(tmp_path):
    run(tmp_path, "bounds", "--n", "1", "--k", "4")
    run(tmp_path, "generate", "--n", "0", "--k", "4", "--out", str(tmp_path / "x.json"))
    lines = (tmp_path / "runs.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["command"] == "bounds"
    assert first["exit_status"] == 0
    assert set(first) == {"command", "parameters", "artifact_paths", "exit_status", "wall_time_s"}
    assert second["command"] == "generate"
    assert second["exit_status"] == 2


def test_a_command_line_argparse_refuses_exits_2_without_a_manifest_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "generate", "--n", "abc", "--k", "4", "--out", str(tmp_path / "g.json"))
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert not (tmp_path / "runs.jsonl").exists() and not (tmp_path / "g.json").exists()
