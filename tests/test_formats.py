import io
import sys

import pytest

from colorref import (
    Coloring,
    ParseError,
    TraceDocument,
    coloring_from_labels,
    emit_coloring,
    emit_dot,
    emit_edge_list,
    emit_trace_document,
    expand_edges,
    naive_refine,
    new_graph,
    parse_coloring,
    parse_dimacs,
    parse_edge_list,
    parse_trace,
    partition_of,
    random_graph,
    refine_step,
    refine_to_fixpoint,
    trace_document,
    zero_coloring,
)
from colorref import formats
from colorref._trace import _EDGES
from colorref.cli import main
from colorref.formats import _CHUNK
from conftest import (
    HUGE,
    complete_graph,
    cycle_graph,
    edge_colors,
    emitted,
    kept_bytes,
    line_loop_outcome,
    parse_outcome,
    path_graph,
    peak_bytes,
    torus_graph,
    written,
)


def test_parse_edge_list_basic():
    assert parse_edge_list("0 1\n1 2") == path_graph(3)


def test_parse_edge_list_header_fixes_count():
    g = parse_edge_list("n 4\n0 1")
    assert g.vertex_count == 4
    assert g.adjacency[3] == ()


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a path\n\n0 1\n\n# tail\n1 2\n")
    assert g == path_graph(3)


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1: self-loop"):
        parse_edge_list("0 0")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n1 two")
    with pytest.raises(ParseError, match="line 2: vertex id 5 exceeds"):
        parse_edge_list("n 3\n2 5")
    with pytest.raises(ParseError, match="expected"):
        parse_edge_list("0 1 2")


def test_parse_edge_list_empty_text():
    assert parse_edge_list("").vertex_count == 0


def test_parse_dimacs_triangle():
    text = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3"
    assert parse_dimacs(text) == complete_graph(3)


def test_parse_dimacs_isolated_vertices():
    g = parse_dimacs("c nothing here\np edge 2 0\n")
    assert g.vertex_count == 2
    assert g.edge_count == 0


def test_parse_dimacs_edge_before_problem_line():
    with pytest.raises(ParseError, match="line 1: edge line precedes"):
        parse_dimacs("e 1 2\np edge 2 1")


def test_parse_dimacs_missing_problem_line():
    with pytest.raises(ParseError, match="missing problem line"):
        parse_dimacs("c only comments\n")


def test_parse_dimacs_id_range():
    with pytest.raises(ParseError, match="outside 1..2"):
        parse_dimacs("p edge 2 1\ne 1 3")


def test_parse_dimacs_duplicate_edges_collapse():
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2")
    assert g.edge_count == 1


def test_parse_dimacs_checks_only_the_syntax_of_the_edge_count():
    # the edges are counted as read; the declared count is never compared
    for m in ("0", "99999999999", "-5"):
        assert parse_dimacs(f"p edge 3 {m}\ne 1 2\n") == new_graph(3, [(0, 1)])
    with pytest.raises(ParseError, match="^line 1: edge count 'x' is not an integer$"):
        parse_dimacs("p edge 3 x\ne 1 2\n")


def test_formats_agree_on_shared_graphs():
    edge_text = "n 4\n0 1\n1 2\n2 3"
    dimacs_text = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4"
    assert parse_edge_list(edge_text) == parse_dimacs(dimacs_text)


def test_formats_agree_on_random_graphs():
    for seed in range(3):
        g = random_graph(7, 0.4, seed)
        dimacs_text = f"p edge {g.vertex_count} {g.edge_count}\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u, v in g.edges()
        )
        assert parse_dimacs(dimacs_text) == parse_edge_list(written(emit_edge_list, g))


def test_parse_coloring_compacts_labels():
    c = parse_coloring("0 7\n1 7\n2 9", 3)
    assert (c.colors, c.palette_size) == ((0, 0, 1), 2)
    assert parse_coloring("0 0\n1 1\n2 2", 3).colors == (0, 1, 2)


def test_parse_coloring_errors():
    with pytest.raises(ParseError, match="line 2: duplicate"):
        parse_coloring("0 0\n0 1", 2)
    with pytest.raises(ParseError, match="missing assignment for vertex 1"):
        parse_coloring("0 0", 2)
    with pytest.raises(ParseError, match="outside"):
        parse_coloring("0 0\n5 1", 2)


def test_parse_coloring_infers_vertex_count():
    c = parse_coloring("1 3\n0 5\n")
    assert c.colors == (1, 0)
    with pytest.raises(ParseError, match="outside"):
        parse_coloring("0 0\n4 1")


def test_coloring_round_trip():
    c = coloring_from_labels([2, 0, 1, 0, 2])
    assert parse_coloring(written(emit_coloring, c), 5) == c


def test_edge_list_round_trip():
    for seed in range(4):
        g = random_graph(9, 0.3, seed)
        assert parse_edge_list(written(emit_edge_list, g)) == g


def test_emit_dot_single_vertex():
    g = new_graph(1, [])
    out = written(emit_dot, g, zero_coloring(g))
    assert 'v0 [label="0:0"' in out
    assert "--" not in out


def test_emit_dot_same_color_same_fill():
    g = new_graph(2, [(0, 1)])
    out = written(emit_dot, g, zero_coloring(g))
    fills = [line.split("fillcolor=")[1] for line in out.splitlines() if "label" in line]
    assert fills[0] == fills[1]
    assert "  v0 -- v1;" in out


def test_emit_dot_distinguishes_classes():
    g = path_graph(3)
    c = refine_step(g, zero_coloring(g))
    assert c.colors == (0, 1, 0)
    out = written(emit_dot, g, c)
    fills = {}
    for line in out.splitlines():
        if "label=" in line:
            name = line.split("[")[0].strip()
            fills[name] = line.split("fillcolor=")[1]
    assert fills["v0"] == fills["v2"] != fills["v1"]


def test_emit_dot_deterministic():
    g = random_graph(7, 0.5, 2)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert written(emit_dot, g, t.final) == written(emit_dot, g, t.final)


def test_emitted_bytes_are_pinned(capsys):
    # the exact text of each emitter and of `colorref gen`, recorded before
    # the emitters wrote into a stream and, for the edge-expanded trace,
    # before the document held its original graph; vertex 4 is isolated
    g = new_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    c = coloring_from_labels([0, 0, 1, 2, 1])
    assert written(emit_edge_list, g) == "n 5\n0 1\n0 2\n1 2\n2 3\n"
    assert written(emit_coloring, c) == "0 0\n1 0\n2 1\n3 2\n4 1\n"
    assert written(emit_dot, g, c) == (
        "graph coloring {\n"
        "  node [shape=circle style=filled];\n"
        '  v0 [label="0:0" fillcolor="#ed6a6a"];\n'
        '  v1 [label="1:0" fillcolor="#ed6a6a"];\n'
        '  v2 [label="2:1" fillcolor="#6a90ed"];\n'
        '  v3 [label="3:2" fillcolor="#b6ed6a"];\n'
        '  v4 [label="4:1" fillcolor="#6a90ed"];\n'
        "  v0 -- v1;\n"
        "  v0 -- v2;\n"
        "  v1 -- v2;\n"
        "  v2 -- v3;\n"
        "}\n"
    )
    x = expand_edges(g)
    doc = trace_document(refine_to_fixpoint(x, zero_coloring(x)), g, expanded=True)
    text = emitted(doc)
    assert text == (
        "n 9\n"
        "m 8\n"
        "initial 0 0 0 0 0 0 0 0 0\n"
        "palette_sizes 1 4 6 7 7\n"
        "coloring 0 0 0 0 0 0 0 0 0\n"
        "coloring 2 2 3 1 0 2 2 2 2\n"
        "coloring 3 3 4 1 0 3 2 2 5\n"
        "coloring 4 4 5 1 0 3 2 2 6\n"
        "coloring 4 4 5 1 0 3 2 2 6\n"
        "converged_at 4\n"
        "class 0 1\nclass 2\nclass 3\nclass 4\nclass 5\nclass 6 7\nclass 8\n"
        "edge_color 0 1 3\n"
        "edge_color 0 2 2\n"
        "edge_color 1 2 2\n"
        "edge_color 2 3 6\n"
    )
    assert parse_trace(text) == doc
    assert main(["gen", "6", "0.5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == (
        "# colorref gen n=6 p=0.5 seed=9\n"
        "n 6\n0 1\n0 2\n0 3\n0 5\n1 4\n2 4\n2 5\n3 5\n"
    )


def test_trace_document_triangle():
    g = complete_graph(3)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    assert doc.trace.palette_sizes == (1, 1)
    assert doc.trace.converged_at == 1
    assert partition_of(doc.trace.final) == ((0, 1, 2),)
    assert emitted(doc) == (
        "n 3\n"
        "m 3\n"
        "initial 0 0 0\n"
        "palette_sizes 1 1\n"
        "coloring 0 0 0\n"
        "coloring 0 0 0\n"
        "converged_at 1\n"
        "class 0 1 2\n"
    )


def test_trace_document_empty_graph():
    g = new_graph(0, [])
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    assert len(doc.trace.final.colors) == 0
    assert doc.trace.converged_at == 1
    assert parse_trace(emitted(doc)) == doc


def test_trace_document_path5():
    g = path_graph(5)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    assert doc.trace.palette_sizes == (1, 2, 3, 3)
    assert doc.trace.converged_at == 3
    assert partition_of(doc.trace.final) == ((0, 4), (1, 3), (2,))


def _expanded_p4_document():
    g = path_graph(4)
    x = expand_edges(g)
    t = refine_to_fixpoint(x, coloring_from_labels([0, 0, 0, 1, 0, 0, 0]), max_iters=1)
    return trace_document(t, g, expanded=True)


def test_trace_round_trip_with_extras():
    doc = _expanded_p4_document()
    assert edge_colors(doc) == ((0, 1, 2), (1, 2, 2), (2, 3, 1))
    text = emitted(doc)
    assert "converged_at none" in text
    assert parse_trace(text) == doc


def test_records_longer_than_a_slice_are_written_whole():
    # 9000 values per record, and one class of 8996, cross the write slices
    g = path_graph(9000)
    t = refine_to_fixpoint(g, zero_coloring(g), max_iters=2)
    text = emitted(trace_document(t, g))
    records = [("initial", t.colorings[0].colors), ("palette_sizes", (1, 2, 3))]
    records += [("coloring", c.colors) for c in t.colorings]
    want = ["n 9000", "m 8999", *(" ".join([k, *map(str, v)]) for k, v in records)]
    want.append("converged_at none")
    classes = partition_of(t.final)
    want += [" ".join(["class", *map(str, cls)]) for cls in classes]
    assert max(map(len, classes)) == 8996
    assert text == "\n".join(want) + "\n"


@pytest.mark.parametrize("edges", [_EDGES, 2 * _EDGES + 1])
def test_edge_color_records_across_write_batches(edges):
    # 256 and 513 edges of a graph of mixed degrees, so the edges' colors differ
    g = new_graph(60, random_graph(60, 0.35, 3).edges()[:edges])
    doc = trace_document(*_expanded_run(g), expanded=True)
    t = doc.trace
    assert g.edge_count == edges and t.converged_at is not None
    assert len({col for _, _, col in edge_colors(doc)}) > 1
    # the reference formats one line per record
    records = [("initial", t.colorings[0].colors), ("palette_sizes", t.palette_sizes)]
    records += [("coloring", c.colors) for c in t.colorings]
    want = [f"n {len(t.final.colors)}", f"m {doc.edge_count}"]
    want += [" ".join([k, *map(str, v)]) for k, v in records]
    want.append(f"converged_at {t.converged_at}")
    want += [" ".join(["class", *map(str, cls)]) for cls in partition_of(t.final)]
    want += [f"edge_color {u} {v} {col}" for u, v, col in edge_colors(doc)]
    assert emitted(doc) == "\n".join(want) + "\n"


class _Discard:
    def write(self, text):
        return len(text)


def _path_trace(n):
    g = path_graph(n)
    return trace_document(refine_to_fixpoint(g, zero_coloring(g)), g)


def _expanded_run(g):
    # the positional arguments of trace_document(..., expanded=True) for the
    # zero-start run on expand_edges(g)
    x = expand_edges(g)
    return refine_to_fixpoint(x, zero_coloring(x)), g


# Each emitter with inputs whose text is long. emit_dot's graph has many
# vertices and one edge, so its text is nearly all vertex lines.
@pytest.mark.parametrize("emit, args", [
    pytest.param(emit_trace_document, (_path_trace(300),), id="emit_trace_document"),
    pytest.param(emit_trace_document,
                 (trace_document(*_expanded_run(cycle_graph(3000)), expanded=True),),
                 id="emit_trace_document-expanded"),
    pytest.param(emit_edge_list, (cycle_graph(3000),), id="emit_edge_list"),
    pytest.param(emit_coloring, (coloring_from_labels(range(3000)),), id="emit_coloring"),
    pytest.param(emit_dot, (new_graph(3000, [(0, 1)]), coloring_from_labels(range(3000))),
                 id="emit_dot"),
])
def test_emitting_into_a_stream_holds_no_whole_output(emit, args):
    size = len(written(emit, *args))
    # holding the text whole would take its size at least. A trace
    # document's class records hold an array slot per vertex and a slice of
    # values, whatever its text; its edge_color records may add nothing to
    # that, which the same document without them measures.
    doc = args[0]
    allowance = 0
    if isinstance(doc, TraceDocument) and doc.original is not None:
        bare = TraceDocument(doc.trace, doc.edge_count, None)
        allowance = peak_bytes(emit, bare, _Discard())
    assert peak_bytes(emit, *args, _Discard()) < size / 2 + allowance


@pytest.mark.parametrize("emit, extra", [
    pytest.param(emit_edge_list, lambda g: (), id="emit_edge_list"),
    pytest.param(emit_dot, lambda g: (zero_coloring(g),), id="emit_dot"),
])
def test_writing_edges_holds_nothing_per_edge(emit, extra):
    peaks = []
    for n in (3000, 30000):
        g = cycle_graph(n)
        peaks.append(peak_bytes(emit, g, *extra(g), _Discard()))
    # measured: about 1 KB on both, where the list g.edges() took about
    # 82 bytes per edge (247 KB and 3.6 MB)
    assert peaks[1] < peaks[0] + 1024 < 4096


def _dimacs(g):
    return f"p edge {g.vertex_count} {g.edge_count}\n" + "".join(
        f"e {u + 1} {v + 1}\n" for u, v in g.edges()
    )


def _expanded_torus(a):
    return expand_edges(torus_graph(a))


def test_parsed_and_built_graphs_hold_one_int_per_vertex():
    # Python caches no int above 256, and cycle_graph's ends are fresh ints
    g = cycle_graph(600)
    for built in (g, parse_edge_list(written(emit_edge_list, g)), parse_dimacs(_dimacs(g))):
        assert built == g
        assert len({id(x) for row in built.adjacency for x in row}) <= built.vertex_count


def test_parsing_dimacs_holds_neither_all_lines_nor_an_int_per_edge_end():
    text = _dimacs(_expanded_torus(60))
    # measured on C_60 x C_60 expanded: about 16 bytes per character of text
    # with every line held at once and an int object per edge end, about 10
    # with the lines read a chunk at a time, 64-bit ends and shared ints
    assert peak_bytes(parse_dimacs, text) < 12.5 * len(text)


def test_a_parsed_graph_keeps_no_object_per_vertex():
    x = _expanded_torus(60)
    # measured on these 10 800 vertices: about 101 bytes per vertex kept
    # with a tuple row and an int object per vertex, about 15 with the two
    # flat CSR columns of 4-byte entries
    assert kept_bytes(parse_dimacs, _dimacs(x)) < 24 * x.vertex_count


def test_emitting_class_records_holds_no_list_per_class():
    x = _expanded_torus(60)
    doc = trace_document(refine_to_fixpoint(x, zero_coloring(x)), x)
    # measured on these 10 800 vertices: about 44 bytes per vertex with
    # partition_of's classes all held at once, about 16 with one 8-byte
    # array slot per vertex and one slice of a class at a time, about 12
    # with a 4-byte slot
    assert peak_bytes(emit_trace_document, doc, _Discard()) < 14 * x.vertex_count


def test_an_expanded_trace_document_holds_no_copy_of_its_edges():
    run = _expanded_run(cycle_graph(3000))
    # measured on these 3 000 original edges: 168 336 bytes kept with a
    # (u, v) tuple per edge, 352 with the original graph shared
    assert kept_bytes(lambda: trace_document(*run, expanded=True)) < 1024


def test_parsing_a_coloring_holds_one_slot_per_vertex():
    n = 43200
    text = "".join(f"{v} {v % 2}\n" for v in range(n))
    # measured: about 78 bytes per assignment with a dict entry and an int
    # per vertex, about 32 with one list slot per vertex and the text read
    # a chunk at a time
    for count in (n, None):
        assert peak_bytes(parse_coloring, text, count) < 50 * n


def test_parsing_dimacs_from_an_open_file_holds_less_than_its_text(tmp_path):
    # an edge line and a comment line per edge of the expanded C_60 x C_60
    # torus: 2.6 MB of text for a graph that takes about 1.5 MB
    note = "c " + "-" * 160 + "\n"
    text = _dimacs(_expanded_torus(60)).replace("\ne", f"\n{note}e")
    path = tmp_path / "g.col"
    path.write_text(text)

    def parse_file():
        with open(path, encoding="utf-8") as fh:
            return parse_dimacs(fh)

    # measured: 5.0 MB when the file is read whole first (its bytes and its
    # text at once), about 1.6 MB when it is read a chunk at a time
    assert peak_bytes(parse_file) < len(text)
    assert parse_file() == parse_dimacs(text)


def test_trace_document_rejects_a_trace_of_another_graph():
    g = path_graph(4)
    t = refine_to_fixpoint(g, zero_coloring(g))
    with pytest.raises(ValueError) as info:
        trace_document(t, path_graph(5))
    assert str(info.value) == "trace covers 4 vertices, not n = 5"


def test_an_expanded_trace_document_rejects_a_trace_of_the_unexpanded_graph():
    # P_4 has 3 edges, so its expansion has 4 + 3 vertices
    g = path_graph(4)
    t = refine_to_fixpoint(g, zero_coloring(g))
    with pytest.raises(ValueError) as info:
        trace_document(t, g, expanded=True)
    assert str(info.value) == "trace covers 4 vertices, not n = 7"
    x = expand_edges(g)
    doc = trace_document(refine_to_fixpoint(x, zero_coloring(x)), g, expanded=True)
    assert (len(doc.trace.final.colors), doc.edge_count, doc.original) == (7, 6, g)


def test_a_run_from_a_list_colored_start_round_trips():
    g = path_graph(3)
    doc = trace_document(refine_to_fixpoint(g, Coloring([0, 1, 0], 2)), g)
    assert parse_trace(emitted(doc)) == doc


# Edge colors that do not fit the run; each text parsed before these checks.
def _made_up_edge_colors():
    g = path_graph(4)
    t = refine_to_fixpoint(g, coloring_from_labels([0, 0, 0, 1]), max_iters=1)
    return emitted(TraceDocument(t, g.edge_count, new_graph(3, [(0, 1), (1, 2)])))


def _expanded_p4_text(old, new):
    text = emitted(_expanded_p4_document())
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        (_made_up_edge_colors(), "line 2: m = 3 is not twice the 2 edge_color records"),
        (_expanded_p4_text("m 6", "m 5"), "line 2: m = 5 is not twice the 3 edge_color records"),
        (_expanded_p4_text("edge_color 2 3 1", "edge_color 2 3 2"),
         "line 13: edge_color 2 is not vertex 6's final color"),
        (_expanded_p4_text("edge_color 0 1 2\nedge_color 1 2 2",
                           "edge_color 1 2 2\nedge_color 0 1 2"),
         "line 12: edge_color pairs are not in increasing order"),
        # a repeated pair is refused even where its color is right
        (_expanded_p4_text("edge_color 1 2 2", "edge_color 0 1 2"),
         "line 12: edge_color pairs are not in increasing order"),
        (_expanded_p4_text("edge_color 0 1 2", "edge_color 1 0 2"),
         "line 11: edge_color pair 1 0 is not u < v below 4"),
        # a loop in increasing order, with the right color
        (_expanded_p4_text("edge_color 1 2 2", "edge_color 1 1 2"),
         "line 12: edge_color pair 1 1 is not u < v below 4"),
        (_expanded_p4_text("edge_color 0 1 2", "edge_color -1 1 2"),
         "line 11: edge_color pair -1 1 is not u < v below 4"),
        (_expanded_p4_text("edge_color 2 3 1", "edge_color 2 4 1"),
         "line 13: edge_color pair 2 4 is not u < v below 4"),
    ],
    ids=["made-up", "m-not-twice-k", "wrong-color", "out-of-order", "repeated-pair",
         "reversed-pair", "looped-pair", "negative-vertex", "virtual-vertex-in-pair"],
)
def test_parse_trace_rejects_edge_colors_that_do_not_fit(text, message):
    with pytest.raises(ParseError) as info:
        parse_trace(text)
    assert str(info.value) == message


def test_parse_trace_ignores_comment_header():
    g = complete_graph(3)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    text = "# run metadata\n" + emitted(doc)
    assert parse_trace(text) == doc


def test_parse_trace_rejects_garbage():
    with pytest.raises(ParseError, match="unrecognized"):
        parse_trace("n 1\nm 0\nbogus 3\n")
    with pytest.raises(ParseError, match="missing"):
        parse_trace("n 1\nm 0\n")
    with pytest.raises(ParseError, match="one size per coloring"):
        parse_trace(
            "n 1\nm 0\ninitial 0\npalette_sizes 1 1\ncoloring 0\nconverged_at none\n"
        )


# A consistent three-vertex trace; each case below breaks one record of it.
GOOD_TRACE = (
    "n 3\nm 2\ninitial 0 0 0\npalette_sizes 1 2 2\n"
    "coloring 0 0 0\ncoloring 0 1 0\ncoloring 0 1 0\n"
    "converged_at 2\nclass 0 2\nclass 1\n"
)


def test_good_trace_parses():
    doc = parse_trace(GOOD_TRACE)
    assert partition_of(doc.trace.final) == ((0, 2), (1,))
    assert emitted(doc) == GOOD_TRACE


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a coloring's width is not n
        ("n 3", "n 4", "line 5: coloring has 3 entries, not n = 4"),
        ("coloring 0 1 0\nconverged", "coloring 0 1\nconverged",
         "line 7: coloring has 2 entries, not n = 3"),
        # a palette that is not compact, or not the declared size
        ("palette_sizes 1 2 2", "palette_sizes 1 2 3",
         "line 7: palette is not compact: color 2 unused"),
        ("coloring 0 1 0\nconverged", "coloring 0 2 0\nconverged",
         r"line 7: color 2 of vertex 1 outside palette 0..1"),
        ("initial 0 0 0\npalette_sizes 1", "initial 0 0 0\npalette_sizes 5",
         "line 5: palette is not compact: 5 colors for 3 vertices"),
        # rejected before a palette of that size is allocated
        ("palette_sizes 1 2 2", "palette_sizes 1 2 99999999999999999999",
         "line 7: palette is not compact: 99999999999999999999 colors for 3 vertices"),
        # classes that are not the final coloring's partition
        ("class 0 2\n", "class 0 0\n", "line 9: classes are not the final"),
        ("class 1\n", "class 1 7\n", "line 10: classes are not the final"),
        ("class 0 2\n", "class 0\n", "line 9: classes are not the final"),
        ("class 1\n", "class\n", "line 10: classes are not the final"),
        ("class 1\n", "", "^classes are not the final"),  # no line: the record is absent
        # a partition of 0..2, but not the one of the final coloring 0 1 0
        ("class 0 2\nclass 1\n", "class 0 1\nclass 2\n", "line 9: classes are not the final"),
        # converged_at outside 1..len(colorings)-1
        ("converged_at 2", "converged_at 0", r"line 8: converged_at must lie in 1..2"),
        ("converged_at 2", "converged_at 3", r"line 8: converged_at must lie in 1..2"),
        # a converged_at that no run gives: these colorings stop at step 2,
        # the first isomorphic to the one before, and three equal ones at 1
        ("converged_at 2", "converged_at 1",
         "line 8: converged_at disagrees with the colorings' first isomorphic step"),
        ("converged_at 2", "converged_at none",
         "line 8: converged_at disagrees with the colorings' first isomorphic step"),
        ("palette_sizes 1 2 2\ncoloring 0 0 0\ncoloring 0 1 0\ncoloring 0 1 0\n"
         "converged_at 2\nclass 0 2\nclass 1\n",
         "palette_sizes 1 1 1\ncoloring 0 0 0\ncoloring 0 0 0\ncoloring 0 0 0\n"
         "converged_at 2\nclass 0 1 2\n",
         "line 8: converged_at disagrees with the colorings' first isomorphic step"),
        # a record repeated, or a negative count
        ("n 3\n", "n 3\nn 3\n", "line 2: duplicate n record"),
        ("m 2\n", "m 2\nm -7\n", "line 3: duplicate m record"),
        ("m 2\n", "m -7\n", "line 2: m must be non-negative"),
        ("initial 0 0 0\n", "initial 0 0 0\ninitial 0 0 0\n", "line 4: duplicate initial record"),
        ("palette_sizes 1 2 2\n", "palette_sizes 1 2 2\npalette_sizes 1 2 2\n",
         "line 5: duplicate palette_sizes record"),
        ("converged_at 2\n", "converged_at 2\nconverged_at 2\n",
         "line 9: duplicate converged_at record"),
    ],
    ids=["n-too-large", "short-coloring", "palette-size-differs", "palette-gap",
         "initial-palette", "palette-oversize", "class-repeats", "class-out-of-range",
         "class-missing", "class-empty", "class-absent", "class-not-final-partition",
         "converged-at-zero", "converged-at-past-end", "converged-at-too-early",
         "converged-at-none-after-a-repeat", "converged-at-after-a-repeat",
         "n-repeated", "m-repeated", "m-negative", "initial-repeated", "palette-sizes-repeated",
         "converged-at-repeated"],
)
def test_parse_trace_rejects_inconsistent_records(old, new, message):
    assert old in GOOD_TRACE
    with pytest.raises(ParseError, match=message):
        parse_trace(GOOD_TRACE.replace(old, new, 1))


# Each text puts a bad TOKEN on line 2. int() alone would accept the first
# two: "1_0" reads as 10 and "\u0661" (Arabic-Indic digit one) as 1. It
# refuses the third, which is longer than its digit limit. Each file-based
# case also runs a command on it, which must exit 2 naming file and line.
BAD_TOKEN_CASES = {
    "edge_list": (parse_edge_list, "0 1\n0 TOKEN\n", "g.edges", ["refine", "{}"]),
    "dimacs": (parse_dimacs, "p edge 10 1\ne 2 TOKEN\n", "g.col", ["refine", "{}"]),
    "coloring": (parse_coloring, "0 0\n1 TOKEN\n", "c.colors", ["compare", "{}", "{}"]),
    "trace": (  # no command reads a trace file
        parse_trace,
        "n 1\nm TOKEN\ninitial 0\npalette_sizes 1\ncoloring 0\nconverged_at none\n",
        None,
        None,
    ),
}


@pytest.mark.parametrize(
    "token", ["1_0", "\u0661", pytest.param("9" * 5000, id="5000-digits")]
)
@pytest.mark.parametrize("case", sorted(BAD_TOKEN_CASES))
def test_parsers_accept_only_ascii_decimal_tokens(case, token, tmp_path, capsys):
    parse, template, filename, command = BAD_TOKEN_CASES[case]
    text = template.replace("TOKEN", token)
    with pytest.raises(ParseError, match="line 2: .* is not an integer") as info:
        parse(text)
    assert info.value.line == 2
    if filename is None:
        return
    path = tmp_path / filename
    path.write_text(text)
    assert main([arg.format(path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 2:" in err


def _one_chunk(head, comment):
    # head and a comment line that ends it at exactly one chunk of the
    # line reader, so the next line starts the second chunk
    return head + comment + " " * (_CHUNK - len(head) - 2) + "\n"


# Exact messages, recorded before the parsers converted with int() alone on
# ASCII text without "_", and before new_graph took its checks over from
# Graph. Several cases break two rules at once and pin which check wins;
# "\u2003" (em space) separates fields like a space.
P31 = "p edge 3 1\n"
H = "n 1\nm 0\ninitial 0\npalette_sizes 1\ncoloring 0\n"  # a trace up to converged_at
MESSAGE_CASES = [
    # a range error wins over a self-loop listed before it
    (new_graph, (3, [(1, 1), (0, 7)]), ValueError, "edge (0, 7) outside 0..2"),
    # the smallest looped vertex is named, not the first one listed
    (new_graph, (3, [(2, 2), (1, 1)]), ValueError, "self-loop at vertex 1"),
    (new_graph, (-1, []), ValueError, "vertex_count must be non-negative"),
    (new_graph, (-1, [(0, 1)]), ValueError, "edge (0, 1) outside 0..-2"),
    (parse_edge_list, ("- 1\n",), ParseError, "line 1: vertex id '-' is not an integer"),
    (parse_edge_list, ("0 1\n0 -\n",), ParseError, "line 2: vertex id '-' is not an integer"),
    (parse_edge_list, ("# a_b\n0 -\n",), ParseError, "line 2: vertex id '-' is not an integer"),
    (parse_edge_list, ("n 3\n1 1\n0 7\n",), ParseError, "line 2: self-loop 1 1"),
    (parse_edge_list, ("n 3\n0 7\n1 1\n",), ParseError, "line 3: self-loop 1 1"),
    (parse_edge_list, ("0\u20031\u20032\n",), ParseError, "line 1: expected 'u v', got '0 1 2'"),
    (parse_dimacs, (P31 + "e 1 2 3\n",), ParseError, "line 2: edge line must be 'e <u> <v>'"),
    (parse_dimacs, (P31 + "e 1\u20032\u20033\n",), ParseError,
     "line 2: edge line must be 'e <u> <v>'"),
    (parse_dimacs, ("e 1 2\n" + P31,), ParseError, "line 1: edge line precedes the problem line"),
    (parse_dimacs, (P31 + "e - 2\n",), ParseError, "line 2: vertex id '-' is not an integer"),
    (parse_dimacs, (P31 + "e 1 -\n",), ParseError, "line 2: vertex id '-' is not an integer"),
    (parse_dimacs, (P31 + "e +1 -0\n",), ParseError, "line 2: vertex id outside 1..3"),
    (parse_dimacs, (P31 + "e 007 2\n",), ParseError, "line 2: vertex id outside 1..3"),
    (parse_dimacs, ("c a_b\n" + P31 + "e 1 1\n",), ParseError, "line 3: self-loop 1 1"),
    (parse_coloring, ("0 007\n1 -\n",), ParseError, "line 2: color '-' is not an integer"),
    # the vertex id is converted, and reported, before the color
    (parse_coloring, ("- -\n",), ParseError, "line 1: vertex id '-' is not an integer"),
    (parse_coloring, ("# x_y\n0 1\n2 -\n",), ParseError, "line 3: color '-' is not an integer"),
    (parse_coloring, ("0\u20031\u20032\n",), ParseError, "line 1: expected 'v c', got '0 1 2'"),
    (parse_coloring, ("+0 007\n-0 1\n",), ParseError, "line 2: duplicate assignment for vertex 0"),
    (parse_coloring, ("-0 +3\n-1 5\n",), ParseError, "line 2: vertex ids must be non-negative"),
    # DIMACS faults after an edge line is read
    (parse_dimacs, (P31 + "e 1 2\np edge 3 1\n",), ParseError, "line 3: duplicate problem line"),
    (parse_dimacs, (P31 + "e 1 2\nx 1\n",), ParseError, "line 3: unrecognized record 'x'"),
    (parse_dimacs, (P31 + "e 1 2\ne 2\n",), ParseError, "line 3: edge line must be 'e <u> <v>'"),
    # trace records: each check's message, line and precedence
    (parse_trace, ("n 1\ninitial 0\n",), ParseError, "missing graph summary (n/m records)"),
    (parse_trace, ("n 1 2\n",), ParseError, "line 1: n needs exactly one value"),
    (parse_trace, ("n -1\n",), ParseError, "line 1: n must be non-negative"),
    (parse_trace, (H + "converged_at\n",), ParseError,
     "line 6: converged_at needs exactly one value"),
    (parse_trace, (H + "converged_at x\n",), ParseError, "line 6: step 'x' is not an integer"),
    # tokens are converted before the key is looked up
    (parse_trace, ("n 1\nbogus x\n",), ParseError, "line 2: value 'x' is not an integer"),
    (parse_trace, (H.replace("coloring 0", "coloring 1") + "converged_at none\n",), ParseError,
     "first coloring record must repeat the initial coloring"),
    (parse_trace, (H.replace("coloring 0\n", "") + "converged_at none\n",), ParseError,
     "first coloring record must repeat the initial coloring"),
    (parse_trace, (H + "converged_at none\nclass 0\nedge_color 0 1\n",), ParseError,
     "line 8: edge_color needs 'u v color'"),
    (parse_trace, ("n 1\nm 0\npalette_sizes 1\ncoloring 0\nconverged_at none\n",), ParseError,
     "missing initial, palette_sizes, or converged_at record"),
    # the first line of the reader's second chunk is numbered on from the first
    (parse_edge_list, (_one_chunk("0 1\n" * 10000, "#") + "1 1\n",), ParseError,
     "line 10002: self-loop 1 1"),
    (parse_dimacs, (_one_chunk(P31 + "e 1 2\n" * 10000, "c") + "e 2 2\n",), ParseError,
     "line 10003: self-loop 2 2"),
    # hostile counts: each fails before a list per vertex is made
    (parse_dimacs, ("p edge 999999999 0\nx\n",), ParseError, "line 2: unrecognized record 'x'"),
    (parse_dimacs, (f"p edge {HUGE} 1\ne 1 {HUGE}\nx\n",), ParseError,
     f"line 1: vertex count must be at most {sys.maxsize}"),
    (parse_edge_list, (f"0 {HUGE}\nx y z\n",), ParseError, "line 2: expected 'u v', got 'x y z'"),
    (parse_edge_list, (f"n {HUGE}\n0 {HUGE}0\n",), ParseError,
     f"line 1: vertex count must be at most {sys.maxsize}"),
    # int() alone converts a chunk only where it is exact: a "_" or a
    # non-ASCII digit in the second chunk is refused after a first without
    (parse_edge_list, (_one_chunk("0 1\n" * 10000, "#") + "1 1_0\n",), ParseError,
     "line 10002: vertex id '1_0' is not an integer"),
    (parse_dimacs, (_one_chunk(P31 + "e 1 2\n" * 10000, "c") + "e 2 \u0661\n",), ParseError,
     "line 10003: vertex id '\u0661' is not an integer"),
    (parse_coloring, (_one_chunk("".join(f"{v} 0\n" for v in range(9000)), "#") + "9000 1_0\n",),
     ParseError, "line 9002: color '1_0' is not an integer"),
    # ends at and past 2**31 are kept whole while the file is read on
    (parse_dimacs, ("p edge 2147483648 1\ne 1 2147483648\nx\n",), ParseError,
     "line 3: unrecognized record 'x'"),
    (parse_dimacs, ("p edge 2147483649 1\ne 2147483649 1\nx\n",), ParseError,
     "line 3: unrecognized record 'x'"),
    # an id past 64 bits is named as it was read, at its own line
    (parse_edge_list, (f"n 5\n0 1\n0 {HUGE}\n",), ParseError,
     f"line 3: vertex id {HUGE} exceeds declared count 5"),
    (parse_edge_list, (f"n 5\n{HUGE} 0\n0 7\n",), ParseError,
     f"line 2: vertex id {HUGE} exceeds declared count 5"),
    (parse_edge_list, (f"n 5\n0 7\n0 {HUGE}\n",), ParseError,
     "line 2: vertex id 7 exceeds declared count 5"),
    (parse_edge_list, (f"0 1\n2 {HUGE}\n3 4\n",), ParseError,
     f"line 2: vertex count must be at most {sys.maxsize}"),
    (parse_edge_list, (f"0 {sys.maxsize}\n1 {sys.maxsize + 1}\n",), ParseError,
     f"line 1: vertex count must be at most {sys.maxsize}"),
    (parse_edge_list, (f"0 {sys.maxsize - 1}\n1 {HUGE}\n",), ParseError,
     f"line 2: vertex count must be at most {sys.maxsize}"),
    # assignments against a vertex count: line faults, in their order, come
    # before the missing vertex, which is the smallest one unassigned
    (parse_coloring, ("-1 0\n", 0), ParseError, "line 1: vertex ids must be non-negative"),
    (parse_coloring, ("0 0\n", 0), ParseError, "line 1: vertex id 0 outside 0..-1"),
    (parse_coloring, ("0 0\n5 1\n5 1\n", 2), ParseError, "line 2: vertex id 5 outside 0..1"),
    (parse_coloring, (f"0 0\n{HUGE} 1\n", 2), ParseError, f"line 2: vertex id {HUGE} outside 0..1"),
    (parse_coloring, ("1 0\n1 0\n9 0\n", 2), ParseError,
     "line 2: duplicate assignment for vertex 1"),
    (parse_coloring, ("0 0\nx\n", 3), ParseError, "line 2: expected 'v c', got 'x'"),
    (parse_coloring, ("", 2), ParseError, "missing assignment for vertex 0"),
    (parse_coloring, ("2 0\n0 0\n", 4), ParseError, "missing assignment for vertex 1"),
    (parse_coloring, ("0 0\n1 0\n", 4), ParseError, "missing assignment for vertex 2"),
    (parse_coloring, ("0 0\n1 0\n3 0\n2 0\n", 6), ParseError, "missing assignment for vertex 4"),
    (parse_coloring, ("3 0\n2 0\n", 5), ParseError, "missing assignment for vertex 0"),
    (parse_coloring, ("3 0\n4 0\n0 0\n1 0\n", 5), ParseError, "missing assignment for vertex 2"),
    # without a count, an id is out of range only once every line is read;
    # the first such id in file order is named, and no line
    (parse_coloring, (f"0 0\n{HUGE} 1\n",), ParseError,
     f"vertex id {HUGE} outside 0..1 (2 assignments)"),
    (parse_coloring, (f"0 0\n{HUGE} 1\n{HUGE} 2\n",), ParseError,
     f"line 3: duplicate assignment for vertex {HUGE}"),
    (parse_coloring, (f"# _\n0 0\n{HUGE} 1\n{HUGE} 2\n",), ParseError,
     f"line 4: duplicate assignment for vertex {HUGE}"),
    (parse_coloring, (f"{HUGE} 0\n{HUGE} 1\nx\n",), ParseError,
     f"line 2: duplicate assignment for vertex {HUGE}"),
    (parse_coloring, ("5 0\n0 0\n3 0\n",), ParseError, "vertex id 5 outside 0..2 (3 assignments)"),
    (parse_coloring, ("3 0\n0 0\n5 0\n",), ParseError, "vertex id 3 outside 0..2 (3 assignments)"),
    (parse_coloring, (f"9 0\n{HUGE} 0\nx\n",), ParseError, "line 3: expected 'v c', got 'x'"),
    # an id past the lines read so far, repeated before or after the file
    # reaches it
    (parse_coloring, ("2 0\n2 1\n0 0\n1 0\n",), ParseError,
     "line 2: duplicate assignment for vertex 2"),
    (parse_coloring, ("2 0\n0 0\n1 0\n2 1\n",), ParseError,
     "line 4: duplicate assignment for vertex 2"),
    (parse_coloring, ("3 0\n0 0\n1 0\n2 0\n3 1\n",), ParseError,
     "line 5: duplicate assignment for vertex 3"),
    (parse_dimacs, ("p edge -1 0\n",), ParseError, "line 1: vertex count must be non-negative"),
    # argument checks of the library calls
    (Coloring, ((), -1), ValueError, "palette_size must be non-negative"),
    (random_graph, (-1, 0.5, 0), ValueError, "n must be non-negative"),
    (emit_dot, (path_graph(2), coloring_from_labels([0]), io.StringIO()), ValueError,
     "coloring and graph have different vertex counts"),
    (naive_refine, (path_graph(2), coloring_from_labels([0])), ValueError,
     "coloring and graph have different vertex counts"),
    (random_graph, (4, 1.5, 0), ValueError, "edge_probability must be in [0, 1]"),
    # an invalid UTF-8 byte, read with errors="surrogateescape", is named
    # with its line before the line's comment test or fields are read
    (parse_edge_list, ("0 1\n# caf\udce9\n1 1\n",), ParseError,
     "line 2: byte 0xe9 is not valid UTF-8"),
    (parse_dimacs, ("c \u00e9\n" + P31 + "e 1 \udcff\n",), ParseError,
     "line 3: byte 0xff is not valid UTF-8"),
    (parse_coloring, ("0 0\n1 1 \udc80\n",), ParseError, "line 2: byte 0x80 is not valid UTF-8"),
    (parse_trace, ("# \udcc3\n" + H,), ParseError, "line 1: byte 0xc3 is not valid UTF-8"),
]


@pytest.mark.parametrize("fn, args, error, message", MESSAGE_CASES)
def test_exact_messages_and_precedence(fn, args, error, message):
    with pytest.raises(error) as info:
        fn(*args)
    assert type(info.value) is error
    assert str(info.value) == message
    # an emitter checks its inputs before it writes a byte
    assert all(arg.tell() == 0 for arg in args if isinstance(arg, io.StringIO))


# Signed and zero-padded fields, an em-space separator and a "_" that sits
# only in a comment all read as plain decimal integers.
@pytest.mark.parametrize(
    "fn, text, want",
    [
        (parse_edge_list, "+3 1\n", new_graph(4, [(3, 1)])),
        (parse_edge_list, "-0 1\n", new_graph(2, [(0, 1)])),
        (parse_edge_list, "007 1\n", new_graph(8, [(7, 1)])),
        (parse_edge_list, "1\u20032\n", new_graph(3, [(1, 2)])),
        (parse_edge_list, "# a_b\n0 1\n", new_graph(2, [(0, 1)])),
        (parse_dimacs, "p edge +3 1\ne +1 003\n", new_graph(3, [(0, 2)])),
        (parse_dimacs, "p edge 3 1\ne 1\u20032\n", new_graph(3, [(0, 1)])),
        (parse_dimacs, "c a_b\np edge 3 1\ne 1 2\n", new_graph(3, [(0, 1)])),
        (parse_coloring, "0 +3\n1 -0\n", coloring_from_labels([3, 0])),
        (parse_coloring, "0\u20031\n", coloring_from_labels([1])),
        (parse_coloring, "# x_y\n0 1\n", coloring_from_labels([1])),
    ],
)
def test_accepted_integer_spellings(fn, text, want):
    assert fn(text) == want


# The block path by hand, read in 16-character blocks: each case gives the
# value or the exact error of the line loop alone, and the cases marked
# "fast" have a block that the block path takes.
E4 = "0 1\n0 2\n0 3\n0 4\n"  # one plain block of four edges
D4 = "p edge 5 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
C4 = "0 0\n1 0\n2 1\n3 1\n"  # one plain block of four assignments
BLOCK_CASES = {
    # an error on the first line of the block after a plain one
    "edges-error-after-plain": (parse_edge_list, E4 + "1 1\n", "line 5: self-loop 1 1", True),
    "dimacs-error-after-plain": (parse_dimacs, D4 + "e 2 6\n", "line 6: vertex id outside 1..5",
                                 True),
    "coloring-error-after-plain": (parse_coloring, C4 + "3 0\n",
                                   "line 5: duplicate assignment for vertex 3", True),
    # a bad last line in a block that is otherwise plain
    "edges-bad-last-line": (parse_edge_list, E4 + "1 2\n1 3\n1 x\n",
                            "line 7: vertex id 'x' is not an integer", True),
    "dimacs-bad-last-line": (parse_dimacs, D4 + "e 2 3\ne 2 2\n", "line 7: self-loop 2 2", True),
    "coloring-bad-last-line": (parse_coloring, C4 + "4 0\n5 0\n9 x\n",
                               "line 7: color 'x' is not an integer", True),
    # an id past the declared count, named at its line after the last one
    "edges-past-the-header": (parse_edge_list, "n 5\n0 1\n0 2\n0 3\n0 4\n1 9\n",
                              "line 6: vertex id 9 exceeds declared count 5", True),
    "dimacs-id-zero": (parse_dimacs, D4 + "e 2 0\n", "line 6: vertex id outside 1..5", True),
    "dimacs-run-on-line": (parse_dimacs, D4 + "e 2 3e 4 5\n",
                           "line 6: edge line must be 'e <u> <v>'", True),
    # a line break other than "\n" between the fields
    "edges-form-feed": (parse_edge_list, E4 + "1\x0c2\n", "line 5: expected 'u v', got '1'", True),
    # a last line with no newline
    "edges-no-last-newline": (parse_edge_list, E4 + "1 2", new_graph(5, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]), True),
    "coloring-no-last-newline": (parse_coloring, C4 + "4 2", coloring_from_labels([0, 0, 1, 1, 2]),
                                 True),
    # CRLF line ends
    "edges-crlf": (parse_edge_list, E4.replace("\n", "\r\n"), new_graph(5, [
        (0, 1), (0, 2), (0, 3), (0, 4)]), False),
    "dimacs-crlf": (parse_dimacs, D4.replace("\n", "\r\n") + "e 5 5\r\n",
                    "line 6: self-loop 5 5", False),
    # a comment among the edge lines
    "edges-comment": (parse_edge_list, E4 + "# 1 1\n1 2\n" + E4, new_graph(5, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]), True),
    "dimacs-comment": (parse_dimacs, D4 + "c 1 1\n" + "e 1 1\n",
                       "line 7: self-loop 1 1", True),
    # a 19-digit id: past 64 bits, or zero-padded
    "edges-19-digits": (parse_edge_list, E4 + "9" * 19 + " 1\n",
                        f"line 5: vertex count must be at most {sys.maxsize}", True),
    "dimacs-19-digits": (parse_dimacs, D4 + "e 0000000000000000006 1\n",
                         "line 6: vertex id outside 1..5", True),
    # leading zeros and a "+" sign
    "edges-leading-zeros": (parse_edge_list, "007 1\n" + E4, new_graph(8, [
        (7, 1), (0, 1), (0, 2), (0, 3), (0, 4)]), True),
    "edges-plus": (parse_edge_list, E4 + "+3 3\n", "line 5: self-loop 3 3", True),
    "coloring-leading-zeros": (parse_coloring, C4 + "04 1\n+5 0\n04 2\n",
                               "line 7: duplicate assignment for vertex 4", True),
    # a coloring out of vertex order, before and after a plain block
    "coloring-out-of-order": (parse_coloring, "1 0\n0 1\n# 45678\n2 1\n3 1\n4 0\n5 0\n7 2\n6 1\n",
                              coloring_from_labels([1, 0, 1, 1, 0, 0, 1, 2]), True),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_the_block_path_by_hand(case, monkeypatch):
    parse, text, want, fast = BLOCK_CASES[case]
    if isinstance(want, str):
        want = f"ParseError: {want}"
    assert line_loop_outcome(parse, text) == want
    taken = []  # the pieces the parser's hook took
    reader = formats._content_lines

    def content_lines(source, comment, plain):
        def hook(piece, first):
            took = plain(piece, first)
            taken.extend([piece] * took)
            return took

        return reader(source, comment, hook)

    monkeypatch.setattr(formats, "_content_lines", content_lines)
    monkeypatch.setattr(formats, "_CHUNK", 16)
    assert parse_outcome(parse, io.StringIO(text)) == want
    assert bool(taken) == fast
