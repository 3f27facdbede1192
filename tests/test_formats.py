import pytest

from colorref import (
    ParseError,
    coloring_from_labels,
    emit_coloring,
    emit_dot,
    emit_edge_list,
    emit_trace_document,
    new_graph,
    parse_coloring,
    parse_dimacs,
    parse_edge_list,
    parse_trace,
    random_graph,
    refine_step,
    refine_to_fixpoint,
    trace_document,
    zero_coloring,
)
from colorref.cli import main
from conftest import complete_graph, path_graph


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
        assert parse_dimacs(dimacs_text) == parse_edge_list(emit_edge_list(g))


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
    assert parse_coloring(emit_coloring(c), 5) == c


def test_edge_list_round_trip():
    for seed in range(4):
        g = random_graph(9, 0.3, seed)
        assert parse_edge_list(emit_edge_list(g)) == g


def test_emit_dot_single_vertex():
    g = new_graph(1, [])
    out = emit_dot(g, zero_coloring(g))
    assert 'v0 [label="0:0"' in out
    assert "--" not in out


def test_emit_dot_same_color_same_fill():
    g = new_graph(2, [(0, 1)])
    out = emit_dot(g, zero_coloring(g))
    fills = [line.split("fillcolor=")[1] for line in out.splitlines() if "label" in line]
    assert fills[0] == fills[1]
    assert "  v0 -- v1;" in out


def test_emit_dot_distinguishes_classes():
    g = path_graph(3)
    c = refine_step(g, zero_coloring(g))
    assert c.colors == (0, 1, 0)
    out = emit_dot(g, c)
    fills = {}
    for line in out.splitlines():
        if "label=" in line:
            name = line.split("[")[0].strip()
            fills[name] = line.split("fillcolor=")[1]
    assert fills["v0"] == fills["v2"] != fills["v1"]


def test_emit_dot_deterministic():
    g = random_graph(7, 0.5, 2)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert emit_dot(g, t.final) == emit_dot(g, t.final)


def test_trace_document_triangle():
    g = complete_graph(3)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    assert doc.palette_sizes == (1, 1)
    assert doc.converged_at == 1
    assert doc.classes == ((0, 1, 2),)
    assert emit_trace_document(doc) == (
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
    assert doc.vertex_count == 0
    assert doc.converged_at == 1
    assert parse_trace(emit_trace_document(doc)) == doc


def test_trace_document_path5():
    g = path_graph(5)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    assert doc.palette_sizes == (1, 2, 3, 3)
    assert doc.converged_at == 3
    assert doc.classes == ((0, 4), (1, 3), (2,))


def test_trace_round_trip_with_extras():
    g = path_graph(4)
    t = refine_to_fixpoint(g, coloring_from_labels([0, 0, 0, 1]), max_iters=1)
    doc = trace_document(t, g, edge_colors=((0, 1, 2), (1, 2, 0)))
    text = emit_trace_document(doc)
    assert "converged_at none" in text
    assert parse_trace(text) == doc


def test_parse_trace_ignores_comment_header():
    g = complete_graph(3)
    t = refine_to_fixpoint(g, zero_coloring(g))
    doc = trace_document(t, g)
    text = "# run metadata\n" + emit_trace_document(doc)
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
    assert doc.classes == ((0, 2), (1,))
    assert emit_trace_document(doc) == GOOD_TRACE


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
         "converged-at-zero", "converged-at-past-end", "n-repeated", "m-repeated",
         "m-negative", "initial-repeated", "palette-sizes-repeated",
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
