import io
import os
import stat
import subprocess
import sys
import tempfile

import pytest

from colorref import (Graph, RefinementTrace, emit_coloring, emit_edge_list,
                      emit_trace_document, expand_edges, parse_edge_list, parse_trace,
                      partition_of, refine_to_fixpoint, trace_document, zero_coloring)
from colorref import cli
from colorref.cli import _write_atomic, main
from colorref.formats import _CHUNK
from conftest import (edge_colors, emitted, gadget_and_path, gadget_path_and_two_cycle,
                      path_graph, random_tree, stepped_run, written)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def p5(tmp_path):
    return write(tmp_path / "p5.edges", "0 1\n1 2\n2 3\n3 4\n")


def test_refine_path5_summary(tmp_path, capsys, p5):
    trace = tmp_path / "out.trace"
    assert main(["refine", p5, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "n=5 m=4 K_final=3 converged_at=3\n"
    doc = parse_trace(trace.read_text())
    assert doc.trace.palette_sizes == (1, 2, 3, 3)
    assert partition_of(doc.trace.final) == ((0, 4), (1, 3), (2,))


def test_refine_complete_graph(tmp_path, capsys):
    k4 = write(tmp_path / "k4.edges", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["refine", k4, "--trace", str(tmp_path / "k4.trace")]) == 0
    assert capsys.readouterr().out == "n=4 m=6 K_final=1 converged_at=1\n"


def test_refine_default_trace_path(tmp_path, capsys, p5):
    assert main(["refine", p5]) == 0
    assert (tmp_path / "p5.edges.trace").exists()


def test_refine_with_initial_coloring_records_merge(tmp_path, capsys):
    c4 = write(tmp_path / "c4.edges", "0 1\n1 2\n2 3\n0 3\n")
    init = write(tmp_path / "init.colors", "0 0\n1 1\n2 1\n3 1\n")
    trace = tmp_path / "c4.trace"
    assert main(["refine", c4, "--coloring", init, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "K_final=2" in out and "converged_at=2" in out
    doc = parse_trace(trace.read_text())
    assert doc.trace.colorings[0].colors == (0, 1, 1, 1)
    assert doc.trace.colorings[1].colors == (0, 1, 0, 1)
    assert partition_of(doc.trace.final) == ((0, 2), (1, 3))


def test_refine_exit_3_when_cap_hit(tmp_path, capsys):
    c4 = write(tmp_path / "c4.edges", "0 1\n1 2\n2 3\n0 3\n")
    init = write(tmp_path / "init.colors", "0 0\n1 1\n2 1\n3 1\n")
    code = main(["refine", c4, "--coloring", init, "--max-iters", "1",
                 "--trace", str(tmp_path / "t")])
    assert code == 3
    assert "converged_at=none" in capsys.readouterr().out


# Long inputs at full size, each with its start (None: all-equal) and
# refine's exit code. A long path in vertex order, the cycling gadget beside
# P_2000, and that beside a 2-cycle and isolated vertices, where two
# components swap classes at every step while the path refines, take
# re-keying steps; the random tree's run ends in a 2-cycle that the run
# stops stepping at its first repeat.
LONG_INPUTS = {
    "path": (lambda: (path_graph(3000), None), 0),
    "gadget": (lambda: gadget_and_path(2000), 3),
    "union": (lambda: gadget_path_and_two_cycle(2000), 3),
    "tree": (lambda: random_tree(1000, 5), 3),
}


@pytest.mark.parametrize("name", list(LONG_INPUTS))
def test_long_runs_write_the_trace_of_refine_step_iterated(tmp_path, name):
    build, code = LONG_INPUTS[name]
    g, start = build()
    graph = write(tmp_path / f"{name}.edges", written(emit_edge_list, g))
    trace = tmp_path / f"{name}.trace"
    options = []
    if start is None:
        start = zero_coloring(g)
    else:
        options = ["--coloring", write(tmp_path / f"{name}.colors", written(emit_coloring, start))]
    assert main(["refine", graph, *options, "--trace", str(trace)]) == code
    header, text = trace.read_text().split("\n", 1)
    assert header.startswith("#")
    want = emitted(trace_document(RefinementTrace(stepped_run(g, start)), g))
    if text != want:  # pytest's diff of two traces of megabytes takes minutes
        line = os.path.commonprefix([text, want]).count("\n") + 2
        pytest.fail(f"the trace differs from the loop's from line {line} on")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_refine_rejects_max_iters_below_one(tmp_path, capsys, p5, cap):
    trace = tmp_path / "out.trace"
    assert main(["refine", p5, "--max-iters", cap, "--trace", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--max-iters" in err
    assert not trace.exists()


def test_refine_takes_max_iters_up_to_sys_maxsize(tmp_path, capsys, p5):
    # no trace holds more colorings than sys.maxsize, so a larger cap is
    # refused before the graph is read: a missing graph goes unreported
    trace = tmp_path / "out.trace"
    refused = f"error: --max-iters must be at most {sys.maxsize}\n"
    for graph in (p5, str(tmp_path / "missing.edges")):
        assert main(["refine", graph, "--max-iters", str(sys.maxsize + 1),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr() == ("", refused)
        assert not trace.exists()
    assert main(["refine", p5, "--max-iters", str(sys.maxsize), "--trace", str(trace)]) == 0
    assert capsys.readouterr() == ("n=5 m=4 K_final=3 converged_at=3\n", "")
    assert trace.read_text().splitlines()[0].endswith(f" max_iters={sys.maxsize}")


def test_refine_expand_edges_reports_edge_colors(tmp_path, capsys):
    c3 = write(tmp_path / "c3.edges", "0 1\n1 2\n0 2\n")
    trace = tmp_path / "c3.trace"
    assert main(["refine", c3, "--expand-edges", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "n=6 m=6 K_final=1 converged_at=1\n"
    doc = parse_trace(trace.read_text())
    assert edge_colors(doc) == ((0, 1, 0), (0, 2, 0), (1, 2, 0))
    # the middle edge of a four-path is told apart from the two end edges
    p4 = write(tmp_path / "p4.edges", "0 1\n1 2\n2 3\n")
    assert main(["refine", p4, "--expand-edges", "--trace", str(trace)]) == 0
    header, text = trace.read_text().split("\n", 1)
    doc = parse_trace(text)
    assert edge_colors(doc) == ((0, 1, 3), (1, 2, 2), (2, 3, 3))
    # the trace gives back the graph that was read, and after its header
    # line it is the library's document of the expanded run
    g = parse_edge_list("0 1\n1 2\n2 3\n")
    assert doc.original == g
    x = expand_edges(g)
    out = io.StringIO()
    emit_trace_document(trace_document(refine_to_fixpoint(x, zero_coloring(x)), g,
                                       expanded=True), out)
    assert header.startswith("#") and out.getvalue() == text


def test_refine_expand_edges_on_a_graph_without_edges(tmp_path, capsys):
    # no edge, no virtual vertex and no edge_color record
    n3 = write(tmp_path / "n3.edges", "n 3\n")
    trace = tmp_path / "n3.trace"
    assert main(["refine", n3, "--expand-edges", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "n=3 m=0 K_final=1 converged_at=1\n"
    text = trace.read_text()
    assert "\nm 0\n" in text and "edge_color" not in text
    assert parse_trace(text).original is None


def test_refine_expand_edges_reads_a_coloring_of_the_expanded_graph(tmp_path, capsys):
    # vertices 3..5 stand for the triangle's edges, so the file has 6 lines
    c3 = write(tmp_path / "c3.edges", "0 1\n1 2\n0 2\n")
    colors = write(tmp_path / "c3.colors", "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    trace = tmp_path / "c3.trace"
    assert main(["refine", c3, "--expand-edges", "--coloring", colors,
                 "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "n=6 m=6 K_final=2 converged_at=1\n"
    assert parse_trace(trace.read_text()).trace.colorings[0].colors == (0, 0, 0, 1, 1, 1)


def test_refine_parse_failure_names_file_and_line(tmp_path, capsys):
    bad = write(tmp_path / "bad.edges", "0 1\n1 1\n")
    assert main(["refine", bad]) == 2
    err = capsys.readouterr().err
    assert "bad.edges" in err and "line 2" in err
    assert not (tmp_path / "bad.edges.trace").exists()


@pytest.mark.parametrize("command", [["refine", "{}"], ["verify", "{}", "{}.colors"]])
def test_undecodable_graph_file_is_named(tmp_path, capsys, command):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n1 \xff\n")
    assert main([arg.format(bad) for arg in command]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {bad}: line 2: byte 0xff is not valid UTF-8\n")
    assert not (tmp_path / "bad.edges.trace").exists()


@pytest.mark.parametrize("last", [b"\xff\n", b"# caf\xe9\n", b"0 1 \xc3\n"],
                         ids=["byte", "comment", "field"])
def test_an_undecodable_byte_names_its_line(tmp_path, capsys, last):
    # the file is read a chunk at a time; the byte's line lies well past the
    # first read, and a comment or a line with another fault is no exception
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n" * 29999 + last)
    assert 4 * 29999 > _CHUNK
    assert main(["refine", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 30000: byte 0x{last.rstrip()[-1]:02x} is not valid UTF-8\n"
    )


def test_valid_utf8_in_a_comment_is_read(tmp_path, capsys):
    good = tmp_path / "good.edges"
    good.write_bytes("# café\n0 1\n".encode())
    assert main(["refine", str(good)]) == 0
    assert capsys.readouterr().out == "n=2 m=1 K_final=1 converged_at=1\n"


def test_a_fault_before_the_undecodable_block_is_reported_first(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n1 1\n" + b"0 1\n" * 40000 + b"\xff\n")
    assert main(["refine", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: self-loop 1 1\n"


def test_line_ends_of_every_platform_read_alike(tmp_path, capsys):
    # text mode turns "\r\n" and "\r" into "\n", and the line numbers stay
    # those of splitlines
    mixed = tmp_path / "mixed.edges"
    mixed.write_bytes(b"0 1\r\n1 2\r2 3\n3 4\r\n")
    assert main(["refine", str(mixed), "--trace", str(tmp_path / "t")]) == 0
    assert capsys.readouterr().out == "n=5 m=4 K_final=3 converged_at=3\n"
    mixed.write_bytes(b"0 1\r\n1 2\r2 2\n")
    assert main(["refine", str(mixed)]) == 2
    assert capsys.readouterr().err == f"error: {mixed}: line 3: self-loop 2 2\n"


def test_refine_dimacs_by_extension(tmp_path, capsys):
    col = write(tmp_path / "tri.col", "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert main(["refine", col, "--trace", str(tmp_path / "t")]) == 0
    assert capsys.readouterr().out == "n=3 m=3 K_final=1 converged_at=1\n"


P4_DIMACS = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"


def test_refine_format_overrides_the_extension(tmp_path, capsys):
    txt = write(tmp_path / "g.txt", P4_DIMACS)
    col = write(tmp_path / "g.col", P4_DIMACS)
    assert main(["refine", txt, "--trace", str(tmp_path / "bad")]) == 2
    assert "g.txt: line 1:" in capsys.readouterr().err
    by_flag, by_suffix = tmp_path / "flag.trace", tmp_path / "suffix.trace"
    assert main(["refine", txt, "--format", "dimacs", "--trace", str(by_flag)]) == 0
    assert main(["refine", col, "--trace", str(by_suffix)]) == 0
    # the first line echoes the input path; the records after it agree
    assert by_flag.read_text().split("\n", 1)[1] == by_suffix.read_text().split("\n", 1)[1]


def test_verify_format_overrides_the_extension(tmp_path, capsys):
    txt = write(tmp_path / "g.txt", P4_DIMACS)
    col = write(tmp_path / "g.col", P4_DIMACS)
    stable = write(tmp_path / "c.colors", "0 0\n1 1\n2 1\n3 0\n")
    assert main(["verify", txt, stable, "--format", "dimacs"]) == 0
    assert capsys.readouterr().out == "equitable\n"
    assert main(["verify", col, stable, "--format", "edgelist"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {col}: " in err


def test_refine_writes_dot(tmp_path, capsys, p5):
    dot = tmp_path / "p5.dot"
    assert main(["refine", p5, "--trace", str(tmp_path / "t"), "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph coloring {")


def test_verify_equitable(tmp_path, capsys):
    c6 = write(tmp_path / "c6.edges", "0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    zeros = write(tmp_path / "z.colors", "".join(f"{v} 0\n" for v in range(6)))
    assert main(["verify", c6, zeros]) == 0
    assert capsys.readouterr().out == "equitable\n"


def test_verify_not_equitable_names_pair(tmp_path, capsys):
    p3 = write(tmp_path / "p3.edges", "0 1\n1 2\n")
    zeros = write(tmp_path / "z.colors", "0 0\n1 0\n2 0\n")
    assert main(["verify", p3, zeros]) == 1
    assert capsys.readouterr().out == "not equitable (0,1)\n"


def test_verify_converged_coloring(tmp_path, capsys, p5):
    stable = write(tmp_path / "s.colors", "0 0\n1 1\n2 2\n3 1\n4 0\n")
    assert main(["verify", p5, stable]) == 0


def _refine_and_verify(root, capsys):
    # exit code, stdout and stderr of each run, then every file in root
    p4 = write(root / "p4.edges", "0 1\n1 2\n2 3\n")
    c4 = write(root / "c4.col", "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    # on the edges {0, 2}, {1, 3} this start alternates between two partitions
    swing = write(root / "swing.edges", "n 4\n0 2\n1 3\n")
    start = write(root / "start.colors", "0 0\n1 1\n2 0\n3 0\n")
    stable = write(root / "stable.colors", "0 0\n1 1\n2 1\n3 0\n")
    zeros = write(root / "zeros.colors", "0 0\n1 0\n2 0\n3 0\n")
    runs = []
    for argv in (
        ["refine", p4],
        ["refine", c4, "--expand-edges", "--dot", str(root / "c4.dot")],
        ["refine", swing, "--coloring", start],
        ["verify", p4, stable],
        ["verify", p4, zeros],
    ):
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
    return runs, {path.name: path.read_text() for path in sorted(root.iterdir())}


def test_refine_and_verify_never_build_tuple_rows(tmp_path, capsys, monkeypatch):
    want = _refine_and_verify(tmp_path, capsys)
    assert [code for code, _, _ in want[0]] == [0, 0, 3, 0, 1]

    def tuple_rows(g):
        raise AssertionError("the CLI built Graph.adjacency")

    monkeypatch.setattr(Graph, "adjacency", property(tuple_rows))
    assert _refine_and_verify(tmp_path, capsys) == want


def test_compare_relabeling(tmp_path, capsys):
    a = write(tmp_path / "a.colors", "0 0\n1 1\n2 0\n")
    b = write(tmp_path / "b.colors", "0 1\n1 0\n2 1\n")
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out == "0->1 1->0\n"


def test_compare_not_isomorphic(tmp_path, capsys):
    a = write(tmp_path / "a.colors", "0 0\n1 0\n2 1\n")
    b = write(tmp_path / "b.colors", "0 0\n1 1\n2 1\n")
    assert main(["compare", a, b]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_compare_identity(tmp_path, capsys):
    a = write(tmp_path / "a.colors", "0 4\n1 7\n2 4\n")
    assert main(["compare", a, a]) == 0
    assert capsys.readouterr().out == "0->0 1->1\n"


def test_compare_size_mismatch_is_usage_error(tmp_path, capsys):
    a = write(tmp_path / "a.colors", "0 0\n1 1\n")
    b = write(tmp_path / "b.colors", "0 0\n1 1\n2 2\n")
    assert main(["compare", a, b]) == 2


def test_search_writes_witness_files(tmp_path, capsys):
    out = tmp_path / "w"
    code = main(["search", "--max-n", "4", "--attempts", "500",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "witness:" in capsys.readouterr().out
    g = parse_edge_list((out / "graph.edges").read_text())
    assert g.vertex_count <= 4
    note = (out / "replay.txt").read_text()
    assert "merged_pair" in note and "seed=1" in note
    assert (out / "initial.colors").exists()


def test_search_exhausted_attempts(tmp_path, capsys):
    code = main(["search", "--max-n", "2", "--attempts", "10",
                 "--out", str(tmp_path / "w")])
    assert code == 1
    assert "no counterexample" in capsys.readouterr().out
    assert not (tmp_path / "w").exists()


def test_search_zero_attempts(tmp_path, capsys):
    assert main(["search", "--attempts", "0", "--out", str(tmp_path / "w")]) == 1


def test_search_bad_arguments(tmp_path, capsys):
    assert main(["search", "--max-n", "1", "--out", str(tmp_path / "w")]) == 2


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    assert main(["gen", "6", "0.5", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "6", "0.5", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_the_same_bytes_to_stdout_as_to_a_file(tmp_path, capsysbinary):
    out = tmp_path / "g.edges"
    assert main(["gen", "6", "0.5", "--seed", "9", "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(["gen", "6", "0.5", "--seed", "9"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_gen_extremes_and_round_trip(tmp_path, capsys):
    assert main(["gen", "5", "0", "--out", str(tmp_path / "e.edges")]) == 0
    assert parse_edge_list((tmp_path / "e.edges").read_text()).edge_count == 0
    assert main(["gen", "5", "1", "--out", str(tmp_path / "k.edges")]) == 0
    assert parse_edge_list((tmp_path / "k.edges").read_text()).edge_count == 10


def test_gen_rejects_bad_probability(capsys):
    assert main(["gen", "5", "1.5"]) == 2


def test_module_entry_point(tmp_path):
    p5 = tmp_path / "p5.edges"
    p5.write_text("0 1\n1 2\n2 3\n3 4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "colorref", "refine", str(p5),
         "--trace", str(tmp_path / "t")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n=5 m=4 K_final=3 converged_at=3\n"


def test_cli_files_name_their_encoding(tmp_path, p5):
    # an EncodingWarning, raised as an error, would mean a read or write
    # took the locale's encoding
    colors = write(tmp_path / "p5.colors", "0 0\n1 1\n2 2\n3 1\n4 0\n")
    runs = [
        (["refine", p5, "--trace", str(tmp_path / "t"), "--dot", str(tmp_path / "d")],
         "n=5 m=4 K_final=3 converged_at=3\n"),
        (["verify", p5, colors], "equitable\n"),
    ]
    for command, out in runs:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "colorref", *command],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


# A count of sys.maxsize, in process: a list of sys.maxsize slots is
# refused before anything is allocated, so no memory limit is needed.
@pytest.mark.parametrize("name, text", [
    ("huge.edges", f"n {sys.maxsize}\n0 1\n"),
    ("huge.col", f"p edge {sys.maxsize} 1\ne 1 2\n"),
])
@pytest.mark.parametrize("command", ["refine", "verify"])
def test_a_count_too_large_for_memory_is_named_in_process(tmp_path, capsys, name, text, command):
    path = write(tmp_path / name, text)
    args = [path, write(tmp_path / "one.colors", "0 0\n")] if command == "verify" else [path]
    assert main([command, *args]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: too large to hold in memory\n")
    assert not (tmp_path / f"{name}.trace").exists()


def test_memory_running_out_in_a_command_exits_2(tmp_path, capsys, monkeypatch, p5):
    # the clause that test_hostile.py's memory rows reach in a child, here
    # in process
    def refine_to_fixpoint(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "refine_to_fixpoint", refine_to_fixpoint)
    assert main(["refine", p5]) == 2
    assert capsys.readouterr() == ("", "error: too large to hold in memory\n")
    assert not (tmp_path / "p5.edges.trace").exists()


def test_output_goes_into_directories_that_do_not_exist_yet(tmp_path, capsys, p5):
    trace = tmp_path / "runs" / "p5" / "out.trace"
    assert main(["refine", p5, "--trace", str(trace)]) == 0
    assert trace.read_text().startswith("# colorref refine input=")


@pytest.mark.parametrize("command, written", [
    (["refine", "{p5}", "--trace", "{out}"], "{out}"),
    (["refine", "{p5}", "--dot", "{out}"], "{out}"),
    (["gen", "5", "0.5", "--out", "{out}"], "{out}"),
    (["search", "--max-n", "4", "--attempts", "200", "--out", "{dir}"], "{dir}/graph.edges"),
], ids=["trace", "dot", "gen", "search"])
def test_an_output_under_a_regular_file_names_the_destination(
    tmp_path, capsys, p5, command, written
):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    names = {"p5": p5, "dir": str(afile), "out": str(afile / "x")}
    assert main([arg.format(**names) for arg in command]) == 2
    path = written.format(**names)
    assert capsys.readouterr().err == f"error: {path}: {afile} is not a directory\n"
    assert afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", [
    ["refine", "{p5}", "--trace", "{out}"],
    ["refine", "{p5}", "--dot", "{out}"],
    ["gen", "5", "0.5", "--out", "{out}"],
], ids=["trace", "dot", "gen"])
def test_an_output_that_is_a_directory_is_refused_before_writing(
    tmp_path, capsys, monkeypatch, p5, command
):
    def wasted(*args):
        raise AssertionError("the output was computed before its destination was checked")

    monkeypatch.setattr(cli, "refine_to_fixpoint", wasted)
    monkeypatch.setattr(cli, "random_graph", wasted)
    adir = tmp_path / "adir"
    (adir / "kept").mkdir(parents=True)
    assert main([arg.format(p5=p5, out=adir) for arg in command]) == 2
    assert capsys.readouterr().err == f"error: {adir}: is a directory\n"
    # no temp file, and no trace beside a refused DOT path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "p5.edges"]
    assert [p.name for p in adir.iterdir()] == ["kept"]


def test_a_dot_path_that_cannot_be_written_leaves_the_trace_as_it_was(tmp_path, capsys, p5):
    trace = tmp_path / "p5.edges.trace"
    trace.write_text("old trace\n")
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    assert main(["refine", p5, "--dot", str(afile / "x.dot")]) == 2
    assert capsys.readouterr().err == f"error: {afile / 'x.dot'}: {afile} is not a directory\n"
    assert trace.read_text() == "old trace\n"


def test_a_refused_output_makes_no_directory(tmp_path, capsys, p5):
    # the trace's destination is checked first and would be made, but the
    # DOT path under a regular file stops the command before anything is
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    trace = tmp_path / "new" / "x.trace"
    assert main(["refine", p5, "--trace", str(trace), "--dot", str(afile / "x.dot")]) == 2
    assert capsys.readouterr().err == f"error: {afile / 'x.dot'}: {afile} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "p5.edges"]


def test_write_atomic_leaves_nothing_when_the_writer_fails(tmp_path):
    class Interrupted(Exception):
        pass

    def writer(fh):
        fh.write("partial line\n" * 1000)
        raise Interrupted

    fresh = tmp_path / "new" / "run.trace"
    with pytest.raises(Interrupted):
        _write_atomic(fresh, writer)
    assert list(fresh.parent.iterdir()) == []
    write(tmp_path / "old.trace", "old\n")
    with pytest.raises(Interrupted):
        _write_atomic(tmp_path / "old.trace", writer)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "old.trace"]
    assert (tmp_path / "old.trace").read_text() == "old\n"


def test_write_atomic_closes_the_temp_file_when_its_mode_cannot_be_set(
    tmp_path, monkeypatch
):
    made = []

    def mkstemp(**kwargs):
        made.append(real_mkstemp(**kwargs))
        return made[-1]

    def chmod(path, mode):
        raise OSError("chmod refused")

    real_mkstemp = tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(os, "chmod", chmod)
    with pytest.raises(OSError, match="chmod refused"):
        _write_atomic(tmp_path / "run.trace", lambda fh: fh.write("text\n"))
    [(fd, tmp)] = made
    with pytest.raises(OSError):
        os.fstat(fd)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_output_files_follow_the_umask(tmp_path, capsys, p5, umask):
    trace, dot, gen = tmp_path / "t", tmp_path / "d", tmp_path / "g.edges"
    assert main(["refine", p5, "--trace", str(trace), "--dot", str(dot)]) == 0
    assert main(["gen", "5", "0.5", "--out", str(gen)]) == 0
    assert main(["search", "--max-n", "4", "--attempts", "500", "--seed", "1",
                 "--out", str(tmp_path / "w")]) == 0
    written = [trace, dot, gen, *(tmp_path / "w").iterdir()]
    assert len(written) == 6
    assert {stat.S_IMODE(path.stat().st_mode) for path in written} == {0o666 & ~umask}


def test_a_replaced_output_file_keeps_its_mode(tmp_path, umask):
    old = tmp_path / "old.trace"
    old.write_text("old\n")
    old.chmod(0o640)
    _write_atomic(old, lambda fh: fh.write("new\n"))
    assert old.read_text() == "new\n"
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
