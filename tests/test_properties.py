import contextlib
import io
import os
import tempfile
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from colorref import (
    Coloring,
    Graph,
    RefinementTrace,
    TraceDocument,
    coloring_from_labels,
    colorings_isomorphic,
    emit_trace_document,
    expand_edges,
    find_inequitable_pair,
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
    violation_witness,
    zero_coloring,
)
from colorref import formats, refine
from colorref.cli import main
from colorref.graph import _typecode
from conftest import (
    GADGET_EDGES,
    GADGET_START,
    brute_inequitable_pair,
    brute_portrait,
    brute_violation,
    emitted,
    energy_holds,
    index_portraits,
    is_refinement,
    line_loop_outcome,
    parse_outcome,
    reference_expansion,
    reference_rows,
    runs_as_iterated,
    stepped_run,
)


@st.composite
def graphs(draw, min_n=0, max_n=10, sparse=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return new_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n if sparse else len(pairs)))
    return new_graph(n, edges)


@st.composite
def graphs_with_colorings(draw, min_n=0, max_n=10):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    n = g.vertex_count
    labels = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return g, coloring_from_labels(labels)


@st.composite
def coloring_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return coloring_from_labels(a), coloring_from_labels(b)


@given(graphs())
def test_graph_invariants_hold_by_scan(g):
    n = g.vertex_count
    for v, row in enumerate(g.adjacency):
        assert list(row) == sorted(set(row))
        assert v not in row
        for u in row:
            assert 0 <= u < n
            assert v in g.adjacency[u]


@given(graphs())
def test_expansion_invariants(g):
    e = expand_edges(g)
    n, m = g.vertex_count, g.edge_count
    assert e.vertex_count == n + m
    assert e.edge_count == 2 * m
    assert list(e.adjacency[n:]) == g.edges()
    for v in range(n):
        assert all(w >= n for w in e.adjacency[v])


@st.composite
def raw_edge_lists(draw, max_n=10):
    # pairs as a caller may pass them: repeated, in both orientations, and
    # leaving some vertices isolated
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    ids = st.integers(0, n - 1)
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pairs, max_size=2 * n))


# new_graph and expand_edges skip Graph's checks because they build valid
# rows by construction; the public constructor must agree.
@given(raw_edge_lists(), st.floats(0, 1), st.integers(0, 2**32))
def test_library_built_graphs_pass_the_public_checks(n_pairs, p, seed):
    n, pairs = n_pairs
    g = new_graph(n, pairs)
    for built in (g, expand_edges(g), random_graph(n, p, seed)):
        assert Graph(built.vertex_count, built.adjacency) == built


# Every builder goes through the one CSR row builder, or, for Graph(n, rows),
# flattens rows; all must agree with the list-per-vertex reference.
@given(raw_edge_lists())
def test_every_route_builds_the_reference_rows(n_pairs):
    n, pairs = n_pairs
    want = reference_rows(n, [end for pair in pairs for end in pair])
    edge_list = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    dimacs = f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    g = new_graph(n, pairs)
    # the same columns widened to 8 bytes an entry: equal, whatever the typecode
    wide = Graph._csr(n, array("q", g.offsets), array("q", g.targets))
    for built in (g, parse_edge_list(edge_list), parse_dimacs(dimacs), Graph(n, want), wide):
        assert built == g
        assert hash(built) == hash(g)
        assert built.adjacency == want
        assert built.edge_count == len(built.edges())
        x, m = expand_edges(built), built.edge_count
        assert x.adjacency == reference_expansion(n, want)
        assert (x.targets.typecode, x.offsets.typecode) == (_typecode(n + m - 1), _typecode(4 * m))


# refine_step, zero_coloring, coloring_from_labels and parse_coloring skip
# Coloring's compactness check; the public constructor must agree.
@given(graphs_with_colorings(), st.lists(st.integers(-10**6, 10**6), max_size=12))
@settings(deadline=None)
def test_library_built_colorings_pass_the_public_checks(gc, labels):
    g, c = gc
    text = "".join(f"{v} {lab}\n" for v, lab in reversed(list(enumerate(labels))))
    runs = refine_to_fixpoint(g, c).colorings
    for col in (*runs, zero_coloring(g), coloring_from_labels(labels), parse_coloring(text)):
        assert Coloring(col.colors, col.palette_size) == col


@given(graphs_with_colorings())
# classes {0, 3} and {1, 2} are both inequitable; the pair at the first v is (1, 2)
@example((new_graph(4, [(1, 3)]), coloring_from_labels([1, 0, 0, 1])))
def test_portrait_counts_sum_to_degree(gc):
    g, c = gc
    portraits = [brute_portrait(g, c, v) for v in range(g.vertex_count)]
    assert refine_step(g, c) == index_portraits(portraits)
    for v, p in enumerate(portraits):
        assert sum(p) == len(g.adjacency[v])
        assert len(p) == c.palette_size
    pair = find_inequitable_pair(g, c)
    assert pair == brute_inequitable_pair(g, c)
    if pair is None:
        assert all(
            portraits[u] == portraits[v]
            for u in range(g.vertex_count)
            for v in range(u)
            if c.colors[u] == c.colors[v]
        )
    else:
        u, v = pair
        assert c.colors[u] == c.colors[v] and portraits[u] != portraits[v]


@given(graphs_with_colorings())
def test_parse_trace_round_trips_emitted_traces(gc):
    g, c = gc
    # the edge-expanded run starts from c with color 0 on every virtual vertex
    x = expand_edges(g)
    x_start = coloring_from_labels(c.colors + (0,) * g.edge_count)
    for cap in (1, None):
        for doc in (
            trace_document(refine_to_fixpoint(g, c, max_iters=cap), g),
            trace_document(refine_to_fixpoint(x, x_start, max_iters=cap), g, expanded=True),
        ):
            out = io.StringIO()
            assert emit_trace_document(doc, out) is None
            assert parse_trace(out.getvalue()) == doc


@st.composite
def graphs_with_wide_starts(draw):
    # labels up to n give palettes near n; at most n edges give long runs
    g = draw(graphs(max_n=24, sparse=True))
    n = g.vertex_count
    labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    return g, coloring_from_labels(labels)


@given(graphs_with_wide_starts())
@settings(max_examples=100, deadline=None)
def test_every_step_of_a_run_matches_the_dense_reference(gc):
    g, c = gc
    trace = refine_to_fixpoint(g, c)
    target(len(trace.colorings), label="colorings in the run")
    for prev, nxt in zip(trace.colorings, trace.colorings[1:]):
        dense = [brute_portrait(g, prev, v) for v in range(g.vertex_count)]
        assert nxt == index_portraits(dense)


@st.composite
def sparse_runs(draw):
    # a path, cycle, tree, the cycling gadget beside a path, or the gadget
    # beside a tree and isolated vertices, with a few chords, relabelled;
    # the all-equal start, the gadget's start or any other; a cap from 1 to
    # n + 2. In the union one component's classes can swap at every step
    # while another refines.
    shape = draw(st.sampled_from(["path", "cycle", "tree", "gadget", "union"]))
    gadget = shape in ("gadget", "union")
    n = draw(st.integers(6 if gadget else 0, 40))
    if shape == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    elif shape == "gadget":
        edges = GADGET_EDGES + [(v, v + 1) for v in range(6, n - 1)]
    elif shape == "union":
        # the tree on vertices 6 .. t - 1; those from t on are isolated
        t = draw(st.integers(6, n))
        edges = GADGET_EDGES + [(draw(st.integers(6, v - 1)), v) for v in range(7, t)]
    else:
        edges = [(v, v + 1) for v in range(n - 1)]
        if shape == "cycle" and n > 2:
            edges.append((0, n - 1))
    if n > 1:
        ends = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=3))
    start = draw(st.one_of(
        st.just([0] * n),
        st.just(GADGET_START + [3] * (n - 6)) if gadget else st.nothing(),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    ))
    perm = draw(st.permutations(range(n)))
    labels = [0] * n
    for v, x in enumerate(start):
        labels[perm[v]] = x
    g = new_graph(n, [(perm[u], perm[v]) for u, v in edges])
    return g, coloring_from_labels(labels), draw(st.integers(1, n + 2))


@given(sparse_runs())
@settings(deadline=None)
def test_a_run_is_refine_step_iterated(run):
    g, start, cap = run
    trace = refine_to_fixpoint(g, start, cap)
    target(len(trace.colorings), label="colorings in the run")
    assert trace.colorings == stepped_run(g, start, cap)
    assert trace.converged_at == RefinementTrace(trace.colorings).converged_at
    # the run stops stepping at its first exact repeat, so the run itself is
    # held to refine_step through a cycle, up to the default cap
    assert runs_as_iterated(g, start, g.vertex_count + 2)


@given(sparse_runs(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_a_run_is_refine_step_iterated_whichever_steps_it_takes(run, rnd):
    # re-keying steps and block steps chosen at random, so that the run
    # hands over both ways at any step
    g, start, cap = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "_rekeys", lambda moved, k, n: rnd.random() < .7)
        trace = refine_to_fixpoint(g, start, cap)
    assert trace.colorings == stepped_run(g, start, cap)


@given(graphs_with_colorings())
def test_refine_step_output_is_compact_and_deterministic(gc):
    g, c = gc
    a, b = refine_step(g, c), refine_step(g, c)
    assert a == b
    assert sorted(set(a.colors)) == list(range(a.palette_size))


@given(graphs_with_colorings(), st.randoms(use_true_random=False))
def test_traces_ignore_edge_input_order(gc, rnd):
    g, c = gc
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
    rnd.shuffle(edges)
    g2 = new_graph(g.vertex_count, edges)
    assert g2 == g
    t1 = refine_to_fixpoint(g, c)
    t2 = refine_to_fixpoint(g2, c)
    assert emitted(trace_document(t1, g)) == emitted(
        trace_document(t2, g2)
    )


@given(graphs_with_colorings(min_n=1), st.randoms(use_true_random=False))
def test_relabeled_starts_give_isomorphic_traces(gc, rnd):
    g, c = gc
    perm = list(range(c.palette_size))
    rnd.shuffle(perm)
    relabeled = coloring_from_labels([perm[col] for col in c.colors])
    t1 = refine_to_fixpoint(g, c)
    t2 = refine_to_fixpoint(g, relabeled)
    assert t1.converged_at == t2.converged_at
    assert len(t1.colorings) == len(t2.colorings)
    for c1, c2 in zip(t1.colorings, t2.colorings):
        assert colorings_isomorphic(c1, c2) is not None


@given(graphs())
@settings(max_examples=60)
def test_zero_start_contract(g):
    trace = refine_to_fixpoint(g, zero_coloring(g))
    # always stabilises, within the vertex-count bound plus the witness step
    assert trace.converged_at is not None
    assert trace.converged_at <= g.vertex_count + 1
    # each step refines the previous one, so palette sizes cannot drop
    for prev, nxt in zip(trace.colorings, trace.colorings[1:]):
        assert is_refinement(prev, nxt)
    assert list(trace.palette_sizes) == sorted(trace.palette_sizes)
    # a palette plateau already means the classes stopped moving
    for t in range(len(trace.colorings) - 1):
        if trace.palette_sizes[t] == trace.palette_sizes[t + 1]:
            assert colorings_isomorphic(trace.colorings[t], trace.colorings[t + 1]) is not None
    # the stable point is equitable and agrees with the brute-force route
    assert find_inequitable_pair(g, trace.final) is None
    assert partition_of(trace.final) == naive_refine(g, zero_coloring(g))


@given(graphs_with_colorings())
# the first step merges {1, 2} and {0, 3}; the least merged pair is (0, 3)
@example((new_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), coloring_from_labels([1, 1, 0, 2])))
@settings(max_examples=200, deadline=None)
def test_violation_witness_matches_pair_scan(gc):
    g, c = gc
    w = violation_witness(g, c)
    got = None if w is None else (w.step, w.merged_pair, w.before, w.after)
    assert got == brute_violation(g, c)


@given(graphs(max_n=8))
@settings(max_examples=40)
def test_stability_persists_after_convergence(g):
    trace = refine_to_fixpoint(g, zero_coloring(g))
    chain = [trace.colorings[trace.converged_at]]
    for _ in range(5):
        chain.append(refine_step(g, chain[-1]))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert colorings_isomorphic(chain[i], chain[j]) is not None


@given(coloring_pairs())
def test_isomorphism_agrees_with_partition_equality(pair):
    c1, c2 = pair
    agree = colorings_isomorphic(c1, c2) is not None
    assert agree == (partition_of(c1) == partition_of(c2))


@given(coloring_pairs())
def test_isomorphism_is_symmetric_with_inverse_witness(pair):
    c1, c2 = pair
    w12 = colorings_isomorphic(c1, c2)
    w21 = colorings_isomorphic(c2, c1)
    assert (w12 is None) == (w21 is None)
    if w12 is not None:
        for a, b in enumerate(w12):
            assert w21[b] == a


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_isomorphism_witnesses_compose(labels, rnd):
    c1 = coloring_from_labels(labels)
    p1 = list(range(c1.palette_size))
    p2 = list(range(c1.palette_size))
    rnd.shuffle(p1)
    rnd.shuffle(p2)
    c2 = coloring_from_labels([p1[c] for c in c1.colors])
    c3 = coloring_from_labels([p2[c] for c in c2.colors])
    w12 = colorings_isomorphic(c1, c2)
    w23 = colorings_isomorphic(c2, c3)
    w13 = colorings_isomorphic(c1, c3)
    for a in range(c1.palette_size):
        assert w13[a] == w23[w12[a]]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_refinement_is_transitive_along_merge_chains(labels, rnd):
    fine = coloring_from_labels(labels)
    merge1 = [int(rnd.random() * 3) for _ in range(fine.palette_size)]
    mid = coloring_from_labels([merge1[c] for c in fine.colors])
    merge2 = [int(rnd.random() * 2) for _ in range(mid.palette_size)]
    coarse = coloring_from_labels([merge2[c] for c in mid.colors])
    assert is_refinement(mid, fine)
    assert is_refinement(coarse, mid)
    assert is_refinement(coarse, fine)


@given(graphs_with_colorings())
@settings(max_examples=60)
def test_one_step_convergence_agrees_with_step_isomorphism(gc):
    g, c = gc
    trace = refine_to_fixpoint(g, c)
    one_step = trace.converged_at == 1
    assert one_step == (colorings_isomorphic(refine_step(g, c), c) is not None)
    # stability implies equitability; the converse can fail when distinct
    # classes share a portrait, so only this direction is asserted
    if one_step:
        assert find_inequitable_pair(g, c) is None


# The two-step lemma on random graphs and starts past the exhaustive n <= 5
# range: P_{t+2} refines P_t for every t >= 2, through step n + 4. The
# energy E never falls, and stays flat from its first flat step on.
@given(graphs_with_colorings(max_n=12))
@settings(deadline=None)
def test_two_steps_refine_the_partition_from_step_two_on(gc):
    g, c = gc
    colorings = [c]
    for _ in range(g.vertex_count + 4):
        colorings.append(refine_step(g, colorings[-1]))
    for t in range(2, len(colorings) - 2):
        assert is_refinement(colorings[t], colorings[t + 2]), t
    assert energy_holds(g, colorings)


# Every line break str.splitlines knows, "\r\n" among them.
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]


# The reader splits a chunk at a time; with chunks of 1 to 8 characters a
# chunk's nominal end falls next to every kind of break and inside "\r\n".
@given(
    st.lists(st.sampled_from(["0", "12", "#", "c", "#1", "c 2", " ", "\t", *LINE_BREAKS])).map(
        "".join
    ),
    st.integers(1, 8),
    st.sampled_from(["#", "c"]),
)
@settings(max_examples=300)
def test_chunked_lines_are_those_of_splitlines(text, chunk, comment):
    want = [
        (lineno, raw.split())
        for lineno, raw in enumerate(text.splitlines(), 1)
        if raw.split() and not raw.split()[0].startswith(comment)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        assert [line[:2] for line in formats._content_lines(text, comment)] == want


# Parser fuzzing: lines of a record key and up to four tokens, either all
# small integers or each a small integer, a key, or a short run of digits,
# signs, "_" and "\u0661" (Arabic-Indic digit one). No token holds more
# than three digits, so no input can declare a large vertex count.
def fuzz_texts(keys):
    junk = st.text("0123456789+-_\u0661", min_size=1, max_size=4).filter(
        lambda t: sum(ch.isdigit() for ch in t) <= 3
    )
    number = st.integers(-2, 12).map(str)
    token = st.one_of(number, st.sampled_from(keys), junk)
    fields = st.one_of(st.lists(number, max_size=4), st.lists(token, max_size=4))
    line = st.tuples(st.sampled_from(keys), fields)
    return st.lists(line.map(lambda kt: " ".join([kt[0], *kt[1]])), max_size=8).map("\n".join)


TRACE_KEYS = ["n", "m", "initial", "palette_sizes", "coloring", "converged_at",
              "none", "class", "edge_color"]
# parser, the comment mark of its format, and the keys its lines start with
FUZZ_PARSERS = {
    "edge_list": (parse_edge_list, "#", ["", "n", "#"]),
    "dimacs": (parse_dimacs, "c", ["p edge", "e", "c"]),
    "coloring": (parse_coloring, "#", ["", "#"]),
    "coloring_n4": (lambda text: parse_coloring(text, 4), "#", ["", "#"]),
    "trace": (parse_trace, "#", ["#", *TRACE_KEYS]),
}


@pytest.mark.parametrize("name", sorted(FUZZ_PARSERS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_parsers_give_a_valid_value_or_a_parse_error(name, data):
    parse, comment, keys = FUZZ_PARSERS[name]
    text = data.draw(fuzz_texts(keys), label="text")
    got = parse_outcome(parse, text)
    if isinstance(got, Graph):
        assert Graph(got.vertex_count, got.adjacency) == got
    elif isinstance(got, Coloring):
        assert Coloring(got.colors, got.palette_size) == got
    elif isinstance(got, TraceDocument):
        assert parse_trace(emitted(got)) == got
    else:
        assert got.startswith("ParseError: ")
    # a "_" anywhere sends every token through the strict check, which
    # must read the text as int() did
    assert parse_outcome(parse, f"{text}\n{comment} _\n") == got


@st.composite
def broken_texts(draw, keys):
    # a fuzz text with each of its line breaks drawn from LINE_BREAKS
    lines = draw(fuzz_texts(keys)).split("\n")
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


# A parser reads a text stream a chunk at a time; whatever the chunk size
# and line breaks, it gives the value or the error that the text gives.
@pytest.mark.parametrize("name", sorted(FUZZ_PARSERS))
@given(data=st.data(), chunk=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_parsing_a_stream_gives_what_parsing_its_text_gives(name, data, chunk):
    parse, _, keys = FUZZ_PARSERS[name]
    text = data.draw(broken_texts(keys), label="text")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        assert parse_outcome(parse, io.StringIO(text)) == parse_outcome(parse, text)


# Texts for the parsers' block path: mostly lines in the parser's plain
# shape, with ids that mostly pass its checks, among lines that leave the
# shape one way each. A 19-digit id is zero-padded, so no text asks for a
# large vertex count.
ODD_FIELDS = ["0", "13", "+1", "007", "0000000000000000001", "-1", "1_0", "\u0661", "x"]
OTHER_LINES = ["", "# x", "c x", "n 13", "p edge 13 1", "1  2", "e 1\t2", "1\x0c2", "1 2 3",
               "e 1 2"]


@st.composite
def mostly_plain_texts(draw, name):
    n = draw(st.integers(1, 12))
    ids = st.integers(1, n) if name == "dimacs" else st.integers(0, n)
    head = "e " if name == "dimacs" else ""
    lines = [f"p edge {n} 0"] if name == "dimacs" else []
    if name == "edge_list" and draw(st.booleans()):
        lines.append(f"n {draw(st.integers(0, 13))}")  # may leave ids past it
    for v in range(draw(st.integers(0, 24))):
        kind = draw(st.integers(0, 11))
        if kind < 9:  # a plain line; a coloring's ids mostly go on in order
            u = v if name == "coloring" and kind else draw(ids)
            lines.append(f"{head}{u} {draw(ids)}")
        elif kind == 9:  # an odd field in a plain line
            fields = [str(draw(ids)), draw(st.sampled_from(ODD_FIELDS))]
            lines.append(head + " ".join(fields[:: draw(st.sampled_from([1, -1]))]))
        else:  # a line of another kind
            lines.append(draw(st.sampled_from(OTHER_LINES)))
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-1]  # a last line without "\n"


# Whatever mixes of blocks take the block path, each parser gives the
# value, or the exact error and line, of its line loop alone.
@pytest.mark.parametrize("name", ["coloring", "dimacs", "edge_list"])
@given(data=st.data(), chunk=st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_the_block_path_gives_what_the_line_loop_gives(name, data, chunk):
    text = data.draw(mostly_plain_texts(name), label="text")
    parse = {"dimacs": parse_dimacs, "edge_list": parse_edge_list}.get(name)
    if parse is None:
        count = data.draw(st.one_of(st.none(), st.integers(0, 24)), label="vertex_count")
        parse = partial(parse_coloring, vertex_count=count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK", chunk)
        got = parse_outcome(parse, io.StringIO(text))
    assert got == line_loop_outcome(parse, text)


GRAPH_SUFFIXES = {".edges": "edge_list", ".col": "dimacs"}


@st.composite
def graph_files(draw, suffix):
    # a fuzz text of the format, or a well-formed file of a raw edge list
    if draw(st.booleans()):
        return draw(fuzz_texts(FUZZ_PARSERS[GRAPH_SUFFIXES[suffix]][2]))
    n, pairs = draw(raw_edge_lists())
    if suffix == ".col":
        return f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


@st.composite
def coloring_files(draw):
    # a fuzz text, or one well-formed assignment per vertex of 0 .. n - 1
    if draw(st.booleans()):
        return draw(fuzz_texts(FUZZ_PARSERS["coloring"][2]))
    labels = draw(st.lists(st.integers(0, 3), max_size=12))
    return "".join(f"{v} {c}\n" for v, c in enumerate(labels))


# CLI fuzzing: refine and verify on small-token graph and coloring files.
# Whatever the files hold, a run ends in a documented exit code, and at
# most a one-line message on stderr, never a traceback.
@given(
    command=st.sampled_from(["refine", "refine --expand-edges", "verify"]),
    suffix=st.sampled_from(sorted(GRAPH_SUFFIXES)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cli_ends_in_an_exit_code_without_a_traceback(command, suffix, data):
    graph_text = data.draw(graph_files(suffix), label="graph")
    coloring_text = data.draw(st.one_of(st.none(), coloring_files()), label="coloring")
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g" + suffix)
        coloring = os.path.join(tmp, "c.colors")
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(coloring, "w", encoding="utf-8") as fh:
            fh.write(coloring_text or "")
        name, *flags = command.split()
        if name == "verify":
            argv = ["verify", graph, coloring]
        else:
            argv = ["refine", graph, "--trace", os.path.join(tmp, "t"), *flags]
            if coloring_text is not None:
                argv += ["--coloring", coloring]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert not err.getvalue().startswith("Traceback")
    assert err.getvalue().count("\n") == (code == 2)
