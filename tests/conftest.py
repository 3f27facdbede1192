import io
import re
import tracemalloc

import pytest

from colorref import (
    Coloring,
    ParseError,
    coloring_from_labels,
    colorings_isomorphic,
    emit_trace_document,
    formats,
    new_graph,
    refine_step,
    refine_to_fixpoint,
)


HUGE = 10**20  # a vertex id or count above sys.maxsize and beyond 64 bits


def path_graph(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def torus_graph(a):
    # C_a x C_a: vertex i * a + j is joined to its right and lower neighbours
    return new_graph(a * a, [
        (i * a + j, x * a + y)
        for i in range(a) for j in range(a)
        for x, y in ((i, (j + 1) % a), ((i + 1) % a, j))
    ])


def star_graph(leaves):
    return new_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# A 6-vertex graph whose start below cycles between 5 and 4 classes forever
GADGET_EDGES = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5)]
GADGET_START = [2, 0, 2, 1, 2, 2]


def gadget_and_path(length):
    # the gadget beside a path on vertices 6 .. 5 + length in color 3: the
    # path refines one pair of classes per step while the gadget cycles
    edges = GADGET_EDGES + [(v, v + 1) for v in range(6, 5 + length)]
    return new_graph(6 + length, edges), coloring_from_labels(GADGET_START + [3] * length)


def stepped_run(g, start, max_iters=None):
    # reference for refine_to_fixpoint's colorings: refine_step applied in
    # turn, each step from scratch, under the same stop rule and cap
    colorings = [start]
    for _ in range(g.vertex_count + 2 if max_iters is None else max_iters):
        colorings.append(refine_step(g, colorings[-1]))
        if colorings_isomorphic(*colorings[-2:]) is not None:
            break
    return tuple(colorings)


def brute_portrait(g, c, v):
    # independent route: scan every vertex and test adjacency directly
    return tuple(
        sum(1 for u in range(g.vertex_count) if u in g.adjacency[v] and c.colors[u] == j)
        for j in range(c.palette_size)
    )


def reference_rows(vertex_count, ends):
    # the list-per-vertex row builder that CSR replaced: the rows of the
    # edges whose ends u, v come in turn from ``ends``, sorted and
    # deduplicated, every entry the one int object of its vertex
    ids = list(range(vertex_count))
    rows = [[] for _ in ids]
    it = iter(ends)
    for u, v in zip(it, it):
        rows[u].append(ids[v])
        rows[v].append(ids[u])
    return tuple(tuple(sorted(set(row))) for row in rows)


def reference_expansion(vertex_count, rows):
    # expand_edges by its definition, on tuple rows: edge i of the sorted
    # edges {u, v} becomes the path u - (vertex_count + i) - v
    edges = [(u, v) for u in range(vertex_count) for v in rows[u] if u < v]
    expanded = [[] for _ in range(vertex_count)] + [[u, v] for u, v in edges]
    for w, (u, v) in enumerate(edges, vertex_count):
        expanded[u].append(w)
        expanded[v].append(w)
    return tuple(tuple(sorted(row)) for row in expanded)


def brute_inequitable_pair(g, c):
    rep = {}
    for v in range(g.vertex_count):
        p = brute_portrait(g, c, v)
        u, q = rep.setdefault(c.colors[v], (v, p))
        if q != p:
            return (u, v)
    return None


def is_refinement(coarse: Coloring, fine: Coloring) -> bool:
    """True iff vertices sharing a color in ``fine`` always share one in ``coarse``."""
    if len(coarse.colors) != len(fine.colors):
        raise ValueError("colorings are over different vertex sets")
    to_coarse = [-1] * fine.palette_size
    for f, c in zip(fine.colors, coarse.colors):
        if to_coarse[f] == -1:
            to_coarse[f] = c
        elif to_coarse[f] != c:
            return False
    return True


def brute_violation(g, initial):
    # reference for violation_witness: the first step of the run that is not
    # a refinement, and the least pair u < v that it merges, by pair scan
    n = g.vertex_count
    colorings = refine_to_fixpoint(g, initial).colorings
    for t, (prev, nxt) in enumerate(zip(colorings, colorings[1:])):
        if is_refinement(prev, nxt):
            continue
        for u in range(n):
            for v in range(u + 1, n):
                if nxt.colors[u] == nxt.colors[v] and prev.colors[u] != prev.colors[v]:
                    return t, (u, v), prev, nxt
    return None


def index_portraits(portraits):
    # dense reference for refine_step: each distinct count vector gets its
    # ascending lexicographic rank as the new color
    portraits = list(portraits)
    if portraits:
        width = len(portraits[0])
        if any(len(p) != width for p in portraits):
            raise ValueError("portraits of mixed lengths cannot be indexed together")
    rank = {p: i for i, p in enumerate(sorted(set(portraits)))}
    return Coloring(tuple(rank[p] for p in portraits), len(rank))


def written(emit, *args):
    # the text emit(*args, out) writes into out
    out = io.StringIO()
    emit(*args, out)
    return out.getvalue()


def emitted(doc):
    # the text emit_trace_document writes for doc
    return written(emit_trace_document, doc)


def edge_colors(doc):
    # (u, v, color) of each original edge, as its edge_color record gives it:
    # the final color of the virtual vertex that stands for the edge
    final, edges = doc.trace.final.colors, doc.original.edges()
    virtual = final[len(final) - len(edges):]
    return tuple((u, v, col) for (u, v), col in zip(edges, virtual))


def kept_bytes(fn, *args):
    # the memory fn(*args) still holds once it returns, its result alive,
    # by tracemalloc
    tracemalloc.start()
    try:
        held = fn(*args)
        kept = tracemalloc.get_traced_memory()[0]
        del held
        return kept
    finally:
        tracemalloc.stop()


def peak_bytes(fn, *args):
    # the most memory fn(*args) holds at once, by tracemalloc
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parse_outcome(parse, *args):
    # the value parse(*args) returns, or the message of its ParseError
    try:
        return parse(*args)
    except ParseError as err:
        return f"ParseError: {err}"


def line_loop_outcome(parse, *args):
    # parse_outcome with the parsers' block path off: the patterns that find
    # a line out of the plain shapes then match every piece, so every line
    # goes through the line loop
    always = re.compile("")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_NOT_PAIRS", always)
        mp.setattr(formats, "_NOT_EDGES", always)
        return parse_outcome(parse, *args)
