"""Trace documents: one refinement run as text, written and read back.

Trace document
    Line-oriented ``key value...`` records in one canonical order (see
    emit_trace_document). ``#`` comments are ignored on parse, so callers
    may prepend provenance headers without breaking round-trips.

``parse_trace`` reads through the line reader of ``formats``. The trace
code is a module of its own because every command compiles the package's
modules when no bytecode is cached, and the compile of the largest one
sets the peak memory of a short run.
"""

from __future__ import annotations

import io
from itertools import chain, islice, zip_longest

from ._record import _Record
from .coloring import Coloring, _classes, colorings_isomorphic, partition_of
from .formats import ParseError, _content_lines, _int_field
from .graph import Graph, _from_ends
from .refine import RefinementTrace


class TraceDocument(_Record):
    """One refinement run: its trace, the edge count and the graph it expanded.

    ``original`` is ``g`` of ``trace_document(trace, g, expanded=True)``, or
    None when the document has no ``edge_color`` record. Edge ``i`` of
    ``original``, in the order of ``original.edges()``, gets the final color
    of its virtual vertex ``original.vertex_count + i``, laid out as in
    ``expand_edges``; the emitter walks these edges without a list of them.
    """

    _fields = ("trace", "edge_count", "original")

    def __init__(self, trace: RefinementTrace, edge_count: int, original: Graph | None) -> None:
        vars(self).update(trace=trace, edge_count=edge_count, original=original)


def trace_document(
    trace: RefinementTrace, g: Graph, *, expanded: bool = False
) -> TraceDocument:
    """Assemble the document for a finished run on ``g``, or with ``expanded``
    on ``expand_edges(g)``; ValueError unless the trace has that vertex count.

    An expanded document keeps ``g`` itself as ``original``, not a copy of
    its edges, or None when ``g`` has no edge.
    """
    n, m = g.vertex_count, g.edge_count
    if expanded:  # each edge of g is a vertex and two edges of the expansion
        n, m = n + m, 2 * m
    if len(trace.final.colors) != n:
        raise ValueError(f"trace covers {len(trace.final.colors)} vertices, not n = {n}")
    return TraceDocument(trace, m, g if expanded and m else None)


# Values per write of a long record: bounds the text a record holds at once.
_SLICE = 1024
# Records per write of the edge_color records, for the same bound.
_EDGES = 256


def _write_record(write, key: str, values) -> None:
    write(key)
    it = iter(values)
    while part := tuple(islice(it, _SLICE)):
        write(" %d" * len(part) % part)  # one pass, no str per value
    write("\n")


def emit_trace_document(doc: TraceDocument, out: io.TextIOBase) -> None:
    """Serialize in the canonical field order; equal documents yield equal bytes.

    The records are written to the text stream ``out`` one at a time, long
    ones in slices of ``_SLICE`` values, and the ``edge_color`` records in
    batches of ``_EDGES``, each formatted in one pass; no line is kept
    after it is written.
    """
    write, trace = out.write, doc.trace
    final = trace.final.colors
    n = len(final)
    write(f"n {n}\nm {doc.edge_count}\n")
    _write_record(write, "initial", trace.colorings[0].colors)
    _write_record(write, "palette_sizes", trace.palette_sizes)
    for coloring in trace.colorings:
        _write_record(write, "coloring", coloring.colors)
    marker = "none" if trace.converged_at is None else str(trace.converged_at)
    write(f"converged_at {marker}\n")
    # the classes of partition_of(trace.final), without a list per class
    for members in _classes(trace.final):
        _write_record(write, "class", members)
    if (g := doc.original) is not None:
        # u, v and the final color of the edge's virtual vertex, flat
        ends = chain.from_iterable(g._pairs())
        flat = chain.from_iterable(zip(ends, ends, islice(final, n - g.edge_count, None)))
        while batch := tuple(islice(flat, 3 * _EDGES)):
            write("edge_color %d %d %d\n" * (len(batch) // 3) % batch)


def parse_trace(source: str | io.TextIOBase) -> TraceDocument:
    """Parse trace-document text, or a text stream, back into an equal TraceDocument.

    Besides the syntax, the records must agree: ``n``, ``m``, ``initial``,
    ``palette_sizes`` and ``converged_at`` appear once each and ``n`` and
    ``m`` are non-negative; every coloring has ``n`` entries and is a
    ``Coloring`` with the palette size of its ``palette_sizes`` entry; the
    classes are ``partition_of`` the last coloring; a ``converged_at``
    step lies in ``1 .. len(colorings) - 1`` and is the first step whose
    coloring is isomorphic to the one before it, and the last step, while
    ``none`` needs no such step; and ``k`` edge_color records
    describe an edge-expanded run: ``m = 2k``, the pairs ``u < v`` are
    original vertices below ``n - k`` in increasing order, and the color of
    record ``i`` is the final color of virtual vertex ``n - k + i``.
    """
    single = ("n", "m", "initial", "palette_sizes", "converged_at")
    # each record as (line number, values): the checks after the loop name
    # the line of the record they reject
    records: dict[str, list] = {key: [] for key in (*single, "coloring", "class", "edge_color")}
    for lineno, parts, _ in _content_lines(source, "#"):
        key, tokens = parts[0], parts[1:]
        if key in single and records[key]:
            raise ParseError(f"duplicate {key} record", lineno)
        if key == "converged_at":
            if len(tokens) != 1:
                raise ParseError("converged_at needs exactly one value", lineno)
            values = None if tokens[0] == "none" else _int_field(tokens[0], "step", lineno)
        else:
            values = tuple([_int_field(tok, "value", lineno) for tok in tokens])
            if key not in records:
                raise ParseError(f"unrecognized record {key!r}", lineno)
            if key in ("n", "m"):
                if len(values) != 1:
                    raise ParseError(f"{key} needs exactly one value", lineno)
                if values[0] < 0:
                    raise ParseError(f"{key} must be non-negative", lineno)
            elif key == "edge_color" and len(values) != 3:
                raise ParseError("edge_color needs 'u v color'", lineno)
        records[key].append((lineno, values))
    if not records["n"] or not records["m"]:
        raise ParseError("missing graph summary (n/m records)")
    if not (records["initial"] and records["palette_sizes"] and records["converged_at"]):
        raise ParseError("missing initial, palette_sizes, or converged_at record")
    [(_, (n,))], [(_, (m,))] = records["n"], records["m"]
    [(_, initial)], [(_, palette_sizes)] = records["initial"], records["palette_sizes"]
    [(_, converged_at)] = records["converged_at"]
    colorings = records["coloring"]
    if not colorings or colorings[0][1] != initial:
        raise ParseError("first coloring record must repeat the initial coloring")
    if len(palette_sizes) != len(colorings):
        raise ParseError("palette_sizes must list one size per coloring")
    checked: list[Coloring] = []
    for (lineno, coloring), k in zip(colorings, palette_sizes):
        if len(coloring) != n:
            raise ParseError(f"coloring has {len(coloring)} entries, not n = {n}", lineno)
        try:
            checked.append(Coloring(coloring, k))
        except ValueError as err:
            raise ParseError(str(err), lineno) from None
    final = checked[-1]
    # either side pads with (None, None): an extra record is named by its
    # line, a missing one by no line
    classes = zip_longest(records["class"], partition_of(final), fillvalue=(None, None))
    for (lineno, cls), want in classes:
        if cls != want:
            raise ParseError("classes are not the final coloring's partition", lineno)
    if converged_at is not None and not 1 <= converged_at < len(colorings):
        raise ParseError(
            f"converged_at must lie in 1..{len(colorings) - 1}", records["converged_at"][0][0]
        )
    trace = RefinementTrace(tuple(checked))
    # a run stops at its first isomorphic step, so no earlier step is one
    early = zip(checked, checked[1:-1])
    if converged_at != trace.converged_at or any(
        colorings_isomorphic(a, b) is not None for a, b in early
    ):
        message = "converged_at disagrees with the colorings' first isomorphic step"
        raise ParseError(message, records["converged_at"][0][0])
    edge_colors = records["edge_color"]
    k = len(edge_colors)
    if k and m != 2 * k:
        raise ParseError(f"m = {m} is not twice the {k} edge_color records", records["m"][0][0])
    base = n - k
    for i, (lineno, (u, v, col)) in enumerate(edge_colors):
        if not 0 <= u < v < base:
            raise ParseError(f"edge_color pair {u} {v} is not u < v below {base}", lineno)
        if i and (u, v) <= edge_colors[i - 1][1][:2]:
            raise ParseError("edge_color pairs are not in increasing order", lineno)
        if col != final.colors[base + i]:
            raise ParseError(f"edge_color {col} is not vertex {base + i}'s final color", lineno)
    ends = [end for _, values in edge_colors for end in values[:2]]
    return TraceDocument(trace, m, _from_ends(base, ends) if k else None)
