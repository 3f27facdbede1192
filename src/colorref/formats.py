"""Text formats: graph and coloring parsers, DOT export, trace documents.

Edge list
    One edge per line as ``u v`` (0-based ids). Blank lines and lines
    starting with ``#`` are ignored. An optional header ``n <count>``
    fixes the vertex count; without it the count is max id + 1.

DIMACS edge format
    ``c`` comment lines, a single ``p edge <n> <m>`` problem line, then
    ``e <u> <v>`` lines with 1-based ids.

Coloring file
    One assignment per line as ``v c``; every vertex exactly once.
    Labels are compacted to 0..K-1 on parse, classes ordered by their
    original label.

Trace document
    Line-oriented ``key value...`` records in one canonical order (see
    emit_trace_document). ``#`` comments are ignored on parse, so callers
    may prepend provenance headers without breaking round-trips.

Every parser takes the text or a text stream and reads it once, a chunk
at a time, through one line reader (a str is read as slices); with each
line it gives the token converter for the chunk the line came in. Every
edge reader, the trace's ``edge_color`` records included, hands its
checked edge ends to ``graph._from_ends``, the one builder of a Graph
from edge ends, which ``new_graph`` uses too; every edge writer walks
the pairs of ``Graph.edges()`` through ``Graph._pairs()``, with no list.

Every emitter takes a text stream ``out`` last, writes its lines into it as
it builds them and returns None, so no output has to be held in memory
whole. All emitters are pure functions of their inputs, apart from writing
to ``out``, and produce byte-identical output for equal inputs.
"""

from __future__ import annotations

import colorsys
import sys
from array import array
from functools import partial
from itertools import islice, zip_longest
from typing import TextIO

from ._record import _Record
from .coloring import (
    Coloring,
    _classes,
    coloring_from_labels,
    colorings_isomorphic,
    partition_of,
)
from .graph import Graph, _from_ends, _typecode
from .refine import RefinementTrace, _check_sizes


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# Characters per read of a text stream and per str.splitlines call: bounds
# the text and the lines held at once.
_CHUNK = 1 << 14


def _blocks(source: str | TextIO):
    # Pieces of ``source``, a str or a text stream, read _CHUNK characters
    # at a time (a str gives its slices) and cut just after the last "\n"
    # of each read, so each piece but the last ends with one. A "\n" is a
    # line break for splitlines too and never splits a "\r\n", so the lines
    # of the pieces and their numbers are exactly those of the whole text's
    # splitlines().
    if isinstance(source, str):
        reads = (source[i:i + _CHUNK] for i in range(0, len(source), _CHUNK))
    else:
        reads = iter(partial(source.read, _CHUNK), "")
    parts: list[str] = []
    for data in reads:
        cut = data.rfind("\n") + 1
        if cut:
            parts.append(data[:cut])
            yield "".join(parts)
            parts = [data[cut:]]
        else:
            parts.append(data)
    if last := "".join(parts):
        yield last


def _content_lines(source: str | TextIO, comment: str):
    """Yield ``(line number, fields, to_int)`` of each line that is neither
    blank nor a comment.

    ``to_int`` is the token converter for the piece the line came in:
    ``int`` itself where it is exact. On a whitespace-free token int()
    accepts more than [+-]?[0-9]+ only through "_" separators and non-ASCII
    digits, so on ASCII text without "_" it is exact. Callers convert with
    it and on ValueError convert again with ``_int_field``, which raises
    the ParseError.
    """
    first = 1
    for block in _blocks(source):
        to_int = int if block.isascii() and "_" not in block else _strict_int
        lines = block.splitlines()
        for lineno, raw in enumerate(lines, first):
            parts = raw.split()
            if parts and not parts[0].startswith(comment):
                yield lineno, parts, to_int
        first += len(lines)


def _strict_int(token: str) -> int:
    # Only [+-]?[0-9]+: int() alone would also take "1_0" and non-ASCII
    # digits such as "\u0661".
    digits = token[1:] if token[0] in "+-" else token
    if digits.isascii() and digits.isdigit():
        return int(token)  # ValueError for more digits than int() will convert
    raise ValueError(token)


def _int_field(token: str, what: str, lineno: int) -> int:
    try:
        return _strict_int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno) from None


# No list can hold more vertices than this, so no larger count is built.
_TOO_MANY = f"vertex count must be at most {sys.maxsize}"


def parse_edge_list(source: str | TextIO) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    declared: int | None = None
    ends = array("q")  # u, v of each edge in turn, 8 bytes each
    lines = array("q")  # the line of each edge
    wide: dict[int, int] = {}  # line: larger end, of each edge with one past 64 bits
    max_id = -1
    for lineno, parts, to_int in _content_lines(source, "#"):
        if parts[0] == "n":
            if declared is not None:
                raise ParseError("duplicate vertex-count header", lineno)
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            declared = _int_field(parts[1], "vertex count", lineno)
            if declared < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            header_line = lineno
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {' '.join(parts)!r}", lineno)
        try:
            u, v = to_int(parts[0]), to_int(parts[1])
        except ValueError:
            u = _int_field(parts[0], "vertex id", lineno)
            v = _int_field(parts[1], "vertex id", lineno)
        if u < 0 or v < 0:
            raise ParseError("vertex ids must be non-negative", lineno)
        if u == v:
            raise ParseError(f"self-loop {u} {v}", lineno)
        max_id = max(max_id, u, v)
        if max_id > sys.maxsize and max(u, v) > sys.maxsize:
            # such an edge always fails the count checks below
            wide[lineno] = max(u, v)
            u = v = 0
        ends.append(u)
        ends.append(v)
        lines.append(lineno)
    if declared is not None and declared > sys.maxsize:
        raise ParseError(_TOO_MANY, header_line)
    n = declared if declared is not None else max_id + 1
    if max_id >= min(n, sys.maxsize):
        # name the first edge with an end beyond the declared count or,
        # with no header, with an end that makes the count too large
        it = iter(ends)
        for lineno, u, v in zip(lines, it, it):
            w = wide.get(lineno) or max(u, v)
            if w >= n:
                raise ParseError(f"vertex id {w} exceeds declared count {n}", lineno)
            if w >= sys.maxsize:
                raise ParseError(_TOO_MANY, lineno)
    return _from_ends(n, ends)


def parse_dimacs(source: str | TextIO) -> Graph:
    """Parse the DIMACS edge format; ids are shifted to 0-based."""
    n: int | None = None
    for lineno, parts, to_int in _content_lines(source, "c"):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", lineno)
            n = _int_field(parts[2], "vertex count", lineno)
            _int_field(parts[3], "edge count", lineno)
            if n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            if n > sys.maxsize:  # also keeps every id within ends' 64 bits
                raise ParseError(_TOO_MANY, lineno)
            # u, v of each edge in turn: 4 bytes each where they fit
            ends = array(_typecode(n - 1))
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line precedes the problem line", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = to_int(parts[1]), to_int(parts[2])
            except ValueError:
                u = _int_field(parts[1], "vertex id", lineno)
                v = _int_field(parts[2], "vertex id", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id outside 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop {u} {v}", lineno)
            ends.append(u - 1)
            ends.append(v - 1)
        else:
            raise ParseError(f"unrecognized record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    return _from_ends(n, ends)


def parse_coloring(source: str | TextIO, vertex_count: int | None = None) -> Coloring:
    """Parse ``v c`` assignment lines into a compacted coloring.

    When ``vertex_count`` is None it is inferred as the number of
    assignments, which must then cover exactly 0..n-1.
    """
    # labels[v] for each v below the number of assignments read so far,
    # None while unassigned; ahead holds the ids read at or past that number
    labels: list = []
    ahead: dict[int, int] = {}
    for lineno, parts, to_int in _content_lines(source, "#"):
        if len(parts) != 2:
            raise ParseError(f"expected 'v c', got {' '.join(parts)!r}", lineno)
        try:
            v, label = to_int(parts[0]), to_int(parts[1])
        except ValueError:
            v = _int_field(parts[0], "vertex id", lineno)
            label = _int_field(parts[1], "color", lineno)
        if v < 0:
            raise ParseError("vertex ids must be non-negative", lineno)
        if vertex_count is not None and v >= vertex_count:
            raise ParseError(f"vertex id {v} outside 0..{vertex_count - 1}", lineno)
        labels.append(ahead.pop(len(labels), None) if ahead else None)
        if v < len(labels):
            if labels[v] is not None:
                raise ParseError(f"duplicate assignment for vertex {v}", lineno)
            labels[v] = label
        elif v in ahead:
            raise ParseError(f"duplicate assignment for vertex {v}", lineno)
        else:
            ahead[v] = label
    # every id left ahead is at least the number of assignments, so the
    # first of them is the first id in file order outside 0..n-1
    n = vertex_count if vertex_count is not None else len(labels)
    for v in ahead:
        if v >= n:
            raise ParseError(f"vertex id {v} outside 0..{n - 1} ({n} assignments)")
    if len(labels) < n:
        # each line fills a slot or holds an id ahead, which leaves a slot
        # None: the smallest unassigned id is the first None, else the
        # first id past the slots
        v = labels.index(None) if ahead else len(labels)
        raise ParseError(f"missing assignment for vertex {v}")
    return coloring_from_labels(labels)


def emit_edge_list(g: Graph, out: TextIO) -> None:
    """Write the edge list into ``out``, with a header that keeps isolated vertices."""
    out.write(f"n {g.vertex_count}\n")
    for u, v in g._pairs():
        out.write(f"{u} {v}\n")


def emit_coloring(c: Coloring, out: TextIO) -> None:
    """Write one ``v c`` line per vertex, in vertex order, into ``out``."""
    for v, col in enumerate(c.colors):
        out.write(f"{v} {col}\n")


def _wheel_color(color: int) -> str:
    # Golden-ratio hue stepping keyed by the color id alone, so a given id
    # renders identically regardless of palette size.
    hue = (color * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.93)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def emit_dot(g: Graph, c: Coloring, out: TextIO) -> None:
    """Write undirected DOT, vertices labeled ``id:color`` and filled by color, into ``out``."""
    _check_sizes(g, c)
    out.write("graph coloring {\n  node [shape=circle style=filled];\n")
    for v, col in enumerate(c.colors):
        out.write(f'  v{v} [label="{v}:{col}" fillcolor="{_wheel_color(col)}"];\n')
    for u, v in g._pairs():
        out.write(f"  v{u} -- v{v};\n")
    out.write("}\n")


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


def _write_record(write, key: str, values) -> None:
    write(key)
    it = iter(values)
    while part := tuple(islice(it, _SLICE)):
        write(" %d" * len(part) % part)  # one pass, no str per value
    write("\n")


def emit_trace_document(doc: TraceDocument, out: TextIO) -> None:
    """Serialize in the canonical field order; equal documents yield equal bytes.

    The records are written to the text stream ``out`` one at a time, long
    ones in slices; no line is kept after it is written.
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
        for w, (u, v) in enumerate(g._pairs(), n - g.edge_count):
            write(f"edge_color {u} {v} {final[w]}\n")


def parse_trace(source: str | TextIO) -> TraceDocument:
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
