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

All emitters are pure functions of their inputs and produce byte-identical
output for equal inputs.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field
from itertools import zip_longest

from .coloring import Coloring, Partition, coloring_from_labels, partition_of
from .graph import Graph, new_graph
from .refine import RefinementTrace


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _content_lines(text: str, comment: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        yield lineno, line.split()


def _int_field(token: str, what: str, lineno: int) -> int:
    # Only [+-]?[0-9]+: int() alone would also take "1_0" and non-ASCII
    # digits such as "\u0661".
    digits = token[1:] if token[0] in "+-" else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() will convert
            pass
    raise ParseError(f"{what} {token!r} is not an integer", lineno)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    declared: int | None = None
    edges: list[tuple[int, int, int]] = []
    max_id = -1
    for lineno, parts in _content_lines(text, "#"):
        if parts[0] == "n":
            if declared is not None:
                raise ParseError("duplicate vertex-count header", lineno)
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            declared = _int_field(parts[1], "vertex count", lineno)
            if declared < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {' '.join(parts)!r}", lineno)
        u = _int_field(parts[0], "vertex id", lineno)
        v = _int_field(parts[1], "vertex id", lineno)
        if u < 0 or v < 0:
            raise ParseError("vertex ids must be non-negative", lineno)
        if u == v:
            raise ParseError(f"self-loop {u} {v}", lineno)
        edges.append((u, v, lineno))
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id + 1
    for u, v, lineno in edges:
        if u >= n or v >= n:
            raise ParseError(
                f"vertex id {max(u, v)} exceeds declared count {n}", lineno
            )
    return new_graph(n, [(u, v) for u, v, _ in edges])


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS edge format; ids are shifted to 0-based."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, parts in _content_lines(text, "c"):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", lineno)
            n = _int_field(parts[2], "vertex count", lineno)
            _int_field(parts[3], "edge count", lineno)
            if n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line precedes the problem line", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            u = _int_field(parts[1], "vertex id", lineno)
            v = _int_field(parts[2], "vertex id", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id outside 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop {u} {v}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    return new_graph(n, edges)


def parse_coloring(text: str, vertex_count: int | None = None) -> Coloring:
    """Parse ``v c`` assignment lines into a compacted coloring.

    When ``vertex_count`` is None it is inferred as the number of
    assignments, which must then cover exactly 0..n-1.
    """
    assignments: dict[int, int] = {}
    for lineno, parts in _content_lines(text, "#"):
        if len(parts) != 2:
            raise ParseError(f"expected 'v c', got {' '.join(parts)!r}", lineno)
        v = _int_field(parts[0], "vertex id", lineno)
        label = _int_field(parts[1], "color", lineno)
        if v < 0:
            raise ParseError("vertex ids must be non-negative", lineno)
        if vertex_count is not None and v >= vertex_count:
            raise ParseError(f"vertex id {v} outside 0..{vertex_count - 1}", lineno)
        if v in assignments:
            raise ParseError(f"duplicate assignment for vertex {v}", lineno)
        assignments[v] = label
    n = vertex_count if vertex_count is not None else len(assignments)
    for v in assignments:
        if v >= n:
            raise ParseError(f"vertex id {v} outside 0..{n - 1} ({n} assignments)")
    for v in range(n):
        if v not in assignments:
            raise ParseError(f"missing assignment for vertex {v}")
    return coloring_from_labels(assignments[v] for v in range(n))


def emit_edge_list(g: Graph) -> str:
    """Edge-list text with an explicit header, round-tripping isolated vertices."""
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def emit_coloring(c: Coloring) -> str:
    """One ``v c`` line per vertex, in vertex order."""
    return "".join(f"{v} {col}\n" for v, col in enumerate(c.colors))


def _wheel_color(color: int) -> str:
    # Golden-ratio hue stepping keyed by the color id alone, so a given id
    # renders identically regardless of palette size.
    hue = (color * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.93)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def emit_dot(g: Graph, c: Coloring) -> str:
    """Undirected DOT text with vertices labeled ``id:color`` and filled by color."""
    if len(c.colors) != g.vertex_count:
        raise ValueError("coloring and graph have different vertex counts")
    lines = ["graph coloring {", "  node [shape=circle style=filled];"]
    for v in range(g.vertex_count):
        col = c.colors[v]
        lines.append(f'  v{v} [label="{v}:{col}" fillcolor="{_wheel_color(col)}"];')
    for u, v in g.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TraceDocument:
    """Serializable summary of one refinement run.

    ``colorings[0]`` duplicates ``initial``; ``classes`` is the partition of
    the last coloring. ``edge_colors`` is only populated for runs on
    edge-expanded graphs and lists ``(u, v, color)`` per original edge.
    """

    vertex_count: int
    edge_count: int
    initial: tuple[int, ...]
    palette_sizes: tuple[int, ...]
    colorings: tuple[tuple[int, ...], ...]
    converged_at: int | None
    classes: Partition
    edge_colors: tuple[tuple[int, int, int], ...] = field(default=())


def trace_document(
    trace: RefinementTrace,
    g: Graph,
    edge_colors: tuple[tuple[int, int, int], ...] = (),
) -> TraceDocument:
    """Assemble the document for a finished run on ``g``."""
    return TraceDocument(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        initial=trace.colorings[0].colors,
        palette_sizes=trace.palette_sizes,
        colorings=tuple(c.colors for c in trace.colorings),
        converged_at=trace.converged_at,
        classes=partition_of(trace.final),
        edge_colors=edge_colors,
    )


def emit_trace_document(doc: TraceDocument) -> str:
    """Serialize in the canonical field order; equal documents yield equal bytes."""
    lines = [f"n {doc.vertex_count}", f"m {doc.edge_count}"]
    lines.append(" ".join(["initial", *map(str, doc.initial)]).rstrip())
    lines.append(" ".join(["palette_sizes", *map(str, doc.palette_sizes)]).rstrip())
    for coloring in doc.colorings:
        lines.append(" ".join(["coloring", *map(str, coloring)]).rstrip())
    marker = "none" if doc.converged_at is None else str(doc.converged_at)
    lines.append(f"converged_at {marker}")
    for cls in doc.classes:
        lines.append(" ".join(["class", *map(str, cls)]))
    for u, v, col in doc.edge_colors:
        lines.append(f"edge_color {u} {v} {col}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> TraceDocument:
    """Parse trace-document text back into an equal TraceDocument.

    Besides the syntax, the records must agree: ``n``, ``m``, ``initial``,
    ``palette_sizes`` and ``converged_at`` appear once each and ``n`` and
    ``m`` are non-negative; every coloring has ``n`` entries and is a
    ``Coloring`` with the palette size of its ``palette_sizes`` entry; the
    classes are ``partition_of`` the last coloring; and a ``converged_at``
    step lies in ``1 .. len(colorings) - 1``.
    """
    n = m = None
    initial: tuple[int, ...] | None = None
    palette_sizes: tuple[int, ...] | None = None
    colorings: list[tuple[int, ...]] = []
    converged_at: int | None = None
    once: set[str] = set()
    classes: list[tuple[int, ...]] = []
    # line numbers of the records checked against each other at the end
    coloring_lines: list[int] = []
    class_lines: list[int] = []
    converged_line = 0
    edge_colors: list[tuple[int, int, int]] = []
    for lineno, parts in _content_lines(text, "#"):
        key, values = parts[0], parts[1:]
        if key in ("n", "m", "initial", "palette_sizes", "converged_at"):
            if key in once:
                raise ParseError(f"duplicate {key} record", lineno)
            once.add(key)
        if key == "converged_at":
            converged_line = lineno
            if len(values) != 1:
                raise ParseError("converged_at needs exactly one value", lineno)
            if values[0] != "none":
                converged_at = _int_field(values[0], "step", lineno)
            continue
        ints = [_int_field(tok, "value", lineno) for tok in values]
        if key in ("n", "m"):
            if len(ints) != 1:
                raise ParseError(f"{key} needs exactly one value", lineno)
            if ints[0] < 0:
                raise ParseError(f"{key} must be non-negative", lineno)
            if key == "n":
                n = ints[0]
            else:
                m = ints[0]
        elif key == "initial":
            initial = tuple(ints)
        elif key == "palette_sizes":
            palette_sizes = tuple(ints)
        elif key == "coloring":
            colorings.append(tuple(ints))
            coloring_lines.append(lineno)
        elif key == "class":
            classes.append(tuple(ints))
            class_lines.append(lineno)
        elif key == "edge_color":
            if len(ints) != 3:
                raise ParseError("edge_color needs 'u v color'", lineno)
            edge_colors.append((ints[0], ints[1], ints[2]))
        else:
            raise ParseError(f"unrecognized record {key!r}", lineno)
    if n is None or m is None:
        raise ParseError("missing graph summary (n/m records)")
    if initial is None or palette_sizes is None or "converged_at" not in once:
        raise ParseError("missing initial, palette_sizes, or converged_at record")
    if not colorings or colorings[0] != initial:
        raise ParseError("first coloring record must repeat the initial coloring")
    if len(palette_sizes) != len(colorings):
        raise ParseError("palette_sizes must list one size per coloring")
    for coloring, k, lineno in zip(colorings, palette_sizes, coloring_lines):
        if len(coloring) != n:
            raise ParseError(f"coloring has {len(coloring)} entries, not n = {n}", lineno)
        try:
            final = Coloring(coloring, k)
        except ValueError as err:
            raise ParseError(str(err), lineno) from None
    for cls, want, lineno in zip_longest(classes, partition_of(final), class_lines):
        if cls != want:  # lineno is None when class records are missing at the end
            raise ParseError("classes are not the final coloring's partition", lineno)
    if converged_at is not None and not 1 <= converged_at < len(colorings):
        raise ParseError(
            f"converged_at must lie in 1..{len(colorings) - 1}", converged_line
        )
    return TraceDocument(
        vertex_count=n,
        edge_count=m,
        initial=initial,
        palette_sizes=palette_sizes,
        colorings=tuple(colorings),
        converged_at=converged_at,
        classes=tuple(classes),
        edge_colors=tuple(edge_colors),
    )
