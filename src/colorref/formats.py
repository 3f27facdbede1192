"""Text formats: graph and coloring parsers, DOT export, and the line
reader that ``_trace``'s trace documents share.

Edge list
    One edge per line as ``u v`` (0-based ids). Blank lines and lines
    starting with ``#`` are ignored. An optional header ``n <count>``
    fixes the vertex count; without it the count is max id + 1.

DIMACS edge format
    ``c`` comment lines, a single ``p edge <n> <m>`` problem line, then
    ``e <u> <v>`` lines with 1-based ids. The declared edge count ``m`` is
    checked to be an integer and otherwise ignored: the graph has the
    edges its ``e`` lines list, whatever their number.

Coloring file
    One assignment per line as ``v c``; every vertex exactly once.
    Labels are compacted to 0..K-1 on parse, classes ordered by their
    original label.

Every parser, ``parse_trace`` too, takes the text or a text stream and
reads it once, a chunk at a time, through one line reader (a str is read
as slices). The edge-list, DIMACS and coloring parsers give it a hook
that takes a chunk whole when every line is in the parser's plain shape,
``u v`` or DIMACS ``e u v`` with fields of at most 18 ASCII digits, one
space apart, and "\n" at the end, and passes the parser's line checks;
every other chunk is read a line at a time, which gives every message and
line number. Every edge reader, the trace's ``edge_color`` records
included, hands its checked edge ends to ``graph._from_ends``, the one
builder of a Graph from edge ends, which ``new_graph`` uses too; every
edge writer walks the pairs of ``Graph.edges()`` through
``Graph._pairs()``, with no list.

Every emitter takes a text stream ``out`` last, writes its lines into it as
it builds them and returns None, so no output has to be held in memory
whole. All emitters are pure functions of their inputs, apart from writing
to ``out``, and produce byte-identical output for equal inputs.
"""

from __future__ import annotations

import colorsys
import io
import re
import sys
from array import array
from functools import partial
from operator import eq

from .coloring import Coloring, coloring_from_labels
from .graph import Graph, _from_ends, _typecode
from .refine import _check_sizes


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# Characters per read of a text stream: bounds the text, and so the
# lines, fields and ints, held at once.
_CHUNK = 1 << 12


def _blocks(source: str | io.TextIOBase):
    # Blocks of ``source``, a str or a text stream, read _CHUNK characters
    # at a time (a str gives its slices) and cut just after the last "\n"
    # of each read, so each block but the last ends with one. A "\n" is a
    # line break for splitlines too and never splits a "\r\n", so the lines
    # of the blocks and their numbers are exactly those of the whole text's
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


# The plain shapes: lines of two fields, after an "e" in DIMACS, of 1 to 18
# ASCII digits (below 2**63), one space apart, each ending in "\n". These
# patterns find in "\n" + block a "\n", other than the last, that starts no
# such line; a block is plain when they find none. A search holds no memory
# per line, where a full match of repeated lines holds about 18 bytes per
# character.
_NOT_PAIRS = re.compile(r"\n(?!\Z)(?![0-9]{1,18} [0-9]{1,18}\n)")
_NOT_EDGES = re.compile(r"\n(?!\Z)(?!e [0-9]{1,18} [0-9]{1,18}\n)")


# The characters that errors="surrogateescape" decodes an invalid UTF-8
# byte 0x80 .. 0xff to.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _content_lines(source: str | io.TextIOBase, comment: str, plain=None):
    """Yield ``(line number, fields, to_int)`` of each line that is neither
    blank nor a comment.

    The parser's hook ``plain``, if any, gets each block of ``_blocks``
    and the number of its first line. It takes the block's lines and
    returns True only for a block in the parser's plain shape that passes
    the parser's line checks; the lines of every other block are yielded.
    A line holding a character U+DC80 .. U+DCFF, which
    ``errors="surrogateescape"`` reads an invalid UTF-8 byte as, raises the
    ParseError that names its line, comment or not.

    ``to_int`` is the token converter for the block the line came in:
    ``int`` itself where it is exact. On a whitespace-free token int()
    accepts more than [+-]?[0-9]+ only through "_" separators and non-ASCII
    digits, so on ASCII text without "_" it is exact. Callers convert with
    it and on ValueError convert again with ``_int_field``, which raises
    the ParseError.
    """
    first = 1
    for block in _blocks(source):
        if plain is not None and plain(block, first):
            first += block.count("\n")  # a plain block's only line break
            continue
        ascii_text = block.isascii()
        to_int = int if ascii_text and "_" not in block else _strict_int
        lines = block.splitlines()
        for lineno, raw in enumerate(lines, first):
            if not ascii_text and (bad := _UNDECODED.search(raw)):
                byte = ord(bad.group()) - 0xDC00
                raise ParseError(f"byte 0x{byte:02x} is not valid UTF-8", lineno)
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


def parse_edge_list(source: str | io.TextIOBase) -> Graph:
    """Parse the edge-list format described in the module docstring."""
    declared: int | None = None
    ends = array("q")  # u, v of each edge in turn, 8 bytes each
    lines = array("q")  # the line of each edge
    wide: dict[int, int] = {}  # line: larger end, of each edge with one past 64 bits
    max_id = -1

    def plain(piece: str, first: int) -> bool:
        # "u v" lines with no self-loop; 18 digits keep each end in 64 bits
        nonlocal max_id
        if _NOT_PAIRS.search("\n" + piece):
            return False
        ids = list(map(int, piece.split()))
        if any(map(eq, ids[::2], ids[1::2])):
            return False
        max_id = max(max_id, max(ids))
        ends.extend(ids)
        lines.extend(range(first, first + len(ids) // 2))
        return True

    for lineno, parts, to_int in _content_lines(source, "#", plain):
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


def parse_dimacs(source: str | io.TextIOBase) -> Graph:
    """Parse the DIMACS edge format; ids are shifted to 0-based."""
    n: int | None = None

    def plain(piece: str, first: int) -> bool:
        # "e u v" lines after the problem line, in range and with no self-loop
        if n is None or _NOT_EDGES.search("\n" + piece):
            return False
        fields = piece.split()
        del fields[::3]  # the "e"s
        ids = list(map(int, fields))
        if min(ids) < 1 or max(ids) > n or any(map(eq, ids[::2], ids[1::2])):
            return False
        ends.extend(ids)
        return True

    for lineno, parts, to_int in _content_lines(source, "c", plain):
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
            # u, v of each edge in turn, 1-based: 4 bytes each where they fit
            ends = array(_typecode(n))
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
            ends.append(u)
            ends.append(v)
        else:
            raise ParseError(f"unrecognized record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    return _from_ends(n, ends, 1)


def parse_coloring(source: str | io.TextIOBase, vertex_count: int | None = None) -> Coloring:
    """Parse ``v c`` assignment lines into a compacted coloring.

    When ``vertex_count`` is None it is inferred as the number of
    assignments, which must then cover exactly 0..n-1.
    """
    # labels[v] for each v below the number of assignments read so far,
    # None while unassigned; ahead holds the ids read at or past that number
    labels: list = []
    ahead: dict[int, int] = {}

    def plain(piece: str, first: int) -> bool:
        # "v c" lines with nothing held ahead and the ids going on from
        # len(labels) in order, none of them at or past vertex_count
        if ahead or _NOT_PAIRS.search("\n" + piece):
            return False
        fields = piece.split()
        top = len(labels) + len(fields) // 2
        if vertex_count is not None and top > vertex_count or (
            fields[::2] != list(map(str, range(len(labels), top)))
        ):
            return False
        labels.extend(map(int, fields[1::2]))
        return True

    for lineno, parts, to_int in _content_lines(source, "#", plain):
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


def emit_edge_list(g: Graph, out: io.TextIOBase) -> None:
    """Write the edge list into ``out``, with a header that keeps isolated vertices."""
    out.write(f"n {g.vertex_count}\n")
    for u, v in g._pairs():
        out.write(f"{u} {v}\n")


def emit_coloring(c: Coloring, out: io.TextIOBase) -> None:
    """Write one ``v c`` line per vertex, in vertex order, into ``out``."""
    for v, col in enumerate(c.colors):
        out.write(f"{v} {col}\n")


def _wheel_color(color: int) -> str:
    # Golden-ratio hue stepping keyed by the color id alone, so a given id
    # renders identically regardless of palette size.
    hue = (color * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.93)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def emit_dot(g: Graph, c: Coloring, out: io.TextIOBase) -> None:
    """Write undirected DOT, vertices labeled ``id:color`` and filled by color, into ``out``."""
    _check_sizes(g, c)
    out.write("graph coloring {\n  node [shape=circle style=filled];\n")
    for v, col in enumerate(c.colors):
        out.write(f'  v{v} [label="{v}:{col}" fillcolor="{_wheel_color(col)}"];\n')
    for u, v in g._pairs():
        out.write(f"  v{u} -- v{v};\n")
    out.write("}\n")
