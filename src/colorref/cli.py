"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (not equitable, not isomorphic,
no counterexample found), 2 bad arguments or unparseable input, 3 the
refinement hit its iteration cap without stabilising.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
import tempfile
from collections.abc import Callable
from functools import partial
from pathlib import Path

from ._trace import emit_trace_document, trace_document
from .coloring import colorings_isomorphic
from .formats import (
    emit_coloring,
    emit_dot,
    emit_edge_list,
    parse_coloring,
    parse_dimacs,
    parse_edge_list,
)
from .graph import expand_edges, random_graph
from .refine import find_inequitable_pair, refine_to_fixpoint, zero_coloring

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

DIMACS_SUFFIXES = {".col", ".clq", ".dimacs"}


def _check_destination(path: Path) -> None:
    # name the destination where it cannot be a file, before any work is
    # done for it and without making any directory
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    above = next(p for p in (path.parent, *path.parent.parents) if p.exists())
    if not above.is_dir():
        # some part of the parent path is a file: name the destination
        raise NotADirectoryError(f"{path}: {path.parent} is not a directory")


def _write_atomic(path: Path, write: Callable[[io.TextIOBase], object]) -> None:
    # ``write`` fills a sibling temp file, which is then renamed, so a
    # failure mid-write never leaves a partial file at the destination.
    _check_destination(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        # the file object owns fd from here, so a failure below closes it
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp makes the file 0600: give it the mode of the file it
            # replaces, or else the one open() gives a new file
            try:
                mode = stat.S_IMODE(os.stat(path).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(tmp, mode)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(path: str, parse, *args):
    # the parser reads the open file a chunk at a time; an invalid UTF-8
    # byte is read as a lone surrogate, which the parser's line reader
    # rejects with the line's number. Every ValueError then names the file,
    # as does a vertex count whose first column cannot be allocated
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse(fh, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise ValueError(f"{path}: too large to hold in memory") from exc


def _load_graph(path: str, fmt: str | None):
    if fmt is None:
        fmt = "dimacs" if Path(path).suffix in DIMACS_SUFFIXES else "edgelist"
    return _load(path, parse_edge_list if fmt == "edgelist" else parse_dimacs)


def _cmd_refine(args) -> int:
    g = _load_graph(args.graph, args.format)
    target = expand_edges(g) if args.expand_edges else g
    if args.coloring is not None:
        initial = _load(args.coloring, parse_coloring, target.vertex_count)
    else:
        initial = zero_coloring(target)
    max_iters = args.max_iters
    if max_iters is not None and max_iters < 1:
        raise ValueError("--max-iters must be at least 1")
    trace_path = Path(args.trace) if args.trace else Path(args.graph + ".trace")
    # both destinations are checked before the run, and a check makes no
    # directory, so a bad DOT path leaves the trace and its directory unmade
    _check_destination(trace_path)
    if args.dot:
        _check_destination(Path(args.dot))
    trace = refine_to_fixpoint(target, initial, max_iters)
    doc = trace_document(trace, g, expanded=args.expand_edges)
    echo = (
        f"# colorref refine input={args.graph}"
        f" coloring={args.coloring or '-'}"
        f" expand_edges={str(args.expand_edges).lower()}"
        f" max_iters={max_iters if max_iters is not None else target.vertex_count + 2}\n"
    )

    def write_trace(fh: io.TextIOBase) -> None:
        fh.write(echo)
        emit_trace_document(doc, fh)

    _write_atomic(trace_path, write_trace)
    if args.dot:
        _write_atomic(Path(args.dot), partial(emit_dot, target, trace.final))
    converged = trace.converged_at if trace.converged_at is not None else "none"
    print(
        f"n={target.vertex_count} m={doc.edge_count}"
        f" K_final={trace.final.palette_size} converged_at={converged}"
    )
    return EXIT_OK if trace.converged_at is not None else EXIT_NOT_CONVERGED


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    c = _load(args.coloring, parse_coloring, g.vertex_count)
    pair = find_inequitable_pair(g, c)
    if pair is None:
        print("equitable")
        return EXIT_OK
    print(f"not equitable ({pair[0]},{pair[1]})")
    return EXIT_NEGATIVE


def _cmd_compare(args) -> int:
    c1 = _load(args.coloring1, parse_coloring)
    c2 = _load(args.coloring2, parse_coloring)
    if len(c1.colors) != len(c2.colors):
        raise ValueError(
            f"colorings cover {len(c1.colors)} and {len(c2.colors)} vertices"
        )
    forward = colorings_isomorphic(c1, c2)
    if forward is None:
        print("not isomorphic")
        return EXIT_NEGATIVE
    print(" ".join(f"{a}->{b}" for a, b in enumerate(forward)))
    return EXIT_OK


def _cmd_search(args) -> int:
    # imported here: no other command needs the oracle compiled
    from .oracle import search_refinement_counterexample

    w = search_refinement_counterexample(args.max_n, args.seed, args.attempts)
    if w is None:
        print(
            f"no counterexample found"
            f" (max_n={args.max_n} attempts={args.attempts} seed={args.seed})"
        )
        return EXIT_NEGATIVE
    out = Path(args.out)
    _write_atomic(out / "graph.edges", partial(emit_edge_list, w.graph))
    _write_atomic(out / "initial.colors", partial(emit_coloring, w.initial))
    u, v = w.merged_pair
    k_before, k_after = w.before.palette_size, w.after.palette_size
    note = [
        f"# colorref search max_n={args.max_n} attempts={args.attempts} seed={args.seed}",
        f"vertices {w.graph.vertex_count}",
        f"edges {w.graph.edge_count}",
        f"step {w.step}",
        f"merged_pair {u} {v}",
        f"palette {k_before} -> {k_after}"
        + (" (shrank)" if w.palette_shrank else ""),
        "replay: refining initial.colors over graph.edges assigns vertices"
        f" {u} and {v} one color after step {w.step + 1}"
        f" while they differ at step {w.step}.",
        "coloring_at_step " + " ".join(map(str, w.before.colors)),
        "coloring_after_step " + " ".join(map(str, w.after.colors)),
    ]
    _write_atomic(out / "replay.txt", lambda fh: fh.write("\n".join(note) + "\n"))
    print(
        f"witness: n={w.graph.vertex_count} m={w.graph.edge_count}"
        f" step={w.step} merged=({u},{v})"
        f" K={k_before}->{k_after}; wrote {out}"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.out:
        _check_destination(Path(args.out))
    g = random_graph(args.n, args.p, args.seed)

    def write(fh: io.TextIOBase) -> None:
        fh.write(f"# colorref gen n={args.n} p={args.p} seed={args.seed}\n")
        emit_edge_list(g, fh)

    if args.out:
        _write_atomic(Path(args.out), write)
    else:
        write(sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorref",
        description="Iterated vertex recoloring to the coarsest stable partition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="refine a graph coloring to its stable point")
    p.add_argument("graph", help="graph file (edge list or DIMACS)")
    p.add_argument("--format", choices=["edgelist", "dimacs"],
                   help="input format (default: by file extension)")
    p.add_argument("--coloring", help="initial coloring file (default: all-zero start)")
    p.add_argument("--max-iters", type=int, dest="max_iters",
                   help="iteration cap (default: vertex count + 2)")
    p.add_argument("--expand-edges", action="store_true", dest="expand_edges",
                   help="subdivide every edge with a virtual vertex before refining")
    p.add_argument("--trace", help="trace output path (default: <graph>.trace)")
    p.add_argument("--dot", help="also write the final coloring as DOT")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("verify", help="check that a coloring is a stable point")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--format", choices=["edgelist", "dimacs"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="test two colorings for isomorphism")
    p.add_argument("coloring1")
    p.add_argument("coloring2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("search", help="look for a class-merging initial coloring")
    p.add_argument("--max-n", type=int, default=5, dest="max_n",
                   help="sweep connected graphs with 2 to min(MAX_N, 5) vertices")
    p.add_argument("--attempts", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="witness", help="output directory (default: witness)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gen", help="generate a seeded random graph as an edge list")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
