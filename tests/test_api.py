import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import colorref
import colorref.cli

# The whole public surface. Pinning it exactly keeps helpers that only
# tests used from coming back, and catches a dangling export.
PUBLIC_NAMES = [
    "Coloring",
    "CounterexampleWitness",
    "Graph",
    "ParseError",
    "Partition",
    "RefinementTrace",
    "TraceDocument",
    "coloring_from_labels",
    "colorings_isomorphic",
    "emit_coloring",
    "emit_dot",
    "emit_edge_list",
    "emit_trace_document",
    "expand_edges",
    "find_inequitable_pair",
    "naive_refine",
    "new_graph",
    "parse_coloring",
    "parse_dimacs",
    "parse_edge_list",
    "parse_trace",
    "partition_of",
    "random_graph",
    "refine_step",
    "refine_to_fixpoint",
    "search_refinement_counterexample",
    "trace_document",
    "violation_witness",
    "zero_coloring",
]

LIBRARY_MODULES = ("coloring", "formats", "graph", "oracle", "refine")


def test_all_is_sorted_and_pinned():
    assert colorref.__all__ == sorted(colorref.__all__)
    assert colorref.__all__ == PUBLIC_NAMES


def test_every_export_resolves():
    for name in colorref.__all__:
        getattr(colorref, name)
    namespace = {}
    exec("from colorref import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(colorref.__all__)


def test_library_modules_define_no_unexported_public_names():
    exported = set(colorref.__all__)
    for short in LIBRARY_MODULES:
        module = importlib.import_module(f"colorref.{short}")
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
        }
        assert defined <= exported, (short, sorted(defined - exported))


def test_cli_imports_only_the_standard_library():
    # Compared against the modules already loaded at start-up, since site
    # hooks may import third-party packages before any user code runs.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import colorref.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(tops - set(sys.stdlib_module_names) - {'colorref'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(colorref.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "\n"


def test_trace_document_holds_only_the_trace_and_what_it_cannot_derive():
    # Every other record (n, initial, palette sizes, colorings, classes and
    # the edge colors) is read from the trace and the original graph, so a
    # second stored copy cannot drift from them.
    names = tuple(f.name for f in dataclasses.fields(colorref.TraceDocument))
    assert names == ("trace", "edge_count", "original")


def test_refinement_trace_holds_only_its_colorings():
    # converged_at and the palette sizes are read from the colorings
    names = tuple(f.name for f in dataclasses.fields(colorref.RefinementTrace))
    assert names == ("colorings",)


def test_benchmark_wraps_only_names_the_cli_has(monkeypatch):
    # bench/run.py --trace 1 swaps each CLI_CALLS name on colorref.cli for a
    # timing wrapper, so a renamed CLI import would break that run.
    # Importing the script only defines names; its dataclasses need it
    # registered in sys.modules while it loads.
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("colorref_bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    missing = [name for name in bench.CLI_CALLS if not hasattr(colorref.cli, name)]
    assert bench.CLI_CALLS and missing == []
