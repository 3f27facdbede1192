import importlib

import colorref

# The whole public surface. Pinning it exactly keeps helpers that only
# tests used from coming back, and catches a dangling export.
PUBLIC_NAMES = [
    "ColorBijectionWitness",
    "Coloring",
    "CounterexampleWitness",
    "Graph",
    "ParseError",
    "Partition",
    "Portrait",
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
    "index_portraits",
    "is_refinement",
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
    "replay_witness",
    "search_refinement_counterexample",
    "trace_document",
    "verify_equitable",
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
