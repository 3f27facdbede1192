"""Iterated vertex recoloring by neighbour-color counts.

Each step replaces every vertex's color with an index of its neighbourhood
portrait (the count of neighbours per current color) and stops once two
consecutive colorings are isomorphic. From the all-equal start the result
is the coarsest equitable partition; from other starts classes can merge,
and the partition can cycle forever, so the run then ends at an iteration
cap. The package bundles the engine, comparison predicates, an
independent brute-force oracle, text formats, and a CLI.
"""

from ._trace import TraceDocument, emit_trace_document, parse_trace, trace_document
from .coloring import (
    Coloring,
    Partition,
    coloring_from_labels,
    colorings_isomorphic,
    partition_of,
)
from .formats import (
    ParseError,
    emit_coloring,
    emit_dot,
    emit_edge_list,
    parse_coloring,
    parse_dimacs,
    parse_edge_list,
)
from .graph import (
    Graph,
    expand_edges,
    new_graph,
    random_graph,
)
from .refine import (
    RefinementTrace,
    find_inequitable_pair,
    refine_step,
    refine_to_fixpoint,
    zero_coloring,
)

__version__ = "0.1.0"

# The oracle's names, resolved on first use: only ``search`` and the tests
# need them, so the other commands never compile the module.
_ORACLE = {
    "CounterexampleWitness",
    "naive_refine",
    "search_refinement_counterexample",
    "violation_witness",
}


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
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
