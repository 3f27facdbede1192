"""Iterated vertex recoloring by neighbour-color counts.

Each step replaces every vertex's color with an index of its neighbourhood
portrait (the count of neighbours per current color) and stops once two
consecutive colorings are isomorphic. From the all-equal start the result
is the coarsest equitable partition; from other starts classes can merge,
and the partition can cycle forever, so the run then ends at an iteration
cap. The package bundles the engine, comparison predicates, an
independent brute-force oracle, text formats, and a CLI.
"""

from .coloring import (
    ColorBijectionWitness,
    Coloring,
    Partition,
    coloring_from_labels,
    colorings_isomorphic,
    is_refinement,
    partition_of,
)
from .formats import (
    ParseError,
    TraceDocument,
    emit_coloring,
    emit_dot,
    emit_edge_list,
    emit_trace_document,
    parse_coloring,
    parse_dimacs,
    parse_edge_list,
    parse_trace,
    trace_document,
)
from .graph import (
    Graph,
    expand_edges,
    new_graph,
    random_graph,
)
from .oracle import (
    CounterexampleWitness,
    naive_refine,
    search_refinement_counterexample,
    violation_witness,
)
from .refine import (
    Portrait,
    RefinementTrace,
    find_inequitable_pair,
    index_portraits,
    refine_step,
    refine_to_fixpoint,
    zero_coloring,
)

__version__ = "0.1.0"

__all__ = [
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
    "search_refinement_counterexample",
    "trace_document",
    "violation_witness",
    "zero_coloring",
]
