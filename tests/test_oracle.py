import random

import pytest

from colorref import (
    coloring_from_labels,
    naive_refine,
    new_graph,
    partition_of,
    random_graph,
    refine_to_fixpoint,
    search_refinement_counterexample,
    violation_witness,
    zero_coloring,
)
from conftest import complete_graph, cycle_graph, path_graph, star_graph


def test_naive_refine_path5():
    g = path_graph(5)
    assert naive_refine(g, zero_coloring(g)) == ((0, 4), (1, 3), (2,))


def test_naive_refine_regular_graphs_stay_single_class():
    for g in (cycle_graph(6), complete_graph(5), cycle_graph(3)):
        assert naive_refine(g, zero_coloring(g)) == (tuple(range(g.vertex_count)),)


def test_naive_refine_discrete_start_stays_discrete():
    g = new_graph(2, [(0, 1)])
    assert naive_refine(g, coloring_from_labels([0, 1])) == ((0,), (1,))


def test_naive_refine_empty_graph():
    g = new_graph(0, [])
    assert naive_refine(g, zero_coloring(g)) == ()


def test_engine_matches_oracle_on_assorted_graphs():
    graphs = [
        path_graph(1),
        path_graph(6),
        cycle_graph(7),
        star_graph(5),
        complete_graph(4),
        new_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
    ]
    graphs += [random_graph(n, p, seed) for seed, (n, p) in
               enumerate([(10, 0.2), (10, 0.5), (17, 0.3), (24, 0.1), (24, 0.8)])]
    for g in graphs:
        trace = refine_to_fixpoint(g, zero_coloring(g))
        assert partition_of(trace.final) == naive_refine(g, zero_coloring(g))


# networkx 3.5 changed the hashes of unlabeled graphs to start from one
# common label, as the engine does; earlier versions start from degrees.
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_engine_matches_networkx_weisfeiler_lehman():
    nx = pytest.importorskip("networkx", minversion="3.5")
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 14)
        g = random_graph(n, rng.random(), rng.randrange(2**32))
        trace = refine_to_fixpoint(g, zero_coloring(g))
        last = len(trace.colorings) - 1
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        # hashes[v][i] labels v after i + 1 iterations
        hashes = nx.weisfeiler_lehman_subgraph_hashes(ng, iterations=last + 3)
        for i in range(last + 3):
            labels = coloring_from_labels(hashes[v][i] for v in range(n))
            assert partition_of(labels) == partition_of(trace.colorings[min(i + 1, last)])


def test_violation_witness_on_four_cycle_instance():
    g = cycle_graph(4)
    w = violation_witness(g, coloring_from_labels([0, 1, 1, 1]))
    assert w is not None
    assert w.step == 0
    assert w.merged_pair == (0, 2)
    assert (w.palette_before, w.palette_after) == (2, 2)
    assert not w.palette_shrank
    assert violation_witness(w.graph, w.initial) == w


def test_violation_witness_none_from_zero_start():
    for g in (path_graph(6), cycle_graph(5), complete_graph(4)):
        assert violation_witness(g, zero_coloring(g)) is None


def test_palette_can_shrink_on_a_path():
    g = path_graph(3)
    w = violation_witness(g, coloring_from_labels([0, 1, 2]))
    assert w is not None
    assert w.palette_shrank


def test_search_finds_a_witness_in_small_range():
    w = search_refinement_counterexample(max_n=4, seed=1, attempts=500)
    assert w is not None
    assert violation_witness(w.graph, w.initial) == w


def test_search_is_deterministic():
    a = search_refinement_counterexample(max_n=4, seed=3, attempts=200)
    b = search_refinement_counterexample(max_n=4, seed=3, attempts=200)
    assert a == b


def test_search_finds_nothing_on_two_vertices():
    # the only connected 2-vertex graph never merges a split start
    assert search_refinement_counterexample(max_n=2, seed=0, attempts=50) is None


def test_search_with_zero_attempts():
    assert search_refinement_counterexample(max_n=5, seed=0, attempts=0) is None


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_refinement_counterexample(max_n=1)
    with pytest.raises(ValueError):
        search_refinement_counterexample(max_n=4, attempts=-1)
