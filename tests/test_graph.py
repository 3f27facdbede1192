import hashlib
import math
import random

import pytest

from colorref import Graph, expand_edges, graph, new_graph, parse_dimacs, random_graph
from colorref.cli import main
from conftest import complete_graph, cycle_graph, path_graph, peak_bytes, star_graph, torus_graph


def test_triangle_construction():
    g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert all(len(g.adjacency[v]) == 2 for v in range(3))


def test_single_isolated_vertex():
    g = new_graph(1, [])
    assert g.adjacency == ((),)
    assert len(g.adjacency[0]) == 0


def test_duplicate_edges_collapse():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert [len(g.adjacency[v]) for v in range(4)] == [1, 2, 2, 1]
    assert g.edge_count == 3


def test_edge_order_and_orientation_do_not_matter():
    a = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = new_graph(4, [(3, 2), (1, 0), (2, 1)])
    assert a == b


def test_rows_are_sorted_only_when_some_row_is_not(monkeypatch):
    # the ends are placed in edge order, so sorted edges, counted from 0 or
    # from 1 as in DIMACS, give strictly increasing rows with no sort; a row
    # that ends above the next row's start is no reason to sort
    rows = []

    def spy(row):
        rows.append(row)
        return sorted(row)

    monkeypatch.setattr(graph, "sorted", spy, raising=False)
    g = new_graph(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    h = parse_dimacs("p edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n")
    assert rows == [] and g == h
    assert g.adjacency == ((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))
    assert new_graph(5, [(1, 2), (0, 1), (3, 4), (2, 3), (0, 4)]) == g
    assert len(rows) == 5


def test_building_holds_little_beyond_its_result():
    # the degree list is dropped once the offsets are summed from it, before
    # the targets column is made: on P_20000, about 1.2 times the result's
    # columns, and about 1.85 times with the list kept to the end
    n = 20_000
    ends = [end for v in range(n - 1) for end in (v, v + 1)]
    g = graph._from_ends(n, ends)
    size = sum(len(col) * col.itemsize for col in (g.offsets, g.targets))
    assert peak_bytes(graph._from_ends, n, ends) < 1.5 * size


def test_built_columns_widen_exactly_where_their_values_stop_fitting(monkeypatch):
    # ids up to n - 1 = 3, offsets up to 2m = 6, from sorted edges and
    # through the sort
    for limit in range(9):
        # _typecode's 31-bit limit, lowered so that this small graph crosses it
        monkeypatch.setattr(graph, "_typecode", lambda top: "i" if top < limit else "q")
        for edges in ([(0, 1), (1, 2), (2, 3)], [(2, 3), (1, 2), (0, 1)]):
            g = new_graph(4, edges)
            assert g.adjacency == ((1,), (0, 2), (1, 3), (2,))
            assert g.targets.typecode == ("i" if 3 < limit else "q")
            assert g.offsets.typecode == ("i" if 6 < limit else "q")


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        new_graph(3, [(1, 1)])


def test_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(-1, 0)])


def test_rejects_the_first_bad_edge_and_names_the_smallest_loop():
    # the first id at the vertex count is out of range too
    with pytest.raises(ValueError, match=r"^edge \(3, 0\) outside 0\.\.2$"):
        new_graph(3, [(3, 0)])
    # the smallest vertex with a self-loop, not the smallest id
    with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
        new_graph(4, [(0, 1), (3, 3), (2, 2)])


def test_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex_count must be non-negative"):
        new_graph(-1, [])
    with pytest.raises(ValueError):
        new_graph(-1, [(0, 1)])


def test_graph_validation_catches_bad_adjacency():
    with pytest.raises(ValueError, match="reverse"):
        Graph(2, ((1,), ()))
    with pytest.raises(ValueError, match="increasing"):
        Graph(2, ((1, 1), (0, 0)))


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (-1, (), "vertex_count must be non-negative"),
        (3, ((1,), (0,)), "one row per vertex"),
        (2, ((2,), ()), "neighbour 2 of vertex 0 is out of range"),
        (2, ((-1,), ()), "neighbour -1 of vertex 0 is out of range"),
        (3, ((1,), (0, 1), ()), "self-loop at vertex 1"),
        (3, ((2, 1), (0,), (0,)), "adjacency row 0 must be strictly increasing"),
        # 1 lists 2 but 2 lists 0 in its place: every row is still well formed
        (3, ((2,), (2,), (0,)), r"edge \{2, 1\} is missing its reverse entry"),
        (3, ((1, 2), (0,), ()), r"edge \{2, 0\} is missing its reverse entry"),
    ],
    ids=["negative-n", "row-count", "above-range", "below-range", "self-loop",
         "not-increasing", "reverse-swapped", "reverse-absent"],
)
def test_graph_constructor_rejects(n, rows, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, rows)


def test_graph_takes_rows_of_any_sequence():
    assert Graph(2, [[1], [0]]) == Graph(2, ((1,), (0,)))
    assert Graph(2, [[], []]) == new_graph(2, [])
    with pytest.raises(ValueError) as info:
        Graph(2, [[1], []])
    assert str(info.value) == "edge {1, 0} is missing its reverse entry"


def test_degree_star():
    g = star_graph(4)
    assert len(g.adjacency[0]) == 4
    assert len(g.adjacency[1]) == 1
    assert len(g.adjacency) == 5  # no vertex 5


def test_edges_are_sorted_pairs():
    g = new_graph(4, [(2, 0), (3, 1), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_expand_single_edge_gives_three_path():
    e = expand_edges(new_graph(2, [(0, 1)]))
    assert e == Graph(3, ((2,), (2,), (0, 1)))


def test_expand_triangle_gives_six_cycle():
    g = expand_edges(complete_graph(3))
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert all(len(g.adjacency[v]) == 2 for v in range(6))
    # originals 0..2 and virtuals 3..5 alternate around the cycle
    for v in range(3):
        assert all(u >= 3 for u in g.adjacency[v])
    assert list(g.adjacency[3:]) == [(0, 1), (0, 2), (1, 2)]


def test_expand_path4():
    g = path_graph(4)
    e = expand_edges(g)
    assert e.vertex_count == 7
    assert e.edge_count == 6
    assert list(e.adjacency[4:]) == [(0, 1), (1, 2), (2, 3)]
    # subdivision is a path again: 0-4-1-5-2-6-3
    assert e.adjacency == ((4,), (4, 5), (5, 6), (6,), (0, 1), (1, 2), (2, 3))


def test_expand_counts_and_projection():
    g = random_graph(12, 0.4, 3)
    e = expand_edges(g)
    m = g.edge_count
    assert e.vertex_count == g.vertex_count + m
    assert e.edge_count == 2 * m
    for i, (u, v) in enumerate(g.edges()):
        w = g.vertex_count + i
        assert e.adjacency[w] == (u, v)


def test_expand_is_deterministic():
    g = random_graph(9, 0.5, 11)
    assert expand_edges(g) == expand_edges(g)


def test_expanding_holds_little_beyond_its_result():
    g = torus_graph(60)
    x = expand_edges(g)
    size = sum(len(col) * col.itemsize for col in (x.offsets, x.targets))
    # measured on these 7 200 edges: about 8 times the result's columns with
    # a tuple per edge and a list per input row, about 1.5 times with one
    # walk over the edges filling preallocated columns
    assert peak_bytes(expand_edges, g) < 2 * size


def test_expanded_columns_widen_exactly_where_their_values_stop_fitting(monkeypatch):
    g = path_graph(4)  # expanded: ids up to n + m - 1 = 6, offsets up to 4m = 12
    for limit in range(15):
        # _typecode's 31-bit limit, lowered so that this small graph crosses it
        monkeypatch.setattr(graph, "_typecode", lambda top: "i" if top < limit else "q")
        x = expand_edges(g)
        assert x.adjacency == ((4,), (4, 5), (5, 6), (6,), (0, 1), (1, 2), (2, 3))
        assert x.targets.typecode == ("i" if 6 < limit else "q")
        assert x.offsets.typecode == ("i" if 12 < limit else "q")


def test_random_graph_extremes():
    assert random_graph(5, 0, 1).edge_count == 0
    assert random_graph(5, 1, 1) == complete_graph(5)


def test_random_graph_keeps_an_edge_only_when_its_draw_is_below_p():
    # with two vertices and seed 0 the one pair gets the seed's first draw
    draw = random.Random(0).random()
    assert random_graph(2, draw, 0).edge_count == 0
    assert random_graph(2, math.nextafter(draw, 1), 0).edge_count == 1


def per_call_edges(n, p, seed):
    # random_graph's per-draw form, the oracle for its sparse path: one
    # rng.random() per pair u < v in lexicographic order
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# p = 0 and 1; 2**-27, which only draws whose first word is below 32 fall
# below; both sides of the cut between the two paths; and each k/256 with
# the float just below it, where the top byte that a draw below p can have
# changes
DRAW_PROBABILITIES = sorted({
    0, 1, 2**-27, 0.0045, 0.02, math.nextafter(graph._SPARSE_BELOW, 0),
    graph._SPARSE_BELOW, 0.05, 0.5,
    *(x for k in range(1, 257) for x in (k / 256, math.nextafter(k / 256, 0))),
})


@pytest.mark.parametrize("n", [0, 1, 2, 5, 37, 300])
def test_random_graph_equals_one_draw_per_pair(n):
    # n = 300 has 44 850 pairs, more than one getrandbits chunk; past the
    # cut both forms are the same code, so the largest n stops there
    for seed in range(4):
        for p in DRAW_PROBABILITIES:
            if n < 300 or p <= graph._SPARSE_BELOW:
                assert random_graph(n, p, seed).edges() == per_call_edges(n, p, seed), (n, p, seed)


def test_sparse_path_keeps_an_edge_only_when_its_draw_is_below_p():
    # the lowest draw of the second getrandbits chunk, as an edge probability
    # below the cut: its own pair is then the only one at the boundary
    rng = random.Random(7)
    pairs = [(u, v) for u in range(300) for v in range(u + 1, 300)]
    draws = [rng.random() for _ in pairs]
    i = min(range(graph._BULK, len(draws)), key=draws.__getitem__)
    p, pair = draws[i], pairs[i]
    assert p < graph._SPARSE_BELOW
    below = random_graph(300, p, 7).edges()
    assert pair not in below and below == per_call_edges(300, p, 7)
    assert random_graph(300, math.nextafter(p, 1), 7).edges() == sorted(below + [pair])


def test_gen_bytes_of_the_sparse_gnp_input_are_pinned(tmp_path):
    # the sparse_gnp benchmark workload's seed-0 input
    out = tmp_path / "g.edges"
    assert main(["gen", "2000", "0.0045", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "dba690980b9255a8a0a53cc5026b32895dd36ebc681855cd0ffdfdf8ce6a0ea2"
    )


def test_random_graph_deterministic():
    assert random_graph(8, 0.5, 42) == random_graph(8, 0.5, 42)


def test_random_graph_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_graph(4, 1.5, 0)
    with pytest.raises(ValueError):
        random_graph(4, -0.1, 0)


def test_cycle_builder_sanity():
    g = cycle_graph(4)
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
