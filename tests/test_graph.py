import pytest

from colorref import Graph, expand_edges, new_graph, random_graph
from conftest import complete_graph, cycle_graph, path_graph, star_graph


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


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        new_graph(3, [(1, 1)])


def test_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(-1, 0)])


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


def test_random_graph_extremes():
    assert random_graph(5, 0, 1).edge_count == 0
    assert random_graph(5, 1, 1) == complete_graph(5)


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
