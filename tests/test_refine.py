import pytest

from colorref import (
    coloring_from_labels,
    colorings_isomorphic,
    find_inequitable_pair,
    index_portraits,
    naive_refine,
    new_graph,
    partition_of,
    refine_step,
    refine_to_fixpoint,
    zero_coloring,
)
from colorref.cli import main
from conftest import brute_portrait, complete_graph, cycle_graph, path_graph, star_graph


def test_zero_coloring():
    assert zero_coloring(path_graph(4)).colors == (0, 0, 0, 0)
    assert zero_coloring(path_graph(4)).palette_size == 1
    assert zero_coloring(new_graph(0, [])).palette_size == 0
    assert zero_coloring(complete_graph(5)).colors == (0,) * 5


def test_zero_start_portraits_are_degree_vectors():
    # under the all-equal start a vertex's portrait counts all its neighbours
    for g, degrees in (
        (path_graph(4), [1, 2, 2, 1]),
        (cycle_graph(6), [2] * 6),
        (star_graph(3), [3, 1, 1, 1]),
        (new_graph(0, []), []),
    ):
        assert refine_step(g, zero_coloring(g)) == index_portraits((d,) for d in degrees)


def test_portrait_on_four_cycle():
    g = cycle_graph(4)
    c = coloring_from_labels([0, 1, 1, 1])
    assert brute_portrait(g, c, 0) == (0, 2)
    assert refine_step(g, c) == index_portraits(brute_portrait(g, c, v) for v in range(4))


def test_portrait_under_zero_coloring_is_degree():
    g = star_graph(4)
    assert refine_step(g, zero_coloring(g)) == index_portraits(
        (len(g.adjacency[v]),) for v in range(5)
    )


def test_portrait_of_isolated_vertex():
    g = new_graph(4, [(1, 2), (2, 3), (1, 3)])
    c = coloring_from_labels([5, 0, 1, 2])
    assert brute_portrait(g, c, 0) == (0, 0, 0, 0)
    assert refine_step(g, c) == index_portraits(brute_portrait(g, c, v) for v in range(4))
    with pytest.raises(ValueError):
        find_inequitable_pair(g, coloring_from_labels([0, 0, 0, 0, 0]))


def brute_inequitable_pair(g, c):
    rep = {}
    for v in range(g.vertex_count):
        p = brute_portrait(g, c, v)
        u, q = rep.setdefault(c.colors[v], (v, p))
        if q != p:
            return (u, v)
    return None


def test_rank_contract_on_each_ordering_case():
    # hubs 1, 2 (color 0) and 3 (color 1); targets 0 and 4..7 (color 2)
    g = new_graph(8, [(1, 4), (2, 4), (1, 5), (3, 6), (2, 7), (3, 7)])
    c = coloring_from_labels([2, 0, 0, 1, 2, 2, 2, 2])
    portraits = [brute_portrait(g, c, v) for v in range(8)]
    # ascending dense order, with each target's key (K = 3 is the sentinel)
    assert [portraits[v] for v in (0, 6, 5, 7, 4)] == [
        (0, 0, 0),  # (K,): an isolated vertex's key is the sentinel alone
        (0, 1, 0),  # (1, K): color 0 absent, below every vertex that sees it
        (1, 0, 0),  # (0, K): the multiset {0} is a prefix of {0, 1}
        (1, 1, 0),  # (0, 1, K)
        (2, 0, 0),  # (0, 0, K): one more copy of color 0 than (1, 1, 0)
    ]
    got = refine_step(g, c)
    assert got == index_portraits(portraits)
    # the hubs all see (0, 0, 2) and rank between the first two targets
    assert got.colors == (0, 1, 1, 1, 5, 3, 2, 4)
    assert find_inequitable_pair(g, c) == brute_inequitable_pair(g, c) == (0, 4)
    # only 4 and 7 share a color, so the scan runs past every other vertex
    c2 = coloring_from_labels([5, 0, 6, 1, 2, 3, 4, 2])
    assert find_inequitable_pair(g, c2) == brute_inequitable_pair(g, c2) == (4, 7)
    # under the new colors the hubs 1 and 2 still match, their portraits not
    assert find_inequitable_pair(g, got) == brute_inequitable_pair(g, got) == (1, 2)
    stable = refine_to_fixpoint(g, zero_coloring(g)).final
    assert find_inequitable_pair(g, stable) is brute_inequitable_pair(g, stable) is None


def test_index_portraits_ranks_lexicographically():
    c = index_portraits([(1,), (2,), (2,), (1,)])
    assert (c.colors, c.palette_size) == ((0, 1, 1, 0), 2)
    c = index_portraits([(3, 1)] * 4)
    assert (c.colors, c.palette_size) == ((0, 0, 0, 0), 1)
    c = index_portraits([(0, 2), (1, 1), (0, 2), (1, 1)])
    assert (c.colors, c.palette_size) == ((0, 1, 0, 1), 2)


def test_index_portraits_rejects_mixed_lengths():
    with pytest.raises(ValueError, match="mixed"):
        index_portraits([(1,), (1, 0)])


def test_index_portraits_empty():
    assert index_portraits([]).palette_size == 0


def test_refine_step_path4_from_zero():
    g = path_graph(4)
    assert refine_step(g, zero_coloring(g)).colors == (0, 1, 1, 0)


def test_refine_step_path5_splits_center():
    g = path_graph(5)
    got = refine_step(g, coloring_from_labels([0, 1, 1, 1, 0]))
    # lexicographic ranks put the (0,2)-portrait center before the (1,1) pair
    assert got.colors == (0, 2, 1, 2, 0)
    assert partition_of(got) == ((0, 4), (1, 3), (2,))
    # any other indexing of the same portraits is a pure relabeling
    assert colorings_isomorphic(got, coloring_from_labels([0, 1, 2, 1, 0])) is not None


def test_refine_step_merges_on_four_cycle():
    g = cycle_graph(4)
    got = refine_step(g, coloring_from_labels([0, 1, 1, 1]))
    assert got.colors == (0, 1, 0, 1)


def test_refine_step_size_mismatch():
    with pytest.raises(ValueError):
        refine_step(path_graph(3), coloring_from_labels([0, 0]))


def test_fixpoint_complete_graph():
    g = complete_graph(4)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert t.converged_at == 1
    assert t.final.palette_size == 1


def test_fixpoint_path5():
    g = path_graph(5)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert t.palette_sizes == (1, 2, 3, 3)
    assert t.converged_at == 3
    assert partition_of(t.final) == ((0, 4), (1, 3), (2,))
    assert partition_of(t.final) == naive_refine(g, zero_coloring(g))


def test_fixpoint_four_cycle_nonzero_start():
    g = cycle_graph(4)
    t = refine_to_fixpoint(g, coloring_from_labels([0, 1, 1, 1]))
    assert t.converged_at == 2
    assert t.palette_sizes == (2, 2, 2)
    assert partition_of(t.final) == ((0, 2), (1, 3))
    # the first step merged vertices 0 and 2, so it is not a refinement
    from colorref import is_refinement

    assert not is_refinement(t.colorings[0], t.colorings[1])


def test_fixpoint_empty_graph():
    g = new_graph(0, [])
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert t.converged_at == 1
    assert t.palette_sizes == (0, 0)


def test_fixpoint_respects_cap():
    g = cycle_graph(4)
    t = refine_to_fixpoint(g, coloring_from_labels([0, 1, 1, 1]), max_iters=1)
    assert t.converged_at is None
    assert len(t.colorings) == 2
    with pytest.raises(ValueError):
        refine_to_fixpoint(g, zero_coloring(g), max_iters=0)


def palette_plateau(trace):
    """First step whose palette size repeats the previous one, or None."""
    sizes = trace.palette_sizes
    return next((t for t in range(1, len(sizes)) if sizes[t - 1] == sizes[t]), None)


def test_palette_plateau_agrees_from_zero_start():
    for g in (path_graph(7), cycle_graph(5), star_graph(4), complete_graph(3)):
        full = refine_to_fixpoint(g, zero_coloring(g))
        assert palette_plateau(full) == full.converged_at


def test_palette_plateau_is_unsound_for_arbitrary_starts():
    g = cycle_graph(4)
    t = refine_to_fixpoint(g, coloring_from_labels([0, 1, 1, 1]))
    # palette size repeats immediately although the classes moved
    assert palette_plateau(t) == 1
    assert colorings_isomorphic(t.colorings[0], t.colorings[1]) is None


def test_oscillating_start_never_converges(tmp_path, capsys):
    g = new_graph(4, [(0, 2), (1, 3)])
    start = coloring_from_labels([0, 1, 0, 0])
    t = refine_to_fixpoint(g, start)
    assert t.converged_at is None
    parts = [partition_of(c) for c in t.colorings]
    assert parts[:3] == [((0, 2, 3), (1,)), ((0, 1, 2), (3,)), ((0, 2, 3), (1,))]
    assert all(parts[i] == parts[i + 2] != parts[i + 1] for i in range(len(parts) - 2))
    with pytest.raises(RuntimeError):
        naive_refine(g, start)

    edges = tmp_path / "g.edges"
    edges.write_text("0 2\n1 3\n")
    colors = tmp_path / "start.colors"
    colors.write_text("0 0\n1 1\n2 0\n3 0\n")
    code = main(["refine", str(edges), "--coloring", str(colors),
                 "--trace", str(tmp_path / "t")])
    assert code == 3
    assert capsys.readouterr().out == "n=4 m=2 K_final=2 converged_at=none\n"


def test_find_inequitable_pair_examples():
    assert find_inequitable_pair(cycle_graph(6), zero_coloring(cycle_graph(6))) is None
    g3 = path_graph(3)
    assert find_inequitable_pair(g3, zero_coloring(g3)) == (0, 1)
    g5 = path_graph(5)
    assert find_inequitable_pair(g5, coloring_from_labels([0, 1, 2, 1, 0])) is None


def test_equitable_fixpoint_converges_in_one_step():
    g = path_graph(5)
    stable = coloring_from_labels([0, 1, 2, 1, 0])
    assert refine_to_fixpoint(g, stable).converged_at == 1
    unstable = zero_coloring(g)
    assert refine_to_fixpoint(g, unstable).converged_at != 1


def test_equitable_coloring_can_still_merge():
    # distinct classes with equal portraits are equitable yet not stable
    g = new_graph(2, [])
    c = coloring_from_labels([0, 1])
    assert find_inequitable_pair(g, c) is None
    assert refine_to_fixpoint(g, c).converged_at == 2

    p3 = path_graph(3)
    discrete = coloring_from_labels([0, 1, 2])
    assert find_inequitable_pair(p3, discrete) is None
    assert refine_to_fixpoint(p3, discrete).converged_at != 1
