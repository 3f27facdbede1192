import random
import sys
from array import array
from collections import Counter, deque
from fractions import Fraction
from itertools import islice, pairwise

import pytest

from colorref import (
    Coloring,
    Graph,
    RefinementTrace,
    coloring_from_labels,
    colorings_isomorphic,
    expand_edges,
    find_inequitable_pair,
    naive_refine,
    new_graph,
    parse_coloring,
    partition_of,
    random_graph,
    refine_step,
    refine_to_fixpoint,
    zero_coloring,
)
from colorref import refine
from colorref.cli import main
from colorref.refine import _BLOCK, _portraits
from conftest import (
    brute_inequitable_pair,
    brute_portrait,
    complete_graph,
    cycle_graph,
    energy,
    energy_holds,
    gadget_and_path,
    gadget_path_and_two_cycle,
    index_portraits,
    is_refinement,
    kept_bytes,
    path_graph,
    peak_bytes,
    random_tree,
    runs_as_iterated,
    star_graph,
    stepped_run,
    torus_graph,
)


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
        # vertex 0 isolated, the others of degrees 3, 2, 2 and 1
        (new_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3)]), [0, 3, 2, 2, 1]),
        (new_graph(1, []), [0]),
        (complete_graph(4), [3] * 4),
    ):
        assert refine_step(g, zero_coloring(g)) == index_portraits((d,) for d in degrees)
        assert refine_step(g, zero_coloring(g)) == index_portraits(
            brute_portrait(g, zero_coloring(g), v) for v in range(g.vertex_count)
        )
    # a regular graph is equitable from one color: the run stops at step 1
    cube = new_graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
    t = refine_to_fixpoint(cube, zero_coloring(cube))
    assert (t.converged_at, t.palette_sizes) == (1, (1, 1))
    # one color read from a file under another label is the same start
    g = new_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3)])
    start = parse_coloring("".join(f"{v} 7\n" for v in range(5)), 5)
    assert start == zero_coloring(g)
    assert refine_step(g, start).colors == (0, 3, 2, 2, 1)


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_steps_and_splits_across_block_boundaries(n):
    g = random_graph(n, 3 / n, 5)
    c = coloring_from_labels([v % 3 == 0 for v in range(n)])
    assert refine_step(g, c) == index_portraits(brute_portrait(g, c, v) for v in range(n))
    # a cycle on all but the last vertex, which is isolated: the only split
    # is that vertex, in the last block
    ring = new_graph(n, [(v, (v + 1) % (n - 1)) for v in range(n - 1)])
    zero = zero_coloring(ring)
    assert find_inequitable_pair(ring, zero) == brute_inequitable_pair(ring, zero) == (0, n - 1)
    assert find_inequitable_pair(ring, refine_step(ring, zero)) is None


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


def test_refine_step_holds_no_key_per_vertex():
    g = expand_edges(torus_graph(60))
    # the result's tuple alone takes 8 bytes per vertex; a key tuple per
    # vertex would add about 60 more
    assert peak_bytes(refine_step, g, zero_coloring(g)) < 32 * g.vertex_count


def test_refine_step_from_two_colors_holds_no_key_per_vertex():
    g = expand_edges(torus_graph(60))
    # original and virtual vertices apart: every key is built, a block at a
    # time. The first such step in a process leaves up to 2 000 freed keys
    # of each length in Python's tuple free lists, a fixed amount that the
    # steps after it reuse, so the measured step is the second.
    c = refine_step(g, zero_coloring(g))
    assert c.palette_size == 2
    refine_step(g, c)
    # measured on these 10 800 vertices: about 18 bytes per vertex; a key
    # tuple per vertex would add about 70
    assert peak_bytes(refine_step, g, c) < 32 * g.vertex_count


def test_refine_step_holds_one_block_of_keys_at_a_time():
    # every vertex sees 14 neighbours of its own parity and 16 of the other,
    # so there are 2 distinct keys of 31 entries, too long for Python's
    # tuple free lists; one block of keys with its colors takes about 540 KB
    n = 4 * _BLOCK
    g = new_graph(n, [(v, (v + d) % n) for v in range(n) for d in range(1, 16)])
    c = coloring_from_labels([v % 2 for v in range(n)])
    block = peak_bytes(lambda: next(_portraits(g, c)))
    # measured: about 6 bytes per vertex above one block, and about 80 with
    # a second block alive while the next is built
    assert peak_bytes(refine_step, g, c) < block + 32 * n
    assert peak_bytes(find_inequitable_pair, g, c) < block + 32 * n


def test_a_step_holds_little_beyond_its_result():
    # With few classes on a long path the peak comes once the keys are
    # freed: a label per vertex beside the colors being built, and a rank
    # table of K slots, not n. Measured on P_20000 after a first step, which
    # fills the interpreter's free list of short tuples, on Python 3.10 to
    # 3.13: 2.31 times the result, 3.31 with a table of n slots.
    n = 20000
    g, c = path_graph(n), coloring_from_labels([v % 3 == 0 for v in range(n)])
    refine_step(g, c)
    assert peak_bytes(refine_step, g, c) < 2.8 * kept_bytes(refine_step, g, c)


def test_a_run_holds_each_color_once():
    # Python caches no int above 256; P_700 passes 256 colors at step 256
    g = path_graph(700)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert max(t.palette_sizes) == 350
    assert len({id(x) for c in t.colorings for x in c.colors}) <= max(t.palette_sizes)


def block_steps(monkeypatch):
    # a list that gains an entry for each block step (_step call) from here on
    calls = []
    step = refine._step
    monkeypatch.setattr(refine, "_step", lambda *args: calls.append(None) or step(*args))
    return calls


@pytest.mark.parametrize("seed", [None, 3])
def test_a_long_path_run_rekeys_nearly_every_step(monkeypatch, seed):
    # each step moves 2 of the 400 vertices to a new class, so after the
    # first steps only their neighbours are re-keyed; in vertex order too
    perm = list(range(400))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    g = new_graph(400, [(perm[v], perm[v + 1]) for v in range(399)])
    blocks = block_steps(monkeypatch)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert t.converged_at == 200 and 1 <= len(blocks) <= 5
    assert t.colorings == stepped_run(g, zero_coloring(g))


@pytest.mark.parametrize("name", ["expanded torus", "random graph"])
def test_runs_that_move_many_vertices_take_block_steps_only(monkeypatch, name):
    g = expand_edges(torus_graph(12)) if name == "expanded torus" else random_graph(300, .02, 0)
    blocks = block_steps(monkeypatch)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert len(blocks) == len(t.colorings) - 1 >= 2


def test_a_cycling_run_rekeys_to_its_cap(monkeypatch):
    # the gadget's classes swap at every step and the path refines beside
    # it, so the run re-keys through all n + 2 = 308 steps of the cap, the
    # steps past its first exact repeat too, which refine_to_fixpoint fills
    # in from its last two colorings without stepping
    g, start = gadget_and_path(300)
    blocks = block_steps(monkeypatch)
    run = tuple(islice(refine._run(g, start), 308))
    assert len(blocks) <= 5
    t = refine_to_fixpoint(g, start)
    assert t.converged_at is None and t.colorings == (start, *run) == stepped_run(g, start)


@pytest.mark.parametrize("n, edges, marked", [
    # every pair of classes next to each other in the rank order keeps its
    # order while two others swap: a run that re-placed only the classes
    # next to a moved one gave wrong colors here; the run has period 2
    (21, [(0, 1), (0, 3), (2, 18), (5, 20)], {2: 1, 20: 1, 18: 2}),
    # re-placed classes that keep their places among the clean ones but
    # swap among themselves: a run that took none of them as moved failed
    (5, [(0, 1), (0, 3), (2, 4)], {2: 1, 3: 1}),
], ids=["21 vertices", "5 vertices"])
def test_a_run_re_places_every_class_whose_order_can_change(monkeypatch, n, edges, marked):
    g = new_graph(n, edges)
    start = coloring_from_labels([marked.get(v, 0) for v in range(n)])
    assert refine_to_fixpoint(g, start).colorings == stepped_run(g, start)
    # refine_to_fixpoint stops stepping at the first exact repeat, so the
    # run itself is held to refine_step through many turns of the cycle
    assert runs_as_iterated(g, start, 3 * n)
    monkeypatch.setattr(refine, "_rekeys", lambda moved, k, n: True)
    assert refine_to_fixpoint(g, start).colorings == stepped_run(g, start)


def re_placed_classes(monkeypatch):
    # a list that gains an entry for each class a re-keying step re-places
    # in the rank order (_gap call) from here on
    calls = []
    gap = refine._gap
    monkeypatch.setattr(refine, "_gap", lambda *args: calls.append(None) or gap(*args))
    return calls


@pytest.mark.parametrize("name", ["path", "gadget and path", "union"])
def test_a_rekeying_step_re_places_few_classes(monkeypatch, name):
    # The rank order is kept from step to step, so a step re-places only
    # the classes whose order can change: a few, not all K of them, and no
    # cascade through classes that were merely passed by one that moved.
    # In the union the gadget's and the 2-cycle's classes jump past the
    # path's at every step; taking the path's as moved cascades.
    if name == "path":
        g = path_graph(2000)
        start = zero_coloring(g)
    elif name == "gadget and path":
        g, start = gadget_and_path(400)
    else:
        g, start = gadget_path_and_two_cycle(400)
    # the run is stepped as far as its trace reaches: to the cap when it
    # cycles, past the first exact repeat that ends refine_to_fixpoint's steps
    steps = len(refine_to_fixpoint(g, start).colorings) - 1
    blocks = block_steps(monkeypatch)
    placed = re_placed_classes(monkeypatch)
    calls, sorts = [], []
    off_run = refine._off_run
    monkeypatch.setattr(refine, "_off_run", lambda runs: calls.append(runs) or off_run(runs))
    monkeypatch.setattr(refine, "sorted", lambda *args, **kwargs: sorts.append(None)
                        or sorted(*args, **kwargs), raising=False)
    deque(islice(refine._run(g, start), steps), 0)
    rekeying = steps - len(blocks)
    assert rekeying >= 400
    assert len(placed) <= 10 * rekeying
    # each run is a stretch of the new order after the run before it; the
    # clean classes between two cuts go as one run, so the chain search
    # sees about one run per re-placed class, not one per class
    assert all(x + w <= y for runs in calls for (_, w, x), (_, _, y) in pairwise(runs))
    assert sum(map(len, calls)) <= 2 * len(placed)
    # a step sorts the keys of the vertices next to a moved one and of the
    # classes it re-places (28 to 77 a step here), not a key per vertex
    assert len(sorts) <= 200 * steps


@pytest.mark.parametrize("name", ["path", "gadget and path", "two-cycle"])
def test_a_run_hands_its_stop_to_the_trace(monkeypatch, name):
    # refine_to_fixpoint knows where it stopped, so converged_at runs no
    # isomorphism test of its own, and it equals a fresh trace's. A cycling
    # run tests each step it computes, up to its first exact repeat, and
    # then repeats its last two colorings to the cap without a test.
    if name == "path":
        g = path_graph(60)
        start = zero_coloring(g)
    elif name == "gadget and path":
        g, start = gadget_and_path(40)
    else:
        g, start = new_graph(4, [(0, 2), (1, 3)]), coloring_from_labels([0, 1, 0, 0])
    calls = []
    isomorphic = refine.colorings_isomorphic
    monkeypatch.setattr(refine, "colorings_isomorphic",
                        lambda *args: calls.append(None) or isomorphic(*args))
    t = refine_to_fixpoint(g, start)
    tests = len(calls)
    assert t.converged_at == (30 if name == "path" else None)
    if name == "path":
        assert tests == len(t.colorings) - 1
    else:
        assert tests == exact_repeat(t.colorings) == {"gadget and path": 21, "two-cycle": 2}[name]
    assert len(calls) == tests
    assert t.converged_at == RefinementTrace(t.colorings).converged_at


def exact_repeat(colorings):
    # the first step whose coloring equals the one two steps back
    return next(t for t in range(2, len(colorings)) if colorings[t] == colorings[t - 2])


def computed_steps(monkeypatch):
    # a list that gains an entry for each coloring refine._run computes, by
    # a block step or a re-keying step, from here on
    calls = []
    run = refine._run
    monkeypatch.setattr(refine, "_run", lambda *args: (calls.append(None) or c for c in run(*args)))
    return calls


def paired_path(n):
    # P_n from the start (0011)^(n/4), for n divisible by 4
    return path_graph(n), coloring_from_labels([v % 4 // 2 for v in range(n)])


@pytest.mark.parametrize("name", ["cycling tree", "paired path"])
def test_a_run_computes_no_step_past_its_destiny(monkeypatch, name):
    # A step reads the colors alone, so a run stops stepping at its first
    # exact repeat two steps back and fills its trace to the cap with its
    # last two colorings; the trace then holds one Coloring per computed
    # step beside the start. The tree first repeats after a few of its
    # n + 2 = 502 steps, and the paired path converges at step n.
    g, start = random_tree(500, 1) if name == "cycling tree" else paired_path(400)
    steps = computed_steps(monkeypatch)
    t = refine_to_fixpoint(g, start)
    assert len({id(c) for c in t.colorings}) == len(steps) + 1
    if name == "cycling tree":
        assert t.converged_at is None and len(t.colorings) == 503
        assert len(steps) == exact_repeat(t.colorings) <= 10
    else:
        assert t.converged_at == len(steps) == 400
    assert t.colorings == stepped_run(g, start)


def hand_overs(monkeypatch):
    # a list that gains K, the class count, for each hand-over to re-keying
    # (a Counter of the sizes of the classes) from here on
    sizes = []
    counter = refine.Counter

    def counted(colors):
        size = counter(colors)
        sizes.append(len(size))
        return size

    monkeypatch.setattr(refine, "Counter", counted)
    return sizes


@pytest.mark.parametrize("name", ["cycling tree", "paired path"])
def test_a_run_re_keys_only_where_it_pays(monkeypatch, name):
    # On these two runs a block step is the cheaper kind. A hand-over builds
    # all K classes, and each re-placed class costs a binary search over
    # the order; counted together they stay within 3 per computed step.
    # Priced by moved vertices alone, the run handed over on the tree at
    # K = 423 and re-placed 811 classes in 7 steps, and on the path it
    # handed over again after most of its 332 block steps.
    g, start = random_tree(500, 1) if name == "cycling tree" else paired_path(400)
    steps = computed_steps(monkeypatch)
    placed = re_placed_classes(monkeypatch)
    built = hand_overs(monkeypatch)
    t = refine_to_fixpoint(g, start)
    assert len(placed) + sum(built) <= 3 * len(steps)
    assert t.colorings == stepped_run(g, start)


def test_a_run_goes_back_to_block_steps_where_many_classes_are_dirty(monkeypatch):
    # A chord that closes a 5-cycle on P_400. From the all-equal start,
    # few vertices move per step, but many re-keying steps would re-place
    # many dirty classes, so 113 of the 158 steps are block steps. Priced
    # by its moved vertices alone, the run re-placed 15 276 classes in
    # these steps, about 97 a step; it re-places about 9.
    g = new_graph(400, [(v, v + 1) for v in range(399)] + [(81, 85)])
    steps = computed_steps(monkeypatch)
    placed = re_placed_classes(monkeypatch)
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert len(placed) <= 20 * len(steps)
    assert t.colorings == stepped_run(g, zero_coloring(g))


def test_a_rekeying_step_is_priced_at_four_a_unit_plus_k():
    # a re-keying step pays 4 per moved vertex or re-placed class plus one
    # per class, and is taken only where that stays below a block step's n
    assert refine._rekeys(2, 1, 10) and not refine._rekeys(2, 2, 10)
    assert refine._rekeys(0, 9, 10) and not refine._rekeys(0, 10, 10)


@pytest.mark.parametrize("n", [8, 40, 100])
def test_the_paired_path_converges_at_step_n(n):
    # no partition repeats before step n, twice the all-equal path's n / 2:
    # the longest run known
    g, start = paired_path(n)
    t = refine_to_fixpoint(g, start)
    assert t.converged_at == n
    assert first_repeat(t.colorings) == (n, 1)


def two_step_repeat(g, start):
    # T, the first t with P_{t+2} = P_t, by refine_step iterated, or None
    # if the period has not started by step 3n
    colorings = [start, refine_step(g, start)]
    for t in range(3 * g.vertex_count):
        colorings.append(refine_step(g, colorings[-1]))
        if colorings_isomorphic(colorings[t], colorings[-1]) is not None:
            return t
    return None


def paired_path_family(n):
    # P_n from the paired labels, (0011)... when 4 divides n and (0110)...
    # otherwise, then P_n with one extra leaf (labelled 0) at any vertex,
    # and P_n with one chord (a, a + 2); each graph from that start and
    # from the start with any one vertex flipped
    labels = [(v + (n % 4 != 0)) % 4 // 2 for v in range(n)]
    path = [(v, v + 1) for v in range(n - 1)]
    graphs = [(n, path, labels)]
    graphs += [(n + 1, path + [(a, n)], labels + [0]) for a in range(n)]
    graphs += [(n, path + [(a, a + 2)], labels) for a in range(n - 2)]
    for m, edges, start in graphs:
        g = new_graph(m, edges)
        yield g, coloring_from_labels(start)
        for v in range(m):
            yield g, coloring_from_labels(start[:v] + [start[v] ^ 1] + start[v + 1:])


def test_the_paired_path_family_starts_its_period_by_step_m_minus_1():
    # the conjectured quick bound, T <= m - 1 on m vertices, over the tight
    # family and every one-step perturbation of it (9 904 runs); the even
    # paths themselves attain it
    runs = 0
    for n in range(9, 25):
        for i, (g, start) in enumerate(paired_path_family(n)):
            t = two_step_repeat(g, start)
            assert t is not None and t <= g.vertex_count - 1, (n, i, t)
            if i == 0 and n % 2 == 0:
                assert t == n - 1
            runs += 1
    assert runs == 9904


def test_a_run_checks_its_arguments():
    g = path_graph(3)
    with pytest.raises(ValueError, match="^coloring and graph have different vertex counts$"):
        refine_to_fixpoint(g, coloring_from_labels([0, 0]))
    with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
        refine_to_fixpoint(g, zero_coloring(g), max_iters=0)


def test_a_run_refuses_a_cap_above_sys_maxsize():
    # islice takes no larger stop, and no trace holds more colorings; the
    # largest cap is taken from a start that converges
    g = path_graph(5)
    with pytest.raises(ValueError, match=f"^max_iters must be at most {sys.maxsize}$"):
        refine_to_fixpoint(g, zero_coloring(g), max_iters=sys.maxsize + 1)
    assert refine_to_fixpoint(g, zero_coloring(g), max_iters=sys.maxsize).converged_at == 3


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
    assert not is_refinement(t.colorings[0], t.colorings[1])


def test_a_trace_holds_at_least_its_start():
    # every run holds its start; an empty trace has no final coloring
    with pytest.raises(ValueError) as err:
        RefinementTrace(())
    assert str(err.value) == "a trace holds at least its start coloring"


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


def restricted_growth_strings(n):
    # every partition of 0..n-1 once, its classes numbered in order of first vertex
    strings = [()]
    for _ in range(n):
        strings = [s + (c,) for s in strings for c in range(max(s, default=-1) + 2)]
    return strings


def first_repeat(colorings):
    """(step, period) at the first coloring whose partition came before, or None."""
    seen = {}
    for step, c in enumerate(colorings):
        part = partition_of(c)
        if part in seen:
            return step, step - seen[part]
        seen[part] = step
    return None


def test_every_start_on_up_to_five_vertices_ends_in_period_one_or_two():
    # The paper's claim checked exhaustively: every labeled graph on n <= 5
    # vertices, from every start partition (54 254 runs), repeats a partition
    # by step max(n, 1) with period 1 or 2. A run converges exactly when the
    # period is 1, at that repeat, and there the oracle agrees. The two-step
    # lemma holds in every run: P_{t+2} refines P_t for each t >= 2. The
    # energy E of the proof never falls, and stays flat from its first flat
    # step on.
    periods = Counter()
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        starts = [Coloring(s, len(set(s))) for s in restricted_growth_strings(n)]
        for mask in range(1 << len(pairs)):
            g = new_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for start in starts:
                t = refine_to_fixpoint(g, start)
                repeat = first_repeat(t.colorings)
                assert repeat is not None, (n, mask, start.colors)
                step, period = repeat
                assert step <= max(n, 1) and period in (1, 2), (n, mask, start.colors)
                periods[period] += 1
                cs = t.colorings
                assert all(is_refinement(cs[s], cs[s + 2]) for s in range(2, len(cs) - 2)), (
                    n, mask, start.colors)
                assert energy_holds(g, cs), (n, mask, start.colors)
                if period == 1:
                    assert t.converged_at == step
                    assert naive_refine(g, start) == partition_of(t.final)
                else:
                    assert t.converged_at is None
    assert periods == {1: 52190, 2: 2064}


def test_energy_from_one_class_to_singletons():
    # one class C = V gives |A 1_V|^2 / n, the squared degrees over n; a
    # singleton {v} gives deg(v), so singletons give 2m
    g = path_graph(5)
    assert energy(g, zero_coloring(g)) == Fraction(1 + 4 + 4 + 4 + 1, 5)
    assert energy(g, coloring_from_labels(range(5))) == 8
    t = refine_to_fixpoint(g, zero_coloring(g))
    assert [energy(g, c) for c in t.colorings] == [Fraction(14, 5), Fraction(11, 3), 6, 6]


def test_two_cycle_alternates_between_different_class_counts():
    # the states of a period-2 cycle need not be isomorphic: here they have
    # 5 and 4 classes, so "pairwise isomorphic" can only relate t and t + 2
    g = new_graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5)])
    t = refine_to_fixpoint(g, coloring_from_labels([2, 0, 2, 1, 2, 2]))
    assert t.converged_at is None
    assert t.palette_sizes == (3, 4, 5, 4, 5, 4, 5, 4, 5)
    parts = [partition_of(c) for c in t.colorings]
    assert parts[2::2] == [((0,), (1,), (2,), (3,), (4, 5))] * 4
    assert parts[1::2] == [((0, 3), (1, 2), (4,), (5,))] * 4


def test_two_step_lemma_needs_two_steps_of_history():
    # P_3 does not refine P_1, so the lemma "P_{t+2} refines P_t" starts at t = 2
    g = new_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                      (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)])
    states = [coloring_from_labels([0, 1, 0, 0, 1, 1])]
    for _ in range(9):
        states.append(refine_step(g, states[-1]))
    assert not is_refinement(states[1], states[3])
    assert all(is_refinement(states[t], states[t + 2]) for t in range(2, 8))


def test_directed_cycle_has_period_five():
    # out-rows of the directed cycle 1->2->3->5->4->1 plus an isolated 0: with
    # arcs listed from one end only the period is not bounded by 2, so the
    # lemma has to rest on every edge being listed from both ends
    g = Graph._csr(6, array("i", [0, 0, 1, 2, 3, 4, 5]), array("i", [2, 3, 5, 1, 4]))
    t = refine_to_fixpoint(g, coloring_from_labels([0, 2, 1, 3, 1, 2]))
    assert t.converged_at is None
    assert first_repeat(t.colorings) == (5, 5)


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
