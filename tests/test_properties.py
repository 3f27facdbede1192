from hypothesis import given, settings, target
from hypothesis import strategies as st

from colorref import (
    coloring_from_labels,
    colorings_isomorphic,
    emit_trace_document,
    expand_edges,
    find_inequitable_pair,
    index_portraits,
    is_refinement,
    naive_refine,
    new_graph,
    parse_trace,
    partition_of,
    refine_step,
    refine_to_fixpoint,
    trace_document,
    zero_coloring,
)
from conftest import brute_portrait


@st.composite
def graphs(draw, min_n=0, max_n=10, sparse=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return new_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n if sparse else len(pairs)))
    return new_graph(n, edges)


@st.composite
def graphs_with_colorings(draw, min_n=0, max_n=10):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    n = g.vertex_count
    labels = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return g, coloring_from_labels(labels)


@st.composite
def coloring_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return coloring_from_labels(a), coloring_from_labels(b)


@given(graphs())
def test_graph_invariants_hold_by_scan(g):
    n = g.vertex_count
    for v, row in enumerate(g.adjacency):
        assert list(row) == sorted(set(row))
        assert v not in row
        for u in row:
            assert 0 <= u < n
            assert v in g.adjacency[u]


@given(graphs())
def test_expansion_invariants(g):
    e = expand_edges(g)
    n, m = g.vertex_count, g.edge_count
    assert e.vertex_count == n + m
    assert e.edge_count == 2 * m
    assert list(e.adjacency[n:]) == g.edges()
    for v in range(n):
        assert all(w >= n for w in e.adjacency[v])


@given(graphs_with_colorings())
def test_portrait_counts_sum_to_degree(gc):
    g, c = gc
    portraits = [brute_portrait(g, c, v) for v in range(g.vertex_count)]
    assert refine_step(g, c) == index_portraits(portraits)
    for v, p in enumerate(portraits):
        assert sum(p) == len(g.adjacency[v])
        assert len(p) == c.palette_size
    pair = find_inequitable_pair(g, c)
    if pair is None:
        assert all(
            portraits[u] == portraits[v]
            for u in range(g.vertex_count)
            for v in range(u)
            if c.colors[u] == c.colors[v]
        )
    else:
        u, v = pair
        assert c.colors[u] == c.colors[v] and portraits[u] != portraits[v]


@given(graphs_with_colorings())
def test_parse_trace_round_trips_emitted_traces(gc):
    g, c = gc
    for cap in (1, None):
        doc = trace_document(refine_to_fixpoint(g, c, max_iters=cap), g)
        assert parse_trace(emit_trace_document(doc)) == doc


@st.composite
def graphs_with_wide_starts(draw):
    # labels up to n give palettes near n; at most n edges give long runs
    g = draw(graphs(max_n=24, sparse=True))
    n = g.vertex_count
    labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    return g, coloring_from_labels(labels)


@given(graphs_with_wide_starts())
@settings(max_examples=100, deadline=None)
def test_every_step_of_a_run_matches_the_dense_reference(gc):
    g, c = gc
    trace = refine_to_fixpoint(g, c)
    target(len(trace.colorings), label="colorings in the run")
    for prev, nxt in zip(trace.colorings, trace.colorings[1:]):
        dense = [brute_portrait(g, prev, v) for v in range(g.vertex_count)]
        assert nxt == index_portraits(dense)


@given(graphs_with_colorings())
def test_refine_step_output_is_compact_and_deterministic(gc):
    g, c = gc
    a, b = refine_step(g, c), refine_step(g, c)
    assert a == b
    assert sorted(set(a.colors)) == list(range(a.palette_size))


@given(graphs_with_colorings(), st.randoms(use_true_random=False))
def test_traces_ignore_edge_input_order(gc, rnd):
    g, c = gc
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
    rnd.shuffle(edges)
    g2 = new_graph(g.vertex_count, edges)
    assert g2 == g
    t1 = refine_to_fixpoint(g, c)
    t2 = refine_to_fixpoint(g2, c)
    assert emit_trace_document(trace_document(t1, g)) == emit_trace_document(
        trace_document(t2, g2)
    )


@given(graphs_with_colorings(min_n=1), st.randoms(use_true_random=False))
def test_relabeled_starts_give_isomorphic_traces(gc, rnd):
    g, c = gc
    perm = list(range(c.palette_size))
    rnd.shuffle(perm)
    relabeled = coloring_from_labels([perm[col] for col in c.colors])
    t1 = refine_to_fixpoint(g, c)
    t2 = refine_to_fixpoint(g, relabeled)
    assert t1.converged_at == t2.converged_at
    assert len(t1.colorings) == len(t2.colorings)
    for c1, c2 in zip(t1.colorings, t2.colorings):
        assert colorings_isomorphic(c1, c2) is not None


@given(graphs())
@settings(max_examples=60)
def test_zero_start_contract(g):
    trace = refine_to_fixpoint(g, zero_coloring(g))
    # always stabilises, within the vertex-count bound plus the witness step
    assert trace.converged_at is not None
    assert trace.converged_at <= g.vertex_count + 1
    # each step refines the previous one, so palette sizes cannot drop
    for prev, nxt in zip(trace.colorings, trace.colorings[1:]):
        assert is_refinement(prev, nxt)
    assert list(trace.palette_sizes) == sorted(trace.palette_sizes)
    # a palette plateau already means the classes stopped moving
    for t in range(len(trace.colorings) - 1):
        if trace.palette_sizes[t] == trace.palette_sizes[t + 1]:
            assert colorings_isomorphic(trace.colorings[t], trace.colorings[t + 1])
    # the stable point is equitable and agrees with the brute-force route
    assert find_inequitable_pair(g, trace.final) is None
    assert partition_of(trace.final) == naive_refine(g, zero_coloring(g))


@given(graphs(max_n=8))
@settings(max_examples=40)
def test_stability_persists_after_convergence(g):
    trace = refine_to_fixpoint(g, zero_coloring(g))
    chain = [trace.colorings[trace.converged_at]]
    for _ in range(5):
        chain.append(refine_step(g, chain[-1]))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert colorings_isomorphic(chain[i], chain[j]) is not None


@given(coloring_pairs())
def test_isomorphism_agrees_with_partition_equality(pair):
    c1, c2 = pair
    agree = colorings_isomorphic(c1, c2) is not None
    assert agree == (partition_of(c1) == partition_of(c2))


@given(coloring_pairs())
def test_isomorphism_is_symmetric_with_inverse_witness(pair):
    c1, c2 = pair
    w12 = colorings_isomorphic(c1, c2)
    w21 = colorings_isomorphic(c2, c1)
    assert (w12 is None) == (w21 is None)
    if w12 is not None:
        for a, b in enumerate(w12.forward):
            assert w21.forward[b] == a


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_isomorphism_witnesses_compose(labels, rnd):
    c1 = coloring_from_labels(labels)
    p1 = list(range(c1.palette_size))
    p2 = list(range(c1.palette_size))
    rnd.shuffle(p1)
    rnd.shuffle(p2)
    c2 = coloring_from_labels([p1[c] for c in c1.colors])
    c3 = coloring_from_labels([p2[c] for c in c2.colors])
    w12 = colorings_isomorphic(c1, c2)
    w23 = colorings_isomorphic(c2, c3)
    w13 = colorings_isomorphic(c1, c3)
    for a in range(c1.palette_size):
        assert w13.forward[a] == w23.forward[w12.forward[a]]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_refinement_is_transitive_along_merge_chains(labels, rnd):
    fine = coloring_from_labels(labels)
    merge1 = [int(rnd.random() * 3) for _ in range(fine.palette_size)]
    mid = coloring_from_labels([merge1[c] for c in fine.colors])
    merge2 = [int(rnd.random() * 2) for _ in range(mid.palette_size)]
    coarse = coloring_from_labels([merge2[c] for c in mid.colors])
    assert is_refinement(mid, fine)
    assert is_refinement(coarse, mid)
    assert is_refinement(coarse, fine)


@given(graphs_with_colorings())
@settings(max_examples=60)
def test_one_step_convergence_agrees_with_step_isomorphism(gc):
    g, c = gc
    trace = refine_to_fixpoint(g, c)
    one_step = trace.converged_at == 1
    assert one_step == (colorings_isomorphic(refine_step(g, c), c) is not None)
    # stability implies equitability; the converse can fail when distinct
    # classes share a portrait, so only this direction is asserted
    if one_step:
        assert find_inequitable_pair(g, c) is None
