"""Acceptance suite: every shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
shared corpus is 200 seeded random graphs with 2..256 vertices and edge
probabilities cycling through {0.05, 0.1, 0.5, 0.9}; everything here is
deterministic.
"""

import random

import pytest

from colorref import (
    coloring_from_labels,
    colorings_isomorphic,
    emit_trace_document,
    expand_edges,
    find_inequitable_pair,
    is_refinement,
    naive_refine,
    new_graph,
    partition_of,
    refine_step,
    refine_to_fixpoint,
    trace_document,
    violation_witness,
    zero_coloring,
)
from colorref.cli import main
from conftest import complete_graph, cycle_graph, path_graph

PROBABILITIES = (0.05, 0.1, 0.5, 0.9)


def corpus_params():
    rng = random.Random(20260809)
    return [
        (2 + int(rng.random() * 255), PROBABILITIES[i % 4], i) for i in range(200)
    ]


def build_corpus():
    from colorref import random_graph

    return [random_graph(n, p, seed) for n, p, seed in corpus_params()]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def corpus_traces(corpus):
    return [refine_to_fixpoint(g, zero_coloring(g)) for g in corpus]


def report(num, name, failures, total):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): "
          f"{total - len(failures)}/{total} ok"
          + (f"; first failure: {failures[0]}" if failures else ""))
    assert ok, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_convergence_bound(corpus, corpus_traces):
    failures = []
    for g, t in zip(corpus, corpus_traces):
        if t.converged_at is None or t.converged_at > g.vertex_count + 1:
            failures.append((g.vertex_count, t.converged_at))
    report(1, "stabilises within n+1 steps from the all-zero start",
           failures, len(corpus))


def test_criterion_2_monotone_refinement(corpus, corpus_traces):
    failures = []
    for g, t in zip(corpus, corpus_traces):
        steps_refine = all(
            is_refinement(prev, nxt)
            for prev, nxt in zip(t.colorings, t.colorings[1:])
        )
        sizes_grow = list(t.palette_sizes) == sorted(t.palette_sizes)
        if not (steps_refine and sizes_grow):
            failures.append(g.vertex_count)
    report(2, "every zero-start step refines; palette never shrinks",
           failures, len(corpus))


def test_criterion_3_palette_plateau_means_isomorphic(corpus, corpus_traces):
    failures = []
    checked = 0
    for g, t in zip(corpus, corpus_traces):
        for i in range(len(t.colorings) - 1):
            if t.palette_sizes[i] == t.palette_sizes[i + 1]:
                checked += 1
                if colorings_isomorphic(t.colorings[i], t.colorings[i + 1]) is None:
                    failures.append((g.vertex_count, i))
    assert checked > 0
    report(3, "equal consecutive palette sizes imply isomorphic colorings",
           failures, checked)


def test_criterion_4_stability_after_convergence(corpus, corpus_traces):
    failures = []
    for g, t in list(zip(corpus, corpus_traces))[:50]:
        chain = [t.colorings[t.converged_at]]
        for _ in range(5):
            chain.append(refine_step(g, chain[-1]))
        pairs_ok = all(
            colorings_isomorphic(chain[i], chain[j]) is not None
            for i in range(6)
            for j in range(i + 1, 6)
        )
        if not pairs_ok:
            failures.append(g.vertex_count)
    report(4, "all 15 pairs among 6 post-convergence colorings isomorphic",
           failures, 50)


def test_criterion_5_fixpoint_is_equitable(corpus, corpus_traces):
    failures = []
    for g, t in zip(corpus, corpus_traces):
        stable = (
            find_inequitable_pair(g, t.final) is None
            and colorings_isomorphic(refine_step(g, t.final), t.final) is not None
        )
        if not stable:
            failures.append(g.vertex_count)
    report(5, "final coloring is an equitable stable point", failures, len(corpus))


def all_labeled_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield new_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def oracle_cases():
    cases = [g for n in range(6) for g in all_labeled_graphs(n)]
    from colorref import random_graph

    rng = random.Random(424242)
    for i in range(500):
        n = 1 + int(rng.random() * 64)
        cases.append(random_graph(n, PROBABILITIES[i % 4], 1000 + i))
    return cases


def test_criterion_6_oracle_equivalence():
    failures = []
    cases = oracle_cases()
    for g in cases:
        start = zero_coloring(g)
        engine = partition_of(refine_to_fixpoint(g, start).final)
        if engine != naive_refine(g, start):
            failures.append((g.vertex_count, g.edge_count))
    report(6, "engine partition equals brute-force partition "
              f"({len(cases)} graphs, n<=5 exhaustive plus 500 random)",
           failures, len(cases))


def test_criterion_7_counterexample_search(tmp_path, capsys):
    failures = []
    code = main(["search", "--out", str(tmp_path / "w")])
    if code != 0:
        failures.append(f"search exit code {code}")
    w = violation_witness(cycle_graph(4), coloring_from_labels([0, 1, 1, 1]))
    if w is None or w.merged_pair != (0, 2) or w.step != 0:
        failures.append(f"four-cycle replay gave {w}")
    with capsys.disabled():
        report(7, "search finds a class merge; the known four-cycle instance replays",
               failures, 2)


def test_criterion_8_edge_expansion(corpus):
    failures = []
    for g in corpus[:50]:
        e = expand_edges(g)
        n, m = g.vertex_count, g.edge_count
        ok = (
            e.vertex_count == n + m
            and e.edge_count == 2 * m
            and all(e.adjacency[n + i] == edge for i, edge in enumerate(g.edges()))
        )
        if not ok:
            failures.append(n)
    hexagon = expand_edges(complete_graph(3))
    t = refine_to_fixpoint(hexagon, zero_coloring(hexagon))
    if t.converged_at != 1 or t.final.palette_size != 1:
        failures.append("expanded triangle")
    seven_path = expand_edges(path_graph(4))
    t = refine_to_fixpoint(seven_path, zero_coloring(seven_path))
    if t.final.palette_size != 4:
        failures.append("expanded four-path")
    if partition_of(t.final) != naive_refine(seven_path, zero_coloring(seven_path)):
        failures.append("expanded four-path oracle")
    report(8, "expansion count invariants; expanded triangle and path refine as expected",
           failures, 53)


def permuted_copy(g, seed):
    rng = random.Random(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
    rng.shuffle(edges)
    return new_graph(g.vertex_count, edges)


def trace_text(trace, g):
    return emit_trace_document(trace_document(trace, g))


def test_criterion_9_determinism_under_input_permutation(corpus, corpus_traces):
    failures = []
    cases = list(zip(corpus, corpus_traces))
    total = 0
    for i, (g, t) in enumerate(cases):
        total += 1
        g2 = permuted_copy(g, i)
        t2 = refine_to_fixpoint(g2, zero_coloring(g2))
        if trace_text(t, g) != trace_text(t2, g2):
            failures.append(("corpus", g.vertex_count))
    for i, g in enumerate(oracle_cases()):
        total += 1
        g2 = permuted_copy(g, 10_000 + i)
        a = refine_to_fixpoint(g, zero_coloring(g))
        b = refine_to_fixpoint(g2, zero_coloring(g2))
        if trace_text(a, g) != trace_text(b, g2):
            failures.append(("oracle corpus", g.vertex_count))
        if naive_refine(g2, zero_coloring(g2)) != partition_of(b.final):
            failures.append(("oracle permuted", g.vertex_count))
    c4 = cycle_graph(4)
    init = coloring_from_labels([0, 1, 1, 1])
    t1 = refine_to_fixpoint(c4, init)
    t2 = refine_to_fixpoint(permuted_copy(c4, 99), init)
    total += 1
    if trace_text(t1, c4) != trace_text(t2, c4):
        failures.append(("four-cycle witness", 4))
    report(9, "permuting edge input order leaves serialized traces byte-identical",
           failures, total)
