"""Brute-force reference refinement and counterexample search.

``naive_refine`` re-derives the stable partition with deliberately
different machinery than the main engine: signatures are sorted lists of
neighbour colors rather than count vectors, new labels come from
first-encounter numbering rather than lexicographic rank, and the stop
test compares whole partitions. Agreement between the two routes is
therefore evidence, not a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coloring import Coloring, Partition, coloring_from_labels, is_refinement
from .graph import Graph, new_graph
from .refine import refine_to_fixpoint


def _grouped(labels) -> Partition:
    classes: dict[object, list[int]] = {}
    for v, lab in enumerate(labels):
        classes.setdefault(lab, []).append(v)
    return tuple(sorted((tuple(members) for members in classes.values()),
                        key=lambda cls: cls[0]))


def naive_refine(g: Graph, initial: Coloring) -> Partition:
    """Re-classify vertices by sorted neighbour-color lists until stable.

    Returns the partition at which one more round changes nothing. Shares
    no refinement code with the engine. From the all-equal start the loop
    provably settles within ``vertex_count`` rounds. Other starts can cycle
    forever (on the edges {0, 2}, {1, 3} the start (0, 1, 0, 0) alternates
    between two partitions), so a round cap ends the loop with RuntimeError.
    """
    if len(initial.colors) != g.vertex_count:
        raise ValueError("coloring and graph have different vertex counts")
    n = g.vertex_count
    labels: list[int] = list(initial.colors)
    for _ in range(4 * n + 16):
        signatures = [
            tuple(sorted(labels[u] for u in g.adjacency[v])) for v in range(n)
        ]
        ids: dict[tuple[int, ...], int] = {}
        relabeled = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if _grouped(relabeled) == _grouped(labels):
            return _grouped(labels)
        labels = relabeled
    raise RuntimeError("partition did not settle within the round cap")


@dataclass(frozen=True)
class CounterexampleWitness:
    """A recorded step at which recoloring merged two classes.

    ``merged_pair`` holds vertices with equal colors after step ``step + 1``
    but distinct colors at step ``step``. ``palette_before``/``palette_after``
    are the palette sizes at those two steps; the palette may shrink at such
    a step but need not.
    """

    graph: Graph
    initial: Coloring
    step: int
    merged_pair: tuple[int, int]
    palette_before: int
    palette_after: int

    @property
    def palette_shrank(self) -> bool:
        return self.palette_after < self.palette_before


def violation_witness(g: Graph, initial: Coloring) -> CounterexampleWitness | None:
    """Run the engine and report the first step that fails to refine, if any."""
    trace = refine_to_fixpoint(g, initial)
    for t in range(len(trace.colorings) - 1):
        prev, nxt = trace.colorings[t], trace.colorings[t + 1]
        if is_refinement(prev, nxt):
            continue
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                if nxt.colors[u] == nxt.colors[v] and prev.colors[u] != prev.colors[v]:
                    return CounterexampleWitness(
                        graph=g,
                        initial=initial,
                        step=t,
                        merged_pair=(u, v),
                        palette_before=prev.palette_size,
                        palette_after=nxt.palette_size,
                    )
    return None


def _is_connected(g: Graph) -> bool:
    n = g.vertex_count
    if n <= 1:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def _connected_graphs(n: int) -> list[Graph]:
    """All labeled connected graphs on n vertices, in edge-bitmask order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = new_graph(n, edges)
        if _is_connected(g):
            out.append(g)
    return out


def _random_split_coloring(g: Graph, rng: random.Random) -> Coloring:
    """A seeded coloring of g with at least two classes (needs n >= 2)."""
    n = g.vertex_count
    k = 2 + int(rng.random() * (n - 1))
    labels = [int(rng.random() * k) for _ in range(n)]
    if len(set(labels)) == 1:
        labels[int(rng.random() * n)] = labels[0] + 1
    return coloring_from_labels(labels)


def _random_connected(n: int, rng: random.Random) -> Graph | None:
    for _ in range(64):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = new_graph(n, edges)
        if _is_connected(g):
            return g
    return None


def search_refinement_counterexample(
    max_n: int,
    seed: int = 0,
    attempts: int = 10000,
) -> CounterexampleWitness | None:
    """Look for an initial coloring whose refinement merges two classes.

    Sweeps all labeled connected graphs up to 5 vertices exhaustively (and
    samples random connected graphs beyond that, up to ``max_n``), pairing
    each with seeded multi-class colorings. Each graph/coloring trial
    consumes one attempt; the first violation in sweep order wins, so equal
    arguments always return the same witness. From the all-equal start no
    violation exists, which is why only multi-class starts are tried.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if attempts < 0:
        raise ValueError("attempts must be non-negative")
    rng = random.Random(seed)
    small = [g for n in range(2, min(max_n, 5) + 1) for g in _connected_graphs(n)]
    budget = attempts
    while budget > 0:
        before = budget
        for g in small:
            if budget == 0:
                break
            budget -= 1
            w = violation_witness(g, _random_split_coloring(g, rng))
            if w is not None:
                return w
        for n in range(6, max_n + 1):
            if budget == 0:
                break
            g = _random_connected(n, rng)
            if g is None:
                continue
            budget -= 1
            w = violation_witness(g, _random_split_coloring(g, rng))
            if w is not None:
                return w
        if budget == before:
            break
    return None
