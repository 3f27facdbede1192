"""Brute-force reference refinement and counterexample search.

``naive_refine`` re-derives the stable partition with deliberately
different machinery than the main engine. Both key a vertex by its sorted
neighbour colors, but the oracle appends no sentinel, numbers new labels
by first encounter instead of ranking the keys in descending order, and
stops when the whole partition repeats instead of testing consecutive
colorings for isomorphism. Agreement is therefore evidence, not a tautology.
"""

from __future__ import annotations

import random
from itertools import cycle, islice

from ._record import _Record
from .coloring import Coloring, Partition, _splits, coloring_from_labels
from .graph import Graph, _from_ends
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


class CounterexampleWitness(_Record):
    """A recorded step at which recoloring merged two classes.

    ``merged_pair`` is the least pair ``u < v`` of vertices with equal
    colors in ``after``, the coloring after step ``step + 1``, but distinct
    colors in ``before``, the coloring at step ``step``. The palette may
    shrink at such a step but need not.
    """

    _fields = ("graph", "initial", "step", "merged_pair", "before", "after")

    def __init__(
        self,
        graph: Graph,
        initial: Coloring,
        step: int,
        merged_pair: tuple[int, int],
        before: Coloring,
        after: Coloring,
    ) -> None:
        vars(self).update(
            graph=graph, initial=initial, step=step, merged_pair=merged_pair,
            before=before, after=after,
        )

    @property
    def palette_shrank(self) -> bool:
        return self.after.palette_size < self.before.palette_size


def violation_witness(g: Graph, initial: Coloring) -> CounterexampleWitness | None:
    """Run the engine and report the first step that fails to refine, if any."""
    trace = refine_to_fixpoint(g, initial)
    for t, (prev, nxt) in enumerate(zip(trace.colorings, trace.colorings[1:])):
        # The least vertex with a merged partner is the first of its class in
        # nxt (an earlier member would make a smaller merged pair), and
        # _splits pairs that first member with each partner, so the minimum
        # is the lexicographically least merged pair.
        pair = min(_splits(zip(nxt.colors, prev.colors)), default=None)
        if pair is not None:
            return CounterexampleWitness(
                graph=g,
                initial=initial,
                step=t,
                merged_pair=pair,
                before=prev,
                after=nxt,
            )
    return None


def _is_connected(g: Graph) -> bool:
    n = g.vertex_count
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
        ends = [end for i, pair in enumerate(pairs) if mask >> i & 1 for end in pair]
        g = _from_ends(n, ends)  # the pairs are in range and loop-free
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


def search_refinement_counterexample(
    max_n: int,
    seed: int = 0,
    attempts: int = 10000,
) -> CounterexampleWitness | None:
    """Look for an initial coloring whose refinement merges two classes.

    Sweeps the labeled connected graphs with 2 to ``min(max_n, 5)``
    vertices in rounds, pairing each with a seeded multi-class coloring.
    Larger graphs are never needed: about half of the trials on up to 5
    vertices merge two classes, so a witness turns up early in the first
    round. Each graph/coloring trial consumes one attempt; the first
    violation in sweep order wins, so equal arguments always return the
    same witness. From the all-equal start no violation exists, which is
    why only multi-class starts are tried.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if attempts < 0:
        raise ValueError("attempts must be non-negative")
    if max_n == 2:
        # a split start gives the two ends of K_2, the one graph, two colors
        # that their portraits keep apart forever: no trial can merge them
        return None
    rng = random.Random(seed)
    small = [g for n in range(2, min(max_n, 5) + 1) for g in _connected_graphs(n)]
    for g in islice(cycle(small), attempts):
        w = violation_witness(g, _random_split_coloring(g, rng))
        if w is not None:
            return w
    return None
