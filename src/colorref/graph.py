"""Immutable simple undirected graphs on dense integer vertex ids."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0 .. vertex_count - 1``.

    ``adjacency[v]`` is the strictly increasing tuple of neighbours of ``v``.
    ``Graph(...)`` checks all of this: range, order, self-loops and that
    every edge is listed from both ends. ``new_graph``, ``expand_edges`` and
    the graph parsers build their rows correct by construction and skip that
    check. Instances are never mutated, so they are safe to share between
    concurrent readers.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(self.adjacency) != n:
            raise ValueError("adjacency must have one row per vertex")
        # back[u] collects every v listing u; v ascends, so the graph is
        # symmetric exactly when each row equals its back list.
        back: list[list[int]] = [[] for _ in range(n)]
        for v, row in enumerate(self.adjacency):
            prev = -1
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(f"neighbour {u} of vertex {v} is out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if u <= prev:
                    raise ValueError(f"adjacency row {v} must be strictly increasing")
                prev = u
                back[u].append(v)
        for v, row in enumerate(self.adjacency):
            if row != tuple(back[v]):
                u = min(set(row).symmetric_difference(back[v]))
                raise ValueError(f"edge {{{u}, {v}}} is missing its reverse entry")

    @classmethod
    def _unchecked(cls, vertex_count: int, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
        # For rows the caller built valid by construction: skips __post_init__.
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "adjacency", adjacency)
        return g

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``, lexicographically ordered."""
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in self.adjacency[u]
            if u < v
        ]


def _rows(vertex_count: int, ends) -> tuple[tuple[int, ...], ...]:
    # Rows of the edges whose 0-based ends u, v come in turn from ``ends``,
    # every one already checked to lie in range and to be no self-loop.
    # Sorted and duplicate-free by construction; each entry is the one int
    # object of its vertex, not one object per edge end.
    ids = list(range(vertex_count))
    rows: list = [[] for _ in ids]
    it = iter(ends)
    for u, v in zip(it, it):
        rows[u].append(ids[v])
        rows[v].append(ids[u])
    # rows become tuples one by one, freeing each list as it goes
    for u, row in enumerate(rows):
        rows[u] = tuple(sorted(set(row)))
    return tuple(rows)


def new_graph(vertex_count: int, edges) -> Graph:
    """Build a graph from unordered id pairs.

    Duplicate pairs collapse to a single edge. Raises ValueError on the
    first id outside ``0 .. vertex_count - 1``, else on a negative
    ``vertex_count``, else on the self-loop at the smallest vertex. Those
    are the only checks: the rows it builds are sorted, duplicate-free and
    symmetric by construction, so ``Graph``'s own check is skipped.
    """
    ends: list[int] = []
    loops: list[int] = []
    for u, v in edges:
        # a negative id would index rows from the end
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
        if u == v:
            loops.append(u)
        ends += (u, v)
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    if loops:
        raise ValueError(f"self-loop at vertex {min(loops)}")
    return Graph._unchecked(vertex_count, _rows(vertex_count, ends))


def expand_edges(g: Graph) -> Graph:
    """Subdivide every edge of ``g`` with a fresh virtual vertex.

    The edge ``{u, v}`` is replaced by a virtual vertex ``w`` together with
    the edges ``{u, w}`` and ``{w, v}``; no direct edge between input
    vertices survives. Input vertices keep their ids ``0 .. n - 1`` and the
    virtual vertex of ``g.edges()[i]`` gets id ``n + i``, so equal inputs
    always produce identical expansions.
    """
    edge_list = g.edges()
    n = g.vertex_count
    rows: list = [[] for _ in range(n)]
    # w grows with the edge index, so every row is built in increasing order.
    for w, (u, v) in enumerate(edge_list, start=n):
        rows[u].append(w)
        rows[v].append(w)
    # rows become tuples one by one, freeing each list; a virtual vertex's
    # row is its edge tuple as it is
    for u, row in enumerate(rows):
        rows[u] = tuple(row)
    rows += edge_list
    return Graph._unchecked(len(rows), tuple(rows))


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Sample each of the n-choose-2 edges independently with the given probability.

    Equal ``(n, edge_probability, seed)`` arguments yield a bit-identical
    graph on every run and platform: only ``random.Random.random`` is used,
    whose sequence is guaranteed stable for a fixed seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return new_graph(n, edges)
