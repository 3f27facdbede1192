"""Immutable simple undirected graphs on dense integer vertex ids."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0 .. vertex_count - 1``.

    ``adjacency[v]`` is the strictly increasing tuple of neighbours of ``v``.
    Instances are validated on construction and never mutated afterwards,
    so they are safe to share between concurrent readers.
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

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``, lexicographically ordered."""
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in self.adjacency[u]
            if u < v
        ]


def new_graph(vertex_count: int, edges) -> Graph:
    """Build a validated graph from unordered id pairs.

    Duplicate pairs collapse to a single edge. Raises ValueError on ids
    outside ``0 .. vertex_count - 1`` here, and through ``Graph`` on
    self-loops and a negative ``vertex_count``.
    """
    rows: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        # a negative id would index rows from the end
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
        rows[u].append(v)
        rows[v].append(u)
    return Graph(vertex_count, tuple(tuple(sorted(set(row))) for row in rows))


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
    rows: list[list[int]] = [[] for _ in range(n)]
    # w grows with the edge index, so every row is built in increasing order.
    for w, (u, v) in enumerate(edge_list, start=n):
        rows[u].append(w)
        rows[v].append(w)
    return Graph(n + len(edge_list), tuple(map(tuple, rows)) + tuple(edge_list))


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
