"""Simultaneous recoloring of all vertices by neighbour-color counts.

One step replaces every vertex's color with the rank of its "portrait",
the vector counting its neighbours of each current color. From the
all-equal start iterating the step only refines, and it stabilises within
``vertex_count`` steps at an equitable partition (any two same-colored
vertices see identical color counts around them). From other starts a
step can merge classes, and the partition can cycle without ever settling.

The engine never builds the dense count vector. It keys each vertex by the
sorted multiset of its neighbours' colors followed by the sentinel
``palette_size`` and ranks the distinct keys largest first, which gives
exactly the colors that ascending lexicographic rank of the dense vectors
gives; ``_portraits`` holds the proof, and the dense reference that the
tests hold it to lives in ``tests/conftest.py``. It reads the graph's CSR
columns (see ``Graph``) and builds the keys of ``_BLOCK`` rows at a time,
so beside the distinct keys it holds one block of keys and one list slot
per edge end of a block, not of the graph. So a step builds its portraits
in O(n + m log Δ) for n vertices, m edges and maximum degree Δ, whatever
the palette size, and then sorts the distinct ones to rank them.

From one color, as in the first step of every run from the all-equal
start, a key holds nothing but the degree, and the step ranks the degrees
read from the row offsets instead: O(n + Δ log Δ), with no key built.
A run takes each color from one list of int objects that grows with its
palette, so its colorings hold each color once.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import chain, islice, pairwise
from operator import sub

from ._record import _Record
from .coloring import Coloring, _splits, colorings_isomorphic
from .graph import Graph


def _check_sizes(g: Graph, c: Coloring) -> None:
    if len(c.colors) != g.vertex_count:
        raise ValueError("coloring and graph have different vertex counts")


def zero_coloring(g: Graph) -> Coloring:
    """The all-equal start: every vertex gets color 0 (empty palette for n = 0)."""
    n = g.vertex_count
    # color 0 worn by every vertex, or no colors at all: compact by construction
    return Coloring._unchecked((0,) * n, 1 if n else 0)


# Rows per block of keys in _portraits: a key and a list slot per edge end
# of the block are held, not of the whole graph.
_BLOCK = 1024


def _portraits(g: Graph, c: Coloring) -> Iterator[list[tuple[int, ...]]]:
    """Yield the portrait keys of the vertices under ``c``, in vertex order,
    as one list per block of ``_BLOCK`` vertices.

    The key of a vertex is the ascending list of its neighbours' colors
    followed by the sentinel ``K = c.palette_size``, which exceeds every
    color. It costs O(d log d) for a vertex of degree d, against O(K) for
    the dense count vector it encodes.

    Keys order dense vectors in reverse. Take dense vectors a and b whose
    first difference is at index i, with a[i] > b[i]. Their keys agree on
    every color below i and on the first b[i] copies of color i. At the
    next position a holds i, while b holds a color greater than i or the
    sentinel. So key(a) < key(b): ascending dense order is reverse key
    order, and equal keys mean equal vectors.

    This is the only place a portrait is built; the dense vectors exist
    only in the test reference in ``tests/conftest.py``. It stays lazy
    across blocks, so that ``refine_step`` holds only the distinct keys
    and one block, and ``find_inequitable_pair`` one key per class and up
    to one block, up to the first split.
    """
    k = c.palette_size
    at = c.colors.__getitem__
    offsets, targets = g.offsets, g.targets
    for lo in range(0, g.vertex_count, _BLOCK):
        # the neighbours' colors of a block of rows in one C-level pass; the
        # keys are built in a call of their own, so this frame keeps no
        # reference to a block or its colors once the block is yielded
        bounds = offsets[lo:lo + _BLOCK + 1]
        yield _keys(list(map(at, targets[bounds[0]:bounds[-1]])), bounds, k)


def _keys(seen: list[int], bounds: Sequence[int], k: int) -> list[tuple[int, ...]]:
    # the key of each row between consecutive bounds, from its slice of
    # seen, the neighbours' colors of all these rows
    base = bounds[0]
    keys = []
    for a, b in pairwise(bounds):
        key = seen[a - base:b - base]
        key.sort()
        key.append(k)
        keys.append(tuple(key))
    return keys


def _step(g: Graph, c: Coloring, ints: list[int]) -> Coloring:
    # refine_step, with color r the int object ints[r]: ints grows to the
    # new palette size, so a run that passes it on holds each color once
    if c.palette_size == 1:
        # From one color the key of a vertex of degree d is (0,) * d + (1,).
        # Two keys of degrees d < e first differ at index d, where the
        # smaller degree holds the sentinel, so its key is the larger: the
        # colors rank the degrees ascending. The degrees are read in C.
        offsets = g.offsets
        labels = list(map(sub, islice(offsets, 1, None), offsets))
        order = sorted(set(labels))  # the label of each rank
        rank = [0] * (order[-1] + 1)
    else:
        # Each key is numbered on first encounter and then dropped, so a
        # step holds one label per vertex and only the K distinct keys.
        first: dict[tuple[int, ...], int] = {}
        labels = []
        for keys in _portraits(g, c):
            labels += [first.setdefault(key, len(first)) for key in keys]
            del keys  # freed before the next block is built
        order = [first[key] for key in sorted(first, reverse=True)]
        rank = [0] * len(order)
    ints.extend(range(len(ints), len(order)))
    for r, label in zip(ints, order):
        rank[label] = r
    # ranks of the distinct labels: compact by construction
    return Coloring._unchecked(tuple(map(rank.__getitem__, labels)), len(order))


def refine_step(g: Graph, c: Coloring) -> Coloring:
    """One simultaneous recoloring: portrait keys under ``c``, ranked largest first."""
    _check_sizes(g, c)
    return _step(g, c, [])


class RefinementTrace(_Record):
    """Full history of an iterated refinement: its colorings alone.

    ``colorings[t]`` is the coloring after ``t`` steps; index 0, the start,
    is in every trace. ``converged_at`` is the last step if its coloring is
    isomorphic to the one before, where a run stops, else None (the cap was
    hit). It and ``palette_sizes`` are derived from ``colorings``, not stored.
    """

    _fields = ("colorings",)

    def __init__(self, colorings: tuple[Coloring, ...]) -> None:
        if not colorings:
            raise ValueError("a trace holds at least its start coloring")
        vars(self).update(colorings=colorings)

    @cached_property
    def converged_at(self) -> int | None:
        t = len(self.colorings) - 1
        stopped = t >= 1 and colorings_isomorphic(*self.colorings[-2:]) is not None
        return t if stopped else None

    @property
    def palette_sizes(self) -> tuple[int, ...]:
        return tuple(c.palette_size for c in self.colorings)

    @property
    def final(self) -> Coloring:
        return self.colorings[-1]


def refine_to_fixpoint(
    g: Graph, initial: Coloring, max_iters: int | None = None
) -> RefinementTrace:
    """Iterate ``refine_step`` until two consecutive colorings are isomorphic.

    Once that happens, every later step only relabels colors, so stopping
    is sound. ``max_iters`` defaults to ``vertex_count + 2``: from the
    all-equal start the partition stabilises within ``vertex_count`` steps
    and one more step witnesses the isomorphism. Other starts can cycle
    forever: on the edges {0, 2}, {1, 3} the start (0, 1, 0, 0) alternates
    between two partitions. The trace then stops at the cap, and its
    ``converged_at`` is None rather than an error.
    """
    _check_sizes(g, initial)
    if max_iters is None:
        max_iters = g.vertex_count + 2
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    colorings = [initial]
    ints: list[int] = []  # the run's one int object per color
    for _ in range(max_iters):
        prev = colorings[-1]
        nxt = _step(g, prev, ints)
        colorings.append(nxt)
        if colorings_isomorphic(prev, nxt) is not None:
            break
    return RefinementTrace(tuple(colorings))


def find_inequitable_pair(g: Graph, c: Coloring) -> tuple[int, int] | None:
    """First vertex pair sharing a color but differing in portrait, if any.

    The pair is ``(u, v)`` for the first such ``v``, with ``u`` the first
    vertex of its color. None means ``c`` is equitable. Every stable point
    of the process is equitable. The converse needs distinct classes to
    carry distinct portraits as well: two singleton classes with equal
    portraits are equitable yet still merge under ``refine_step``.
    """
    _check_sizes(g, c)
    return next(_splits(zip(c.colors, chain.from_iterable(_portraits(g, c)))), None)
