"""Immutable simple undirected graphs on dense integer vertex ids."""

from __future__ import annotations

import math
import random
from array import array
from functools import cached_property
from itertools import accumulate, chain, islice, pairwise
from operator import lt, or_

from ._record import _Record


def _typecode(top: int) -> str:
    # array typecode for values 0 .. top: 4 bytes each where they fit
    return "i" if top < 1 << 31 else "q"


class Graph(_Record):
    """A simple undirected graph on vertices ``0 .. vertex_count - 1``.

    The rows are stored once, in compressed sparse rows (CSR): two flat
    ``array`` columns, ``offsets`` with ``vertex_count + 1`` entries and
    ``targets`` with one entry per edge end. The row of ``v``, the strictly
    increasing neighbours of ``v``, is ``targets[offsets[v]:offsets[v + 1]]``.
    ``adjacency`` is a view derived from them on first use: the rows as a
    tuple of tuples, ``adjacency[v]`` that of ``v``.

    ``Graph(vertex_count, adjacency)`` checks such rows, any sequences of
    ids: range, order, self-loops and that every edge is listed from both
    ends. The parsers, ``new_graph`` and ``random_graph`` hand their edge
    ends to the one builder, ``_from_ends``, and ``expand_edges`` derives its
    columns from its input's; all build them correct and skip that check.
    Equality and hashing see only the vertex count and the rows. Instances
    and their columns are never written after construction, so they are
    safe to share between concurrent readers.
    """

    _fields = ("vertex_count", "offsets", "targets")

    def __init__(self, vertex_count: int, adjacency: tuple[tuple[int, ...], ...]) -> None:
        n = vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(adjacency) != n:
            raise ValueError("adjacency must have one row per vertex")
        # back[u] collects every v listing u; v ascends, so the graph is
        # symmetric exactly when each row equals its back list.
        back: list[list[int]] = [[] for _ in range(n)]
        for v, row in enumerate(adjacency):
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
        for v, row in enumerate(adjacency):
            if tuple(row) != tuple(back[v]):
                u = min(set(row).symmetric_difference(back[v]))
                raise ValueError(f"edge {{{u}, {v}}} is missing its reverse entry")
        targets = array(_typecode(n - 1), chain.from_iterable(adjacency))
        offsets = array(_typecode(len(targets)), accumulate(map(len, adjacency), initial=0))
        vars(self).update(vertex_count=n, offsets=offsets, targets=targets)

    @classmethod
    def _csr(cls, vertex_count: int, offsets: array, targets: array) -> Graph:
        # For columns the caller built valid by construction: no checks.
        g = object.__new__(cls)
        vars(g).update(vertex_count=vertex_count, offsets=offsets, targets=targets)
        return g

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # each entry is the one int object of its vertex, not one per edge end
        ids = list(range(self.vertex_count))
        flat = list(map(ids.__getitem__, self.targets))
        return tuple(tuple(flat[a:b]) for a, b in pairwise(self.offsets))

    def __hash__(self) -> int:
        # == compares the columns by value, whatever their typecodes, so the
        # hash reads them widened to one typecode
        columns = (array("q", self.offsets).tobytes(), array("q", self.targets).tobytes())
        return hash((self.vertex_count, *columns))

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    def edges(self) -> list[tuple[int, int]]:
        """A new list of all edges as pairs ``u < v``, lexicographically ordered."""
        return list(self._pairs())

    def _pairs(self):
        # the one walk over the edges, in edges() order, with no list of them
        t = self.targets
        for u, (a, b) in enumerate(pairwise(self.offsets)):
            for v in t[a:b]:
                if v > u:
                    yield u, v


def _from_ends(vertex_count: int, ends, base: int = 0) -> Graph:
    # The graph of the edges whose ends u, v come in turn from the sequence
    # ``ends``, counted from ``base`` (0, or 1 for DIMACS), every one already
    # checked to lie in range and to be no self-loop. The degrees give each
    # row's end; the ends, read backwards, are placed from there down, so a
    # row holds its entries in edge order and comes out strictly increasing
    # whenever the edges came sorted. The rows are sorted and deduplicated
    # only when some row is not. Until the placing is done, degree and
    # offsets have a slot per id 0 .. vertex_count + base - 1, so an end
    # indexes them as it is read; the slots below base stay 0.
    degree = [0] * vertex_count
    degree += [0] * base
    for u in ends:
        degree[u] += 1
    code = _typecode(len(ends))
    offsets = array(code, accumulate(degree))  # where each row ends, for now
    del degree
    targets = array(_typecode(vertex_count - 1), [0]) * len(ends)
    it = reversed(ends)
    for v, u in zip(it, it):
        i = offsets[u] - 1
        targets[i] = v - base
        offsets[u] = i
        i = offsets[v] - 1
        targets[i] = u - base
        offsets[v] = i
    del offsets[:base]
    offsets.append(len(ends))  # each entry is now where its row starts
    # every entry exceeds the one before it or starts a row
    starts = bytearray(len(targets) + 1)
    for i in offsets:
        starts[i] = 1
    after = islice(targets, 1, None)
    if not all(map(or_, islice(starts, 1, None), map(lt, targets, after))):
        flat, targets = targets, array(targets.typecode)
        for v in range(vertex_count):
            row = sorted(set(flat[offsets[v]:offsets[v + 1]]))
            offsets[v] = len(targets)
            targets.extend(row)
        offsets[vertex_count] = len(targets)
    return Graph._csr(vertex_count, offsets, targets)


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
    return _from_ends(vertex_count, ends)


def expand_edges(g: Graph) -> Graph:
    """Subdivide every edge of ``g`` with a fresh virtual vertex.

    The edge ``{u, v}`` is replaced by a virtual vertex ``w`` together with
    the edges ``{u, w}`` and ``{w, v}``; no direct edge between input
    vertices survives. Input vertices keep their ids ``0 .. n - 1`` and the
    virtual vertex of ``g.edges()[i]`` gets id ``n + i``, so equal inputs
    always produce identical expansions.

    The columns are built from ``g``'s in one walk over its edges, with no
    list per edge or row: an input vertex keeps its offset, since its
    degree is unchanged, and its row gets the virtual vertices of its edges
    in turn; each virtual vertex adds a row of 2, its edge ``(u, v)``.
    """
    n, m = g.vertex_count, g.edge_count
    targets = array(_typecode(n + m - 1), [0]) * (2 * m)
    tail = array(targets.typecode)
    cursor = g.offsets[:]  # where the next entry of each input row goes
    # w grows with the edge index, so every row is filled in increasing order.
    for w, (u, v) in enumerate(g._pairs(), n):
        targets[cursor[u]] = w
        cursor[u] += 1
        targets[cursor[v]] = w
        cursor[v] += 1
        tail.append(u)
        tail.append(v)
    targets += tail
    offsets = array(_typecode(4 * m), g.offsets)
    offsets.extend(range(2 * m + 2, 4 * m + 1, 2))
    return Graph._csr(n + m, offsets, targets)


# Draws per getrandbits call on the sparse path: 2**15 draws of 8 bytes
# hold about 0.5 MB as an int and its bytes, never the whole run's bits.
_BULK = 1 << 15

# The sparse path runs for p below this, where few draws pass its byte
# prefilter. G(2000, p) on a shared 2-core VM, Python 3.11, the median of 15
# alternating calls, per-call against sparse: .0045: 206 -> 115 ms, .02:
# 226 -> 183 ms, .03: 255 -> 224 ms, .04: 306 -> 294 ms (sparse faster in 6
# of 15), .05: 307 -> 327 ms.
_SPARSE_BELOW = 1 / 32


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Sample each of the n-choose-2 edges independently with the given probability.

    Equal ``(n, edge_probability, seed)`` arguments yield a bit-identical
    graph on every run and platform. The graph is fixed by the sequence of
    ``random.Random(seed).random()``, guaranteed stable for a fixed seed:
    one draw per pair ``u < v`` in lexicographic order, the edge kept when
    the draw is below ``edge_probability``. For small probabilities the
    draws are made in bulk from the same generator words, which gives the
    same graph; the tests, and CI on each supported Python, check that
    against the per-draw form.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must be in [0, 1]")
    p = edge_probability
    rng = random.Random(seed)
    if p >= _SPARSE_BELOW:
        # rng.random() once per pair u < v in lexicographic order; the edge,
        # valid by construction, is kept when the draw is below p
        ends = [end for u in range(n) for v in range(u + 1, n)
                if rng.random() < p for end in (u, v)]
        return _from_ends(n, ends)
    # random() makes its draw from two 32-bit generator words w0, w1 as
    # ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53, and getrandbits(64 * k) takes
    # the same 2 * k words in turn, the first in the lowest bits, so draw j
    # is bytes 8j .. 8j + 7 of its little-endian bytes, w0 first. A draw
    # below p has w0 >> 5 < p * 2**27, so w0 <= 32 * ceil(p * 2**27) - 1 and
    # the top byte of w0, byte 8j + 3, is at most ``top``. Only the draws
    # whose top byte passes that test are read, with random()'s formula.
    top = (32 * math.ceil(p * 2**27) - 1) >> 24
    passes = bytes(b <= top for b in range(256))
    ends = []
    # u is the row of the pair with index row_start, the pairs of row u are
    # row_start .. row_end - 1, and the draws are read in pair order
    u, row_start, row_end = 0, 0, n - 1
    total = n * (n - 1) // 2
    for base in range(0, total, _BULK):
        k = min(_BULK, total - base)
        chunk = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        find = chunk[3::8].translate(passes).find
        j = find(1)
        while j >= 0:
            w = int.from_bytes(chunk[8 * j:8 * j + 8], "little")
            w0, w1 = w & 0xFFFFFFFF, w >> 32
            if ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0) < p:
                i = base + j
                while i >= row_end:
                    u += 1
                    row_start = row_end
                    row_end += n - 1 - u
                ends += (u, u + 1 + i - row_start)
            j = find(1, j + 1)
    return _from_ends(n, ends)
