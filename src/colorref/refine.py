"""Simultaneous recoloring of all vertices by neighbour-color counts.

One step replaces every vertex's color with the rank of its "portrait",
the vector counting its neighbours of each current color. From the
all-equal start iterating the step only refines, and it stabilises within
``vertex_count`` steps at an equitable partition (any two same-colored
vertices see identical color counts around them). From other starts a
step can merge classes, and the partition can cycle without ever settling,
but every run ends in period 1 or 2: the README section "Every run ends in
period 1 or 2" proves it with an energy that never falls. A step reads the
colors alone, so a coloring equal to the one two steps back repeats with
it forever, and there ``refine_to_fixpoint`` stops stepping.

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

A run (``refine_to_fixpoint``) takes two kinds of step, with equal colors.
A block step is the step above. In a long run few vertices change class
per step, and there it re-keys instead: each class keeps an id from step
to step, and a vertex's key is the sorted tuple of its neighbours' ids.
Ids name the classes one to one, as colors do, so equal id keys mean equal
color keys, and the next classes are the same. A vertex's key can change
only if a neighbour's id did, so only the neighbours of the vertices whose
id changed are re-keyed; a dict from each live key to its class does the
rest. Each class's color key is its id key read through the current
colors, and those K keys, largest first, give the block step's colors,
since the block step ranks the same K distinct keys. That rank order is
kept from step to step: two classes can change order only if one has a
new id key or names a class that moved in it, so only these D dirty
classes are put back, by binary search; after a step in which a class
moved, one O(m) scan of the K id keys finds those that name it. A
re-keying step costs O(Σ d log d over the re-keyed vertices + D log K + K
+ n) beside that scan. The run hands over to it after a block step that
moved few vertices while K is small, as its first step places all K
classes, and goes back to block steps when a step moves too many vertices
or dirties too many classes. ``_rekeys`` decides; it changes only the cost.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property
from itertools import chain, compress, count, cycle, islice, pairwise
from operator import ne, sub

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

    This is the only place a portrait is built. It stays lazy across
    blocks, so that ``refine_step`` holds only the distinct keys and one
    block, and ``find_inequitable_pair`` one key per class and up to one
    block, up to the first split.
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
    hit). It and ``palette_sizes`` are derived from ``colorings``, not stored;
    ``refine_to_fixpoint`` hands over the ``converged_at`` it already knows.
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
    between two partitions, and ``converged_at`` is None rather than an
    error. A step reads the colors alone, so once a coloring equals the one
    two steps back, the last two fill the trace to the cap without a step.
    """
    _check_sizes(g, initial)
    if max_iters is None:
        max_iters = g.vertex_count + 2
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if max_iters > sys.maxsize:
        # no trace holds more colorings, and islice takes no larger stop
        raise ValueError(f"max_iters must be at most {sys.maxsize}")
    colorings, stopped = [initial], None
    for t, nxt in enumerate(islice(_run(g, initial), max_iters), 1):
        colorings.append(nxt)
        if colorings_isomorphic(colorings[-2], nxt) is not None:
            stopped = t
            break
        if t >= 2 and nxt.colors == colorings[-3].colors:
            colorings += islice(cycle(colorings[-2:]), max_iters - t)
            break
    trace = RefinementTrace(tuple(colorings))
    vars(trace)["converged_at"] = stopped  # the cached property, known here
    return trace


def _rekeys(work: float, k: int, n: int) -> bool:
    # whether a re-keying step beats a block step over n vertices, with
    # ``work`` the vertices that moved plus the classes it re-places
    return 4 * work + k < n


def _gap(ranked: list[int], key: list[int], key_at: Callable[[int], list[int]]) -> int:
    # how many classes of ranked, largest color key first, have a key above key
    return bisect_left(ranked, True, key=lambda i: key_at(i) <= key)


def _off_run(runs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    # The (old place, size, new place) runs of classes, given in new order,
    # off one heaviest chain of runs whose old places increase: the fewest
    # classes to take out so that the rest keep their old order. The best
    # chains so far end at increasing places with increasing weights; ends
    # holds the index of their last runs, back the run before each, or -1.
    places, weights, ends, back = [], [], [], []
    for j, (x, w, _) in enumerate(runs):
        r = bisect_left(places, x)
        back.append(ends[r - 1] if r else -1)
        w += weights[r - 1] if r else 0
        e = r  # the chains from r to e end later and weigh no more
        while e < len(weights) and weights[e] <= w:
            e += 1
        places[r:e], weights[r:e], ends[r:e] = [x], [w], [j]
    best, j = set(), ends[-1] if ends else -1
    while j >= 0:
        best.add(j)
        j = back[j]
    return [run for j, run in enumerate(runs) if j not in best]


def _run(g: Graph, c: Coloring) -> Iterator[Coloring]:
    # The colorings after c, one per step, each _step's of the one before,
    # with color r the int object ints[r] of one list for the whole run.
    n = g.vertex_count
    offsets, targets = g.offsets, g.targets
    ints: list[int] = []

    def color_key(i: int) -> list[int]:
        # the engine key of class i: its id key read through the colors of c
        key = sorted(map(color_of.__getitem__, key_of[i]))
        key.append(k)
        return key

    while True:
        prev, c = c, _step(g, c, ints)
        yield c
        k = c.palette_size
        # a refining step moves about |K - K_prev| * n / K vertices; a first
        # re-keying step re-places all K classes, and its own test falls
        # back to a block step where this estimate errs
        if not _rekeys(abs(k - prev.palette_size) * n / (k or 1) + k, k, n):
            continue
        # Hand-over: the previous colors serve as the ids of the previous classes.
        # A class of c takes the previous color of its first member, the largest
        # of the classes that share one keeps it, and the others take fresh ids
        # from n up. Its key is read over the previous colors at its first member.
        p, cur = prev.colors, c.colors
        first = dict(zip(reversed(cur), range(n - 1, -1, -1)))  # color -> first member
        size = Counter(cur)
        fresh = count(n)
        id_of: dict[int, int] = {}  # color of c -> id
        taken: set[int] = set()
        for x in sorted(first, key=size.__getitem__, reverse=True):
            i = p[first[x]]
            id_of[x] = next(fresh) if i in taken else i
            taken.add(i)
        ids = list(map(id_of.__getitem__, cur))
        moved = list(compress(range(n), map(ne, ids, p)))  # id is not the previous color
        at = p.__getitem__
        key_of = {id_of[x]: tuple(sorted(map(at, targets[offsets[v]:offsets[v + 1]])))
                  for x, v in first.items()}
        class_of = {key: i for i, key in key_of.items()}
        size = {id_of[x]: s for x, s in size.items()}
        # The rank order, order[x] the id of color x; at first every id
        # counts as moved, so the first step places every class.
        order = list(map(id_of.__getitem__, range(k)))
        color_of = dict(zip(order, ints))  # id -> color of c
        shifted = set(order)
        while True:
            # Only a neighbour of a vertex whose id changed can change key.
            at = ids.__getitem__
            movers = []
            for v in set(chain.from_iterable(targets[offsets[u]:offsets[u + 1]] for u in moved)):
                key = tuple(sorted(map(at, targets[offsets[v]:offsets[v + 1]])))
                if key != key_of[ids[v]]:
                    movers.append((v, key))
                    size[ids[v]] -= 1
            emptied = {ids[v] for v, _ in movers if not size[ids[v]]}
            for i in emptied:
                del class_of[key_of.pop(i)], size[i]
            # A vertex joins the class of its new key. A new key's class
            # takes the mover's old id if that class emptied, else a fresh one.
            moved, dirty = [], set()
            for v, key in movers:
                old = ids[v]
                i = class_of.get(key)
                if i is None:
                    i = next(fresh) if old in size else old
                    class_of[key], key_of[i], size[i] = i, key, 0
                    dirty.add(i)
                size[i] += 1
                if i != old:
                    ids[v] = i
                    moved.append(v)
            # The clean classes keep their order; each dirty one, new or with
            # a key that names a shifted id, is placed among them by binary search.
            if shifted:
                dirty.update(i for i, key in key_of.items() if not shifted.isdisjoint(key))
            if not _rekeys(len(moved) + len(dirty), k, n):
                break  # a block step from c costs less
            out = sorted(color_of[i] for i in dirty | emptied if i in color_of)
            clean = list(chain.from_iterable(
                order[a + 1:b] for a, b in pairwise([-1, *out, len(order)])))
            placed = sorted(dirty, key=color_key, reverse=True)
            gaps = [_gap(clean, color_key(i), color_key) for i in placed]
            # The new order in runs that keep their old order: each placed
            # class, and each stretch of clean ones that no placed class
            # enters or leaves in either order. The ids of the runs off one
            # heaviest chain in old order moved; no clean key names a new id.
            cuts = {*gaps, len(clean)}
            cuts.update(x - bisect_left(out, x) for x in map(color_of.get, placed) if x is not None)
            order, runs, shifted, a, j = [], [], set(), 0, 0
            for b in sorted(cuts):
                if a < b:
                    runs.append((color_of[clean[a]], b - a, len(order)))
                    order += clean[a:b]
                    a = b
                while j < len(placed) and gaps[j] == b:
                    i = placed[j]
                    if i in color_of:
                        runs.append((color_of[i], 1, len(order)))
                    order.append(i)
                    j += 1
            for _, w, x in _off_run(runs):
                shifted.update(order[x:x + w])
            k = len(order)
            ints.extend(range(len(ints), k))
            del color_of  # freed first: with two maps alive, the heap fragments
            color_of = dict(zip(order, ints))
            c = Coloring._unchecked(tuple(map(color_of.__getitem__, ids)), k)
            yield c


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
