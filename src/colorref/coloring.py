"""Compact vertex colorings and the predicates that compare them."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from ._record import _Record

# A partition of the vertex set: disjoint non-empty classes covering all
# vertices, members ascending within a class, classes ordered by smallest
# member. Equality of partitions is therefore structural equality.
Partition = tuple[tuple[int, ...], ...]


class Coloring(_Record):
    """Colors ``0 .. palette_size - 1`` assigned to vertices ``0 .. n - 1``.

    The palette is compact: every color in range is worn by at least one
    vertex. A coloring of zero vertices has palette_size 0. ``Coloring(...)``
    stores any sequence of colors as a tuple and checks this; the library's
    own builders (``coloring_from_labels``, ``refine_step`` and
    ``zero_coloring``) are compact by construction and skip the check.
    """

    _fields = ("colors", "palette_size")

    def __init__(self, colors: Iterable[int], palette_size: int) -> None:
        colors = tuple(colors)
        k = palette_size
        if k < 0:
            raise ValueError("palette_size must be non-negative")
        if k > len(colors):  # checked before allocating k slots
            raise ValueError(f"palette is not compact: {k} colors for {len(colors)} vertices")
        used = [False] * k
        for v, c in enumerate(colors):
            if not 0 <= c < k:
                raise ValueError(f"color {c} of vertex {v} outside palette 0..{k - 1}")
            used[c] = True
        if not all(used):
            raise ValueError(f"palette is not compact: color {used.index(False)} unused")
        vars(self).update(colors=colors, palette_size=palette_size)

    @classmethod
    def _unchecked(cls, colors: tuple[int, ...], palette_size: int) -> Coloring:
        # For colors the caller built compact by construction: no checks.
        c = object.__new__(cls)
        vars(c).update(colors=colors, palette_size=palette_size)
        return c


def coloring_from_labels(labels) -> Coloring:
    """Compact arbitrary integer labels to ``0 .. K - 1``.

    Classes keep the order of their original labels: the smallest label
    becomes color 0, the next one color 1, and so on.
    """
    if not isinstance(labels, (list, tuple)):  # read twice below
        labels = list(labels)
    rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return Coloring._unchecked(tuple(map(rank.__getitem__, labels)), len(rank))


def colorings_isomorphic(c1: Coloring, c2: Coloring) -> tuple[int, ...] | None:
    """Return the palette bijection mapping ``c1`` vertex-wise onto ``c2``, if any.

    The bijection is a tuple ``forward``, ``forward[c]`` the color of ``c2``
    matched to color ``c`` of ``c1``; ``()`` for zero vertices. The induced
    map color-to-color must be single-valued. It is then onto, because
    every color of the compact palette of ``c2`` is worn by some vertex,
    and an onto map between palettes of equal size is a bijection. One
    pass over the vertices suffices.
    """
    if len(c1.colors) != len(c2.colors):
        raise ValueError("colorings are over different vertex sets")
    if c1.palette_size != c2.palette_size:
        return None
    forward = [-1] * c1.palette_size
    for a, b in zip(c1.colors, c2.colors):
        if forward[a] == -1:
            forward[a] = b
        elif forward[a] != b:
            return None
    return tuple(forward)


def _splits(pairs: Iterable[tuple[object, object]]) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` for each vertex ``v`` whose second item differs from
    that of ``u``, the first vertex with the same first item.

    ``pairs`` holds one ``(a, b)`` per vertex, in vertex order. Pairs come in
    ascending ``v``, one entry per class of first items is held, and nothing
    is yielded exactly when equal first items imply equal second ones.
    """
    first: dict[object, tuple[int, object]] = {}
    for v, (a, b) in enumerate(pairs):
        u, bu = first.setdefault(a, (v, b))
        if bu != b:
            yield u, v


def _classes(c: Coloring) -> Iterator[Iterator[int]]:
    # Each color class of c, in smallest-member order, as an iterator of its
    # ascending members; no list per class: after[v] is the next vertex of
    # v's color (-1 past the last) and head[k] the first of color k.
    colors = c.colors
    after = array("q", [-1]) * len(colors)
    head = [-1] * c.palette_size
    for v in range(len(colors) - 1, -1, -1):
        k = colors[v]
        after[v] = head[k]
        head[k] = v

    def members(v: int) -> Iterator[int]:
        while v >= 0:
            yield v
            v = after[v]

    for v in sorted(head):
        yield members(v)


def partition_of(c: Coloring) -> Partition:
    """Group vertices into color classes, canonically ordered by smallest member.

    Two colorings are isomorphic exactly when their partitions are equal,
    which gives partition equality a bit-exact meaning for cross-checks.
    """
    return tuple(map(tuple, _classes(c)))
