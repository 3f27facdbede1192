"""Compact vertex colorings and the predicates that compare them."""

from __future__ import annotations

from dataclasses import dataclass

# A partition of the vertex set: disjoint non-empty classes covering all
# vertices, members ascending within a class, classes ordered by smallest
# member. Equality of partitions is therefore structural equality.
Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Coloring:
    """Colors ``0 .. palette_size - 1`` assigned to vertices ``0 .. n - 1``.

    The palette is compact: every color in range is worn by at least one
    vertex. A coloring of zero vertices has palette_size 0.
    """

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        k = self.palette_size
        if k < 0:
            raise ValueError("palette_size must be non-negative")
        if k > len(self.colors):  # checked before allocating k slots
            raise ValueError(f"palette is not compact: {k} colors for {len(self.colors)} vertices")
        used = [False] * k
        for v, c in enumerate(self.colors):
            if not 0 <= c < k:
                raise ValueError(f"color {c} of vertex {v} outside palette 0..{k - 1}")
            used[c] = True
        if not all(used):
            raise ValueError(f"palette is not compact: color {used.index(False)} unused")

    def __len__(self) -> int:
        return len(self.colors)


def coloring_from_labels(labels) -> Coloring:
    """Compact arbitrary integer labels to ``0 .. K - 1``.

    Classes keep the order of their original labels: the smallest label
    becomes color 0, the next one color 1, and so on.
    """
    labels = list(labels)
    rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return Coloring(tuple(rank[lab] for lab in labels), len(rank))


@dataclass(frozen=True)
class ColorBijectionWitness:
    """A palette bijection carrying one coloring onto another.

    ``forward[c]`` is the color of the second palette matched to color ``c``
    of the first.
    """

    forward: tuple[int, ...]


def colorings_isomorphic(c1: Coloring, c2: Coloring) -> ColorBijectionWitness | None:
    """Return the palette bijection mapping ``c1`` vertex-wise onto ``c2``, if any.

    The induced map color-to-color must be single-valued and injective;
    with compact palettes of equal size that already makes it a bijection.
    One pass over the vertices suffices.
    """
    if len(c1.colors) != len(c2.colors):
        raise ValueError("colorings are over different vertex sets")
    if c1.palette_size != c2.palette_size:
        return None
    forward = [-1] * c1.palette_size
    hit = [False] * c2.palette_size
    for a, b in zip(c1.colors, c2.colors):
        if forward[a] == -1:
            if hit[b]:
                return None
            forward[a] = b
            hit[b] = True
        elif forward[a] != b:
            return None
    return ColorBijectionWitness(tuple(forward))


def is_refinement(coarse: Coloring, fine: Coloring) -> bool:
    """True iff vertices sharing a color in ``fine`` always share one in ``coarse``."""
    if len(coarse.colors) != len(fine.colors):
        raise ValueError("colorings are over different vertex sets")
    to_coarse = [-1] * fine.palette_size
    for f, c in zip(fine.colors, coarse.colors):
        if to_coarse[f] == -1:
            to_coarse[f] = c
        elif to_coarse[f] != c:
            return False
    return True


def partition_of(c: Coloring) -> Partition:
    """Group vertices into color classes, canonically ordered by smallest member.

    Two colorings are isomorphic exactly when their partitions are equal,
    which gives partition equality a bit-exact meaning for cross-checks.
    """
    classes: dict[int, list[int]] = {}
    for v, col in enumerate(c.colors):
        classes.setdefault(col, []).append(v)
    return tuple(sorted((tuple(members) for members in classes.values()),
                        key=lambda cls: cls[0]))
