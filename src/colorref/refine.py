"""Simultaneous recoloring of all vertices by neighbour-color counts.

One step replaces every vertex's color with the rank of its "portrait",
the vector counting its neighbours of each current color. From the
all-equal start iterating the step only refines, and it stabilises within
``vertex_count`` steps at an equitable partition (any two same-colored
vertices see identical color counts around them). From other starts a
step can merge classes, and the partition can cycle without ever settling.

The engine never builds the dense count vector. It keys each vertex by the
sorted multiset of its neighbours' colors followed by the sentinel
``palette_size`` and ranks the distinct keys in descending order, which
gives exactly the colors that ascending lexicographic rank of the dense
vectors (``index_portraits``) gives; ``_portraits`` holds the proof. So a
step builds its portraits in O(n + m log Δ) for n vertices, m edges and
maximum degree Δ, whatever the palette size, and then sorts the distinct
ones to rank them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .coloring import Coloring, colorings_isomorphic
from .graph import Graph

# A portrait is the count vector of a vertex's neighbours per color,
# indexed by color id; its length equals the palette size in force. The
# engine works on its sparse key instead (see ``_portraits``).
Portrait = tuple[int, ...]


def _check_sizes(g: Graph, c: Coloring) -> None:
    if len(c.colors) != g.vertex_count:
        raise ValueError("coloring and graph have different vertex counts")


def zero_coloring(g: Graph) -> Coloring:
    """The all-equal start: every vertex gets color 0 (empty palette for n = 0)."""
    n = g.vertex_count
    return Coloring((0,) * n, 1 if n else 0)


def _portraits(g: Graph, c: Coloring) -> Iterator[tuple[int, ...]]:
    """Yield the portrait key of each vertex under ``c``, in vertex order.

    The key of a vertex is the ascending list of its neighbours' colors
    followed by the sentinel ``K = c.palette_size``, which exceeds every
    color. It costs O(d log d) for a vertex of degree d, against O(K) for
    the dense count vector it encodes.

    Keys order dense vectors in reverse. Take dense vectors a and b whose
    first difference is at index i, with a[i] > b[i]. Their keys agree on
    every color below i and on the first b[i] copies of color i. At the
    next position a holds i, while b holds a color greater than i or the
    sentinel. So key(a) < key(b): ascending dense order is descending key
    order, and equal keys mean equal vectors.

    This is the only place a portrait is built. It stays lazy so that
    ``find_inequitable_pair`` stops at the first mismatch and holds only
    one key per class.
    """
    k = c.palette_size
    at = c.colors.__getitem__
    for row in g.adjacency:
        key = sorted(map(at, row))
        key.append(k)
        yield tuple(key)


def _rank(keys, descending: bool) -> Coloring:
    keys = list(keys)
    rank = {p: i for i, p in enumerate(sorted(set(keys), reverse=descending))}
    return Coloring(tuple(map(rank.__getitem__, keys)), len(rank))


def index_portraits(portraits) -> Coloring:
    """Assign each distinct portrait its lexicographic rank as the new color.

    Any bijection from portraits to fresh color ids would do; fixing the
    lexicographic one makes runs reproducible. All portraits must have the
    same length (they were computed against one palette). This is the
    dense reference: ``refine_step`` gives the colors this function gives
    to the portraits' count vectors, without building them.
    """
    portraits = list(portraits)
    if portraits:
        width = len(portraits[0])
        if any(len(p) != width for p in portraits):
            raise ValueError("portraits of mixed lengths cannot be indexed together")
    return _rank(portraits, descending=False)


def refine_step(g: Graph, c: Coloring) -> Coloring:
    """One simultaneous recoloring: portrait keys under ``c``, ranked descending."""
    _check_sizes(g, c)
    return _rank(_portraits(g, c), descending=True)


@dataclass(frozen=True)
class RefinementTrace:
    """Full history of an iterated refinement.

    ``colorings[t]`` is the coloring after ``t`` steps (index 0 is the
    start). ``converged_at`` is the first ``t >= 1`` with ``colorings[t-1]``
    isomorphic to ``colorings[t]``, or None if the iteration cap was hit
    first.
    """

    colorings: tuple[Coloring, ...]
    palette_sizes: tuple[int, ...]
    converged_at: int | None

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
    between two partitions. The trace then stops at the cap and reports
    ``converged_at=None`` rather than raising.
    """
    _check_sizes(g, initial)
    if max_iters is None:
        max_iters = g.vertex_count + 2
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    colorings = [initial]
    converged_at = None
    for t in range(1, max_iters + 1):
        prev = colorings[-1]
        nxt = refine_step(g, prev)
        colorings.append(nxt)
        if colorings_isomorphic(prev, nxt) is not None:
            converged_at = t
            break
    return RefinementTrace(
        tuple(colorings),
        tuple(c.palette_size for c in colorings),
        converged_at,
    )


def find_inequitable_pair(g: Graph, c: Coloring) -> tuple[int, int] | None:
    """First vertex pair sharing a color but differing in portrait, if any.

    None means ``c`` is equitable. Every stable point of the process is
    equitable. The converse needs distinct classes to carry distinct
    portraits as well: two singleton classes with equal portraits are
    equitable yet still merge under ``refine_step``.
    """
    _check_sizes(g, c)
    rep: dict[int, tuple[int, tuple[int, ...]]] = {}
    for v, p in enumerate(_portraits(g, c)):
        col = c.colors[v]
        if col not in rep:
            rep[col] = (v, p)
        elif rep[col][1] != p:
            return (rep[col][0], v)
    return None
