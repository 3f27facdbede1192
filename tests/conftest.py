import tracemalloc

from colorref import Coloring, new_graph


def path_graph(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves):
    return new_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def brute_portrait(g, c, v):
    # independent route: scan every vertex and test adjacency directly
    return tuple(
        sum(1 for u in range(g.vertex_count) if u in g.adjacency[v] and c.colors[u] == j)
        for j in range(c.palette_size)
    )


def index_portraits(portraits):
    # dense reference for refine_step: each distinct count vector gets its
    # ascending lexicographic rank as the new color
    portraits = list(portraits)
    if portraits:
        width = len(portraits[0])
        if any(len(p) != width for p in portraits):
            raise ValueError("portraits of mixed lengths cannot be indexed together")
    rank = {p: i for i, p in enumerate(sorted(set(portraits)))}
    return Coloring(tuple(rank[p] for p in portraits), len(rank))


def peak_bytes(fn, *args):
    # the most memory fn(*args) holds at once, by tracemalloc
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
