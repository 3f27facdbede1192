"""A fixed workload whose run time tracks the host's speed.

bench/run.py runs this script as a child, interleaved with the colorref
children it times, and scales every end-to-end time by
``REFERENCE_NOMINAL_S / median(time of this script)``. On a shared VM the
host's speed drifts by tens of percent over minutes; this script is pure
Python of the same kind as the CLI (start-up, text parsing, tuple and list
work, text output), so its time drifts with it and the ratio cancels the
drift. It imports nothing from the code under test, so changes to colorref
never change its time. Its output is discarded.
"""

import random

N, DEGREE, STEPS = 1000, 8, 3

rng = random.Random(20171120)
text = "".join(f"{v} {u}\n" for v in range(N) for u in rng.sample(range(N), DEGREE) if u != v)
pairs = {tuple(sorted(map(int, line.split()))) for line in text.splitlines()}
rows = [[] for _ in range(N)]
for u, v in pairs:
    rows[u].append(v)
    rows[v].append(u)
adjacency = tuple(tuple(sorted(row)) for row in rows)

colors = [v % 3 for v in range(N)]
for _ in range(STEPS):
    k = max(colors) + 1
    portraits = []
    for v in range(N):
        counts = [0] * k
        for u in adjacency[v]:
            counts[colors[u]] += 1
        portraits.append(tuple(counts))
    rank = {p: i for i, p in enumerate(sorted(set(portraits)))}
    colors = [rank[p] for p in portraits]

out = "\n".join(f"{v} {c}" for v, c in enumerate(colors))
if len(out) < N:
    raise SystemExit(1)
