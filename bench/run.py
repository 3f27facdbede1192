#!/usr/bin/env python3
"""Benchmark of the colorref CLI, end to end and per layer.

Run from the root of a checkout, with no installed package needed:

    python3 bench/run.py --workload sparse_gnp --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` runs the ``colorref`` CLI as a user does, one child process
per operation, one child at a time (a closed loop with a single client),
and reports the end-to-end metrics named in BENCHMARK.json, with times
scaled to a nominal host speed by interleaved runs of bench/reference.py
(see measure_end_to_end). ``--trace 1``
runs the same operations in process, records a span around every call into
a layer, writes the spans to ``.bench_out/`` and reports the per-layer
metrics. Either way every operation's output is checked, and the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed / attempted`` is the share of
operations whose output failed a check (``failed_ops_frac``).

The benchmark generates every input from ``--seed``; the CLI only ever
sees files in a scratch directory under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

DEFAULT_SEED = 0
WORKLOADS = ("path", "sparse_gnp", "torus_expanded", "cycle_start")

# Sizes keep one refine under a second on a 2-core box, so a run takes
# dozens of samples of each operation.
PATH_N = 400
GNP_N, GNP_P = 2000, 0.0045
TORUS_A = 120
CYCLE_N = 1000
# The cycle's 2-color start is one fixed pattern (22 steps at CYCLE_N);
# the seed relabels its vertices. A pattern drawn per seed takes 19 to 33
# steps, a spread no time bound could absorb.
CYCLE_PATTERN_SEED = 0
# random_graph is timed on sparse_gnp at its own size; the other
# workloads time this small draw so the layer stays visible everywhere.
PROBE_N, PROBE_P = 400, 0.01

SETUP_MIN_S = 1.0
MIN_SAMPLES = 3
# Every end-to-end time is scaled to the host speed at which
# bench/reference.py takes this long (see that file).
REFERENCE_NOMINAL_S = 0.15

# sha256 of the trace file `colorref refine` writes for each workload at
# DEFAULT_SEED, recorded when this benchmark was introduced; a later change
# that alters a single byte of the trace fails the benchmark.
GOLDEN_TRACE_SHA256 = {
    "path": "7905dd816cb9481b71978000a82581b4788feb49871b13ce550bfcafd99a0000",
    "sparse_gnp": "ddd1fc9254dfd3868ebf422232d1b24ca574745bfb4234fa7173e34a6a19e056",
    "torus_expanded": "644ccf3e5c0f3c5a69922b44b303fec949867f9df87027dce49e7158cd21a6b3",
    "cycle_start": "cf4875c4720e222b8e527878b36fb1a756cd219c0fb3336e557874a2885ad924",
}

TRACE_FILE = "run.trace"
FINAL_COLORS = "final.colors"


class BenchError(Exception):
    """The benchmark cannot run here; it exits with code 2 and no result."""


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    """Files of one workload instance and what the checks need to know.

    ``n`` and ``edges`` describe the graph refine runs on (the subdivided
    one on torus_expanded); ``input_n`` and ``input_edges`` the graph in
    the input file; ``virtual`` the edge each virtual vertex stands for.
    """

    refine_args: list[str]
    verify_graph: str
    n: int
    edges: list[tuple[int, int]]
    start: list[int] | None = None
    virtual: list[tuple[int, int]] = field(default_factory=list)
    input_n: int = 0
    input_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.edges)


def _edge_list_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _dimacs_text(n: int, edges) -> str:
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


def _normalized(edges) -> list[tuple[int, int]]:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def _relabeling(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def make_path(seed: int, d: Path) -> Inputs:
    perm = _relabeling(PATH_N, seed)
    edges = [(perm[i], perm[i + 1]) for i in range(PATH_N - 1)]
    (d / "graph.edges").write_text(_edge_list_text(PATH_N, edges))
    norm = _normalized(edges)
    return Inputs(["graph.edges", "--trace", TRACE_FILE], "graph.edges",
                  PATH_N, norm, input_n=PATH_N, input_edges=norm)


def make_sparse_gnp(seed: int, d: Path) -> Inputs:
    child = run_cli(["gen", str(GNP_N), str(GNP_P), "--seed", str(seed),
                     "--out", "graph.edges"], d)
    if child.code != 0:
        raise BenchError(f"colorref gen exited {child.code}")
    edges = []
    for line in (d / "graph.edges").read_text().splitlines():
        parts = line.split()
        if parts and parts[0] not in ("#", "n"):
            edges.append((int(parts[0]), int(parts[1])))
    norm = _normalized(edges)
    return Inputs(["graph.edges", "--trace", TRACE_FILE], "graph.edges",
                  GNP_N, norm, input_n=GNP_N, input_edges=norm)


def make_torus_expanded(seed: int, d: Path) -> Inputs:
    a, n = TORUS_A, TORUS_A * TORUS_A
    perm = _relabeling(n, seed)
    edges = _normalized(
        (perm[i * a + j], perm[x * a + y])
        for i in range(a) for j in range(a)
        for x, y in ((i, (j + 1) % a), ((i + 1) % a, j))
    )
    (d / "torus.dimacs").write_text(_dimacs_text(n, edges))
    # The subdivided torus, numbered as `refine --expand-edges` numbers it:
    # virtual vertex n + i stands for the i-th edge in lexicographic order.
    # `verify` needs it, since the final coloring addresses this graph.
    expanded = _normalized(
        pair for i, (u, v) in enumerate(edges) for pair in ((u, n + i), (v, n + i))
    )
    (d / "expanded.dimacs").write_text(_dimacs_text(n + len(edges), expanded))
    return Inputs(["torus.dimacs", "--expand-edges", "--trace", TRACE_FILE],
                  "expanded.dimacs", n + len(edges), expanded,
                  virtual=edges, input_n=n, input_edges=edges)


def make_cycle_start(seed: int, d: Path) -> Inputs:
    n = CYCLE_N
    pattern = random.Random(CYCLE_PATTERN_SEED)
    labels_at = [pattern.randrange(2) for _ in range(n)]
    perm = _relabeling(n, seed)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    start = [0] * n
    for i, v in enumerate(perm):
        start[v] = labels_at[i]
    (d / "graph.edges").write_text(_edge_list_text(n, edges))
    (d / "start.colors").write_text("".join(f"{v} {c}\n" for v, c in enumerate(start)))
    norm = _normalized(edges)
    return Inputs(["graph.edges", "--coloring", "start.colors", "--trace", TRACE_FILE],
                  "graph.edges", n, norm, start=start, input_n=n, input_edges=norm)


MAKERS = {
    "path": make_path,
    "sparse_gnp": make_sparse_gnp,
    "torus_expanded": make_torus_expanded,
    "cycle_start": make_cycle_start,
}


# ---------------------------------------------------------------- children


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    out: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """The small helper process (bench/spawner.py) that starts every child,
    so that each child's ru_maxrss is its own (see that file)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_child_env(), text=True,
        )

    def run(self, argv: list[str], cwd: Path) -> Child:
        request = {"argv": argv, "cwd": str(cwd)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner process ended early")
        reply = json.loads(line)
        return Child(reply["seconds"], reply["maxrss_kb"] / 1024.0, reply["code"], reply["out"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


_spawner: Spawner | None = None


def _spawn(argv: list[str], cwd: Path) -> Child:
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
    return _spawner.run(argv, cwd)


def run_cli(args: list[str], cwd: Path) -> Child:
    """Run one `colorref` process to completion; time it and read its peak RSS."""
    return _spawn([sys.executable, "-m", "colorref", *args], cwd)


def run_reference(cwd: Path) -> float:
    """Time one run of bench/reference.py, the host-speed yardstick."""
    child = _spawn([sys.executable, str(Path(__file__).with_name("reference.py"))], cwd)
    if child.code != 0:
        raise BenchError(f"bench/reference.py exited {child.code}")
    return child.seconds


def balanced(ops: dict, enough) -> dict[str, list[float]]:
    """Run the op that has had the least time so far until ``enough(samples)``.

    Each op returns its own duration; interleaving them keeps their samples
    spread over the same stretch of time, so host-speed drift hits all alike.
    """
    samples: dict[str, list[float]] = {name: [] for name in ops}
    spent = dict.fromkeys(ops, 0.0)
    while not enough(samples):
        name = min(spent, key=spent.get)
        seconds = ops[name]()
        spent[name] += seconds
        samples[name].append(seconds)
    return samples


def stop_spawner() -> None:
    global _spawner
    if _spawner is not None:
        _spawner.close()
        _spawner = None


# ---------------------------------------------------------------- checks


def canonical(colors) -> tuple[int, ...]:
    """Relabel by first occurrence: equal results mean equal partitions."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, len(first)) for c in colors)


def classes_of(colors) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda g: g[0]))


@dataclass
class ParsedTrace:
    n: int
    m: int
    initial: list[int]
    palette_sizes: list[int]
    colorings: list[list[int]]
    converged_at: str
    classes: list[tuple[int, ...]]
    edge_colors: list[tuple[int, int, int]]


def parse_trace_text(text: str) -> ParsedTrace:
    """The trace format, read independently of colorref's own parser."""
    rec = ParsedTrace(-1, -1, [], [], [], "", [], [])
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, *vals = line.split()
        if key == "n":
            rec.n = int(vals[0])
        elif key == "m":
            rec.m = int(vals[0])
        elif key == "initial":
            rec.initial = [int(x) for x in vals]
        elif key == "palette_sizes":
            rec.palette_sizes = [int(x) for x in vals]
        elif key == "coloring":
            rec.colorings.append([int(x) for x in vals])
        elif key == "converged_at":
            rec.converged_at = vals[0]
        elif key == "class":
            rec.classes.append(tuple(int(x) for x in vals))
        elif key == "edge_color":
            rec.edge_colors.append(tuple(int(x) for x in vals))
        else:
            raise ValueError(f"unknown trace record {key!r}")
    return rec


def check_trace(text: str, inp: Inputs, expected: tuple) -> tuple[str | None, str]:
    """Check one trace against the workload; return (error or None, summary line).

    ``expected`` is the oracle's final partition. The expected summary line
    is built from the generator's n and m, the oracle's class count and the
    first step at which two consecutive colorings have equal partitions.
    """
    try:
        tr = parse_trace_text(text)
    except (ValueError, IndexError) as exc:
        return f"unparseable trace: {exc}", ""
    if (tr.n, tr.m) != (inp.n, inp.m):
        return f"trace has n={tr.n} m={tr.m}, expected n={inp.n} m={inp.m}", ""
    start = [0] * inp.n if inp.start is None else inp.start
    if not tr.colorings or canonical(tr.initial) != canonical(start) \
            or tr.colorings[0] != tr.initial:
        return "initial coloring does not match the start", ""
    if any(len(c) != inp.n for c in tr.colorings):
        return "a coloring does not cover every vertex", ""
    if tr.palette_sizes != [len(set(c)) for c in tr.colorings]:
        return "palette_sizes disagree with the colorings", ""
    canons = [canonical(c) for c in tr.colorings]
    stop = next((t for t in range(1, len(canons)) if canons[t - 1] == canons[t]), None)
    if stop is None or stop != len(canons) - 1 or tr.converged_at != str(stop):
        return f"converged_at {tr.converged_at} is not the first repeat ({stop})", ""
    final = tr.colorings[-1]
    if tuple(tr.classes) != classes_of(final):
        return "class records are not the final partition", ""
    if tuple(tr.classes) != expected:
        return "final partition differs from naive_refine", ""
    want_edges = [(u, v, final[inp.input_n + i]) for i, (u, v) in enumerate(inp.virtual)]
    if tr.edge_colors != want_edges:
        return "edge_color records do not match the virtual vertices", ""
    summary = f"n={inp.n} m={inp.m} K_final={len(expected)} converged_at={stop}\n"
    return None, summary


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")


# ---------------------------------------------------------------- one instance


@dataclass
class Instance:
    """A generated workload in its own directory, with its reference outputs."""

    workload: str
    seed: int
    dir: Path
    inputs: Inputs
    expected: tuple
    setup_samples: list[float]
    setup_reference: list[float]
    trace_bytes: bytes = b""
    summary: str = ""


def build_instance(workload: str, seed: int, d: Path, reps: bool) -> Instance:
    """Generate the inputs; when ``reps``, do so repeatedly, interleaved with
    reference runs, for at least SETUP_MIN_S of building."""
    d.mkdir(parents=True)
    built: list[Inputs] = []

    def make() -> float:
        t0 = time.perf_counter()
        built.append(MAKERS[workload](seed, d))
        return time.perf_counter() - t0

    if reps:
        samples = balanced(
            {"setup": make, "reference": lambda: run_reference(d)},
            lambda got: min(map(len, got.values())) >= MIN_SAMPLES
            and sum(got["setup"]) >= SETUP_MIN_S,
        )
    else:
        samples = {"setup": [make()], "reference": []}
    inputs = built[-1]
    return Instance(workload, seed, d, inputs, oracle_partition(inputs),
                    samples["setup"], samples["reference"])


def oracle_partition(inp: Inputs) -> tuple:
    from colorref import coloring_from_labels, naive_refine, new_graph

    g = new_graph(inp.n, inp.edges)
    start = [0] * inp.n if inp.start is None else inp.start
    return naive_refine(g, coloring_from_labels(start))


def refine_once(inst: Instance, tally: Tally) -> Child:
    """One refine child. Its output must equal that of the first refine that
    passed the full check; until one has, each is checked in full."""
    trace_path = inst.dir / TRACE_FILE
    trace_path.unlink(missing_ok=True)
    child = run_cli(["refine", *inst.inputs.refine_args], inst.dir)
    data = trace_path.read_bytes() if trace_path.exists() else b""
    if child.code != 0 or not data:
        error = f"exit code {child.code}, trace of {len(data)} bytes"
    elif inst.trace_bytes:
        error = None if data == inst.trace_bytes else "trace differs from the checked run"
        if error is None and child.out != inst.summary:
            error = f"summary {child.out!r}, expected {inst.summary!r}"
    else:
        error, summary = check_trace(data.decode(errors="replace"), inst.inputs, inst.expected)
        if error is None and child.out != summary:
            error = f"summary {child.out!r}, expected {summary!r}"
        if error is None:
            inst.trace_bytes, inst.summary = data, summary
            write_final_coloring(inst, parse_trace_text(data.decode()).colorings[-1])
    tally.record(f"refine {inst.workload}", error)
    return child


def write_final_coloring(inst: Instance, colors) -> None:
    (inst.dir / FINAL_COLORS).write_text("".join(f"{v} {c}\n" for v, c in enumerate(colors)))


def verify_once(inst: Instance, tally: Tally) -> Child:
    child = run_cli(["verify", inst.inputs.verify_graph, FINAL_COLORS], inst.dir)
    error = None
    if child.code != 0 or child.out != "equitable\n":
        error = f"exit code {child.code}, output {child.out!r}"
    tally.record(f"verify {inst.workload}", error)
    return child


def check_golden(inst: Instance, tally: Tally) -> None:
    """Hold the default-seed trace to the digest recorded in GOLDEN_TRACE_SHA256."""
    if inst.seed == DEFAULT_SEED:
        golden = inst
    else:
        golden = build_instance(inst.workload, DEFAULT_SEED, inst.dir / "golden", False)
        refine_once(golden, tally)
    digest = hashlib.sha256(golden.trace_bytes).hexdigest()
    want = GOLDEN_TRACE_SHA256[inst.workload]
    error = None if digest == want else f"trace sha256 {digest}, recorded {want}"
    tally.record(f"golden trace {inst.workload}", error)


def prepare(workload: str, seed: int, work: Path, tally: Tally) -> Instance:
    """Build the instance, run and check one untimed refine and verify."""
    inst = build_instance(workload, seed, work / "main", True)
    refine_once(inst, tally)
    if not inst.trace_bytes:
        # No refine output to verify: verify the oracle's partition instead,
        # so the verify operations still run and are counted.
        colors = [0] * inst.inputs.n
        for k, cls in enumerate(inst.expected):
            for v in cls:
                colors[v] = k
        write_final_coloring(inst, colors)
    verify_once(inst, tally)
    check_golden(inst, tally)
    return inst


# ---------------------------------------------------------------- end to end


def measure_end_to_end(inst: Instance, seconds: float,
                       tally: Tally) -> tuple[dict[str, float], list[str]]:
    """Interleave refine, verify and reference children for ``seconds``, each
    getting a third of the time. Returns the metrics and how each was made.

    A time metric is the op's median wall time scaled to nominal host speed:
    median(op) * REFERENCE_NOMINAL_S / median(reference runs of the same
    stretch of time). Peak RSS is not scaled.
    """
    rss: dict[str, list[float]] = {"refine": [], "verify": []}

    def op(name: str, once):
        def timed() -> float:
            child = once(inst, tally)
            rss[name].append(child.rss_mb)
            return child.seconds
        return timed

    began = time.perf_counter()
    samples = balanced(
        {"refine": op("refine", refine_once), "verify": op("verify", verify_once),
         "reference": lambda: run_reference(inst.dir)},
        lambda got: time.perf_counter() - began >= seconds
        and min(map(len, got.values())) >= MIN_SAMPLES,
    )
    values: dict[str, float] = {}
    notes: list[str] = []
    for name, raw, ref in (
        ("setup_s", inst.setup_samples, inst.setup_reference),
        ("refine_s", samples["refine"], samples["reference"]),
        ("verify_s", samples["verify"], samples["reference"]),
    ):
        factor = REFERENCE_NOMINAL_S / statistics.median(ref)
        values[name] = statistics.median(raw) * factor
        notes.append(f"{name}: median of {len(raw)}, raw {statistics.median(raw):.6g} s"
                     f" x host factor {factor:.4g} ({len(ref)} reference runs)")
    for name, got in rss.items():
        values[f"{name}_peak_rss_mb"] = statistics.median(got)
        notes.append(f"{name}_peak_rss_mb: median of {len(got)}")
    return values, notes


# ---------------------------------------------------------------- traced run


class Tracer:
    """In-memory spans: (name, start, end, parent index, run id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.run = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.run))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time over all runs."""
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return table

    def dump(self, path: Path, env: dict) -> None:
        own = self.self_times()
        rows = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent,
             "run": run, "self": own[i]}
            for i, (name, start, end, parent, run) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"env": env, "layers": self.layer_table(), "spans": rows}
        path.write_text(json.dumps(doc) + "\n")


# Names that `colorref.cli` imported from the library, with the layer span
# each call is recorded under while an in-process `main` runs.
CLI_CALLS = {
    "parse_edge_list": "formats.parse_edge_list",
    "parse_dimacs": "formats.parse_dimacs",
    "parse_coloring": "formats.parse_coloring",
    "expand_edges": "graph.expand_edges",
    "refine_to_fixpoint": "refine.fixpoint",
    "trace_document": "formats.trace_document",
    "emit_trace_document": "formats.emit_trace_document",
    "find_inequitable_pair": "refine.find_inequitable_pair",
}


@contextlib.contextmanager
def traced_cli(tracer: Tracer, cwd: Path):
    """Record every library call `colorref.cli` makes; run it from ``cwd``."""
    from colorref import cli

    saved = {attr: getattr(cli, attr) for attr in CLI_CALLS}
    for attr, name in CLI_CALLS.items():
        setattr(cli, attr, tracer.wrap(name, saved[attr]))
    back = os.getcwd()
    os.chdir(cwd)
    try:
        yield cli
    finally:
        os.chdir(back)
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def computed_counts(inst: Instance) -> dict[str, float]:
    """Exact work counts derived from the checked trace (computed, not measured)."""
    tr = parse_trace_text(inst.trace_bytes.decode())
    n, m = tr.n, tr.m
    steps = len(tr.colorings) - 1
    cells = sum(n * k for k in tr.palette_sizes[:-1])
    arcs = steps * 2 * m
    full_scans = 0
    for t in range(1, len(tr.colorings)):
        if tr.palette_sizes[t - 1] == tr.palette_sizes[t]:
            full_scans += _scan_length(tr.colorings[t - 1], tr.colorings[t]) == n
    return {
        "refine.steps": steps,
        "refine.portrait_cells": cells,
        "refine.arcs_scanned": arcs,
        "refine.portrait_fill": arcs / cells if cells else 0.0,
        "coloring.isomorphic_full_scans": full_scans,
        "formats.trace_bytes": len(inst.trace_bytes),
    }


def _scan_length(c1, c2) -> int:
    """Vertices colorings_isomorphic visits before it answers (palettes equal)."""
    forward: dict[int, int] = {}
    hit: set[int] = set()
    for i, (a, b) in enumerate(zip(c1, c2)):
        if a not in forward:
            if b in hit:
                return i + 1
            forward[a] = b
            hit.add(b)
        elif forward[a] != b:
            return i + 1
    return len(c1)


def measure_layers(inst: Instance, seconds: float, tally: Tally,
                   tracer: Tracer) -> dict[str, list[float]]:
    """Run refine and verify in process, then the layer calls the CLI skips, for ``seconds``."""
    import colorref as cr

    inp = inst.inputs
    g_in = cr.new_graph(inp.input_n, inp.input_edges)
    target = cr.new_graph(inp.n, inp.edges)
    start = cr.zero_coloring(target) if inp.start is None else cr.coloring_from_labels(inp.start)
    trace = cr.refine_to_fixpoint(target, start)
    in_edges = g_in.edges()
    # Time the parser of the format this workload does not use on its graph.
    if inp.refine_args[0].endswith(".dimacs"):
        other_parse = ("formats.parse_edge_list", cr.parse_edge_list,
                       _edge_list_text(g_in.vertex_count, in_edges))
    else:
        other_parse = ("formats.parse_dimacs", cr.parse_dimacs,
                       _dimacs_text(g_in.vertex_count, in_edges))
    expands = "--expand-edges" in inp.refine_args
    gnp = inst.workload == "sparse_gnp"
    rg_args = (GNP_N, GNP_P, inst.seed) if gnp else (PROBE_N, PROBE_P, inst.seed)
    verify_argv = ["verify", inp.verify_graph, FINAL_COLORS]

    samples: dict[str, list[float]] = {}
    began = time.perf_counter()
    run = 0
    while time.perf_counter() - began < seconds or run < MIN_SAMPLES:
        tracer.run = run
        first = len(tracer.spans)
        refine_out, verify_out = io.StringIO(), io.StringIO()
        trace_path = inst.dir / TRACE_FILE
        trace_path.unlink(missing_ok=True)
        with traced_cli(tracer, inst.dir) as cli:
            with contextlib.redirect_stdout(refine_out), tracer.span("cli.refine_main"):
                code = cli.main(["refine", *inp.refine_args])
            data = trace_path.read_bytes() if trace_path.exists() else b""
            with contextlib.redirect_stdout(verify_out), tracer.span("cli.verify_main"):
                vcode = cli.main(verify_argv)
        ok = code == 0 and refine_out.getvalue() == inst.summary and data == inst.trace_bytes
        tally.record(f"in-process refine {inst.workload}",
                     None if ok else "output differs from the checked CLI run")
        ok = vcode == 0 and verify_out.getvalue() == "equitable\n"
        tally.record(f"in-process verify {inst.workload}",
                     None if ok else f"verify said {verify_out.getvalue()!r}")

        tracer.call("graph.new_graph", cr.new_graph, g_in.vertex_count, in_edges)
        tracer.call("graph.validate", cr.Graph, g_in.vertex_count, g_in.adjacency)
        if not expands:
            tracer.call("graph.expand_edges", cr.expand_edges, g_in)
        tracer.call(*other_parse)
        tracer.call("graph.random_graph", cr.random_graph, *rg_args)
        for t in range(1, len(trace.colorings)):
            tracer.call("refine.step", cr.refine_step, target, trace.colorings[t - 1])
        for c in trace.colorings:
            tracer.call("coloring.construct", cr.Coloring, c.colors, c.palette_size)
        for t in range(1, len(trace.colorings)):
            tracer.call("coloring.isomorphic", cr.colorings_isomorphic,
                        trace.colorings[t - 1], trace.colorings[t])
        tracer.call("coloring.partition_of", cr.partition_of, trace.final)
        tracer.call("oracle.naive_refine", cr.naive_refine, target, start)

        totals: dict[str, float] = {}
        in_main = 0.0
        for name, begin, end, parent, _ in tracer.spans[first:]:
            totals[name] = totals.get(name, 0.0) + (end - begin)
            if parent is not None and tracer.spans[parent][0] == "cli.refine_main":
                in_main += end - begin
        totals["cli.self"] = totals["cli.refine_main"] - in_main
        for name, value in totals.items():
            samples.setdefault(name + "_s", []).append(value)
        run += 1
    return samples


# ---------------------------------------------------------------- driver


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform()}


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def load_colorref() -> None:
    """Import colorref from this checkout's sources and nowhere else."""
    if not (SRC / "colorref" / "cli.py").is_file():
        raise BenchError(f"no colorref sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import colorref

    if Path(colorref.__file__).resolve().parent != (SRC / "colorref").resolve():
        raise BenchError(f"imported colorref from {colorref.__file__}, not {SRC}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_units, layer_units = declared_metrics()
    tally = Tally()
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inst = prepare(workload, seed, work, tally)
        if trace:
            tracer = Tracer()
            samples = measure_layers(inst, seconds, tally, tracer)
            tracer.dump(OUT_ROOT / f"spans-{workload}-seed{seed}.json", environment())
            table = tracer.layer_table()
            for name, row in sorted(table.items()):
                print(f"# {workload} span {name}: calls={row['calls']}"
                      f" total={row['total_s']:.6g} s self={row['self_s']:.6g} s")
            main_row = table["cli.refine_main"]
            print(f"# {workload} cli.refine_main {main_row['total_s']:.6g} s ="
                  f" library spans {main_row['total_s'] - main_row['self_s']:.6g} s"
                  f" + cli.self {main_row['self_s']:.6g} s, over {main_row['calls']} runs")
            counts = computed_counts(inst)
            values = {name: statistics.median(v) for name, v in samples.items()}
            values.update(counts)
            notes = [f"{name}: median of {len(v)}" for name, v in sorted(samples.items())]
            notes += [f"{name}: computed" for name in sorted(counts)]
            units = layer_units
        else:
            values, notes = measure_end_to_end(inst, seconds, tally)
            units = e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)} but BENCHMARK.json names {sorted(units)}")
    for name in sorted(units):
        print(f"# {workload} {name} = {values[name]:.6g} {units[name]}")
    for note in notes:
        print(f"# {workload}   {note}")
    print(f"# {workload} failed_ops_frac = {tally.failed / tally.attempted:.6g} ratio"
          f" ({tally.failed} of {tally.attempted} operations)")
    for error in tally.errors:
        print(f"# FAILED {error}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_colorref()
        declared_metrics()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_spawner()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
