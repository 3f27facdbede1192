#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Checks that clean runs report every declared metric with no failures, that
a corrupted trace, a corrupted final coloring and a changed trace digest are
each counted as failed operations, that the traced run's spans account for
`cli.refine_main_s`, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TOY = {"PATH_N": 12, "GNP_N": 60, "GNP_P": 0.08, "TORUS_A": 4, "CYCLE_N": 30,
       "PROBE_N": 20, "SETUP_MIN_S": 0.0}
SECONDS = 0.05


def setUpModule():
    bench.load_colorref()
    for name, value in TOY.items():
        setattr(bench, name, value)
    # Digests of the toy traces, so the golden check passes on clean runs.
    work = bench.WORK_ROOT / "selftest-golden"
    shutil.rmtree(work, ignore_errors=True)
    golden = {}
    try:
        for w in bench.WORKLOADS:
            inst = bench.build_instance(w, bench.DEFAULT_SEED, work / w, False)
            bench.refine_once(inst, bench.Tally())
            golden[w] = hashlib.sha256(inst.trace_bytes).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.GOLDEN_TRACE_SHA256 = golden


def tearDownModule():
    bench.stop_spawner()
    with contextlib.suppress(OSError):
        bench.WORK_ROOT.rmdir()


def inequitable(edges, colors) -> bool:
    n = len(colors)
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {}
    for v in range(n):
        sig = sorted(colors[u] for u in nbrs[v])
        if seen.setdefault(colors[v], sig) != sig:
            return True
    return False


class Corrupting:
    """Stand-in for run_cli that damages a chosen output or input file."""

    def __init__(self, command: str, from_call: int):
        self.command, self.from_call, self.calls = command, from_call, 0
        self.real = bench.run_cli

    def __enter__(self):
        bench.run_cli = self
        return self

    def __exit__(self, *exc):
        bench.run_cli = self.real

    def __call__(self, args, cwd):
        if args[0] != self.command:
            return self.real(args, cwd)
        self.calls += 1
        damage = self.calls >= self.from_call
        if damage and self.command == "verify":
            self.merge_two_classes(cwd / bench.FINAL_COLORS, cwd / args[1])
        child = self.real(args, cwd)
        if damage and self.command == "refine":
            self.flip_final_color(cwd / bench.TRACE_FILE)
        return child

    @staticmethod
    def flip_final_color(path: Path) -> None:
        lines = path.read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("coloring "))
        tokens = lines[last].split()
        tokens[1] = tokens[2] if tokens[1] != tokens[2] else str(int(tokens[1]) + 1)
        lines[last] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def merge_two_classes(path: Path, graph: Path) -> None:
        colors = [int(line.split()[1]) for line in path.read_text().splitlines()]
        edges = []
        for line in graph.read_text().splitlines():
            parts = line.split()
            if parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
            elif parts[0] not in ("n", "p", "#", "c"):
                edges.append((int(parts[0]), int(parts[1])))
        for v in range(1, len(colors)):
            bad = list(colors)
            bad[v] = colors[0]
            if colors[v] != colors[0] and inequitable(edges, bad):
                path.write_text("".join(f"{u} {c}\n" for u, c in enumerate(bad)))
                return
        raise AssertionError("no merge of two classes breaks equitability")


class BenchSelfTest(unittest.TestCase):
    def run_quietly(self, workload, seed=1, trace=False):
        with open(bench.os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                return bench.run_workload(workload, seed, SECONDS, trace)
            finally:
                sys.stdout = stdout

    def test_clean_runs_report_every_metric(self):
        e2e, layers = bench.declared_metrics()
        for w in bench.WORKLOADS:
            for trace, names in ((False, e2e), (True, layers)):
                with self.subTest(workload=w, trace=trace):
                    result = self.run_quietly(w, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(names))

    def test_corrupted_trace_is_counted(self):
        for first in (1, 2):
            with self.subTest(corrupted_from_call=first), Corrupting("refine", first) as bad:
                result = self.run_quietly("path")
                self.assertGreater(bad.calls, first)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], bad.calls - first + 1)

    def test_corrupted_coloring_is_counted(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w), Corrupting("verify", 1) as bad:
                result = self.run_quietly(w)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], bad.calls)

    def test_changed_trace_digest_is_counted(self):
        saved = dict(bench.GOLDEN_TRACE_SHA256)
        bench.GOLDEN_TRACE_SHA256["cycle_start"] = "0" * 64
        try:
            for seed in (bench.DEFAULT_SEED, 7):
                with self.subTest(seed=seed):
                    result = self.run_quietly("cycle_start", seed=seed)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], 1)
        finally:
            bench.GOLDEN_TRACE_SHA256 = saved

    def test_spans_account_for_refine_main(self):
        self.run_quietly("torus_expanded", seed=3, trace=True)
        doc = json.loads((bench.OUT_ROOT / "spans-torus_expanded-seed3.json").read_text())
        self.assertEqual(set(doc["env"]), {"nproc", "python", "platform"})
        spans = doc["spans"]
        mains = [s for s in spans if s["name"] == "cli.refine_main"]
        self.assertGreaterEqual(len(mains), bench.MIN_SAMPLES)
        for main in mains:
            inside = sum(s["end"] - s["start"] for s in spans if s["parent"] == main["id"])
            self.assertAlmostEqual(inside + main["self"], main["end"] - main["start"], places=9)
            self.assertGreater(main["self"], 0.0)

    def test_refuses_to_run_without_sources(self):
        bare = bench.WORK_ROOT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(bench.ROOT / "bench", bare / "bench")
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "path", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
