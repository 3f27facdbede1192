"""Hostile CLI input: one table of rows, each run as a ``python -m colorref`` child.

Each child runs under an address-space limit, a CPU-time limit and a
timeout, set in the child alone. So an input that asks for more memory than
the host has fails there at once with MemoryError and exits 2, instead of
exhausting the host: never run the memory rows without the limit. No row
may print a traceback or die by a signal. A row that exits 2 prints one
stderr line, nothing on stdout, and leaves no file behind: no trace, no
temp file.
"""

import subprocess
import sys
from typing import NamedTuple

import pytest

from conftest import HUGE

resource = pytest.importorskip("resource")

MEMORY = 256 << 20  # bytes of address space for each child
CPU_SECONDS = 20  # of CPU time for each child; no row needs one
TIMEOUT = 60  # seconds of wall time for each child

DIGITS = "9" * 5000  # past int's 4 300-digit limit for str


class Row(NamedTuple):
    argv: list[str]  # the command's arguments, ``{tmp}`` the test's directory
    files: dict[str, str | bytes | None]  # name in {tmp}: text, bytes, or None for a directory
    code: int
    stderr: str  # formatted with ``tmp`` like argv
    prefix: bool = False  # stderr is only the start of what is printed
    stdout: str = ""


ROWS = {
    # A vertex count, declared or implied by an id, too large to hold:
    # the parse fails at the line that names it, or at a later bad line
    # read first, and the message names that line.
    "count-big.col": Row(["refine", "{tmp}/big.col", "--trace", "{tmp}/t"],
                         {"big.col": "p edge 999999999 0\nx\n"},
                         2, "error: {tmp}/big.col: line 2: ", prefix=True),
    "count-huge.col": Row(["refine", "{tmp}/huge.col", "--trace", "{tmp}/t"],
                          {"huge.col": f"p edge {HUGE} 1\ne 1 {HUGE}\nx\n"},
                          2, "error: {tmp}/huge.col: line 1: ", prefix=True),
    "count-huge.edges": Row(["refine", "{tmp}/huge.edges", "--trace", "{tmp}/t"],
                            {"huge.edges": f"0 {HUGE}\n"},
                            2, "error: {tmp}/huge.edges: line 1: ", prefix=True),
    "count-huge-then-bad.edges": Row(
        ["refine", "{tmp}/huge-then-bad.edges", "--trace", "{tmp}/t"],
        {"huge-then-bad.edges": f"0 {HUGE}\nx y z\n"},
        2, "error: {tmp}/huge-then-bad.edges: line 2: ", prefix=True),
    "count-header.edges": Row(["refine", "{tmp}/header.edges", "--trace", "{tmp}/t"],
                              {"header.edges": f"n {HUGE}\n0 1\n"},
                              2, "error: {tmp}/header.edges: line 1: ", prefix=True),
    # A count of sys.maxsize passes the parsers' checks; its first column
    # of sys.maxsize slots fails to allocate at once, and the file is named.
    "maxsize-max.edges": Row(["refine", "{tmp}/max.edges", "--trace", "{tmp}/t"],
                             {"max.edges": f"0 1\n0 {sys.maxsize - 1}\n"},
                             2, "error: {tmp}/max.edges: too large to hold in memory\n"),
    "maxsize-max.col": Row(["verify", "{tmp}/max.col", "{tmp}/one.colors"],
                           {"max.col": f"p edge {sys.maxsize} 0\n", "one.colors": "0 0\n"},
                           2, "error: {tmp}/max.col: too large to hold in memory\n"),
    # The README's 2-cycle pads its trace with one entry per step up to a
    # cap that no memory holds; the run, not a file, runs out.
    "memory-cycle.edges": Row(
        ["refine", "{tmp}/cycle.edges", "--coloring", "{tmp}/cycle.colors",
         "--max-iters", "100000000000"],
        {"cycle.edges": "0 2\n1 3\n", "cycle.colors": "0 0\n1 1\n2 0\n3 0\n"},
        2, "error: too large to hold in memory\n"),
    # A count near 10**9 asks for its degree slots and offsets, about 8 to
    # 12 GB, before an edge is placed; the message names the file.
    "memory-end.edges": Row(["refine", "{tmp}/end.edges"], {"end.edges": "0 999999999\n"},
                            2, "error: {tmp}/end.edges: too large to hold in memory\n"),
    "memory-header.edges": Row(["refine", "{tmp}/header.edges"],
                               {"header.edges": "n 999999999\n0 1\n"},
                               2, "error: {tmp}/header.edges: too large to hold in memory\n"),
    "memory-big.col": Row(["refine", "{tmp}/big.col"], {"big.col": "p edge 999999999 0\n"},
                          2, "error: {tmp}/big.col: too large to hold in memory\n"),
    # Bytes no id is made of: a UTF-8 byte order mark, a NUL, and more
    # digits than int() reads from a string.
    "bom": Row(["refine", "{tmp}/bom.edges"], {"bom.edges": "\ufeff0 1\n"},
               2, "error: {tmp}/bom.edges: line 1: vertex id '\\ufeff0' is not an integer\n"),
    "nul": Row(["refine", "{tmp}/nul.edges"], {"nul.edges": b"0 1\n1\x002\n"},
               2, "error: {tmp}/nul.edges: line 2: expected 'u v', got '1\\x002'\n"),
    "digits": Row(["refine", "{tmp}/digits.edges"], {"digits.edges": f"{DIGITS} 0\n"}, 2,
                  f"error: {{tmp}}/digits.edges: line 1: vertex id '{DIGITS}' is not an integer\n"),
    "directory": Row(["refine", "{tmp}/adir"], {"adir": None},
                     2, "error: [Errno 21] Is a directory: '{tmp}/adir'\n"),
    "gen-negative-n": Row(["gen", "-1", "0.5"], {}, 2, "error: n must be non-negative\n"),
    "gen-nan": Row(["gen", "10", "nan"], {}, 2, "error: edge_probability must be in [0, 1]\n"),
    # The declared edge count is checked only as an integer: m is counted.
    "declared-edges": Row(["refine", "{tmp}/declared.col", "--trace", "{tmp}/t"],
                          {"declared.col": "p edge 3 99999999999\ne 1 2\n"},
                          0, "", stdout="n=3 m=1 K_final=2 converged_at=2\n"),
}


def limit():
    # runs in the child, between fork and exec: the parent keeps its limits
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


@pytest.mark.parametrize("name", list(ROWS))
def test_hostile_input_exits_with_its_code_and_message(tmp_path, name):
    row = ROWS[name]
    for file, content in row.files.items():
        if content is None:
            (tmp_path / file).mkdir()
        else:
            text = isinstance(content, str)
            (tmp_path / file).write_bytes(content.encode() if text else content)
    argv = [arg.format(tmp=tmp_path) for arg in row.argv]
    proc = subprocess.run([sys.executable, "-m", "colorref", *argv], capture_output=True,
                          text=True, preexec_fn=limit, timeout=TIMEOUT)
    assert proc.returncode >= 0, f"killed by signal {-proc.returncode}"
    assert "Traceback" not in proc.stderr
    stderr = row.stderr.format(tmp=tmp_path)
    assert proc.stderr.startswith(stderr) if row.prefix else proc.stderr == stderr
    assert (proc.returncode, proc.stdout) == (row.code, row.stdout)
    if row.code == 2:
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(row.files)
