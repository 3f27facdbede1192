"""Start and time child processes on behalf of bench/run.py.

A child's ``ru_maxrss`` starts at the resident size of the process that
forked it, so children forked by the benchmark itself, which holds the
inputs and the oracle's graphs, would report at least the benchmark's size.
This process stays small, so each child's peak is its own.

Protocol: one JSON request per stdin line, ``{"argv": [...], "cwd": "..."}``;
one JSON reply per stdout line, ``{"seconds", "maxrss_kb", "code", "out"}``.
It exits at end of input.
"""

import json
import os
import resource
import subprocess
import sys
import time

# Guard against a hung child: the kernel stops any child after this much
# CPU time (children inherit the limit; this process itself uses little).
CHILD_CPU_LIMIT_S = 150


def main() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=subprocess.PIPE)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                 "code": proc.returncode, "out": out.decode(errors="replace")}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
