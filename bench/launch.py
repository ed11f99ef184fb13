"""Start CLI commands from a small process; report each one's wall time and peak RSS.

A child started straight from the benchmark process would be charged that
process's own peak RSS: on exec the kernel folds the old address space's
high-water mark into the child's ``ru_maxrss``.  Started from this small
process, each child's ``ru_maxrss`` is its own.

Protocol: one JSON request per stdin line, ``{"argv": [...], "cwd": ..., "env": {...}}``;
one JSON reply per stdout line, ``{"returncode", "seconds", "peak_rss_mb", "stderr"}``.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


class Launcher:
    """The benchmark's side: starts this file as a process and sends it commands.

    Create it while the benchmark process is still small (before NumPy loads).
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: str, env: dict) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "env": env}) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


if __name__ == "__main__":
    for line in sys.stdin:
        request = json.loads(line)
        t0 = time.perf_counter()
        child = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                 stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = child.stderr.read()
        child.stderr.close()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "returncode": child.returncode,
            "seconds": seconds,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": stderr.decode(errors="replace")[-2000:],
        }), flush=True)
