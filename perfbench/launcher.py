"""Spawns the measured children and reports their wall time, exit code and peak RSS.

Run as ``python3 -S perfbench/launcher.py``; the children inherit its
environment.  It reads one JSON request per line on standard input,
``{"cmd": [...], "cwd": "...", "log": "path or null"}``, runs the command to
completion and answers with one JSON line
``{"wall": seconds, "code": exit code, "maxrss_kib": peak RSS}``.

It imports nothing beyond the standard library: at exec, Linux folds the
parent's resident set into the child's peak RSS, so the parent of a measured
child must stay smaller than any child.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"] or os.devnull, "a", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], stdout=out, stderr=out)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
