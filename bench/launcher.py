"""Small process that starts the stage children and reports their rusage.

On Linux a child's ``ru_maxrss`` starts from the resident high-water mark of
the process that forked it, so children forked by the benchmark runner, which
holds parsed artifacts for its checks, would report the runner's memory as
their own. The runner therefore starts this launcher first, while it is still
small, and asks it to run each child.

Protocol: one JSON request per line on stdin, ``{"argv", "log", "env",
"timeout"}``; one JSON reply per line on stdout, ``{"wall_s", "cpu_s",
"rss_mb", "exit_code"}``. The launcher exits at end of input.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, env: dict, timeout: float) -> dict:
    """Run argv to completion; wall time, CPU and peak RSS come from os.wait4."""
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["env"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
