"""Run the cli workload's commands from a small process.

Linux carries a parent's resident set at fork into the child's ru_maxrss, so
commands forked straight from the benchmark worker would report at least the
worker's memory.  This process stays small.  It reads one JSON request per
line, {"cmd", "cwd", "env", "timeout"}, runs the command and answers with one
JSON line, {"code", "stdout", "maxrss_kb"}; code is null after a timeout.
"""

import json
import os
import subprocess
import sys
import threading


def main():
    for line in sys.stdin:
        req = json.loads(line)
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        timed_out = not timer.is_alive()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        print(json.dumps({"code": None if timed_out else proc.returncode,
                          "stdout": out.decode(errors="replace"),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
