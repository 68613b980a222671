"""Small process that starts the benchmark's jobs and reports their cost.

Linux carries a process's peak resident size across exec, and a child
started with vfork inherits its parent's peak. Jobs started from
run.py would all report at least run.py's own peak, so run.py
starts this interpreter once (with -S, before it holds any data) and
asks it to fork each job. Then wait4 reports the job's own peak.

Before each job the launcher times calibrate(), a fixed piece of pure
Python work, and run.py asks for one more calibration after the last
job of a pass. run.py scales each job's time by the calibrations on
either side of it, to factor out drift in the speed of the machine (see
run.py).

Protocol: one JSON request per line on stdin, either
    {"argv": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path, "timeout": s}
answered by
    {"rc": exit code (negative signal number if killed), "wall": s, "cpu": s,
     "maxrss_kb": n, "calib": s}
or {"calibrate": true}, answered by {"calib": s}. One reply per line on stdout.
The child's environment gets PERFBENCH_LAUNCH, the perf_counter value at
launch, for the traced start-up time.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction


def calibrate():
    """Time a fixed mix of the work freedf does: tuple-keyed dicts, big integers, Fractions."""
    t0 = time.perf_counter()
    d = {}
    for i in range(400000):
        key = (i % 7, i % 11, i % 13)
        d[key] = d.get(key, 0) + 1
    x = 3 ** 3000
    for i in range(4000):
        x = (x * 1234567 + i) // 7
    f = Fraction(0)
    for i in range(1, 20000):
        f += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def _run(req):
    calib = calibrate()
    env = dict(req["env"])
    launch = time.perf_counter()
    env["PERFBENCH_LAUNCH"] = repr(launch)
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execve(req["argv"][0], req["argv"], env)
        finally:
            os._exit(127)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - launch
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "calib": calib,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = {"calib": calibrate()} if req.get("calibrate") else _run(req)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
