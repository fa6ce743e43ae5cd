"""Spawns the benchmark's jobs, one at a time, from a small process.

    python -I -S perfbench/launcher.py

A child's max-RSS, as ``wait4`` reports it, also counts the pages of the
process it was forked from, so a job forked by the harness never reads less
than the harness's own size.  This launcher imports next to nothing and
forks every job, so that floor is its own size, well below that of any
monolab process; it reports that size with each result.

Reads one JSON request a line on stdin: ``argv`` (``argv[0]`` a path),
``cwd``, ``env``, ``out`` and ``err`` (files for stdout and stderr) and
``timeout`` (whole seconds; the job is killed then).  Writes one JSON line
a job on stdout: ``wall`` (seconds from fork to reaping), ``cpu`` (user
plus system seconds), ``rss_kb`` (the job's max RSS), ``code`` (its exit
code) and ``floor_kb`` (the launcher's peak RSS).  Exits at end of input.
"""

import json
import os
import signal
import sys
import time


def _timeout(signum, frame):
    raise TimeoutError


def _peak_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _child(req):
    try:
        os.chdir(req["cwd"])
        fds = (os.open(os.devnull, os.O_RDONLY),
               os.open(req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               os.open(req["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
        for target, fd in enumerate(fds):
            os.dup2(fd, target)
        os.execve(req["argv"][0], req["argv"], req["env"])
    finally:
        os._exit(127)


def run(req):
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(req)
    signal.alarm(req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status), "floor_kb": _peak_kb()}


def main():
    signal.signal(signal.SIGALRM, _timeout)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
