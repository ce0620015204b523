"""Small launcher that runs the benchmark's child processes.

Linux carries the launching process's resident-set high-water mark into a
child's ru_maxrss across exec, so children are started from this process,
which run.py starts before it loads any input or output and which
never buffers a child's output: it hashes and counts stdout as it streams
(copying it to a file when asked), so a child's reading is its own.

Protocol: one JSON request per line on stdin,
  {"argv": [...], "env": {...}, "out": path or null, "timeout": seconds},
and one JSON reply per line on stdout with the child's exit code, wall
time from spawn to exit with stdout drained, time to its first stdout
byte, ru_maxrss, user and system CPU time, stdout sha256 and byte count,
and the start of its stderr.
"""

import hashlib
import json
import os
import selectors
import signal
import sys
import time

CHUNK = 1 << 16
STDERR_KEEP = 4096


def run(req: dict) -> dict:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    null = os.open(os.devnull, os.O_RDONLY)
    sink = open(req["out"], "wb") if req.get("out") else None
    digest = hashlib.sha256()
    nbytes = 0
    err = bytearray()
    first = None
    timed_out = False
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(
            req["argv"][0],
            req["argv"],
            req["env"],
            file_actions=[
                (os.POSIX_SPAWN_DUP2, null, 0),
                (os.POSIX_SPAWN_DUP2, out_w, 1),
                (os.POSIX_SPAWN_DUP2, err_w, 2),
            ],
        )
    finally:
        for fd in (out_w, err_w, null):
            os.close(fd)
    try:
        deadline = t0 + req["timeout"]
        sel = selectors.DefaultSelector()
        sel.register(out_r, selectors.EVENT_READ)
        sel.register(err_r, selectors.EVENT_READ)
        open_fds = 2
        while open_fds:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
            for key, _ in sel.select(timeout=max(remaining, 0.05) if not timed_out else None):
                data = os.read(key.fd, CHUNK)
                if not data:
                    sel.unregister(key.fd)
                    open_fds -= 1
                elif key.fd == out_r:
                    if first is None:
                        first = time.perf_counter() - t0
                    digest.update(data)
                    nbytes += len(data)
                    if sink is not None:
                        sink.write(data)
                elif len(err) < STDERR_KEEP:
                    err += data
        sel.close()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        for fd in (out_r, err_r):
            os.close(fd)
        if sink is not None:
            sink.close()
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "first_byte_s": first,
        "maxrss_kb": usage.ru_maxrss,
        "utime_s": usage.ru_utime,
        "stime_s": usage.ru_stime,
        "sha256": digest.hexdigest(),
        "out_bytes": nbytes,
        "stderr": err[:STDERR_KEEP].decode("utf-8", "replace"),
        "timed_out": timed_out,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
