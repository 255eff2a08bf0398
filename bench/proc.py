"""Run one CLI invocation in a fresh, guarded child process.

Each call spawns `python3 -m kernelalg.cli ...`, drains its stdout and stderr
until exit, and reaps it with `os.wait4` so the peak RSS read is that child's
own.  (`RUSAGE_CHILDREN` keeps the maximum over every child ever reaped, so a
large earlier op would leak into later readings.)  Guards act on the child
only: an address-space ceiling set with `setrlimit` before exec, and a
wall-clock timeout after which the child is killed.  No threads or pools.
"""

from __future__ import annotations

import os
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

MEMORY_CEILING_BYTES = 3 << 30
CALL_TIMEOUT_S = 20.0


@dataclass
class Run:
    exit_code: int | None  # None when the timeout killed the child
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def timed_out(self) -> bool:
        return self.exit_code is None


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES))


def run_cli(args: list, src_dir: str) -> Run:
    """Spawn the CLI with `args`, wait for it and return what it did."""
    argv = [sys.executable, "-m", "kernelalg.cli", *args]
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0")
    start = time.perf_counter()
    child = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=limit_address_space,
    )
    chunks = {child.stdout: [], child.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + CALL_TIMEOUT_S - time.perf_counter()
            events = sel.select(timeout=max(left, 0.0))
            if not events and left <= 0:
                timed_out = True
                child.send_signal(signal.SIGKILL)
                break
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    child.stderr.close()
    return Run(
        exit_code=None if timed_out else child.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=b"".join(chunks[child.stdout]),
        stderr=b"".join(chunks[child.stderr]),
    )
