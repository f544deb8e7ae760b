"""Run one case in a child forked from the warmed parent.

The parent has imported taures and nothing else has run, so every case
starts from the same state, as a fresh CLI process would, without paying
for the interpreter again.  The child calls `taures.cli.main(argv)` with
stdout captured, times it, and sends the result back over a pipe.  The
parent waits at most the case budget, then kills the child and records a
timeout.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass

import taures.cli
from tracer import Tracer

OK, EXIT, ERROR, TIMEOUT, CRASH = "ok", "exit", "error", "timeout", "crash"


@dataclass
class Outcome:
    status: str           # ok | exit | error | timeout | crash
    seconds: float        # cli.main wall time; the budget on timeout
    rc: int = None
    stdout: str = ""
    detail: str = ""      # stderr or traceback tail
    rss_mb: float = 0.0   # child peak RSS
    trace: dict = None    # Tracer snapshot and spans


def _child(argv, traced, wfd):
    tracer = None
    if traced:
        tracer = Tracer().install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = taures.cli.main(argv)
        status, detail = (OK if rc == 0 else EXIT), err.getvalue()
    except (Exception, SystemExit):  # argparse exits on bad arguments
        rc, status, detail = None, ERROR, traceback.format_exc()
    seconds = time.perf_counter() - start
    payload = {"status": status, "seconds": seconds, "rc": rc,
               "stdout": out.getvalue(), "detail": detail[-2000:],
               "rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        payload["trace"] = {"metrics": tracer.snapshot(),
                            "spans": tracer.spans}
    data = json.dumps(payload).encode()
    view = memoryview(data)
    while view:
        view = view[os.write(wfd, view):]


def run_case(argv, budget_s, traced=False):
    """Run `taures <argv>` in a forked child; never raises for the case."""
    sys.stdout.flush()
    sys.stderr.flush()
    # the child's cyclic GC must not scan what the parent has accumulated,
    # or a case's cost would depend on how far the run has got
    gc.freeze()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(rfd)
            _child(argv, traced, wfd)
        except BaseException:  # the child must never return to the loop
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    start = time.perf_counter()
    deadline = start + budget_s
    chunks = []
    try:
        while True:
            remaining = deadline - time.perf_counter()
            ready = remaining > 0 and select.select([rfd], [], [],
                                                    remaining)[0]
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return Outcome(TIMEOUT, budget_s,
                               detail="killed after {} s".format(budget_s))
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
    _, wait_status = os.waitpid(pid, 0)
    if not chunks:
        return Outcome(CRASH, time.perf_counter() - start,
                       detail="child ended with wait status {}".format(
                           wait_status))
    return Outcome(**json.loads(b"".join(chunks)))
