"""Stop every process a benchmark run started, and wait for each to end.

A run starts processes in several ways: the engines' worker pools, the
cluster's worker subprocesses, and ``multiprocessing``'s resource tracker,
which the first shared-memory segment starts and which otherwise outlives the
run by a moment (it exits only once it sees the run's end of its pipe close).

:func:`adopt` makes the run a child subreaper (Linux ``prctl``), so a process
whose parent ends first, such as a killed cluster worker's own children, is
handed to the run rather than to init and can be waited for.  :func:`stop_all`
ends every descendant: SIGTERM, then SIGKILL after a grace period, except the
run's own resource tracker, which ignores both and is stopped by closing its
pipe.  It then reaps every child until none is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

from common import descendants

PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0
DEADLINE_S = 30.0


def adopt() -> bool:
    """Become the reaper of orphaned descendants; False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def _stop_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        try:
            tracker._stop()
        except ChildProcessError:  # it ended and was reaped already
            tracker._pid = None


def _reap() -> None:
    """Collect every child that has ended, without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _others() -> list[int]:
    me, tracker = os.getpid(), _tracker_pid()
    return [pid for pid in descendants(me) if pid not in (me, tracker) and _alive(pid)]


def stop_all() -> list[int]:
    """End and wait for every descendant; returns the pids that had to be signalled."""
    signalled: list[int] = []
    deadline = time.monotonic() + DEADLINE_S
    for sig, wait_s in ((signal.SIGTERM, GRACE_S), (signal.SIGKILL, DEADLINE_S)):
        _reap()
        pids = _others()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        signalled.extend(p for p in pids if p not in signalled)
        until = min(time.monotonic() + wait_s, deadline)
        while _others() and time.monotonic() < until:
            _reap()
            time.sleep(0.05)
    _stop_tracker()
    while time.monotonic() < deadline:
        _reap()
        if len(descendants(os.getpid())) == 1:
            break
        time.sleep(0.05)
    return signalled
