"""Helpers shared by the workloads: statistics, memory, environment, checks."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the agreement bound the service's own gates use: every served block must
#: equal the raw solver's block to this relative max-abs difference
AGREEMENT_RTOL = 1e-10

#: samples a percentile must leave above it before it is reported as a tail
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def tail(values) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(q, value)`` with ``q`` in percent, or ``(None, None)`` when the
    sample is too small to support any percentile above the median.
    """
    n = len(values)
    if n < 2 * TAIL_MIN_BEYOND:
        return None, None
    q = int(100 * (1 - TAIL_MIN_BEYOND / n))
    return float(q), percentile(values, q)


def summary(values) -> dict:
    """Median, supported tail percentile and sample count of a timing list."""
    q, value = tail(values)
    return {"n": len(values), "p50": median(values), "tail_pct": q, "tail": value}


def rel_diff(got: np.ndarray, want: np.ndarray) -> float:
    """Max absolute difference relative to the reference's largest entry."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: human-readable figures printed before the result line
    report: dict = field(default_factory=dict)
    #: raw latencies per request class, kept in the written report only
    samples: dict = field(default_factory=dict)
    _failed_ops: set = field(default_factory=set)

    def fail(self, op, message: str) -> None:
        """Record a failed check of operation ``op`` (an op fails at most once)."""
        self.failures.append(message)
        self._failed_ops.add(op)

    @property
    def failed(self) -> int:
        return len(self._failed_ops)


def repeated_setup(make, repeats: int, tracer, before=None, close=None):
    """Set up ``repeats`` times; returns the last result and every duration.

    ``before`` runs untimed ahead of each set-up (clearing caches, so each
    starts cold); ``close`` releases every result but the last.
    """
    seconds, result = [], None
    for repeat in range(repeats):
        if before is not None:
            before()
        start = time.monotonic()
        with tracer.span("setup"):
            result = make()
        seconds.append(time.monotonic() - start)
        if close is not None and repeat < repeats - 1:
            close(result)
    return result, seconds


# ------------------------------------------------------------------ memory
def descendants(root: int) -> list[int]:
    """``root`` and every process below it, from ``/proc``."""
    tree: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may contain spaces; the ppid follows its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry.name))
    found, todo = [], [root]
    while todo:
        pid = todo.pop()
        found.append(pid)
        todo.extend(tree.get(pid, ()))
    return found


def _status_kb(pid: int, field: str) -> int:
    path = "smaps_rollup" if field == "Pss:" else "status"
    try:
        for line in Path(f"/proc/{pid}/{path}").read_text().splitlines():
            if line.startswith(field):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _pss_mb(pids) -> float:
    return sum(_status_kb(pid, "Pss:") for pid in pids) / 1024.0


class MemoryPeak:
    """Peak memory of this process and its descendants over a measured window.

    The window opens at :meth:`start` and closes at :meth:`stop`; every
    workload closes it before its correctness checks, so the reference solves
    those make are not counted.  The figure is this process's exact
    high-water mark (``VmHWM``) or, with ``children``, the larger of that and
    the largest *simultaneous* sum of PSS over this process and all its
    descendants, sampled by a thread every ``interval_s``.  PSS splits each
    shared page among the processes mapping it, so pages a forked worker
    shares with its parent are counted once.  Reading PSS walks each
    process's page tables: with a warm in-process server and its four engine
    pools one sample cost about 25 ms of CPU on a 2-vCPU host, and sampling
    every 0.25 s raised the upper quartile of 8-column job latencies by about
    10%, so it samples once a second; the memory of a run plateaus once its
    set-up is done.  A workload that starts no processes passes
    ``children=False`` and nothing is sampled.
    """

    def __init__(self, children: bool, interval_s: float = 1.0) -> None:
        self.interval_s = interval_s
        self.sampled_peak_mb = 0.0
        self.peak_mb: float | None = None
        self._stop = threading.Event()
        self._thread = (
            threading.Thread(target=self._loop, name="perfbench-memory", daemon=True)
            if children
            else None
        )

    def _loop(self) -> None:
        while True:
            self.sampled_peak_mb = max(self.sampled_peak_mb, _pss_mb(descendants(os.getpid())))
            if self._stop.wait(self.interval_s):
                return

    def start(self) -> "MemoryPeak":
        if self._thread is not None:
            self._thread.start()
        return self

    def stop(self) -> None:
        """Close the window (later calls keep the first figure)."""
        if self.peak_mb is not None:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        own_hwm_mb = _status_kb(os.getpid(), "VmHWM:") / 1024.0
        self.peak_mb = max(own_hwm_mb, self.sampled_peak_mb)


# ------------------------------------------------------------- environment
def steal_s() -> float | None:
    """CPU time the hypervisor ran others on this machine's CPUs, all CPUs summed.

    Read from ``/proc/stat`` before and after a run, it shows whether a slow
    run lost its CPUs to other tenants; ``None`` where it is not reported.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    """CPU count, thread settings and library versions of this run."""
    import numpy
    import scipy

    threads = {
        name: os.environ.get(name)
        for name in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        for key, info in config.get("Build Dependencies", {}).items():
            blas[key] = {k: info.get(k) for k in ("name", "version")}
    except (TypeError, ValueError):
        blas = {"numpy": "unavailable"}
    try:
        from repro.substrate import resolve_fft_workers

        fft_workers = resolve_fft_workers()
    except ImportError:
        fft_workers = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": threads,
        "blas": blas,
        "fft_workers": fft_workers,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
