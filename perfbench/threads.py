"""One BLAS/OpenMP thread per process, for every benchmark run.

A serving run puts several solver processes on the same CPUs (an engine's
worker pool, the cluster's workers, plus the benchmark process), and threaded
BLAS in each of them oversubscribes the CPUs: on a 2-vCPU host a warm
in-process server with its engine pools delivered half the columns per
second with BLAS at its default thread count, and its latencies spread more
between runs.  The setting must
be in the environment before numpy loads, and worker processes inherit it.
``common.environment`` records it with every run.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin() -> None:
    """Set one thread per process (call before numpy is imported)."""
    os.environ.update(THREAD_ENV)
