"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, or measures one
layer of the serving stack.  The problem scale defaults to 16 contacts per
side (256 contacts); set ``REPRO_BENCH_NSIDE=32`` to run at the paper's scale.
Table and figure reproductions print their table and write it to
``benchmarks/results/<name>.txt``.

The perf benchmarks (``bench_batched_extraction`` ... ``bench_cluster``) share
one workflow, centralised here.  Reference runs (no ``REPRO_BENCH_NSIDE``)
sweep the paper pair {16, 32} and write the tracked
``benchmarks/results/BENCH_*.json`` record; env-overridden smoke runs write a
gitignored ``*_smoke.json`` sibling so they can never clobber a committed
reference record.  Every record has one envelope (see :func:`emit`), and
every gate goes through :class:`Gates`: a timing gate is armed only from
``n_side=16`` up, because smaller problems finish in a few milliseconds and
their timings are noise.  A script exits non-zero if and only if an armed
gate failed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

# standalone bench scripts run without PYTHONPATH=src
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np
import scipy

from repro.geometry.layouts import regular_grid
from repro.service import JobRequest, Scheduler
from repro.substrate.factor_cache import factor_cache_info
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import SubstrateProfile

#: the paper's reference scales swept when no env override is given
REFERENCE_SIZES = (16, 32)
#: smallest n_side whose timings are armed as gates
MIN_TIMED_NSIDE = 16
#: side of the square substrate every perf benchmark uses
BOX_SIZE = 128.0
#: solver tolerance of every perf benchmark's substrate
SOLVER_RTOL = 1e-8
#: panel budget of the eigenfunction solver
MAX_PANELS = 256


def bench_n_side(default: int = 16) -> int:
    """Contacts per side used by the benchmarks (env: REPRO_BENCH_NSIDE)."""
    return int(os.environ.get("REPRO_BENCH_NSIDE", default))


def default_sizes(reference: tuple[int, ...] = REFERENCE_SIZES) -> list[int]:
    """n_side values to benchmark: env override or the paper pair {16, 32}."""
    env = os.environ.get("REPRO_BENCH_NSIDE")
    if env:
        return [int(env)]
    return list(reference)


def bench_workers(default: tuple[int, ...] = (2, 4)) -> list[int]:
    """Worker counts for the parallel benchmarks (env: REPRO_BENCH_WORKERS).

    The env var takes a comma-separated list (``REPRO_BENCH_WORKERS=2`` or
    ``2,4``), as used by the CI smoke step.
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return [int(w) for w in env.split(",") if w.strip()]
    return list(default)


def is_reference_run() -> bool:
    """True when this run may touch the tracked reference artefacts."""
    return "REPRO_BENCH_NSIDE" not in os.environ


# ------------------------------------------------------------------ fixtures
def solver_spec(
    n_side: int,
    backend: str = "bem",
    backplane: str = "grounded",
    fill: float = 0.5,
    **options,
) -> SolverSpec:
    """A regular contact grid on the paper's two-layer substrate, as a spec.

    ``backplane`` is ``"grounded"`` or ``"floating"``.  ``bem`` is the
    eigenfunction solver; ``fd`` the finite-difference one on a grid twice
    as fine as the contacts (at least 16 cells a side).
    """
    layout = regular_grid(n_side=n_side, size=BOX_SIZE, fill=fill)
    if backplane == "grounded":
        profile = SubstrateProfile.two_layer_example(size=BOX_SIZE, resistive_bottom=True)
    else:
        profile = SubstrateProfile.two_layer_example(size=BOX_SIZE, grounded_backplane=False)
    if backend == "bem":
        return SolverSpec.bem(
            layout, profile, max_panels=MAX_PANELS, rtol=SOLVER_RTOL, **options
        )
    resolution = max(16, 2 * n_side)
    return SolverSpec.fd(
        layout,
        profile,
        nx=resolution,
        ny=resolution,
        planes_per_layer=3,
        rtol=SOLVER_RTOL,
        **options,
    )


def timed(fn, *args):
    """``(wall seconds, fn(*args))``."""
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def min_of(repeats: int, trial):
    """Best wall time over ``repeats`` calls of ``trial() -> (seconds, value)``.

    Returns ``(best seconds, value of the last call)``; the minimum
    suppresses scheduler noise.
    """
    best, value = math.inf, None
    for _ in range(max(1, repeats)):
        elapsed, value = trial()
        best = min(best, elapsed)
    return best, value


def rel_diff(got, reference, scale: float | None = None) -> float:
    """``max|got - reference| / scale`` (default scale ``max|reference|``).

    A missing result (``None``) never agrees: it counts as ``inf``.
    """
    if got is None:
        return math.inf
    reference = np.asarray(reference)
    if scale is None:
        scale = max(float(np.abs(reference).max()), 1e-300)
    return float(np.abs(np.asarray(got) - reference).max() / scale)


def fan_out(fn, items: list) -> list:
    """``[fn(item) for item in items]``, each call on its own thread."""
    with ThreadPoolExecutor(max_workers=len(items)) as pool:
        return list(pool.map(fn, items))


def run_clients(scheduler: Scheduler, requests: list[JobRequest], wait_s: float = 600.0):
    """Submit each request from its own client thread and wait for it.

    Returns ``(wall seconds, terminal jobs)``; each job carries ``status``,
    ``result`` and ``attempts``.
    """

    def one(request: JobRequest):
        return scheduler.result(scheduler.submit(request), wait_s=wait_s)

    return timed(fan_out, one, requests)


# --------------------------------------------------------------------- gates
class Gates:
    """Every gate of one benchmark run, in the order they were checked.

    ``armed`` carries a gate's own arming condition (CPU count, a measurable
    baseline, ...); ``timing=True`` additionally disarms it below
    :data:`MIN_TIMED_NSIDE`.  A disarmed gate is still evaluated and
    recorded, so its value stays visible in the record.
    """

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def check(
        self,
        name: str,
        n_side: int,
        passed: bool,
        detail: str,
        *,
        armed: bool = True,
        timing: bool = False,
    ) -> None:
        self.entries.append(
            {
                "name": name,
                "n_side": int(n_side),
                "armed": bool(armed) and (not timing or n_side >= MIN_TIMED_NSIDE),
                "passed": bool(passed),
                "detail": detail,
            }
        )


def emit(name: str, benchmark: str, description: str, results: list, gates: Gates) -> bool:
    """Write one perf benchmark's record; True when every armed gate passed.

    The record is ``{benchmark, description, env, factor_cache, results,
    gates}``.  Reference runs write ``benchmarks/results/<name>.json``, smoke
    runs the gitignored ``<name>_smoke.json``.  The JSON is also printed, and
    each failed armed gate is reported on stderr.
    """
    record = {
        "benchmark": benchmark,
        "description": description,
        "env": {
            "cpu_count": int(os.cpu_count() or 1),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "factor_cache": factor_cache_info(),
        "results": results,
        "gates": gates.entries,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "" if is_reference_run() else "_smoke"
    (RESULTS_DIR / f"{name}{suffix}.json").write_text(text)
    print(text)
    failed = [g for g in gates.entries if g["armed"] and not g["passed"]]
    for gate in failed:
        print(
            f"GATE FAILED at n_side={gate['n_side']}: {gate['name']} ({gate['detail']})",
            file=sys.stderr,
        )
    return not failed


# ---------------------------------------------------------- table / figures
def write_result(name: str, lines: list[str]) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def format_report_row(label: str, report) -> str:
    return (
        f"{label:<34s} n={report.n_contacts:5d}  sparsity={report.sparsity_factor:7.1f}  "
        f"Qsparsity={report.q_sparsity_factor:6.1f}  "
        f"maxrel={100 * report.max_relative_error:8.2f}%  "
        f">10%={100 * report.fraction_above_10pct:6.2f}%  "
        f"solves={report.n_solves:5d}  reduction={report.solve_reduction_factor:5.1f}x"
    )
