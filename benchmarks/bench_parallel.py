"""Process-parallel extraction versus the serial adaptive path.

For each backend (eigenfunction / finite-difference) and backplane (grounded /
floating) this benchmark times full dense extraction serially and through a
``ParallelExtractor`` with each configured worker count
(``REPRO_BENCH_WORKERS``, default ``2,4``), and measures the cross-solver
factor cache: cold first-factor time versus the warm load a second solver
pays over the same ``(layout, profile, grid)``.  It emits a machine-readable
``BENCH_parallel.json`` (under ``benchmarks/results/``) so the scaling behaviour is
tracked across PRs; every record carries the host's CPU count and the
process-wide factor-cache hit/miss counters.

Gates: parallel extraction must match serial to 1e-10 with identical
attributed solve counts (hard everywhere); on a multi-core host the parallel
path must never be slower than 0.9x serial (the CI smoke gate — the timed
region isolates solves, with worker factor warm-up during untimed pool
start-up); and at reference scale the warm factor load must be >= 10x faster
than the cold build.

Run directly (``REPRO_BENCH_NSIDE=8 REPRO_BENCH_WORKERS=2`` for a CI smoke
run)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    bench_workers,
    default_sizes,
    emit_benchmark,
    ensure_repro_importable,
    gate_main,
    is_reference_run,
)

ensure_repro_importable()

from repro.experiments import run_parallel_extraction_experiment

#: agreement bound: sharding must not change the extracted G
AGREEMENT_RTOL = 1e-10
#: speed gate for runs that can win (workers <= cpu cores): parallel never
#: slower than 0.9x serial
MIN_SPEEDUP_MULTICORE = 0.9
#: collapse guard for oversubscribed runs (workers > cpu cores, e.g. the
#: whole sweep on a single-core container): sharding cannot win there and
#: only documents IPC/contention overhead, but must not fall off a cliff
MIN_SPEEDUP_OVERSUBSCRIBED = 0.3
#: speed gates only apply when the serial region is long enough to measure:
#: below this, the fixed per-block IPC cost (a few ms) dominates any signal
#: (same rationale as the other benches' "smoke timings are noise" carve-out)
MIN_GATED_SERIAL_S = 0.05
#: reference-scale gate on the cross-solver factor cache
MIN_FACTOR_WARM_SPEEDUP = 10.0


def run(sizes: list[int]) -> list[dict]:
    workers = tuple(bench_workers())
    results: list[dict] = []
    for s in sizes:
        results.extend(
            run_parallel_extraction_experiment(
                n_side=s,
                workers=workers,
                repeats=3 if s <= 16 else 2,
            )
        )
    payload = {
        "benchmark": "parallel_extraction",
        "description": "serial adaptive dense extraction vs process-parallel "
        "sharded extraction (ParallelExtractor), plus cold/warm "
        "cross-solver factor-cache timings; eigenfunction and "
        "finite-difference backends, grounded and floating "
        "backplanes",
        "workers": list(workers),
        "cpu_count": int(os.cpu_count() or 1),
        "results": results,
    }
    lines = [
        "Process-parallel extraction vs serial adaptive path",
        f"{'n_side':>6s} {'backend':>7s} {'backplane':>9s} {'serial':>8s} "
        f"{'workers':>7s} {'parallel':>9s} {'speedup':>8s} {'coldF':>8s} "
        f"{'warmF':>9s} {'max rel diff':>13s}",
    ]
    for r in results:
        for p in r["parallel"]:
            lines.append(
                f"{r['n_side']:>6d} {r['backend']:>7s} {r['backplane']:>9s} "
                f"{r['serial_s']:>7.2f}s {p['workers']:>7d} "
                f"{p['parallel_s']:>8.2f}s {p['speedup_vs_serial']:>7.2f}x "
                f"{r['cold_factor_s']:>7.3f}s {r['warm_factor_s']:>8.5f}s "
                f"{p['max_abs_diff_rel']:>12.2e}"
            )
    emit_benchmark("BENCH_parallel", payload, "bench_parallel", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one (backend, backplane, size) record; returns failure messages."""
    failures = []
    where = (
        f"{result['backend']}/{result['backplane']} at n_side={result['n_side']}"
    )
    cpu_count = result.get("cpu_count", 1)
    for p in result["parallel"]:
        min_speedup = (
            MIN_SPEEDUP_MULTICORE
            if p["workers"] <= cpu_count
            else MIN_SPEEDUP_OVERSUBSCRIBED
        )
        if p["max_abs_diff_rel"] > AGREEMENT_RTOL:
            failures.append(
                f"parallel extraction disagrees with serial "
                f"({p['max_abs_diff_rel']:.2e} rel, {p['workers']} workers) {where}"
            )
        if p["parallel_solves"] != result["serial_solves"]:
            failures.append(
                f"attribution drift: parallel {p['parallel_solves']} vs serial "
                f"{result['serial_solves']} solves ({p['workers']} workers) {where}"
            )
        if p["merged_stats"]["n_solves"] != result["serial_solves"]:
            failures.append(
                f"merged worker stats report {p['merged_stats']['n_solves']} "
                f"solves, expected {result['serial_solves']} {where}"
            )
        if (
            result["serial_s"] >= MIN_GATED_SERIAL_S
            and p["speedup_vs_serial"] < min_speedup
        ):
            failures.append(
                f"parallel path only {p['speedup_vs_serial']:.2f}x serial "
                f"({p['workers']} workers, floor {min_speedup}x) {where}"
            )
    # timing the warm load only means anything at reference scale; smoke-scale
    # factors are sub-millisecond and all noise
    if (
        is_reference_run()
        and result["factorable"]
        and result["factor_warm_speedup"] < MIN_FACTOR_WARM_SPEEDUP
    ):
        failures.append(
            f"warm factor load only {result['factor_warm_speedup']:.1f}x faster "
            f"than cold build (need >= {MIN_FACTOR_WARM_SPEEDUP}x) {where}"
        )
    return failures


def test_bench_parallel():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
