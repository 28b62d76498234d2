"""Batched multi-RHS extraction versus sequential dense extraction.

The batched extraction engine submits all ``n`` unit-vector right-hand sides
through ``SubstrateSolver.solve_many`` (one stacked-RHS Krylov iteration per
chunk) instead of re-driving the DCT pipeline once per contact.  This
benchmark times both paths on the paper's regular-grid example and emits a
machine-readable ``BENCH_batched.json`` (under ``benchmarks/results/``) so the
speedup is tracked across PRs.

Run directly (``REPRO_BENCH_NSIDE=4`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_batched_extraction.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import sys
from pathlib import Path

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import default_sizes, emit_benchmark, ensure_repro_importable

ensure_repro_importable()

from repro.experiments import run_batched_extraction_experiment


def run(sizes: list[int]) -> list[dict]:
    results = [run_batched_extraction_experiment(n_side=s) for s in sizes]
    payload = {
        "benchmark": "batched_extraction",
        "description": "sequential (one solve_currents per contact) vs "
        "batched (solve_many) dense conductance extraction, "
        "eigenfunction solver",
        "results": results,
    }
    lines = [
        "Batched multi-RHS extraction vs sequential dense extraction",
        f"{'n_side':>6s} {'contacts':>8s} {'panels':>6s} {'sequential':>11s} "
        f"{'batched':>9s} {'speedup':>8s} {'max rel diff':>13s}",
    ]
    for r in results:
        lines.append(
            f"{r['n_side']:>6d} {r['n_contacts']:>8d} {r['panel_grid']:>6d} "
            f"{r['sequential_s']:>10.2f}s {r['batched_s']:>8.2f}s "
            f"{r['speedup']:>7.1f}x {r['max_abs_diff_rel']:>12.2e}"
        )
    emit_benchmark("BENCH_batched", payload, "bench_batched_extraction", lines)
    return results


def test_bench_batched_extraction():
    # the two paths must extract the same conductance matrix, and the batched
    # engine must pay off at the reference scale; other sizes (tiny smoke
    # grids, the memory-bound n_side=32) are exercised for plumbing and
    # correctness only
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


def check(result: dict) -> list[str]:
    """Gate one size's result; returns a list of failure messages."""
    failures = []
    if result["max_abs_diff_rel"] >= 1e-6:
        failures.append(
            f"batched extraction disagrees with sequential "
            f"({result['max_abs_diff_rel']:.2e} rel) at n_side={result['n_side']}"
        )
    if result["n_side"] == 16 and result["speedup"] < 3.0:
        failures.append(
            f"batched extraction speedup {result['speedup']:.2f}x < 3x "
            f"at n_side={result['n_side']}"
        )
    return failures


if __name__ == "__main__":
    from common import gate_main

    gate_main(run(default_sizes()), check)
