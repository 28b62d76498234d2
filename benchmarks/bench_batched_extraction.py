"""Batched multi-RHS extraction versus sequential dense extraction.

The batched extraction engine submits all ``n`` unit-vector right-hand sides
through ``SubstrateSolver.solve_many`` (one stacked-RHS Krylov iteration per
chunk) instead of re-driving the DCT pipeline once per contact.  This
benchmark times both paths on the paper's regular-grid example and emits
``BENCH_batched.json`` (under ``benchmarks/results/``) so the speedup is
tracked across PRs.

Each measurement is repeated on a freshly built solver with the process-wide
factor cache disabled, so no factor or work buffer survives between
repetitions, and the minimum is reported.  Solver construction (including
the eigenvalue-table memoisation) stays outside the timed region for both
paths; warm-cache behaviour is measured by ``bench_parallel``.

Gates: the two paths extract the same ``G`` (1e-6 rel), and at ``n_side=16``
the batched path is >= 3x faster.

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

import numpy as np
from common import Gates, default_sizes, emit, min_of, rel_diff, solver_spec, timed

from repro.substrate import extract_dense

REPEATS = 3
SPEEDUP_GATE = 3.0


def measure(n_side: int, gates: Gates) -> dict:
    spec = solver_spec(n_side)
    n = spec.layout.n_contacts

    def sequential():
        solver = spec.build(use_factor_cache=False)
        elapsed, columns = timed(lambda: [solver.solve_currents(e) for e in np.eye(n)])
        return elapsed, (np.column_stack(columns), solver)

    def batched():
        solver = spec.build(use_factor_cache=False)
        elapsed, g = timed(extract_dense, solver)
        return elapsed, (g, solver)

    t_seq, (g_seq, solver_seq) = min_of(REPEATS, sequential)
    t_batch, (g_batch, solver_batch) = min_of(REPEATS, batched)
    used_direct = solver_batch.stats.n_direct_solves > 0
    result = {
        "n_side": n_side,
        "n_contacts": n,
        "panel_grid": int(solver_batch.grid.nx),
        "repeats": REPEATS,
        "sequential_s": t_seq,
        "batched_s": t_batch,
        "speedup": t_seq / t_batch,
        "max_abs_diff_rel": rel_diff(g_batch, g_seq),
        "mean_iterations_sequential": float(solver_seq.mean_iterations_per_solve()),
        # the factor-once/solve-all path runs no Krylov iterations at all;
        # report which engine served the block so 0.0 is not misread as
        # "CG converged instantly"
        "batched_used_direct_path": bool(used_direct),
        "mean_iterations_batched": (
            None if used_direct else float(solver_batch.mean_iterations_per_solve())
        ),
    }
    gates.check(
        "batched agrees with sequential",
        n_side,
        result["max_abs_diff_rel"] < 1e-6,
        f"{result['max_abs_diff_rel']:.2e} rel",
    )
    # the memory-bound n_side=32 is exercised for correctness only
    gates.check(
        f"batched >= {SPEEDUP_GATE:g}x sequential",
        n_side,
        result["speedup"] >= SPEEDUP_GATE,
        f"{result['speedup']:.2f}x",
        armed=n_side == 16,
        timing=True,
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_batched",
        "batched_extraction",
        "sequential (one solve_currents per contact) vs batched (solve_many) "
        "dense conductance extraction, eigenfunction solver",
        results,
        gates,
    )


def test_bench_batched_extraction():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
