"""Adaptive solver-dispatch versus the two fixed solve engines.

For each backplane type this benchmark times full dense extraction with the
dispatch policy pinned to the iterative engine (stacked-RHS CG / block
MINRES), pinned to the direct engine (cached dense Cholesky / bordered
Schur-complement factorisation), and left adaptive, then emits a
machine-readable ``BENCH_dispatch.json`` (under ``benchmarks/results/``) so the
crossover behaviour is tracked across PRs.

Gates: the three paths must extract the same ``G``, and the adaptive policy
must never be slower than the **worse** of the two fixed paths (it routes to
one of them, so only scheduler noise can violate this — a generous margin
absorbs that).  At the reference scales the adaptive policy must match or
beat both fixed paths at ``n_side=16`` and beat pure-iterative by >= 1.3x at
``n_side=32``.

Run directly (``REPRO_BENCH_NSIDE=4`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import sys
from pathlib import Path

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import default_sizes, emit_benchmark, ensure_repro_importable, gate_main

ensure_repro_importable()

from repro.experiments import run_dispatch_experiment

#: generous allowance for shared-box scheduler noise on the "adaptive is never
#: slower than the worse fixed path" gate
NOISE_MARGIN = 1.25


def run(sizes: list[int]) -> list[dict]:
    results = [
        # the floating MINRES path at n_side=32 is minutes-scale; two repeats
        # keep the reference run tractable while still taking a minimum
        run_dispatch_experiment(n_side=s, repeats=3 if s <= 16 else 2)
        for s in sizes
    ]
    payload = {
        "benchmark": "dispatch",
        "description": "adaptive direct-vs-iterative dispatch vs fixed paths, "
        "dense extraction, eigenfunction solver, grounded and "
        "floating backplanes",
        "results": results,
    }
    lines = [
        "Adaptive dispatch vs fixed direct/iterative paths (dense extraction)",
        f"{'n_side':>6s} {'backplane':>9s} {'iterative':>10s} {'direct':>8s} "
        f"{'adaptive':>9s} {'path':>9s} {'vs iter':>8s} {'max rel diff':>13s}",
    ]
    for r in results:
        for backplane in ("grounded", "floating"):
            b = r[backplane]
            lines.append(
                f"{r['n_side']:>6d} {backplane:>9s} {b['iterative_s']:>9.2f}s "
                f"{b['direct_s']:>7.2f}s {b['adaptive_s']:>8.2f}s "
                f"{b['adaptive_path']:>9s} "
                f"{b['speedup_adaptive_vs_iterative']:>7.1f}x "
                f"{b['max_abs_diff_rel']:>12.2e}"
            )
    emit_benchmark("BENCH_dispatch", payload, "bench_dispatch", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's result; returns a list of failure messages."""
    failures = []
    n_side = result["n_side"]
    for backplane in ("grounded", "floating"):
        b = result[backplane]
        if b["max_abs_diff_rel"] >= 1e-6:
            failures.append(
                f"{backplane} paths disagree ({b['max_abs_diff_rel']:.2e} rel) "
                f"at n_side={n_side}"
            )
        worse_fixed = max(b["iterative_s"], b["direct_s"])
        if b["adaptive_s"] > NOISE_MARGIN * worse_fixed:
            failures.append(
                f"adaptive ({b['adaptive_s']:.3f}s) slower than the worse fixed "
                f"path ({worse_fixed:.3f}s) for {backplane} at n_side={n_side}"
            )
        # reference scales only: tiny smoke grids are plumbing checks, their
        # sub-millisecond timings are all noise
        if n_side == 16:
            best_fixed = min(b["iterative_s"], b["direct_s"])
            if b["adaptive_s"] > 1.15 * best_fixed:
                failures.append(
                    f"adaptive ({b['adaptive_s']:.3f}s) does not match the best "
                    f"fixed path ({best_fixed:.3f}s) for {backplane} at n_side=16"
                )
        if n_side == 32 and b["speedup_adaptive_vs_iterative"] < 1.3:
            failures.append(
                f"adaptive only {b['speedup_adaptive_vs_iterative']:.2f}x over "
                f"pure-iterative for {backplane} at n_side=32 (need >= 1.3x)"
            )
    return failures


def test_bench_dispatch():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
