"""Adaptive solver-dispatch versus the two fixed solve engines.

For each backplane type this benchmark times full dense extraction
(``extract_dense``, one wide ``solve_many`` block) with the dispatch policy
pinned to the iterative engine (stacked-RHS CG / block MINRES), pinned to the
direct engine (cached dense Cholesky / bordered Schur-complement
factorisation), and left adaptive, then emits ``BENCH_dispatch.json`` (under
``benchmarks/results/``) so the crossover behaviour is tracked across PRs.
Every measurement uses a freshly built solver with the process-wide factor
cache disabled; the minimum over the repeats is reported.

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

from common import Gates, default_sizes, emit, min_of, rel_diff, solver_spec, timed

from repro.substrate import extract_dense
from repro.substrate.dispatch import DispatchPolicy

#: generous allowance for shared-box scheduler noise on the "adaptive is never
#: slower than the worse fixed path" gate
NOISE_MARGIN = 1.25


def extraction(spec, force_path: str | None, repeats: int):
    """Min-of-``repeats`` dense extraction on fresh solvers pinned to one path."""

    def trial():
        solver = spec.build(
            dispatch=DispatchPolicy(force_path=force_path), use_factor_cache=False
        )
        elapsed, g = timed(extract_dense, solver)
        return elapsed, (g, solver)

    return min_of(repeats, trial)


def measure(n_side: int, gates: Gates) -> dict:
    # the floating MINRES path at n_side=32 is minutes-scale; two repeats
    # keep the reference run tractable while still taking a minimum
    repeats = 3 if n_side <= 16 else 2
    result: dict = {"n_side": n_side, "repeats": repeats}
    for backplane in ("grounded", "floating"):
        spec = solver_spec(n_side, backplane=backplane)
        t_iter, (g_iter, s_iter) = extraction(spec, "iterative", repeats)
        t_direct, (g_direct, _) = extraction(spec, "direct", repeats)
        t_adaptive, (g_adaptive, s_adaptive) = extraction(spec, None, repeats)
        scale = float(abs(g_iter).max())
        worse_fixed = max(t_iter, t_direct)
        best_fixed = min(t_iter, t_direct)
        result.update(n_contacts=spec.layout.n_contacts, panel_grid=int(s_iter.grid.nx))
        b = result[backplane] = {
            "iterative_s": t_iter,
            "direct_s": t_direct,
            "adaptive_s": t_adaptive,
            "adaptive_path": s_adaptive.last_dispatch.path,
            "adaptive_reason": s_adaptive.last_dispatch.reason,
            "speedup_adaptive_vs_iterative": t_iter / t_adaptive,
            "speedup_adaptive_vs_worse_fixed": worse_fixed / t_adaptive,
            "max_abs_diff_rel": max(
                rel_diff(g_adaptive, g_iter, scale), rel_diff(g_adaptive, g_direct, scale)
            ),
            "mean_iterations_iterative": float(s_iter.mean_iterations_per_solve()),
            "n_direct_solves_adaptive": int(s_adaptive.stats.n_direct_solves),
            "n_iterative_solves_adaptive": int(s_adaptive.stats.n_iterative_solves),
        }
        gates.check(
            f"{backplane}: the three paths agree",
            n_side,
            b["max_abs_diff_rel"] < 1e-6,
            f"{b['max_abs_diff_rel']:.2e} rel",
        )
        gates.check(
            f"{backplane}: adaptive <= {NOISE_MARGIN}x the worse fixed path",
            n_side,
            t_adaptive <= NOISE_MARGIN * worse_fixed,
            f"adaptive {t_adaptive:.4f}s, worse fixed {worse_fixed:.4f}s",
            timing=True,
        )
        gates.check(
            f"{backplane}: adaptive <= 1.15x the best fixed path",
            n_side,
            t_adaptive <= 1.15 * best_fixed,
            f"adaptive {t_adaptive:.4f}s, best fixed {best_fixed:.4f}s",
            armed=n_side == 16,
            timing=True,
        )
        gates.check(
            f"{backplane}: adaptive >= 1.3x pure-iterative",
            n_side,
            b["speedup_adaptive_vs_iterative"] >= 1.3,
            f"{b['speedup_adaptive_vs_iterative']:.2f}x",
            armed=n_side == 32,
            timing=True,
        )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_dispatch",
        "dispatch",
        "adaptive direct-vs-iterative dispatch vs fixed paths, dense extraction, "
        "eigenfunction solver, grounded and floating backplanes",
        results,
        gates,
    )


def test_bench_dispatch():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
