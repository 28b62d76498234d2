"""Shared-memory factor plane: worker attach vs per-worker refactor.

For each backend (eigenfunction / finite-difference) and backplane (grounded /
floating) this benchmark times full dense extraction through a
``ParallelExtractor`` whose workers **attach** to the parent's factor via the
shared-memory factor plane (``share_factors=True``) against one whose workers
each **rebuild** their own factor, recording pool warm-up time both ways and
the per-worker attach/rebuild counters of the merged ``SolveStats``.  It
emits ``BENCH_factor_plane.json`` (under ``benchmarks/results/``).

Hard gates (every scale, including the CI smoke run):

* shared-plane parallel extraction matches serial to 1e-10 with identical
  attributed solve counts;
* on the shared plane every worker attaches and **zero** workers refactor
  (``n_factor_attaches == n_workers``, ``n_factor_rebuilds == 0``), while the
  rebuild configuration must show zero attaches.

Run directly (``REPRO_BENCH_NSIDE=8 REPRO_BENCH_WORKERS=2`` for a CI smoke
run)::

    PYTHONPATH=src python benchmarks/bench_factor_plane.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import sys
from pathlib import Path

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    Gates,
    bench_workers,
    default_sizes,
    emit,
    min_of,
    rel_diff,
    solver_spec,
    timed,
)

from repro.substrate import CountingSolver, extract_dense
from repro.substrate.bem.solver import BEM_FACTOR_KIND
from repro.substrate.factor_cache import factor_cache_clear
from repro.substrate.fd.direct import FD_FACTOR_KIND
from repro.substrate.parallel import ParallelExtractor, SolverSpec
from repro.substrate.solver_base import SolveStats

#: agreement bound: the plane may not change G
AGREEMENT_RTOL = 1e-10


def parallel_arm(spec, n_workers, share, repeats, g_serial) -> dict:
    """Warm-up and min-of-``repeats`` extraction through one worker pool."""
    with ParallelExtractor(
        spec, n_workers=n_workers, prepare_direct=True, share_factors=share
    ) as extractor:
        warmup_s, _ = timed(extractor.warm_up)
        counting = CountingSolver(extractor)

        def trial():
            counting.reset()
            warm_stats = extractor.stats
            extractor.stats = SolveStats(
                n_factor_attaches=warm_stats.n_factor_attaches,
                n_factor_rebuilds=warm_stats.n_factor_rebuilds,
            )
            return timed(extract_dense, counting)

        t_parallel, g_parallel = min_of(repeats, trial)
        return {
            "warmup_s": warmup_s,
            "parallel_s": t_parallel,
            "max_abs_diff_rel": rel_diff(g_parallel, g_serial),
            "parallel_solves": int(counting.solve_count),
            "merged_stats": extractor.stats.as_dict(),
        }


def measure(n_side, backend, backplane, workers, gates: Gates) -> dict:
    repeats = 3 if n_side <= 16 else 2
    spec = solver_spec(n_side, backend, backplane)
    where = f"{backend}/{backplane}"
    factor_cache_clear(BEM_FACTOR_KIND)
    factor_cache_clear(FD_FACTOR_KIND)

    # --- serial reference (factor prepared, solves timed) ------------------
    def serial():
        solver = spec.build()
        solver.prepare_direct()
        counting = CountingSolver(solver)
        elapsed, g = timed(extract_dense, counting)
        return elapsed, (g, counting)

    t_serial, (g_serial, serial_counting) = min_of(repeats, serial)
    result: dict = {
        "backend": backend,
        "backplane": backplane,
        "n_side": n_side,
        "n_contacts": spec.layout.n_contacts,
        "repeats": repeats,
        "serial_s": t_serial,
        "serial_solves": int(serial_counting.solve_count),
        "parallel": [],
    }

    # --- shared plane (attach) vs per-worker refactor (rebuild) ------------
    # the rebuild arm disables the factor cache so forked workers cannot
    # serve the factor from the parent's inherited (COW) cache — it must
    # measure genuine per-worker refactorisation
    rebuild_spec = SolverSpec(
        spec.kind, spec.layout, spec.profile, {**spec.options, "use_factor_cache": False}
    )
    for n_workers in workers:
        row: dict = {"workers": n_workers}
        for label, arm_spec, share in (("shared", spec, True), ("rebuild", rebuild_spec, False)):
            arm = row[label] = parallel_arm(arm_spec, n_workers, share, repeats, g_serial)
            arm["speedup_vs_serial"] = t_serial / arm["parallel_s"]
            at = f"{where}, {n_workers} workers, {label}"
            gates.check(
                f"{at}: parallel agrees with serial",
                n_side,
                arm["max_abs_diff_rel"] <= AGREEMENT_RTOL,
                f"{arm['max_abs_diff_rel']:.2e} rel",
            )
            gates.check(
                f"{at}: attribution equals serial",
                n_side,
                arm["parallel_solves"] == result["serial_solves"],
                f"{arm['parallel_solves']} vs serial {result['serial_solves']} solves",
            )
        result["parallel"].append(row)
        shared = row["shared"]["merged_stats"]
        rebuild = row["rebuild"]["merged_stats"]
        gates.check(
            f"{where}, {n_workers} workers: shared plane attaches once per worker, "
            "rebuilds none",
            n_side,
            shared["n_factor_attaches"] == n_workers and shared["n_factor_rebuilds"] == 0,
            f"{shared['n_factor_attaches']} attaches, {shared['n_factor_rebuilds']} rebuilds",
        )
        gates.check(
            f"{where}, {n_workers} workers: rebuild arm refactors once per worker, "
            "attaches none",
            n_side,
            rebuild["n_factor_rebuilds"] == n_workers and rebuild["n_factor_attaches"] == 0,
            f"{rebuild['n_factor_attaches']} attaches, {rebuild['n_factor_rebuilds']} rebuilds",
        )

    return result


def run(sizes: list[int]) -> bool:
    workers = bench_workers(default=(2,))
    gates = Gates()
    results = [
        measure(s, backend, backplane, workers, gates)
        for s in sizes
        for backend in ("bem", "fd")
        for backplane in ("grounded", "floating")
    ]
    return emit(
        "BENCH_factor_plane",
        "factor_plane",
        "shared-memory factor plane (worker attach vs per-worker refactor); "
        "eigenfunction and finite-difference backends, grounded and floating "
        "backplanes",
        results,
        gates,
    )


def test_bench_factor_plane():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
