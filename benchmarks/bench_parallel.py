"""Process-parallel extraction versus the serial adaptive path.

For each backend (eigenfunction / finite-difference) and backplane (grounded /
floating) this benchmark times full dense extraction serially and through a
``ParallelExtractor`` with each configured worker count
(``REPRO_BENCH_WORKERS``, default ``2,4``), and measures the cross-solver
factor cache: cold first-factor time versus the warm load a second solver
pays over the same ``(layout, profile, grid)``.  It emits
``BENCH_parallel.json`` (under ``benchmarks/results/``) so the scaling
behaviour is tracked across PRs; every result carries its own factor-cache
hit/miss deltas.

The comparison isolates *solve* parallelism: the direct factor is prepared
before the timed region on both sides (workers warm theirs during untimed
pool start-up via ``prepare_direct``).  Both extractions run through a
``CountingSolver`` so the record pins that parallel attribution equals serial
attribution, and the extractor's merged per-process ``SolveStats`` are
included.

Gates: parallel extraction must match serial to 1e-10 with identical
attributed solve counts (hard everywhere); on a multi-core host the parallel
path must never be slower than 0.9x serial; and at reference scale the warm
factor load must be >= 10x faster than the cold build.

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
    Gates,
    bench_workers,
    default_sizes,
    emit,
    is_reference_run,
    min_of,
    rel_diff,
    solver_spec,
    timed,
)

from repro.substrate import CountingSolver, extract_dense
from repro.substrate.bem.solver import BEM_FACTOR_KIND
from repro.substrate.factor_cache import factor_cache, factor_cache_clear
from repro.substrate.fd.direct import FD_FACTOR_KIND
from repro.substrate.parallel import ParallelExtractor
from repro.substrate.solver_base import SolveStats

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
MIN_GATED_SERIAL_S = 0.05
#: reference-scale gate on the cross-solver factor cache
MIN_FACTOR_WARM_SPEEDUP = 10.0


def measure(n_side, backend, backplane, workers, gates: Gates) -> dict:
    repeats = 3 if n_side <= 16 else 2
    spec = solver_spec(n_side, backend, backplane)
    where = f"{backend}/{backplane}"

    # --- cross-solver factor cache: cold build vs warm load ----------------
    cache_before = factor_cache().cache_info()
    factor_cache_clear(BEM_FACTOR_KIND)
    factor_cache_clear(FD_FACTOR_KIND)
    cold_factor_s, factorable = timed(spec.build().prepare_direct)
    warm_factor_s, _ = timed(spec.build().prepare_direct)

    # --- serial adaptive path (factor prepared, solves timed) --------------
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
        "serial_stats": serial_counting.inner.stats.as_dict(),
        "factorable": bool(factorable),
        "cold_factor_s": cold_factor_s,
        "warm_factor_s": warm_factor_s,
        "factor_warm_speedup": cold_factor_s / max(warm_factor_s, 1e-9),
        "parallel": [],
    }

    # --- parallel extraction per worker count ------------------------------
    for n_workers in workers:
        with ParallelExtractor(spec, n_workers=n_workers, prepare_direct=True) as extractor:
            setup_s, _ = timed(extractor.warm_up)
            counting = CountingSolver(extractor)

            def parallel(extractor=extractor, counting=counting):
                counting.reset()
                extractor.stats = SolveStats()
                return timed(extract_dense, counting)

            t_parallel, g_parallel = min_of(repeats, parallel)
            p = {
                "workers": n_workers,
                "setup_s": setup_s,
                "parallel_s": t_parallel,
                "speedup_vs_serial": t_serial / t_parallel,
                "max_abs_diff_rel": rel_diff(g_parallel, g_serial),
                "parallel_solves": int(counting.solve_count),
                "merged_stats": extractor.stats.as_dict(),
            }
        result["parallel"].append(p)
        at = f"{where}, {n_workers} workers"
        gates.check(
            f"{at}: parallel agrees with serial",
            n_side,
            p["max_abs_diff_rel"] <= AGREEMENT_RTOL,
            f"{p['max_abs_diff_rel']:.2e} rel",
        )
        gates.check(
            f"{at}: attribution equals serial",
            n_side,
            p["parallel_solves"] == result["serial_solves"]
            and p["merged_stats"]["n_solves"] == result["serial_solves"],
            f"parallel {p['parallel_solves']}, merged worker stats "
            f"{p['merged_stats']['n_solves']}, serial {result['serial_solves']} solves",
        )
        floor = (
            MIN_SPEEDUP_MULTICORE
            if n_workers <= (os.cpu_count() or 1)
            else MIN_SPEEDUP_OVERSUBSCRIBED
        )
        gates.check(
            f"{at}: parallel >= {floor}x serial",
            n_side,
            p["speedup_vs_serial"] >= floor,
            f"{p['speedup_vs_serial']:.2f}x (serial {t_serial:.3f}s)",
            armed=t_serial >= MIN_GATED_SERIAL_S,
            timing=True,
        )

    # per-result counter deltas: the process-wide counters are cumulative,
    # so attribute only this combination's traffic
    cache_after = factor_cache().cache_info()
    result["factor_cache"] = {
        key: cache_after[key] - cache_before[key] for key in ("hits", "misses", "evictions")
    }
    result["factor_cache"].update(entries=cache_after["entries"], bytes=cache_after["bytes"])
    gates.check(
        f"{where}: warm factor load >= {MIN_FACTOR_WARM_SPEEDUP:g}x the cold build",
        n_side,
        result["factor_warm_speedup"] >= MIN_FACTOR_WARM_SPEEDUP,
        f"{result['factor_warm_speedup']:.1f}x",
        armed=is_reference_run() and result["factorable"],
        timing=True,
    )
    return result


def run(sizes: list[int]) -> bool:
    workers = bench_workers()
    gates = Gates()
    results = [
        measure(s, backend, backplane, workers, gates)
        for s in sizes
        for backend in ("bem", "fd")
        for backplane in ("grounded", "floating")
    ]
    return emit(
        "BENCH_parallel",
        "parallel_extraction",
        "serial adaptive dense extraction vs process-parallel sharded extraction "
        "(ParallelExtractor), plus cold/warm cross-solver factor-cache timings; "
        "eigenfunction and finite-difference backends, grounded and floating "
        "backplanes",
        results,
        gates,
    )


def test_bench_parallel():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
