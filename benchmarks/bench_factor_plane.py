"""Shared-memory factor plane and tiled out-of-core direct engine.

For each backend (eigenfunction / finite-difference) and backplane (grounded /
floating) this benchmark times full dense extraction through a
``ParallelExtractor`` whose workers **attach** to the parent's factor via the
shared-memory factor plane (``share_factors=True``) against one whose workers
each **rebuild** their own factor, and — for the eigenfunction backend — runs
the same extraction with ``max_direct_panels`` capped below the contact-panel
count so the dispatch policy must route through the **tiled** out-of-core
Cholesky engine.  It emits a machine-readable ``BENCH_factor_plane.json``
(under ``benchmarks/results/``); every record carries the host's CPU count and the
process-wide factor-cache counters.

Hard gates (every scale, including the CI smoke run):

* shared-plane parallel extraction matches serial to 1e-10 with identical
  attributed solve counts;
* on the shared plane every worker attaches and **zero** workers refactor
  (``n_factor_attaches == n_workers``, ``n_factor_rebuilds == 0``), while the
  rebuild configuration must show zero attaches;
* the tiled path is actually chosen above the capped ``max_direct_panels``
  and extracts an identical ``G`` (1e-10).

Run directly (``REPRO_BENCH_NSIDE=8 REPRO_BENCH_WORKERS=2`` for a CI smoke
run)::

    PYTHONPATH=src python benchmarks/bench_factor_plane.py

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
)

ensure_repro_importable()

from repro.experiments import run_factor_plane_experiment

#: agreement bound: neither the plane nor the tiled engine may change G
AGREEMENT_RTOL = 1e-10


def run(sizes: list[int]) -> list[dict]:
    workers = tuple(bench_workers(default=(2,)))
    results: list[dict] = []
    for s in sizes:
        results.extend(
            run_factor_plane_experiment(
                n_side=s,
                workers=workers,
                repeats=3 if s <= 16 else 2,
            )
        )
    payload = {
        "benchmark": "factor_plane",
        "description": "shared-memory factor plane (worker attach vs per-worker "
        "refactor) and tiled out-of-core direct engine vs the "
        "in-core direct path; eigenfunction and finite-difference "
        "backends, grounded and floating backplanes",
        "workers": list(workers),
        "cpu_count": int(os.cpu_count() or 1),
        "results": results,
    }
    lines = [
        "Shared-memory factor plane + tiled out-of-core direct engine",
        f"{'n_side':>6s} {'backend':>7s} {'backplane':>9s} {'workers':>7s} "
        f"{'warm(att)':>9s} {'warm(reb)':>9s} {'attach':>6s} {'rebuild':>7s} "
        f"{'max rel diff':>13s}",
    ]
    for r in results:
        for p in r["parallel"]:
            shared, rebuild = p["shared"], p["rebuild"]
            lines.append(
                f"{r['n_side']:>6d} {r['backend']:>7s} {r['backplane']:>9s} "
                f"{p['workers']:>7d} {shared['warmup_s']:>8.3f}s "
                f"{rebuild['warmup_s']:>8.3f}s "
                f"{shared['merged_stats']['n_factor_attaches']:>6d} "
                f"{shared['merged_stats']['n_factor_rebuilds']:>7d} "
                f"{shared['max_abs_diff_rel']:>12.2e}"
            )
        tiled = r.get("tiled")
        if tiled:
            lines.append(
                f"{r['n_side']:>6d} {r['backend']:>7s} {r['backplane']:>9s} "
                f"  tiled ncp={tiled['n_contact_panels']} "
                f"cap={tiled['max_direct_panels']} path={tiled['path']} "
                f"(adaptive would pick {tiled['adaptive_path']}) "
                f"{tiled['tiled_s']:>.3f}s vs direct {tiled['direct_s']:>.3f}s "
                f"diff={tiled['max_abs_diff_rel']:.2e}"
            )
    emit_benchmark("BENCH_factor_plane", payload, "bench_factor_plane", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one (backend, backplane, size) record; returns failure messages."""
    failures = []
    where = (
        f"{result['backend']}/{result['backplane']} at n_side={result['n_side']}"
    )
    for p in result["parallel"]:
        for label in ("shared", "rebuild"):
            row = p[label]
            if row["max_abs_diff_rel"] > AGREEMENT_RTOL:
                failures.append(
                    f"{label} parallel extraction disagrees with serial "
                    f"({row['max_abs_diff_rel']:.2e} rel, {p['workers']} workers) {where}"
                )
            if row["parallel_solves"] != result["serial_solves"]:
                failures.append(
                    f"{label} attribution drift: {row['parallel_solves']} vs "
                    f"serial {result['serial_solves']} solves {where}"
                )
        shared = p["shared"]["merged_stats"]
        rebuild = p["rebuild"]["merged_stats"]
        if shared["n_factor_rebuilds"] != 0:
            failures.append(
                f"shared plane let {shared['n_factor_rebuilds']} worker(s) "
                f"refactor (must be 0) {where}"
            )
        if shared["n_factor_attaches"] != p["workers"]:
            failures.append(
                f"shared plane reports {shared['n_factor_attaches']} attaches, "
                f"expected one per worker ({p['workers']}) {where}"
            )
        if rebuild["n_factor_attaches"] != 0:
            failures.append(
                f"rebuild configuration unexpectedly attached "
                f"{rebuild['n_factor_attaches']} factor(s) {where}"
            )
        if rebuild["n_factor_rebuilds"] != p["workers"]:
            failures.append(
                f"rebuild configuration reports {rebuild['n_factor_rebuilds']} "
                f"refactorisations, expected one per worker ({p['workers']}) {where}"
            )
    tiled = result.get("tiled")
    if tiled is not None:
        if tiled["path"] != "tiled":
            failures.append(
                f"dispatch above max_direct_panels chose {tiled['path']!r}, "
                f"expected 'tiled' {where}"
            )
        if tiled["max_abs_diff_rel"] > AGREEMENT_RTOL:
            failures.append(
                f"tiled extraction disagrees with the in-core direct path "
                f"({tiled['max_abs_diff_rel']:.2e} rel) {where}"
            )
    return failures


def test_bench_factor_plane():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
