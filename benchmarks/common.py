"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
can reference them.  The problem scale defaults to 16 contacts per side
(256 contacts); set ``REPRO_BENCH_NSIDE=32`` to run at the paper's scale.

The perf benchmarks (batched extraction, dispatch, parallel extraction) share
one workflow, centralised here: reference runs (no ``REPRO_BENCH_NSIDE``)
sweep the paper pair {16, 32} and write the tracked
``benchmarks/results/BENCH_*.json`` + ``*.txt`` artefacts (one copy each);
env-overridden smoke runs write gitignored ``*_smoke`` siblings so they can
never clobber a committed reference record.  Every perf-benchmark JSON record
also carries the process-wide factor-cache hit/miss counters.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: the paper's reference scales swept when no env override is given
REFERENCE_SIZES = (16, 32)


def ensure_repro_importable() -> None:
    """Put ``<repo>/src`` on ``sys.path`` (standalone benchmark scripts)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


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


def factor_cache_record() -> dict:
    """Process-wide factor-cache counters for inclusion in JSON records."""
    from repro.substrate.factor_cache import factor_cache_info

    return factor_cache_info()


def emit_benchmark(json_base: str, payload: dict, txt_base: str, lines: list[str]) -> None:
    """Write one perf benchmark's JSON + text artefacts.

    Reference runs write ``<json_base>.json`` and ``<txt_base>.txt`` under
    ``benchmarks/results/``; smoke runs write the gitignored ``*_smoke`` siblings.
    The factor-cache hit/miss counters are stamped into the payload.
    """
    payload.setdefault("factor_cache", factor_cache_record())
    reference = is_reference_run()
    suffix = "" if reference else "_smoke"
    write_json(json_base + suffix, payload)
    write_result(txt_base + suffix, lines)


def gate_main(results: list[dict], check) -> None:
    """Standalone-script exit protocol: collect gate failures, exit non-zero."""
    failures: list[str] = []
    for result in results:
        failures.extend(check(result))
    if failures:
        raise SystemExit("\n".join(failures))


def write_result(name: str, lines: list[str]) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def write_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark result as
    ``benchmarks/results/<name>.json``; returns that path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(text)
    print(text)
    return path


def format_report_row(label: str, report) -> str:
    return (
        f"{label:<34s} n={report.n_contacts:5d}  sparsity={report.sparsity_factor:7.1f}  "
        f"Qsparsity={report.q_sparsity_factor:6.1f}  "
        f"maxrel={100 * report.max_relative_error:8.2f}%  "
        f">10%={100 * report.fraction_above_10pct:6.2f}%  "
        f"solves={report.n_solves:5d}  reduction={report.solve_reduction_factor:5.1f}x"
    )
