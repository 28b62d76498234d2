"""Extraction service: coalesced scheduling versus one-solver-per-request.

Eight concurrent clients request overlapping column sets of the same
substrate's ``G``.  The baseline arm is the pre-service status quo — every
client builds its own solver (factor cache disabled, emulating independent
processes) and extracts its columns in isolation.  The service arm submits
the same workload as :class:`~repro.service.jobs.JobRequest` jobs to one
:class:`~repro.service.scheduler.Scheduler`, which coalesces them over the
shared substrate fingerprint, solves only the union of fresh columns on a
persistent warm engine, and serves overlaps from the result store.  A
2-client round trip through the real HTTP server checks the wire path.  It
emits a machine-readable ``BENCH_service.json`` (under ``benchmarks/results/``).

Hard gates (every scale, including the CI smoke run):

* every client's service result agrees with its isolated per-request
  extraction to 1e-10, over HTTP too;
* solve attribution is identical: the service charges exactly one black-box
  solve per *distinct* union column (``attributed_solves ==
  columns_solved == |union|``), each baseline client exactly one per
  requested column;
* a repeated query is served entirely from the ``ResultStore`` — **zero**
  new solves;
* the HTTP arm solves each distinct column at most once across its clients
  (cross-request amortisation on the wire path).

Speed gate (>= 2 CPUs and a measurably expensive baseline only — smoke
scales are correctness-only): the service serves the 8-client workload at
>= 3x the one-solver-per-request throughput.

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_service.py

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
    default_sizes,
    emit_benchmark,
    ensure_repro_importable,
    gate_main,
)

ensure_repro_importable()

from repro.experiments import run_service_experiment

#: agreement bound: the service may never change the answer
AGREEMENT_RTOL = 1e-10
#: required throughput multiple over one-solver-per-request at 8 clients
SPEEDUP_GATE = 3.0
#: clients in the concurrent in-process arm
N_CLIENTS = 8
#: the speed gate only fires once the baseline is genuinely expensive —
#: below this the measurement is dominated by the coalesce window and fixed
#: scheduling overhead, not solver work (smoke runs stay correctness-only,
#: mirroring bench_parallel's measurable-serial exemption)
MIN_GATED_BASELINE_S = 0.5


def run(sizes: list[int]) -> list[dict]:
    results = [run_service_experiment(n_side=s, n_clients=N_CLIENTS) for s in sizes]
    payload = {
        "benchmark": "service",
        "description": "extraction service (coalesced scheduler + result store + "
        "persistent warm engines) vs one-solver-per-request at "
        f"{N_CLIENTS} concurrent clients on a shared substrate, plus "
        "a 2-client HTTP round trip",
        "n_clients": N_CLIENTS,
        "cpu_count": int(os.cpu_count() or 1),
        "results": results,
    }
    lines = [
        "Extraction service: coalesced vs one-solver-per-request",
        f"{'n_side':>6s} {'clients':>7s} {'union':>5s} {'baseline':>9s} "
        f"{'service':>9s} {'speedup':>7s} {'solved':>6s} {'store':>5s} "
        f"{'max rel diff':>13s}",
    ]
    for r in results:
        lines.append(
            f"{r['n_side']:>6d} {r['n_clients']:>7d} {r['union_columns']:>5d} "
            f"{r['baseline_s']:>8.3f}s {r['service_s']:>8.3f}s "
            f"{r['throughput_speedup']:>6.2f}x {r['columns_solved']:>6d} "
            f"{r['columns_from_store']:>5d} {r['max_abs_diff_rel']:>12.2e}"
        )
        http = r.get("http")
        if http:
            lines.append(
                f"{r['n_side']:>6d}    http clients={http['clients']} "
                f"union={http['union_columns']} solved={http['columns_solved']} "
                f"batches={http['batches']} diff={http['max_abs_diff_rel']:.2e}"
            )
    emit_benchmark("BENCH_service", payload, "bench_service", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    if any(status != "done" for status in result["service_status"]):
        failures.append(f"service jobs ended {result['service_status']} {where}")
    if result["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"service results disagree with isolated per-request extraction "
            f"({result['max_abs_diff_rel']:.2e} rel) {where}"
        )
    # attribution: exactly one black-box solve per distinct union column on
    # the service side, one per requested column per isolated client
    if result["columns_solved"] != result["union_columns"]:
        failures.append(
            f"service solved {result['columns_solved']} columns for a "
            f"{result['union_columns']}-column union {where}"
        )
    if result["attributed_solves"] != result["columns_solved"]:
        failures.append(
            f"attribution drift: {result['attributed_solves']} attributed vs "
            f"{result['columns_solved']} solved columns {where}"
        )
    if any(c != result["columns_per_client"] for c in result["baseline_counts"]):
        failures.append(
            f"baseline attribution drift: {result['baseline_counts']} vs "
            f"{result['columns_per_client']} columns per client {where}"
        )
    repeat = result["repeat"]
    if repeat["status"] != "done" or repeat["new_solves"] != 0:
        failures.append(
            f"repeated query was not served from the result store "
            f"(status={repeat['status']}, {repeat['new_solves']} new solves) {where}"
        )
    if repeat["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"repeated query disagrees ({repeat['max_abs_diff_rel']:.2e} rel) {where}"
        )
    http = result.get("http")
    if http is not None:
        if not http["healthz_ok"]:
            failures.append(f"healthz probe failed {where}")
        if http["max_abs_diff_rel"] > AGREEMENT_RTOL:
            failures.append(
                f"HTTP results disagree ({http['max_abs_diff_rel']:.2e} rel) {where}"
            )
        if http["columns_solved"] > http["union_columns"]:
            failures.append(
                f"HTTP arm re-solved shared columns ({http['columns_solved']} "
                f"solves for a {http['union_columns']}-column union) {where}"
            )
    # the speed gate needs real parallel hardware (a 1-CPU container measures
    # scheduling overhead, not throughput) and a baseline expensive enough
    # that fixed overheads cannot dominate the ratio
    if (
        result["cpu_count"] >= 2
        and result["baseline_s"] >= MIN_GATED_BASELINE_S
        and result["throughput_speedup"] < SPEEDUP_GATE
    ):
        failures.append(
            f"service throughput {result['throughput_speedup']:.2f}x is below "
            f"the {SPEEDUP_GATE:.0f}x gate at {result['n_clients']} clients {where}"
        )
    return failures


def test_bench_service():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
