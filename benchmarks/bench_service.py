"""Extraction service: coalesced scheduling versus one-solver-per-request.

Eight concurrent clients request overlapping column sets of the same
substrate's ``G``, each a random sample drawn from a shared half of the
contacts (heavy overlap — the workload the service exists for).  The
baseline arm is the pre-service status quo — every client builds its own
solver (factor cache disabled, emulating independent processes) and extracts
its columns in isolation; its blocks double as the agreement references.
The service arm submits the same workload as
:class:`~repro.service.jobs.JobRequest` jobs to one
:class:`~repro.service.scheduler.Scheduler`, which coalesces them over the
shared substrate fingerprint, solves only the union of fresh columns on a
persistent warm engine, and serves overlaps from the result store.  A
2-client round trip through the real HTTP server checks the wire path.  It
emits ``BENCH_service.json`` (under ``benchmarks/results/``).

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

Speed gate (>= 2 CPUs and a measurably expensive baseline only): the service
serves the 8-client workload at >= 3x the one-solver-per-request throughput.

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_service.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    Gates,
    default_sizes,
    emit,
    fan_out,
    rel_diff,
    run_clients,
    solver_spec,
    timed,
)

from repro.service import AsyncExtractionServer, JobRequest, Scheduler, ServiceClient
from repro.substrate import CountingSolver, extract_columns

#: agreement bound: the service may never change the answer
AGREEMENT_RTOL = 1e-10
#: required throughput multiple over one-solver-per-request at 8 clients
SPEEDUP_GATE = 3.0
#: clients in the concurrent in-process arm
N_CLIENTS = 8
#: clients in the HTTP round trip
HTTP_CLIENTS = 2
COALESCE_WINDOW_S = 0.05
#: the speed gate only fires once the baseline is genuinely expensive —
#: below this the measurement is dominated by the coalesce window and fixed
#: scheduling overhead, not solver work
MIN_GATED_BASELINE_S = 0.5


def measure(n_side: int, gates: Gates) -> dict:
    spec = solver_spec(n_side)
    baseline_spec = solver_spec(n_side, use_factor_cache=False)
    n = spec.layout.n_contacts
    columns_per_client = max(2, n // 4)
    rng = np.random.default_rng(0)
    pool = np.sort(rng.choice(n, size=max(columns_per_client, n // 2), replace=False))
    client_columns = [
        tuple(int(c) for c in np.sort(rng.choice(pool, size=columns_per_client, replace=False)))
        for _ in range(N_CLIENTS)
    ]
    union = sorted({c for cols in client_columns for c in cols})

    # --- baseline: one fresh solver per concurrent request ------------------
    def baseline_client(columns):
        counting = CountingSolver(baseline_spec.build())
        return extract_columns(counting, np.asarray(columns, dtype=int)), counting.solve_count

    baseline_s, baseline = timed(fan_out, baseline_client, client_columns)
    references = [block for block, _ in baseline]
    scale = float(max(np.abs(g).max() for g in references))
    result: dict = {
        "n_side": n_side,
        "n_contacts": n,
        "n_clients": N_CLIENTS,
        "columns_per_client": columns_per_client,
        "union_columns": len(union),
        "baseline_s": baseline_s,
        "baseline_counts": [int(count) for _, count in baseline],
    }

    # --- service: coalesced jobs against one scheduler ----------------------
    requests = [JobRequest(spec, columns=cols) for cols in client_columns]
    with Scheduler(coalesce_window_s=COALESCE_WINDOW_S) as scheduler:
        service_s, jobs = run_clients(scheduler, requests)
        stats = scheduler.stats()
        # repeated query: must be served from the store, zero new solves
        solved_before_repeat = scheduler.metrics.columns_solved
        _, (repeat,) = run_clients(scheduler, requests[:1])
        result.update(
            {
                "service_s": service_s,
                "throughput_speedup": baseline_s / service_s,
                "service_status": [job.status for job in jobs],
                "max_abs_diff_rel": max(
                    rel_diff(job.result, ref, scale)
                    for job, ref in zip(jobs, references, strict=True)
                ),
                "columns_solved": int(stats["coalescing"]["columns_solved"]),
                "columns_from_store": int(stats["coalescing"]["columns_from_store"]),
                "batches": int(stats["coalescing"]["batches"]),
                "attributed_solves": int(scheduler.attributed_solves),
                "latency_s": stats["latency_s"],
                "solve_stats": stats["solve_stats"],
                "result_store": stats["result_store"],
                "repeat": {
                    "status": repeat.status,
                    "new_solves": int(scheduler.metrics.columns_solved - solved_before_repeat),
                    "max_abs_diff_rel": rel_diff(repeat.result, references[0], scale),
                },
            }
        )

    # --- HTTP round trip through the real server ----------------------------
    with AsyncExtractionServer(coalesce_window_s=COALESCE_WINDOW_S) as server:
        client = ServiceClient(server.url, timeout_s=600.0)
        http_results = fan_out(
            lambda request: client.extract(request, timeout_s=600.0), requests[:HTTP_CLIENTS]
        )
        http_stats = client.stats()
        http = result["http"] = {
            "clients": HTTP_CLIENTS,
            "healthz_ok": bool(client.healthz()["ok"]),
            "union_columns": len({c for cols in client_columns[:HTTP_CLIENTS] for c in cols}),
            "columns_solved": int(http_stats["coalescing"]["columns_solved"]),
            "batches": int(http_stats["coalescing"]["batches"]),
            "max_abs_diff_rel": max(
                rel_diff(got, ref, scale)
                for got, ref in zip(http_results, references[:HTTP_CLIENTS], strict=True)
            ),
        }

    gates.check(
        "every service job completes",
        n_side,
        all(status == "done" for status in result["service_status"]),
        f"statuses {result['service_status']}",
    )
    gates.check(
        "service agrees with isolated per-request extraction",
        n_side,
        result["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"{result['max_abs_diff_rel']:.2e} rel",
    )
    # attribution: exactly one black-box solve per distinct union column on
    # the service side, one per requested column per isolated client
    gates.check(
        "service solves each union column exactly once",
        n_side,
        result["columns_solved"] == result["attributed_solves"] == len(union),
        f"{result['columns_solved']} solved, {result['attributed_solves']} attributed, "
        f"{len(union)}-column union",
    )
    gates.check(
        "each baseline client solves exactly its columns",
        n_side,
        all(c == columns_per_client for c in result["baseline_counts"]),
        f"counts {result['baseline_counts']} vs {columns_per_client} columns per client",
    )
    rep = result["repeat"]
    gates.check(
        "repeated query is served from the result store",
        n_side,
        rep["status"] == "done"
        and rep["new_solves"] == 0
        and rep["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"status {rep['status']}, {rep['new_solves']} new solves, "
        f"{rep['max_abs_diff_rel']:.2e} rel",
    )
    gates.check(
        "HTTP arm is healthy and agrees",
        n_side,
        http["healthz_ok"] and http["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"healthz {http['healthz_ok']}, {http['max_abs_diff_rel']:.2e} rel",
    )
    gates.check(
        "HTTP arm never re-solves a shared column",
        n_side,
        http["columns_solved"] <= http["union_columns"],
        f"{http['columns_solved']} solves for a {http['union_columns']}-column union",
    )
    # the speed gate needs real parallel hardware (a 1-CPU container measures
    # scheduling overhead, not throughput) and a baseline expensive enough
    # that fixed overheads cannot dominate the ratio
    gates.check(
        f"service >= {SPEEDUP_GATE:g}x one-solver-per-request throughput",
        n_side,
        result["throughput_speedup"] >= SPEEDUP_GATE,
        f"{result['throughput_speedup']:.2f}x (baseline {baseline_s:.3f}s)",
        armed=(os.cpu_count() or 1) >= 2 and baseline_s >= MIN_GATED_BASELINE_S,
        timing=True,
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_service",
        "service",
        "extraction service (coalesced scheduler + result store + persistent warm "
        f"engines) vs one-solver-per-request at {N_CLIENTS} concurrent clients on a "
        f"shared substrate, plus a {HTTP_CLIENTS}-client HTTP round trip",
        results,
        gates,
    )


def test_bench_service():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
