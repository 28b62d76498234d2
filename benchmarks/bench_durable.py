"""Durable service state: cold start versus warm restart of the corpus.

The extraction service's amortised state — solved ``G`` columns, factor
payloads, accepted jobs — survives a restart through its state directory.
Three schedulers run against the **same state directory**, with the
process-wide factor cache wiped between them to simulate a process restart:

* **cold** — an empty state dir: clients pay the full factorisation and one
  attributed solve per union column, and every byte of it lands in the
  durable corpus (sqlite columns, factor artifacts, job journal);
* **warm** — a restarted service over the populated state dir re-serves the
  *same* client workload entirely from the corpus, and a fresh
  (never-solved) column — held out of every client's sample — costs
  exactly one solve with the factor loaded from the artifact store;
* **replay** — a scheduler accepts a job and "crashes" (the state dir
  survives, the scheduler never finalizes the job); the next start replays
  the journaled job under its original id.

It emits ``BENCH_durable.json`` (under ``benchmarks/results/``).

Hard gates (every scale, including the CI smoke run):

* both arms complete every job, and the warm results agree with the cold
  ones to 1e-10;
* cold attribution is exact (one solve per distinct union column) and the
  warm restart charges **zero** new solves for the replayed corpus;
* a *fresh* column after restart costs exactly one solve, with the factor
  **attached from the artifact store** — counter-pinned: a bare solver over
  the same spec reports zero factor rebuilds while the artifact store is
  wired and >= 1 once it is not;
* the crash-replay arm replays >= 1 journaled job and completes it from
  the warm corpus with zero solves at 1e-10 agreement.

Speed gate (measurably expensive cold arm only): the warm restart serves the
workload at >= 2x the cold throughput (in practice it is orders of magnitude
faster; the loose bound keeps the gate robust to scheduling noise).

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_durable.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import Gates, default_sizes, emit, rel_diff, run_clients, solver_spec

from repro.service import JobRequest, Scheduler
from repro.substrate.factor_cache import factor_cache

#: agreement bound: persistence may never change the answer
AGREEMENT_RTOL = 1e-10
#: required warm-restart throughput multiple over the cold start
SPEEDUP_GATE = 2.0
#: clients in the concurrent workload (both arms)
N_CLIENTS = 4
#: the speed gate only fires once the cold arm is genuinely expensive —
#: below this the measurement is dominated by fixed scheduling overhead,
#: not the factorisation + solves the corpus saves
MIN_GATED_COLD_S = 0.5


def measure(n_side: int, state_dir: str, gates: Gates) -> dict:
    spec = solver_spec(n_side)
    n = spec.layout.n_contacts
    columns_per_client = max(2, n // 4)
    rng = np.random.default_rng(0)
    # hold one contact out of every client's sample: the warm arm proves a
    # *fresh* column still costs exactly one solve (store can't fake it)
    held_out = int(rng.integers(n))
    pool = np.array([c for c in range(n) if c != held_out])
    requests = [
        JobRequest(
            spec,
            columns=tuple(
                int(c) for c in np.sort(rng.choice(pool, size=columns_per_client, replace=False))
            ),
        )
        for _ in range(N_CLIENTS)
    ]
    union = sorted({c for request in requests for c in request.columns})
    result: dict = {
        "n_side": n_side,
        "n_contacts": n,
        "n_clients": N_CLIENTS,
        "columns_per_client": columns_per_client,
        "union_columns": len(union),
        "held_out_column": held_out,
    }

    # --- cold arm: empty state dir, full factorisation + solves -------------
    factor_cache().clear()
    with Scheduler(persistence=state_dir) as scheduler:
        cold_s, cold = run_clients(scheduler, requests)
        result.update(
            {
                "cold_s": cold_s,
                "cold_status": [job.status for job in cold],
                "cold_attributed_solves": int(scheduler.attributed_solves),
                "persistence_after_cold": scheduler.persistence.info(),
            }
        )
    references = [job.result for job in cold]
    scale = float(max(np.abs(g).max() for g in references))

    # --- warm arm: simulated restart over the populated state dir -----------
    factor_cache().clear()  # a new process holds no RAM factors
    with Scheduler(persistence=state_dir) as scheduler:
        warm_s, warm = run_clients(scheduler, requests)
        result.update(
            {
                "warm_s": warm_s,
                "warm_status": [job.status for job in warm],
                "warm_attributed_solves": int(scheduler.attributed_solves),
                "warm_max_abs_diff_rel": max(
                    rel_diff(job.result, ref, scale)
                    for job, ref in zip(warm, references, strict=True)
                ),
                "warm_speedup": cold_s / warm_s,
                "warm_disk_hits": int(scheduler.store.info()["disk_hits"]),
            }
        )

        # fresh column: the corpus cannot fake it — exactly one solve, with
        # the factor attached from the artifact store, not rebuilt
        before = scheduler.attributed_solves
        cache = factor_cache()
        hits_before = cache.artifact_hits
        cache.clear()  # force the engine rebuild path through artifacts
        scheduler.pool.close()  # drop the warm engine with its factor
        _, (job,) = run_clients(scheduler, [JobRequest(spec, columns=(held_out,))])
        result["fresh_column"] = {
            "status": job.status,
            "new_solves": int(scheduler.attributed_solves - before),
            "artifact_hits": int(cache.artifact_hits - hits_before),
        }

        # counter-pinned factor probes: a bare solver over the same spec must
        # attach the artifact (zero rebuilds) while the store is wired, and
        # rebuild from scratch once it is not
        cache.clear()
        warm_probe = spec.build()
        warm_probe.prepare_direct()
        result["warm_probe_rebuilds"] = int(warm_probe.stats.n_factor_rebuilds)
    factor_cache().clear()  # artifact store now detached (scheduler closed)
    cold_probe = spec.build()
    cold_probe.prepare_direct()
    result["cold_probe_rebuilds"] = int(cold_probe.stats.n_factor_rebuilds)

    # --- crash replay: accept, "crash", restart, journal replays ------------
    factor_cache().clear()
    crashed = Scheduler(persistence=state_dir, autostart=False)
    crash_job_id = crashed.submit(requests[0])
    # simulated crash: the journaled accept survives on disk, but the job is
    # never served or marked terminal (close() deliberately skips the
    # terminal mark for still-pending work)
    crashed.close()
    with Scheduler(persistence=state_dir) as scheduler:
        job = scheduler.result(crash_job_id, wait_s=600.0)
        result["replay"] = {
            "journal_replayed": int(scheduler.metrics.jobs_replayed),
            "status": job.status,
            "new_solves": int(scheduler.attributed_solves),
            "max_abs_diff_rel": rel_diff(job.result, references[0], scale),
        }

    gates.check(
        "every cold and warm job completes",
        n_side,
        all(s == "done" for s in result["cold_status"] + result["warm_status"]),
        f"cold {result['cold_status']}, warm {result['warm_status']}",
    )
    gates.check(
        "cold start solves each union column exactly once",
        n_side,
        result["cold_attributed_solves"] == len(union),
        f"{result['cold_attributed_solves']} solves for a {len(union)}-column union",
    )
    # the tentpole gate: a restarted service re-serves the corpus for free
    gates.check(
        "warm restart charges zero solves and reads every column from disk",
        n_side,
        result["warm_attributed_solves"] == 0 and result["warm_disk_hits"] >= len(union),
        f"{result['warm_attributed_solves']} solves, {result['warm_disk_hits']} disk hits "
        f"for a {len(union)}-column union",
    )
    gates.check(
        "warm restart agrees with the cold start",
        n_side,
        result["warm_max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"{result['warm_max_abs_diff_rel']:.2e} rel",
    )
    # the corpus cannot fake a fresh column — and its factor must come from
    # the artifact store, not a rebuild
    fresh = result["fresh_column"]
    gates.check(
        "a fresh column costs one solve, factor from the artifact store",
        n_side,
        fresh["status"] == "done" and fresh["new_solves"] == 1 and fresh["artifact_hits"] >= 1,
        f"status {fresh['status']}, {fresh['new_solves']} solves, "
        f"{fresh['artifact_hits']} artifact hits",
    )
    gates.check(
        "factor probes: zero rebuilds with the artifact store, >= 1 without",
        n_side,
        result["warm_probe_rebuilds"] == 0 and result["cold_probe_rebuilds"] >= 1,
        f"warm {result['warm_probe_rebuilds']}, cold {result['cold_probe_rebuilds']} rebuilds",
    )
    replay = result["replay"]
    gates.check(
        "crash replay completes from the warm corpus with zero solves",
        n_side,
        replay["journal_replayed"] >= 1
        and replay["status"] == "done"
        and replay["new_solves"] == 0
        and replay["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"replayed {replay['journal_replayed']}, status {replay['status']}, "
        f"{replay['new_solves']} solves, {replay['max_abs_diff_rel']:.2e} rel",
    )
    gates.check(
        f"warm restart >= {SPEEDUP_GATE:g}x cold throughput",
        n_side,
        result["warm_speedup"] >= SPEEDUP_GATE,
        f"{result['warm_speedup']:.2f}x (cold {cold_s:.3f}s)",
        armed=cold_s >= MIN_GATED_COLD_S,
        timing=True,
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = []
    for s in sizes:
        with tempfile.TemporaryDirectory(prefix="repro_durable_") as state_dir:
            try:
                results.append(measure(s, state_dir, gates))
            finally:
                factor_cache().clear()
                factor_cache().set_artifact_store(None)  # never outlive the state dir
    return emit(
        "BENCH_durable",
        "durable",
        "cold start vs warm restart of a persistent extraction service "
        f"({N_CLIENTS} concurrent clients on a shared substrate): sqlite result "
        "corpus, content-addressed factor artifacts, crash-safe job journal",
        results,
        gates,
    )


def test_bench_durable():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
