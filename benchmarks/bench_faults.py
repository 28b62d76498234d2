"""Chaos suite: the extraction service under deterministically injected faults.

The service's fault-tolerance claims (supervised worker pools, scheduler
retry with backoff, priority-aware load shedding) are only trustworthy if
the failures they guard against can be produced on demand.  One overlapping
multi-client workload runs fault-free (the accuracy and attribution
reference), then again under three :mod:`repro.faults` plans:

* **worker_kill** — the pool worker serving shard 0 is killed
  mid-``solve_many`` (``once_key`` token: exactly one kill across every
  worker generation);
* **factor_retry** — engine construction fails once (``RuntimeError`` at
  ``factor.build``) and the scheduler's ``RetryPolicy`` must absorb it;
* **overload** — a bounded queue (depth = client count) behind the real HTTP
  server is filled with priority-0 jobs, two priority-5 jobs displace the
  two youngest, one more priority-0 submit is refused with HTTP 429, and an
  injected ``dispatch.cycle`` drop must leave the queue intact.

It emits ``BENCH_faults.json`` (under ``benchmarks/results/``).

Hard gates (every scale, including the CI smoke run):

* **worker kill** — the injected kill actually fired, the supervised
  extractor rebuilt the pool (>= 1 ``pool_rebuilds``), zero jobs were lost,
  and results agree with the fault-free run to 1e-10;
* **factor retry** — the transient build failure is absorbed by the retry
  policy within ``max_attempts`` and at least one retry was recorded;
* **attribution invariance** — every arm charges exactly one black-box
  solve per distinct union column: recovery, retries and store re-checks
  must never double-count (nor skip) an attributed solve;
* **overload** — exactly the two lowest-priority queued jobs are shed, the
  over-limit submission is refused with HTTP 429 (+ Retry-After), both
  high-priority jobs and every surviving job complete at 1e-10, and an
  injected dropped dispatch cycle leaves the queue intact.

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_faults.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import Gates, default_sizes, emit, rel_diff, run_clients, solver_spec

from repro import faults
from repro.service import (
    AsyncExtractionServer,
    JobRequest,
    QueueSaturatedError,
    RetryPolicy,
    Scheduler,
    ServiceClient,
)
from repro.substrate.factor_cache import factor_cache

#: agreement bound: fault recovery may never change the answer
AGREEMENT_RTOL = 1e-10
#: clients in the concurrent workload (every arm)
N_CLIENTS = 4
#: scheduler retry budget for the transient-failure arm
MAX_ATTEMPTS = 3
#: pool workers; the kill arm needs real worker processes to kill
N_WORKERS = 2


def arm_record(elapsed_s, jobs, scheduler) -> dict:
    return {
        "elapsed_s": elapsed_s,
        "status": [job.status for job in jobs],
        "attempts": [job.attempts for job in jobs],
        "attributed_solves": int(scheduler.attributed_solves),
    }


def measure(n_side: int, gates: Gates) -> dict:
    spec = solver_spec(n_side)
    n = spec.layout.n_contacts
    # wide enough that the union block takes the sharded pool path
    # (min_parallel_columns) even at smoke scale — the kill arm needs actual
    # worker processes to kill
    columns_per_client = min(max(8, n // 4), n)
    policy = RetryPolicy(max_attempts=MAX_ATTEMPTS, base_delay_s=0.01, cap_s=0.1)
    rng = np.random.default_rng(0)
    requests = [
        JobRequest(
            spec,
            columns=tuple(
                int(c) for c in np.sort(rng.choice(n, size=columns_per_client, replace=False))
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
        "n_workers": N_WORKERS,
        "max_attempts": MAX_ATTEMPTS,
    }

    # --- arm 0: fault-free baseline -----------------------------------------
    factor_cache().clear()
    with Scheduler(n_workers=N_WORKERS, retry_policy=policy) as scheduler:
        elapsed_s, baseline = run_clients(scheduler, requests)
        result["baseline"] = arm_record(elapsed_s, baseline, scheduler)
    references = [job.result for job in baseline]
    scale = float(max(np.abs(g).max() for g in references))

    def max_diff(jobs) -> float:
        return max(
            rel_diff(job.result, ref, scale) for job, ref in zip(jobs, references, strict=True)
        )

    # --- arm 1: kill a pool worker mid-solve --------------------------------
    with tempfile.TemporaryDirectory(prefix="repro_faults_") as token_dir:
        plan = {
            "token_dir": token_dir,
            "faults": [
                {
                    "site": "worker.solve",
                    "action": "kill",
                    "match": {"start": 0},
                    "once_key": "bench-kill-worker",
                }
            ],
        }
        # via the environment, so worker processes inherit the plan under
        # both fork and spawn start methods
        previous = os.environ.get(faults.ENV_VAR)
        os.environ[faults.ENV_VAR] = json.dumps(plan)
        active = faults.reload_env_plan()
        try:
            factor_cache().clear()
            with Scheduler(n_workers=N_WORKERS, retry_policy=policy) as scheduler:
                elapsed_s, kill = run_clients(scheduler, requests)
                counters = scheduler.metrics.fault_counters()
                result["worker_kill"] = {
                    **arm_record(elapsed_s, kill, scheduler),
                    "pool_rebuilds": int(counters["pool_rebuilds"]),
                    "degraded_solves": int(counters["degraded_solves"]),
                    "fault_fired": bool(active.once_tripped("bench-kill-worker")),
                    "max_abs_diff_rel": max_diff(kill),
                }
        finally:
            if previous is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = previous
            faults.clear_plan()

    # --- arm 2: transient engine-build failure, retried ---------------------
    factor_cache().clear()
    with faults.inject(
        [{"site": "factor.build", "action": "raise", "exception": "RuntimeError", "times": 1}]
    ):
        with Scheduler(n_workers=N_WORKERS, retry_policy=policy) as scheduler:
            elapsed_s, retry = run_clients(scheduler, requests)
            result["factor_retry"] = {
                **arm_record(elapsed_s, retry, scheduler),
                "retries": int(scheduler.metrics.fault_counters()["retries"]),
                "max_abs_diff_rel": max_diff(retry),
            }

    # --- arm 3: overload shedding through the HTTP front end ----------------
    factor_cache().clear()
    depth = N_CLIENTS
    scheduler = Scheduler(
        n_workers=N_WORKERS,
        retry_policy=policy,
        autostart=False,  # the queue must fill deterministically
        max_queue_depth=depth,
    )
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            client = ServiceClient(server.url, timeout_s=600.0)

            def submit(i: int, priority: int) -> str:
                request = requests[i % N_CLIENTS]
                return client.submit(JobRequest(spec, columns=request.columns, priority=priority))

            low_ids = [submit(i, 0) for i in range(depth)]
            high_ids = [submit(i, 5) for i in range(2)]
            rejected = False
            retry_after_s = None
            try:
                submit(0, 0)
            except QueueSaturatedError as exc:
                rejected = True
                retry_after_s = float(exc.retry_after_s)
            # a dropped dispatch cycle leaves the queue untouched
            with faults.inject([{"site": "dispatch.cycle", "action": "drop", "times": 1}]):
                served_during_drop = scheduler.step()
            depth_after_drop = scheduler.queue_depth
            served = 0
            while scheduler.queue_depth:
                served += scheduler.step()
            low = [client.result(job_id) for job_id in low_ids]
            high = [client.result(job_id) for job_id in high_ids]
            survivor_diffs = [
                rel_diff(snapshot["result"], references[i % N_CLIENTS], scale)
                for snapshots in (low, high)
                for i, snapshot in enumerate(snapshots)
                if snapshot["status"] == "done"
            ]
            counters = scheduler.metrics.fault_counters()
            over = result["overload"] = {
                "queue_depth": depth,
                "low_status": [snapshot["status"] for snapshot in low],
                "high_status": [snapshot["status"] for snapshot in high],
                "shed": int(scheduler.metrics.jobs_shed),
                "submits_rejected": int(counters["submits_rejected"]),
                "rejected_over_http": rejected,
                "retry_after_s": retry_after_s,
                "served_during_drop": int(served_during_drop),
                "queue_depth_after_drop": int(depth_after_drop),
                "served_after_drop": int(served),
                "max_abs_diff_rel": max(survivor_diffs, default=0.0),
            }
    finally:
        scheduler.close()
        factor_cache().clear()

    # every arm's attribution is exact: one solve per distinct union column,
    # no matter what was killed, retried or re-read from the store
    for arm in ("baseline", "worker_kill", "factor_retry"):
        record = result[arm]
        gates.check(
            f"{arm}: every job completes",
            n_side,
            all(status == "done" for status in record["status"]),
            f"statuses {record['status']}",
        )
        gates.check(
            f"{arm}: one attributed solve per union column",
            n_side,
            record["attributed_solves"] == len(union),
            f"{record['attributed_solves']} solves for a {len(union)}-column union",
        )
    for arm in ("worker_kill", "factor_retry"):
        gates.check(
            f"{arm}: results agree with the fault-free run",
            n_side,
            result[arm]["max_abs_diff_rel"] <= AGREEMENT_RTOL,
            f"{result[arm]['max_abs_diff_rel']:.2e} rel",
        )
    kill = result["worker_kill"]
    gates.check(
        "worker_kill: the kill fired and the pool was rebuilt",
        n_side,
        kill["fault_fired"] and kill["pool_rebuilds"] >= 1,
        f"fired {kill['fault_fired']}, {kill['pool_rebuilds']} pool rebuilds",
    )
    retry = result["factor_retry"]
    gates.check(
        f"factor_retry: retried within {MAX_ATTEMPTS} attempts",
        n_side,
        retry["retries"] >= 1 and max(retry["attempts"]) <= MAX_ATTEMPTS,
        f"{retry['retries']} retries, attempts {retry['attempts']}",
    )
    # exactly the two lowest-priority jobs are displaced — the youngest two of
    # the priority-0 queue — and both high-priority jobs complete
    gates.check(
        "overload: exactly the two youngest low-priority jobs are shed",
        n_side,
        over["low_status"] == ["done", "done", "shed", "shed"]
        and all(status == "done" for status in over["high_status"])
        and over["shed"] == 2,
        f"low {over['low_status']}, high {over['high_status']}, shed {over['shed']}",
    )
    gates.check(
        "overload: the over-limit submit is refused with HTTP 429",
        n_side,
        over["rejected_over_http"] and over["submits_rejected"] == 1,
        f"429 {over['rejected_over_http']}, {over['submits_rejected']} rejected",
    )
    gates.check(
        "overload: a dropped dispatch cycle leaves the queue intact",
        n_side,
        over["served_during_drop"] == 0 and over["queue_depth_after_drop"] > 0,
        f"served {over['served_during_drop']}, depth {over['queue_depth_after_drop']}",
    )
    gates.check(
        "overload: survivors agree with the fault-free run",
        n_side,
        over["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"{over['max_abs_diff_rel']:.2e} rel",
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_faults",
        "faults",
        f"extraction service under injected faults ({N_CLIENTS} concurrent clients on "
        "a shared substrate): worker kill + supervised pool rebuild, transient "
        "engine-build failure + retry/backoff, bounded-queue load shedding with HTTP "
        "429, dropped dispatch cycle",
        results,
        gates,
    )


def test_bench_faults():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
