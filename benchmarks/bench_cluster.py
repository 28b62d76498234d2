"""Leader/worker cluster: agreement, exactly-once attribution, failover.

Four arms per problem size, all driving the same workload — one job per
substrate fingerprint (four fingerprints: same grid, different fill
factors), each asking for the same column count:

* **single-host** — today's in-process
  :class:`~repro.service.Scheduler`; its blocks are the reference every
  cluster arm must reproduce to **1e-10**.
* **cluster-1** — a :class:`~repro.cluster.ClusterLeader` fronting one
  worker *process* (spawned via ``python -m repro.cluster worker``); the
  single-worker wall time is the throughput baseline.
* **cluster-2** — the same leader configuration fronting two worker
  processes.  Gates: agreement, exactly-once attribution (the workers'
  ``attributed_solves`` sum to exactly the distinct column count; their
  engine builds sum to exactly the fingerprint count — one factor build
  per substrate across the whole cluster), and on multi-CPU runners a
  **>= 1.5x** speedup over cluster-1.  On a single-CPU runner the
  speedup gate is disarmed (the two worker processes share one core, so
  the ratio measures contention, not scaling).
* **failover** — a worker is SIGKILLed while its pinned fingerprint still
  has unserved columns; the re-submitted group must re-route to the
  survivor and complete.  Gates: zero lost jobs, ``reroutes >= 1``, the
  victim lands in the dead set, and the survivor solves exactly the
  still-missing columns (columns the victim solved before dying are
  served from the leader's store, never re-solved).

Emits ``BENCH_cluster.json`` under ``benchmarks/results/``.  Run directly
(``REPRO_BENCH_NSIDE=8`` for the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_cluster.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    REPO_ROOT,
    Gates,
    default_sizes,
    emit,
    fan_out,
    rel_diff,
    run_clients,
    solver_spec,
    timed,
)

from repro.cluster import ClusterLeader
from repro.service import JobRequest, Scheduler, ServiceClient

AGREEMENT_RTOL = 1e-10
#: fill factors — four distinct substrates over one grid size
FILLS = (0.5, 0.45, 0.4, 0.35)
COLUMNS_PER_GROUP = 8
SPEEDUP_FLOOR = 1.5
WORKER_BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 600.0


# ------------------------------------------------------------------ plumbing
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_worker(leader_url: str, worker_id: str) -> tuple[subprocess.Popen, str]:
    """Start one worker host as a real OS process (the unit failover kills)."""
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster",
            "worker",
            "--leader",
            leader_url,
            "--port",
            str(port),
            "--worker-id",
            worker_id,
            "--workers",
            "1",
            "--heartbeat",
            "0.5",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc, f"http://127.0.0.1:{port}"


def _await_live(leader: ClusterLeader, count: int) -> None:
    deadline = time.monotonic() + WORKER_BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if len(leader.registry.live()) >= count:
            return
        time.sleep(0.05)
    raise RuntimeError(f"{count} workers did not register within {WORKER_BOOT_TIMEOUT_S:g}s")


def _kill(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait(timeout=30)


# ---------------------------------------------------------------------- arms
def _request(spec) -> JobRequest:
    n = spec.layout.n_contacts
    columns = tuple(range(0, n, max(1, n // COLUMNS_PER_GROUP)))[:COLUMNS_PER_GROUP]
    return JobRequest(spec, columns=columns)


def _run_cluster_arm(
    requests: list[JobRequest], n_workers: int
) -> tuple[float, list[np.ndarray], list[dict]]:
    """One fresh leader + ``n_workers`` worker processes over the workload."""
    procs: list[subprocess.Popen] = []
    with ClusterLeader() as leader:
        try:
            urls = []
            for i in range(n_workers):
                proc, url = _spawn_worker(leader.url, f"bench-{n_workers}w-{i}")
                procs.append(proc)
                urls.append(url)
            _await_live(leader, n_workers)

            def one(request: JobRequest) -> np.ndarray:
                with ServiceClient(leader.url, timeout_s=JOB_TIMEOUT_S) as client:
                    return client.extract(request, timeout_s=JOB_TIMEOUT_S)

            wall, blocks = timed(fan_out, one, requests)
            worker_stats = []
            for url in urls:
                with ServiceClient(url, timeout_s=30.0) as client:
                    worker_stats.append(client.stats())
        finally:
            _kill(procs)
    return wall, blocks, worker_stats


def _run_failover_arm(request: JobRequest, reference: np.ndarray) -> dict:
    """Kill the owner of a pinned fingerprint with columns still unserved."""
    spec, columns = request.spec, request.columns
    first, rest = columns[:2], columns[2:]
    procs: list[subprocess.Popen] = []
    with ClusterLeader() as leader:
        try:
            victim_proc, _ = _spawn_worker(leader.url, "bench-victim")
            procs.append(victim_proc)
            _await_live(leader, 1)
            with ServiceClient(leader.url, timeout_s=JOB_TIMEOUT_S) as client:
                # pin the fingerprint on the victim (the only live host) and
                # let it solve a prefix — those columns enter the leader's
                # store and must never be re-solved after the failover
                block_first = client.extract(
                    JobRequest(spec, columns=first), timeout_s=JOB_TIMEOUT_S
                )
                survivor_proc, survivor_url = _spawn_worker(leader.url, "bench-survivor")
                procs.append(survivor_proc)
                _await_live(leader, 2)
                # host death with the pin's group still owing `rest`
                victim_proc.kill()
                victim_proc.wait(timeout=30)
                block_rest = client.extract(JobRequest(spec, columns=rest), timeout_s=JOB_TIMEOUT_S)
                stats = client.stats()
            with ServiceClient(survivor_url, timeout_s=30.0) as client:
                survivor_attributed = int(client.stats()["attributed_solves"])
        finally:
            _kill(procs)
    return {
        "rerouted_columns": len(rest),
        "survivor_attributed": survivor_attributed,
        "reroutes": int(stats["cluster"]["router"]["reroutes"]),
        "dead": sorted(stats["cluster"]["registry"]["dead"]),
        "max_abs_diff_rel": rel_diff(np.concatenate([block_first, block_rest], axis=1), reference),
        "lost_jobs": 0,  # both extracts above returned, or we raised
    }


def measure(n_side: int, gates: Gates) -> dict:
    requests = [_request(solver_spec(n_side, fill=fill)) for fill in FILLS]
    columns_total = sum(len(request.columns) for request in requests)

    with Scheduler(n_workers=1) as scheduler:
        single_wall, jobs = run_clients(scheduler, requests, wait_s=JOB_TIMEOUT_S)
    references = [job.result for job in jobs]
    wall_1w, blocks_1w, _ = _run_cluster_arm(requests, n_workers=1)
    wall_2w, blocks_2w, stats_2w = _run_cluster_arm(requests, n_workers=2)
    failover = _run_failover_arm(requests[0], references[0])

    result = {
        "n_side": n_side,
        "n_contacts": requests[0].spec.layout.n_contacts,
        "n_fingerprints": len(requests),
        "columns_total": columns_total,
        "single_host_wall_s": single_wall,
        "cluster1_wall_s": wall_1w,
        "cluster2_wall_s": wall_2w,
        "speedup_2v1": wall_1w / wall_2w,
        "cluster1_max_abs_diff_rel": max(
            rel_diff(got, ref) for got, ref in zip(blocks_1w, references, strict=True)
        ),
        "cluster2_max_abs_diff_rel": max(
            rel_diff(got, ref) for got, ref in zip(blocks_2w, references, strict=True)
        ),
        "attributed_total": sum(int(s["attributed_solves"]) for s in stats_2w),
        "engines_built_total": sum(int(s["engines"]["built"]) for s in stats_2w),
        "worker_split": [int(s["attributed_solves"]) for s in stats_2w],
        "failover": failover,
    }
    for arm in ("cluster1", "cluster2"):
        diff = result[f"{arm}_max_abs_diff_rel"]
        gates.check(
            f"{arm} agrees with the single-host reference",
            n_side,
            diff <= AGREEMENT_RTOL,
            f"{diff:.2e} rel",
        )
    gates.check(
        "attribution is exactly-once across the cluster",
        n_side,
        result["attributed_total"] == columns_total,
        f"{result['attributed_total']} solves across workers for {columns_total} columns",
    )
    gates.check(
        "one factor build per fingerprint cluster-wide",
        n_side,
        result["engines_built_total"] == len(requests),
        f"{result['engines_built_total']} builds for {len(requests)} fingerprints",
    )
    gates.check(
        "failover loses no job and agrees with the reference",
        n_side,
        failover["lost_jobs"] == 0 and failover["max_abs_diff_rel"] <= AGREEMENT_RTOL,
        f"{failover['lost_jobs']} lost, {failover['max_abs_diff_rel']:.2e} rel",
    )
    gates.check(
        "the victim's pin re-routes to the survivor",
        n_side,
        failover["reroutes"] >= 1 and failover["dead"] == ["bench-victim"],
        f"{failover['reroutes']} reroutes, dead set {failover['dead']}",
    )
    gates.check(
        "the survivor solves only the still-missing columns",
        n_side,
        failover["survivor_attributed"] == failover["rerouted_columns"],
        f"{failover['survivor_attributed']} solves for "
        f"{failover['rerouted_columns']} re-routed columns",
    )
    # two workers on one core measure contention, not scaling
    gates.check(
        f"two workers >= {SPEEDUP_FLOOR}x one worker",
        n_side,
        result["speedup_2v1"] >= SPEEDUP_FLOOR,
        f"{result['speedup_2v1']:.2f}x",
        armed=(os.cpu_count() or 1) >= 2,
        timing=True,
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_cluster",
        "cluster",
        "leader/worker cluster over four substrate fingerprints: single-host "
        "scheduler vs a leader with one and two worker processes, plus SIGKILL "
        "failover of a pinned worker",
        results,
        gates,
    )


def test_bench_cluster():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
