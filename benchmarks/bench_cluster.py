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
  speedup gate self-exempts (the two worker processes share one core, so
  the ratio measures contention, not scaling) and the committed reference
  artifact records the exemption — the PR-3/PR-5 pattern.
* **failover** — a worker is SIGKILLed while its pinned fingerprint still
  has unserved columns; the re-submitted group must re-route to the
  survivor and complete.  Gates: zero lost jobs, ``reroutes >= 1``, the
  victim lands in the dead set, and the survivor solves exactly the
  still-missing columns (columns the victim solved before dying are
  served from the leader's store, never re-solved).

Emits a machine-readable ``BENCH_cluster.json`` under
``benchmarks/results/``.  Run directly (``REPRO_BENCH_NSIDE=8`` for the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    REPO_ROOT,
    default_sizes,
    emit_benchmark,
    ensure_repro_importable,
    gate_main,
)

ensure_repro_importable()

from repro.cluster import ClusterLeader
from repro.geometry.layouts import regular_grid
from repro.service import JobRequest, Scheduler, ServiceClient
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import SubstrateProfile

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
    raise RuntimeError(
        f"{count} workers did not register within {WORKER_BOOT_TIMEOUT_S:g}s"
    )


def _kill(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait(timeout=30)


def _rel_diff(got: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(got - reference))) / scale


# ------------------------------------------------------------------ workload
def _specs(n_side: int) -> list[SolverSpec]:
    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    return [
        SolverSpec.bem(
            regular_grid(n_side=n_side, size=128.0, fill=fill),
            profile,
            max_panels=256,
            rtol=1e-8,
        )
        for fill in FILLS
    ]


def _columns(spec: SolverSpec) -> tuple[int, ...]:
    n = spec.layout.n_contacts
    return tuple(range(0, n, max(1, n // COLUMNS_PER_GROUP)))[:COLUMNS_PER_GROUP]


def _run_single_host(specs: list[SolverSpec]) -> tuple[float, list[np.ndarray]]:
    with Scheduler(n_workers=1) as scheduler:
        start = time.perf_counter()

        def one(spec: SolverSpec) -> np.ndarray:
            job_id = scheduler.submit(JobRequest(spec, columns=_columns(spec)))
            return scheduler.result(job_id, wait_s=JOB_TIMEOUT_S).result

        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            blocks = list(pool.map(one, specs))
        wall = time.perf_counter() - start
    return wall, blocks


def _run_through_leader(
    leader: ClusterLeader, specs: list[SolverSpec]
) -> tuple[float, list[np.ndarray]]:
    start = time.perf_counter()

    def one(spec: SolverSpec) -> np.ndarray:
        with ServiceClient(leader.url, timeout_s=JOB_TIMEOUT_S) as client:
            return client.extract(
                JobRequest(spec, columns=_columns(spec)), timeout_s=JOB_TIMEOUT_S
            )

    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        blocks = list(pool.map(one, specs))
    return time.perf_counter() - start, blocks


def _run_cluster_arm(
    specs: list[SolverSpec], n_workers: int
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
            wall, blocks = _run_through_leader(leader, specs)
            worker_stats = []
            for url in urls:
                with ServiceClient(url, timeout_s=30.0) as client:
                    worker_stats.append(client.stats())
        finally:
            _kill(procs)
    return wall, blocks, worker_stats


def _run_failover_arm(
    specs: list[SolverSpec], references: list[np.ndarray]
) -> dict:
    """Kill the owner of a pinned fingerprint with columns still unserved."""
    spec = specs[0]
    columns = _columns(spec)
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
                survivor_proc, survivor_url = _spawn_worker(
                    leader.url, "bench-survivor"
                )
                procs.append(survivor_proc)
                _await_live(leader, 2)
                # host death with the pin's group still owing `rest`
                victim_proc.kill()
                victim_proc.wait(timeout=30)
                block_rest = client.extract(
                    JobRequest(spec, columns=rest), timeout_s=JOB_TIMEOUT_S
                )
                stats = client.stats()
            with ServiceClient(survivor_url, timeout_s=30.0) as client:
                survivor_attributed = int(client.stats()["attributed_solves"])
        finally:
            _kill(procs)
    reference = references[0]
    got = np.concatenate([block_first, block_rest], axis=1)
    want = reference[:, : len(columns)]
    return {
        "rerouted_columns": len(rest),
        "survivor_attributed": survivor_attributed,
        "reroutes": int(stats["cluster"]["router"]["reroutes"]),
        "dead": sorted(stats["cluster"]["registry"]["dead"]),
        "max_abs_diff_rel": _rel_diff(got, want),
        "lost_jobs": 0,  # both extracts above returned, or we raised
    }


# ----------------------------------------------------------------------- run
def run_cluster_experiment(n_side: int) -> dict:
    specs = _specs(n_side)
    columns_total = sum(len(_columns(spec)) for spec in specs)

    single_wall, references = _run_single_host(specs)
    wall_1w, blocks_1w, _ = _run_cluster_arm(specs, n_workers=1)
    wall_2w, blocks_2w, stats_2w = _run_cluster_arm(specs, n_workers=2)
    failover = _run_failover_arm(specs, references)

    attributed_total = sum(int(s["attributed_solves"]) for s in stats_2w)
    engines_built_total = sum(int(s["engines"]["built"]) for s in stats_2w)
    cpu_count = os.cpu_count() or 1
    return {
        "n_side": n_side,
        "n_contacts": specs[0].layout.n_contacts,
        "n_fingerprints": len(specs),
        "columns_total": columns_total,
        "cpu_count": cpu_count,
        "single_host_wall_s": single_wall,
        "cluster1_wall_s": wall_1w,
        "cluster2_wall_s": wall_2w,
        "speedup_2v1": wall_1w / wall_2w,
        # two workers on one core measure contention, not scaling — the
        # speedup gate is only armed on multi-CPU runners (PR-3/PR-5 idiom)
        "speedup_gate_active": cpu_count >= 2,
        "cluster1_max_abs_diff_rel": max(
            _rel_diff(got, ref) for got, ref in zip(blocks_1w, references)
        ),
        "cluster2_max_abs_diff_rel": max(
            _rel_diff(got, ref) for got, ref in zip(blocks_2w, references)
        ),
        "attributed_total": attributed_total,
        "engines_built_total": engines_built_total,
        "worker_split": [int(s["attributed_solves"]) for s in stats_2w],
        "failover": failover,
    }


def run(sizes: list[int]) -> list[dict]:
    results = [run_cluster_experiment(n_side) for n_side in sizes]
    payload = {"benchmark": "cluster", "results": results}
    lines = [
        "Leader/worker cluster: agreement, attribution, failover",
        f"{'n_side':>6s} {'cols':>5s} {'1 host':>8s} {'1 wrk':>8s} {'2 wrk':>8s} "
        f"{'speedup':>7s} {'gate':>5s} {'split':>7s} {'reroute':>7s} "
        f"{'max rel diff':>13s}",
    ]
    for r in results:
        split = "/".join(str(s) for s in r["worker_split"])
        diff = max(
            r["cluster1_max_abs_diff_rel"],
            r["cluster2_max_abs_diff_rel"],
            r["failover"]["max_abs_diff_rel"],
        )
        lines.append(
            f"{r['n_side']:>6d} {r['columns_total']:>5d} "
            f"{r['single_host_wall_s']:>7.3f}s {r['cluster1_wall_s']:>7.3f}s "
            f"{r['cluster2_wall_s']:>7.3f}s {r['speedup_2v1']:>6.2f}x "
            f"{('on' if r['speedup_gate_active'] else 'off'):>5s} "
            f"{split:>7s} {r['failover']['reroutes']:>7d} {diff:>12.2e}"
        )
    emit_benchmark("BENCH_cluster", payload, "bench_cluster", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    for arm in ("cluster1", "cluster2"):
        if result[f"{arm}_max_abs_diff_rel"] > AGREEMENT_RTOL:
            failures.append(
                f"{arm} blocks disagree with the single-host reference "
                f"({result[f'{arm}_max_abs_diff_rel']:.2e} rel) {where}"
            )
    if result["attributed_total"] != result["columns_total"]:
        failures.append(
            f"attribution is not exactly-once: {result['attributed_total']} "
            f"solves across workers for {result['columns_total']} distinct "
            f"columns {where}"
        )
    if result["engines_built_total"] != result["n_fingerprints"]:
        failures.append(
            f"{result['engines_built_total']} factor builds across the "
            f"cluster for {result['n_fingerprints']} fingerprints (want "
            f"exactly one per fingerprint) {where}"
        )
    failover = result["failover"]
    if failover["lost_jobs"] != 0:
        failures.append(f"failover lost {failover['lost_jobs']} jobs {where}")
    if failover["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"post-failover blocks disagree with the reference "
            f"({failover['max_abs_diff_rel']:.2e} rel) {where}"
        )
    if failover["reroutes"] < 1:
        failures.append(f"worker death did not re-route its pins {where}")
    if failover["dead"] != ["bench-victim"]:
        failures.append(
            f"dead set {failover['dead']} after killing bench-victim {where}"
        )
    if failover["survivor_attributed"] != failover["rerouted_columns"]:
        failures.append(
            f"survivor solved {failover['survivor_attributed']} columns for "
            f"{failover['rerouted_columns']} re-routed ones — columns the "
            f"victim already solved must come from the store {where}"
        )
    if (
        result["speedup_gate_active"]
        and result["speedup_2v1"] < SPEEDUP_FLOOR
    ):
        failures.append(
            f"two workers are {result['speedup_2v1']:.2f}x one worker "
            f"(floor {SPEEDUP_FLOOR}x on a {result['cpu_count']}-CPU runner) "
            f"{where}"
        )
    return failures


def test_bench_cluster():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
