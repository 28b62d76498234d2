"""Workload ``cold-cluster``: never-seen substrates through a 2-worker cluster.

Set-up starts an in-process :class:`~repro.cluster.ClusterLeader` and two
worker processes (``python -m repro.cluster worker --workers 1``).  Two
closed-loop clients then take substrates from a fixed stream (one layout, a
distinct bottom-layer conductivity each; the seed picks their columns); each
substrate gets one narrow job (8 columns) and then one wide job (n/4 other
columns).  Every substrate is new to the cluster, so each narrow
job pays an engine build (solver, ``A_cc`` assembly, Cholesky) plus routing
and RPC, and the leader's store never hits.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import Outcome, median, repeated_setup, summary
from serving import (
    Record,
    check_records,
    corner_specs,
    encode_requests,
    latencies,
    queue_waits,
    reference_blocks,
    send,
    server_split,
)
from repro.cluster import ClusterLeader
from repro.service import ServiceClient
from repro.substrate import extract_columns, factor_cache_clear

N_SIDE = {"full": 16, "smoke": 6}
N_WORKERS = 2
NARROW = 8
#: substrates per second of run length
SUBSTRATES_PER_SECOND = 2.0
MAX_SUBSTRATES = 120
CLIENTS = 2
SETUP_REPEATS = 7
#: the worker processes count towards the memory figure
SPAWNS_PROCESSES = True
BOOT_TIMEOUT_S = 60.0


#: the stream of substrates is fixed (one layout, a distinct process corner
#: each, see serving.corner_specs); the seed picks each substrate's columns
FILL = 0.5
BOTTOM_CONDUCTIVITY = tuple(100.0 - 0.5 * k for k in range(MAX_SUBSTRATES))


def make_inputs(seed: int, scale: str, seconds: float) -> dict:
    """The substrate stream, each corner with its seeded narrow and wide columns.

    The stream is fixed work sized to the run length: the same substrates in
    every run, so the class medians do not depend on how many fit.
    """
    rng = np.random.default_rng(seed)
    n_side = N_SIDE[scale]
    n = n_side * n_side
    count = max(2, min(MAX_SUBSTRATES, round(SUBSTRATES_PER_SECOND * seconds)))
    substrates = []
    for sigma in BOTTOM_CONDUCTIVITY[:count]:
        order = rng.permutation(n)
        substrates.append(
            {
                "bottom_conductivity": sigma,
                "narrow": tuple(sorted(int(c) for c in order[:NARROW])),
                "wide": tuple(sorted(int(c) for c in order[NARROW:NARROW + n // 4])),
            }
        )
    return {"n_side": n_side, "substrates": substrates}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Cluster:
    """A leader in this process plus worker processes; close() stops them all."""

    def __init__(self, root: Path) -> None:
        self.procs: list[subprocess.Popen] = []
        self.leader = ClusterLeader().start()
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(root / "src")
            for i in range(N_WORKERS):
                self.procs.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro.cluster", "worker",
                            "--leader", self.leader.url,
                            "--port", str(_free_port()),
                            "--worker-id", f"w{i}",
                            "--workers", "1",
                            "--heartbeat", "0.5",
                        ],
                        env=env,
                        cwd=root,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while len(self.leader.registry.live()) < N_WORKERS:
                if time.monotonic() > deadline or any(p.poll() is not None for p in self.procs):
                    raise RuntimeError("cluster workers did not register")
                time.sleep(0.02)
        except BaseException:
            self.close()
            raise

    @property
    def worker_urls(self) -> list[str]:
        return [host.url for host in self.leader.registry.live()]

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait(timeout=30)
        self.procs = []
        self.leader.close()


def _stream(url, specs, substrates, tracer, parent) -> tuple[list[Record], float]:
    records: list[Record] = []
    lock = threading.Lock()
    state = {"next": 0}
    start = time.monotonic()

    def client_loop() -> None:
        with ServiceClient(url, timeout_s=120.0) as client:
            while True:
                with lock:
                    index = state["next"]
                    state["next"] += 1
                if index >= len(substrates):
                    return
                for cls in ("narrow", "wide"):
                    record = Record(cls, index, columns=substrates[index][cls])
                    send(client, specs[index], record, tracer, parent)
                    with lock:
                        records.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r.done for r in records), default=time.monotonic())
    return records, end - start


def run(args, tracer, root, memory) -> Outcome:
    out = Outcome()
    inputs = make_inputs(args.seed, args.scale, args.seconds)
    specs = corner_specs(
        inputs["n_side"], FILL, [s["bottom_conductivity"] for s in inputs["substrates"]]
    )
    n = specs[0].layout.n_contacts

    cluster, setup_times = repeated_setup(
        lambda: Cluster(args.root), SETUP_REPEATS, tracer, close=Cluster.close
    )
    try:
        with tracer.span("gen.closed_loop") as phase:
            records, makespan = _stream(
                cluster.leader.url, specs, inputs["substrates"], tracer, phase
            )
        leader = cluster.leader.scheduler.stats()
        workers = []
        for url in cluster.worker_urls:
            with ServiceClient(url, timeout_s=30.0) as client:
                workers.append(client.stats())
    finally:
        cluster.close()
    memory.stop()

    out.attempted = len(records)
    served = sorted({r.substrate for r in records})
    fresh = sum(len(r.columns) for r in records if r.error is None)
    attributed = sum(w["attributed_solves"] for w in workers)
    built = sum(w["engines"]["built"] for w in workers)

    check_start = time.monotonic()
    with tracer.span("analysis.check"):
        refs = reference_blocks(specs, records)
        check_records(records, refs, out, "request")
        distinct = sum(len(set(r.columns)) for r in records)
        if attributed != distinct:
            out.fail("attribution", f"workers attributed {attributed} solves for "
                     f"{distinct} distinct columns")
        if built != len(served):
            out.fail("engines", f"workers built {built} engines for {len(served)} substrates")
    check_s = time.monotonic() - check_start
    with tracer.span("substrate.raw_narrow"):
        factor_cache_clear()
        raw = specs[0].build()
        start = time.monotonic()
        extract_columns(raw, np.asarray(inputs["substrates"][0]["narrow"]))
        raw_narrow_s = time.monotonic() - start

    narrow = latencies(records, "narrow")
    wide = latencies(records, "wide")
    out.e2e = {
        "setup_s": median(setup_times),
        "light_s": median(narrow),
        "heavy_s": median(wide),
        "cols_per_s": fresh / makespan,
        "solves_per_col": attributed / distinct if distinct else 0.0,
    }

    def total(key, field):
        return sum(w[key][field] for w in workers)

    done = [w["jobs"]["done"] for w in workers]
    worker_p50 = sum(w["latency_s"]["p50"] * d for w, d in zip(workers, done)) / max(sum(done), 1)
    leader_run = median(
        r.finished_at - r.started_at for r in records if r.started_at is not None
    )
    waits = queue_waits(records)
    split = [w["attributed_solves"] for w in workers]
    layers = {
        "substrate.solve_cols": total("solve_stats", "n_solves"),
        "substrate.direct_solves": total("solve_stats", "n_direct_solves"),
        "substrate.iterative_solves": total("solve_stats", "n_iterative_solves"),
        "substrate.krylov_iters": total("solve_stats", "total_iterations"),
        "substrate.factor_builds": total("solve_stats", "n_factor_rebuilds"),
        "substrate.factor_bytes": total("factor_cache", "bytes"),
        "substrate.factor_cache_hits": total("factor_cache", "hits"),
        "substrate.factor_cache_misses": total("factor_cache", "misses"),
        "substrate.raw_narrow_s": raw_narrow_s,
        "analysis.check_s": check_s,
        "frontdoor.narrow_overhead_p50_s": server_split(records, "narrow")["overhead_p50_s"],
        "frontdoor.wide_overhead_p50_s": server_split(records, "wide")["overhead_p50_s"],
        "scheduler.queue_wait_p50_s": waits["p50"],
        "scheduler.queue_wait_p90_s": waits["p90"],
        "scheduler.narrow_run_p50_s": server_split(records, "narrow")["run_p50_s"],
        "scheduler.wide_run_p50_s": server_split(records, "wide")["run_p50_s"],
        "scheduler.batches": leader["coalescing"]["batches"],
        "scheduler.jobs_per_batch": (
            leader["coalescing"]["batch_jobs"] / leader["coalescing"]["batches"]
            if leader["coalescing"]["batches"] else 0.0
        ),
        "scheduler.attributed_solves": attributed,
        "store.hits": leader["result_store"]["hits"],
        "store.misses": leader["result_store"]["misses"],
        "store.hit_ratio": (
            leader["result_store"]["hits"]
            / max(leader["result_store"]["hits"] + leader["result_store"]["misses"], 1)
        ),
        "store.bytes": leader["result_store"]["bytes"],
        "engine.built": built,
        "engine.evicted": total("engines", "evicted"),
        "engine.pool_rebuilds": total("faults", "pool_rebuilds"),
        "cluster.rpc_calls": leader["cluster"]["rpc_calls"],
        "cluster.rpc_failures": leader["cluster"]["rpc_failures"],
        "cluster.reroutes": leader["cluster"]["router"]["reroutes"],
        "cluster.split": max(split) / max(sum(split), 1),
        "cluster.leader_run_p50_s": leader_run,
        "cluster.worker_latency_p50_s": worker_p50,
        "cluster.rpc_overhead_s": leader_run - worker_p50,
        "gen.sent": len(records),
        "gen.failed": sum(1 for r in records if r.error is not None),
    }
    if tracer.enabled:
        layers["wire.request_bytes"], layers["wire.encode_s"] = encode_requests(
            records, specs, tracer
        )
    out.layers = layers
    out.samples = {
        cls: [round(r.latency, 6) for r in records if r.cls == cls and r.error is None]
        for cls in ("narrow", "wide")
    }
    out.report = {
        "n_contacts": n,
        "setup_s": setup_times,
        "substrates": len(served),
        "narrow": summary(narrow),
        "wide": summary(wide),
        "makespan_s": makespan,
        "fresh_columns": fresh,
        "worker_split": split,
    }
    return out
