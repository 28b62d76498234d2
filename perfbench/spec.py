"""What each metric means on each workload, and what a layer metric predicts.

``BENCHMARK.json`` names the metrics; this table says, for every workload,
what the end-to-end metrics measure there, and for every per-layer metric on
which workloads its layer is exercised and which end-to-end metric it should
move.  A per-layer metric whose layer a workload does not exercise reads 0
on that workload.  The self-test checks that this table and
``BENCHMARK.json`` name the same metrics.
"""

from __future__ import annotations

SP, CC = "sparsify", "cold-cluster"
WORKLOADS = (SP, CC)
ALL = WORKLOADS

#: end-to-end metric -> workload -> what it measures there
E2E = {
    "setup_s": {
        SP: "median of 15 set-ups: ch4-2 layout, hierarchy and BEM solver",
        CC: "median of 7 set-ups: leader start plus 2 worker processes registered",
    },
    "peak_rss_mb": {
        SP: "benchmark process's peak RSS (VmHWM) before the checks start",
        CC: "larger of the process's VmHWM and the peak simultaneous PSS sum of "
        "the process and its children, before the checks start",
    },
    "light_s": {
        SP: "wavelet_s: solver handed in to thresholded wavelet SparsifiedConductance, "
        "median of 3 passes on fresh solvers",
        CC: "cold_narrow_s: median latency of the first (8-column) job on a new substrate",
    },
    "heavy_s": {
        SP: "lowrank_s: solver handed in to thresholded low-rank SparsifiedConductance",
        CC: "cold_wide_s: median latency of the n/4-column job that follows each narrow one",
    },
    "cols_per_s": {
        SP: "2n columns of G (one approximation per method) over wavelet_s + lowrank_s",
        CC: "cluster_cols_per_s: fresh columns delivered per second over the makespan",
    },
    "solves_per_col": {
        SP: "blackbox_solves / 2n: the paper's solve cost per column of G",
        CC: "worker-attributed solves per distinct solved column (1 under exactly-once)",
    },
}

#: per-layer metric -> (workloads that exercise it, what it should move)
LAYERS = {
    "geometry.layout_s": ((SP,), "setup_s on sparsify"),
    "geometry.hierarchy_s": ((SP,), "setup_s on sparsify"),
    "substrate.build_s": ((SP,), "setup_s on sparsify"),
    "substrate.wavelet_solve_s": ((SP,), "light_s on sparsify (median wavelet pass); barely heavy_s"),
    "substrate.lowrank_solve_s": ((SP,), "a small share of heavy_s on sparsify"),
    "substrate.first_solve_s": ((SP,), "light_s on sparsify (median pass; holds the lazy factorisation)"),
    "substrate.solve_calls": ((SP,), "light_s and heavy_s on sparsify"),
    "substrate.solve_cols": (ALL, "solves_per_col on sparsify; a count, not a speed"),
    "substrate.direct_solves": (ALL, "light_s on sparsify, light_s and heavy_s on cold-cluster"),
    "substrate.iterative_solves": (ALL, "as substrate.direct_solves"),
    "substrate.krylov_iters": (ALL, "as substrate.direct_solves"),
    "substrate.factor_builds": (ALL, "light_s on sparsify and cold-cluster"),
    "substrate.factor_bytes": (ALL, "peak_rss_mb on every workload"),
    "substrate.factor_cache_hits": (ALL, "light_s on sparsify and cold-cluster"),
    "substrate.factor_cache_misses": (ALL, "light_s on sparsify and cold-cluster"),
    "substrate.raw_narrow_s": (ALL, "light_s on cold-cluster (its floor)"),
    "core.wavelet_self_s": ((SP,), "a little of light_s on sparsify (median wavelet pass)"),
    "core.lowrank_build_self_s": ((SP,), "heavy_s on sparsify"),
    "core.lowrank_assemble_s": ((SP,), "heavy_s on sparsify (to_sparsified)"),
    "core.threshold_s": ((SP,), "light_s and heavy_s on sparsify"),
    "core.wavelet_nnz": ((SP,), "nothing; a change flags a changed result"),
    "core.lowrank_nnz": ((SP,), "nothing; a change flags a changed result"),
    "analysis.check_s": (ALL, "nothing: outside every end-to-end timing"),
    "wire.request_bytes": ((CC,), "no visible effect on cold-cluster: engine builds dominate"),
    "wire.encode_s": ((CC,), "no visible effect on cold-cluster: engine builds dominate"),
    "frontdoor.narrow_overhead_p50_s": ((CC,), "a small share of light_s on cold-cluster"),
    "frontdoor.wide_overhead_p50_s": ((CC,), "a small share of heavy_s on cold-cluster"),
    "scheduler.queue_wait_p50_s": ((CC,), "light_s and heavy_s on cold-cluster"),
    "scheduler.queue_wait_p90_s": ((CC,), "cols_per_s on cold-cluster"),
    "scheduler.narrow_run_p50_s": ((CC,), "light_s on cold-cluster"),
    "scheduler.wide_run_p50_s": ((CC,), "heavy_s on cold-cluster"),
    "scheduler.batches": ((CC,), "cols_per_s on cold-cluster"),
    "scheduler.jobs_per_batch": ((CC,), "cols_per_s on cold-cluster"),
    "scheduler.attributed_solves": ((CC,), "solves_per_col; must equal the distinct solved columns"),
    "store.hits": ((CC,), "nothing: 0 while cold-cluster bypasses the store, a hit flags a broken workload"),
    "store.misses": ((CC,), "nothing: one per fresh column, fixed by the workload"),
    "store.hit_ratio": ((CC,), "nothing: 0 on cold-cluster, a change flags a broken workload"),
    "store.bytes": ((CC,), "peak_rss_mb on cold-cluster"),
    "engine.built": ((CC,), "light_s on cold-cluster; must equal the substrates"),
    "engine.evicted": ((CC,), "light_s on cold-cluster"),
    "engine.pool_rebuilds": ((CC,), "light_s on cold-cluster"),
    "cluster.rpc_calls": ((CC,), "cols_per_s on cold-cluster"),
    "cluster.rpc_failures": ((CC,), "cols_per_s on cold-cluster"),
    "cluster.reroutes": ((CC,), "cols_per_s on cold-cluster"),
    "cluster.split": ((CC,), "cols_per_s on cold-cluster (share of columns on the busiest worker)"),
    "cluster.leader_run_p50_s": ((CC,), "cols_per_s and light_s on cold-cluster"),
    "cluster.worker_latency_p50_s": ((CC,), "cols_per_s and light_s on cold-cluster"),
    "cluster.rpc_overhead_s": ((CC,), "cols_per_s on cold-cluster"),
    "gen.sent": ((CC,), "nothing: validity of the load generator"),
    "gen.failed": ((CC,), "nothing: validity of the load generator"),
    "trace.spans": (ALL, "nothing: size of the trace"),
    "trace.overhead_est_s": (ALL, "nothing: spans times the measured cost of one span"),
    "trace.unaccounted_share": (ALL, "nothing: share of wall time no span accounts for"),
    "trace.self_setup_s": (ALL, "setup_s"),
    "trace.self_geometry_s": ((SP,), "setup_s on sparsify"),
    "trace.self_substrate_s": (ALL, "light_s on sparsify"),
    "trace.self_core_s": ((SP,), "heavy_s on sparsify"),
    "trace.self_analysis_s": (ALL, "nothing: outside every end-to-end timing"),
    "trace.self_wire_s": ((CC,), "nothing: measured beside the timed phases"),
    "trace.self_client_s": ((CC,), "light_s and heavy_s on cold-cluster"),
    "trace.self_scheduler_s": ((CC,), "light_s and heavy_s on cold-cluster"),
    "trace.self_gen_s": ((CC,), "nothing: generator time between requests"),
}

#: layers whose self time is reported as ``trace.self_<layer>_s``
SELF_LAYERS = tuple(
    name[len("trace.self_"):-len("_s")] for name in LAYERS if name.startswith("trace.self_")
)
