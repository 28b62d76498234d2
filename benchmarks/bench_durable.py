"""Durable service state: cold start versus warm restart of the corpus.

The extraction service's amortised state — solved ``G`` columns, factor
payloads, accepted jobs — used to die with the process.  This benchmark
runs the same overlapping multi-client workload twice against one state
directory: a **cold** arm on an empty dir (full factorisation, one
attributed solve per union column, everything written through to sqlite +
the factor artifact store + the job journal) and a **warm** arm after a
simulated process restart (the process-wide factor cache is wiped), which
must re-serve the workload entirely from the durable corpus.  A crash-
replay arm checks that a journaled-but-unserved job survives a kill and is
replayed under its original id.  It emits a machine-readable
``BENCH_durable.json`` (under ``benchmarks/results/``).

Hard gates (every scale, including the CI smoke run):

* both arms complete every job, and the warm results agree with the cold
  ones to 1e-10;
* cold attribution is exact (one solve per distinct union column) and the
  warm restart charges **zero** new solves for the replayed corpus;
* a *fresh* (never-solved) column after restart costs exactly one solve,
  with the factor **attached from the artifact store** — counter-pinned:
  a bare solver over the same spec reports zero factor rebuilds while the
  artifact store is wired and >= 1 once it is not;
* the crash-replay arm replays >= 1 journaled job and completes it from
  the warm corpus with zero solves at 1e-10 agreement.

Speed gate (measurably expensive cold arm only — smoke scales are
correctness-only): the warm restart serves the workload at >= 2x the cold
throughput (in practice it is orders of magnitude faster; the loose bound
keeps the gate robust to scheduling noise).

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_durable.py

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

from repro.experiments import run_durable_experiment

#: agreement bound: persistence may never change the answer
AGREEMENT_RTOL = 1e-10
#: required warm-restart throughput multiple over the cold start
SPEEDUP_GATE = 2.0
#: clients in the concurrent workload (both arms)
N_CLIENTS = 4
#: the speed gate only fires once the cold arm is genuinely expensive —
#: below this the measurement is dominated by fixed scheduling overhead,
#: not the factorisation + solves the corpus saves (smoke runs stay
#: correctness-only, mirroring bench_service's exemption)
MIN_GATED_COLD_S = 0.5


def run(sizes: list[int]) -> list[dict]:
    results = [run_durable_experiment(n_side=s, n_clients=N_CLIENTS) for s in sizes]
    payload = {
        "benchmark": "durable",
        "description": "cold start vs warm restart of a persistent extraction "
        f"service ({N_CLIENTS} concurrent clients on a shared substrate): "
        "sqlite result corpus, content-addressed factor artifacts, "
        "crash-safe job journal",
        "n_clients": N_CLIENTS,
        "cpu_count": int(os.cpu_count() or 1),
        "results": results,
    }
    lines = [
        "Durable service state: cold start vs warm restart",
        f"{'n_side':>6s} {'union':>5s} {'cold':>9s} {'warm':>9s} {'speedup':>7s} "
        f"{'cold slv':>8s} {'warm slv':>8s} {'disk':>5s} {'max rel diff':>13s}",
    ]
    for r in results:
        lines.append(
            f"{r['n_side']:>6d} {r['union_columns']:>5d} {r['cold_s']:>8.3f}s "
            f"{r['warm_s']:>8.3f}s {r['warm_speedup']:>6.2f}x "
            f"{r['cold_attributed_solves']:>8d} {r['warm_attributed_solves']:>8d} "
            f"{r['warm_disk_hits']:>5d} {r['warm_max_abs_diff_rel']:>12.2e}"
        )
        fresh = r["fresh_column"]
        replay = r["replay"]
        lines.append(
            f"{r['n_side']:>6d}    fresh col: {fresh['new_solves']} solve "
            f"({fresh['artifact_hits']} artifact hit) | probes: "
            f"warm {r['warm_probe_rebuilds']} / cold {r['cold_probe_rebuilds']} "
            f"rebuilds | replay: {replay['journal_replayed']} job "
            f"({replay['new_solves']} solves, diff={replay['max_abs_diff_rel']:.2e})"
        )
    emit_benchmark("BENCH_durable", payload, "bench_durable", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    for arm in ("cold", "warm"):
        if any(status != "done" for status in result[f"{arm}_status"]):
            failures.append(f"{arm} jobs ended {result[f'{arm}_status']} {where}")
    # cold attribution is exact: one black-box solve per distinct union column
    if result["cold_attributed_solves"] != result["union_columns"]:
        failures.append(
            f"cold start solved {result['cold_attributed_solves']} columns for "
            f"a {result['union_columns']}-column union {where}"
        )
    # the tentpole gate: a restarted service re-serves the corpus for free
    if result["warm_attributed_solves"] != 0:
        failures.append(
            f"warm restart charged {result['warm_attributed_solves']} new "
            f"solves for the replayed corpus {where}"
        )
    if result["warm_max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"warm results disagree with the cold start "
            f"({result['warm_max_abs_diff_rel']:.2e} rel) {where}"
        )
    if result["warm_disk_hits"] < result["union_columns"]:
        failures.append(
            f"only {result['warm_disk_hits']} of {result['union_columns']} warm "
            f"columns came from the persistent corpus {where}"
        )
    # the corpus cannot fake a fresh column — and its factor must come from
    # the artifact store, not a rebuild
    fresh = result["fresh_column"]
    if fresh["status"] != "done" or fresh["new_solves"] != 1:
        failures.append(
            f"fresh column after restart cost {fresh['new_solves']} solves "
            f"(status={fresh['status']}), expected exactly 1 {where}"
        )
    if fresh["artifact_hits"] < 1:
        failures.append(
            f"fresh column after restart never consulted the factor artifact "
            f"store {where}"
        )
    if result["warm_probe_rebuilds"] != 0:
        failures.append(
            f"warm factor probe rebuilt {result['warm_probe_rebuilds']} factors "
            f"despite the artifact store {where}"
        )
    if result["cold_probe_rebuilds"] < 1:
        failures.append(
            f"cold factor probe reported {result['cold_probe_rebuilds']} rebuilds "
            f"— the probe is not measuring the rebuild path {where}"
        )
    replay = result["replay"]
    if replay["journal_replayed"] < 1 or replay["status"] != "done":
        failures.append(
            f"crash replay did not complete (replayed="
            f"{replay['journal_replayed']}, status={replay['status']}) {where}"
        )
    if replay["new_solves"] != 0:
        failures.append(
            f"crash replay charged {replay['new_solves']} solves against a "
            f"warm corpus {where}"
        )
    if replay["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"crash replay disagrees ({replay['max_abs_diff_rel']:.2e} rel) {where}"
        )
    # the speed gate needs a cold arm expensive enough that fixed overheads
    # cannot dominate the ratio
    if (
        result["cold_s"] >= MIN_GATED_COLD_S
        and result["warm_speedup"] < SPEEDUP_GATE
    ):
        failures.append(
            f"warm restart speedup {result['warm_speedup']:.2f}x is below the "
            f"{SPEEDUP_GATE:.0f}x gate {where}"
        )
    return failures


def test_bench_durable():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
