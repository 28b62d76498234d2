"""The repository benchmark: one command per workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparsify --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around every call
into a layer and prints every per-layer metric instead.  Human-readable
figures (environment, per-class medians and tail percentiles with sample
counts, failed checks) come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full report
(and, when tracing, every span) is written under ``.perfbench/``.

The exit code is 0 when every correctness check passed, 1 when one failed,
and 2 when the benchmark could not run (for instance without ``src/repro``).
``--scale smoke`` shrinks every workload for the self-test.  Every run uses
one BLAS/OpenMP thread per process (see ``threads.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import threads

threads.pin()

import children  # noqa: E402
import spans  # noqa: E402
from common import MemoryPeak, environment, steal_s  # noqa: E402
from spec import LAYERS, SELF_LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "sparsify": "wl_sparsify",
    "cold-cluster": "wl_cold_cluster",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=Path(".perfbench"))
    return parser.parse_args(argv)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        doc = json.load(handle)
    return {
        "e2e": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "layers": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _trace_metrics(tracer, root_span) -> dict:
    """Per-layer self times, unaccounted share and the trace's own cost."""
    root = next(s for s in tracer.spans if s.span_id == root_span)
    own = spans.self_times(tracer.spans)
    per_layer = spans.layer_self_times(tracer.spans)
    metrics = {f"trace.self_{layer}_s": per_layer.get(layer, 0.0) for layer in SELF_LAYERS}
    metrics["trace.unaccounted_share"] = own[root.span_id] / root.duration
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_est_s"] = len(tracer.spans) * tracer.per_span_cost_s()
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    children.adopt()
    try:
        return _run(args)
    finally:
        # on every way out: no process the run started outlives it
        stopped = children.stop_all()
        if stopped:
            print(f"perfbench: stopped {len(stopped)} leftover process(es)", file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args.root = ROOT

    declared = _declared()
    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = spans.Tracer(bool(args.trace))
    started = time.monotonic()
    steal_before = steal_s()
    # the workload closes the memory window itself, before its checks
    memory = MemoryPeak(children=module.SPAWNS_PROCESSES).start()
    try:
        with tracer.span("run") as root_span:
            outcome = module.run(args, tracer, root_span, memory)
    finally:
        memory.stop()
    wall_s = time.monotonic() - started
    steal_after = steal_s()
    outcome.e2e["peak_rss_mb"] = memory.peak_mb

    layers = dict(outcome.layers)
    if tracer.enabled:
        layers.update(_trace_metrics(tracer, root_span))
    for name, (measured_on, _moves) in LAYERS.items():
        if args.workload not in measured_on:
            layers.setdefault(name, 0.0)

    if args.trace:
        names, values = declared["layers"], layers
    else:
        names, values = declared["e2e"], outcome.e2e
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"perfbench: workload {args.workload} emitted no {missing}", file=sys.stderr)
        return 2

    env = environment()
    env["steal_s"] = (
        steal_after - steal_before if None not in (steal_before, steal_after) else None
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "wall_s": wall_s,
        "environment": env,
        "end_to_end": outcome.e2e,
        "per_layer": layers,
        "figures": outcome.report,
        "samples": outcome.samples,
        "failures": outcome.failures,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer.enabled:
        tracer.write(args.out / f"{stem}.spans.json")

    print(f"environment: {json.dumps(env, default=str)}")
    print(f"figures: {json.dumps(outcome.report, default=str)}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    for name in names:
        print(f"{name:36s} {values[name]:>16.6g} {names[name]}")
    result = {
        "correct": not outcome.failures,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": names[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
