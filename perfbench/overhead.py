"""Tracing overhead: the same workload and seed, untraced and traced.

End-to-end numbers always come from untraced runs; this script runs a
workload once each way and prints, per end-to-end metric, the untraced value,
the traced value and their relative difference (the traced run records its
end-to-end values in its report even though it prints per-layer metrics)::

    python3 perfbench/overhead.py --workload sparsify --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, default=Path(".perfbench"))
    args = parser.parse_args()
    values = {}
    for trace in (0, 1):
        subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(args.out),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        report = args.out / f"{args.workload}-seed{args.seed}-trace{trace}.json"
        values[trace] = json.loads(report.read_text())["end_to_end"]
    print(f"{'metric':16s} {'untraced':>12s} {'traced':>12s} {'rel diff':>9s}")
    for name, plain in values[0].items():
        traced = values[1][name]
        rel = (traced - plain) / plain if plain else float("nan")
        print(f"{name:16s} {plain:12.6g} {traced:12.6g} {rel:+9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
