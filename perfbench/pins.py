"""Recompute the reference values ``wl_sparsify.PINS`` holds.

Runs the sparsify pipeline once at the given scale, then extracts the whole
exact ``G`` (unsymmetrized, as the workload's sampled columns are) and
reports each thresholded representation's solve count, sparsity factor,
seed-independent values and max relative error over every column::

    python3 perfbench/pins.py --scale full
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import threads  # noqa: E402

threads.pin()

from repro.analysis.metrics import evaluate_against_dense  # noqa: E402
from repro.core.lowrank import LowRankSparsifier  # noqa: E402
from repro.core.wavelet import WaveletSparsifier  # noqa: E402
from repro.experiments import get_example  # noqa: E402
from repro.substrate import CountingSolver, extract_dense  # noqa: E402

from wl_sparsify import N_SIDE, THRESHOLD_MULTIPLIER, values  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=sorted(N_SIDE), default="full")
    args = parser.parse_args()
    config = get_example("ch4-2", n_side=N_SIDE[args.scale])
    layout = config.build_layout()
    hierarchy = config.build_hierarchy(layout)
    solver = config.build_solver(layout)
    counting = CountingSolver(solver)
    rep = WaveletSparsifier(hierarchy, order=2).extract(counting)
    wavelet = rep.threshold_to_sparsity(rep.sparsity_factor() * THRESHOLD_MULTIPLIER)
    wavelet_solves = counting.solve_count
    lowrank = LowRankSparsifier(hierarchy, max_rank=6)
    lowrank.build(counting)
    rep = lowrank.to_sparsified()
    lowrank_rep = rep.threshold_to_sparsity(rep.sparsity_factor() * THRESHOLD_MULTIPLIER)
    lowrank_solves = counting.solve_count - wavelet_solves
    exact = extract_dense(solver, symmetrize=False)
    pins = {"wavelet_solves": wavelet_solves, "lowrank_solves": lowrank_solves}
    for method, representation in (("wavelet", wavelet), ("lowrank", lowrank_rep)):
        report = evaluate_against_dense(representation, exact)
        pins[f"{method}_sparsity"] = report.sparsity_factor
        pins[f"{method}_max_rel_err"] = report.max_relative_error
        for key, value in values(representation).items():
            pins[f"{method}_{key}"] = value
    print(json.dumps(pins, indent=1))


if __name__ == "__main__":
    main()
