"""Workload ``sparsify``: the paper's Table 4.1 comparison on Example ch4-2.

One eigenfunction (BEM) solver over the alternating-size contact grid is
handed, through one :class:`~repro.substrate.CountingSolver` black box, first
to ``WaveletSparsifier(order=2).extract`` and then to
``LowRankSparsifier(max_rank=6).build(...).to_sparsified()``; each result is
thresholded to six times its sparsity, as the paper's runner does.  The
seed picks the exact sample columns the accuracy check compares against;
the value pins (``values``) do not depend on it.

The wavelet half is dominated by the black box (its first block holds the
solver's lazy factorisation); the low-rank half by ``core`` (row-basis
assembly in ``to_sparsified``).  The wavelet half takes a few seconds, so it
runs ``WAVELET_PASSES`` times, each on a fresh solver from an empty factor
cache, and ``wavelet_s`` is their median; the low-rank half outlasts the
run length at full scale, so it runs once, through the last wavelet pass's
black box as the paper's comparison does.
"""

from __future__ import annotations

import time

import numpy as np

from common import Outcome, median, repeated_setup
from spans import self_times
from repro.analysis.metrics import evaluate_against_columns
from repro.core.lowrank import LowRankSparsifier
from repro.core.wavelet import WaveletSparsifier
from repro.experiments import get_example
from repro.substrate import (
    CountingSolver,
    SubstrateSolver,
    extract_columns,
    factor_cache_clear,
    factor_cache_info,
)

#: contacts per side of the ch4-2 grid at each scale (full = 1024 contacts)
N_SIDE = {"full": 32, "smoke": 8}
SAMPLE_COLUMNS = {"full": 96, "smoke": 16}
#: the fixed probe block the value pins apply each representation to
PROBE_SEED = 0
PROBE_COLUMNS = 4
NARROW = 8
THRESHOLD_MULTIPLIER = 6.0
#: set-up takes a fraction of a second, so it is repeated often for a steady median
SETUP_REPEATS = 15
WAVELET_PASSES = 3

#: reference values of the pipeline's outputs (``python3 perfbench/pins.py``).
#: Solve counts repeat exactly.  Sparsity factors and the two values of each
#: thresholded representation (``values``: the Frobenius norms of ``Gw`` and of
#: the representation applied to a fixed probe block) are pinned to a relative
#: tolerance.  The error bound is the representation's max relative error over
#: the *whole* exact (unsymmetrized) ``G``, so any seeded sample of its
#: columns must stay at or below it.
PINS = {
    "full": {
        "wavelet_solves": 348,
        "lowrank_solves": 409,
        "wavelet_sparsity": 15.263559346705872,
        "lowrank_sparsity": 24.594830417038043,
        "wavelet_gw_fro": 296.5599194078182,
        "lowrank_gw_fro": 296.7563565997061,
        "wavelet_probe_fro": 591.6094882039649,
        "lowrank_probe_fro": 592.1511113987184,
        "wavelet_max_rel_err": 6.942778329468944,
        "lowrank_max_rel_err": 0.2160236796027307,
    },
    "smoke": {
        "wavelet_solves": 64,
        "lowrank_solves": 119,
        "wavelet_sparsity": 6.005865102639296,
        "lowrank_sparsity": 7.086505190311419,
        "wavelet_gw_fro": 1462.4534539176923,
        "lowrank_gw_fro": 1469.410382109507,
        "wavelet_probe_fro": 2860.4155340076322,
        "lowrank_probe_fro": 2871.603386934106,
        "wavelet_max_rel_err": 82.51845305496329,
        "lowrank_max_rel_err": 3.342292497982291,
    },
}
SPARSITY_RTOL = 1e-6
VALUE_RTOL = 1e-8
ERROR_SLACK = 1e-9
#: the workload starts no processes, so its memory figure needs no sampler
SPAWNS_PROCESSES = False


def make_inputs(seed: int, scale: str) -> dict:
    """The seeded inputs: which exact columns the accuracy check samples."""
    n = N_SIDE[scale] ** 2
    rng = np.random.default_rng(seed)
    columns = np.sort(rng.choice(n, size=SAMPLE_COLUMNS[scale], replace=False))
    return {"n_side": N_SIDE[scale], "sample_columns": [int(c) for c in columns]}


def probe_block(n: int) -> np.ndarray:
    """The fixed voltage block the value pins are taken on (seed-independent)."""
    return np.random.default_rng(PROBE_SEED).standard_normal((n, PROBE_COLUMNS))


def values(rep) -> dict:
    """Frobenius norms of ``Gw`` and of ``rep`` applied to the probe block."""
    return {
        "gw_fro": float(np.linalg.norm(rep.gw.data)),
        "probe_fro": float(np.linalg.norm(rep.matmat(probe_block(rep.n_contacts)))),
    }


class TimedSolver(SubstrateSolver):
    """The black box with a ``substrate.solve`` span around every call."""

    def __init__(self, inner: SubstrateSolver, tracer) -> None:
        self.inner = inner
        self.layout = inner.layout
        self.tracer = tracer

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        with self.tracer.span("substrate.solve"):
            return self.inner.solve_currents(voltages)

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        with self.tracer.span("substrate.solve"):
            return self.inner.solve_many(voltages)


def _setup(config, tracer):
    with tracer.span("geometry.layout"):
        layout = config.build_layout()
    with tracer.span("geometry.hierarchy"):
        hierarchy = config.build_hierarchy(layout)
    with tracer.span("substrate.build"):
        solver = config.build_solver(layout)
    return layout, hierarchy, solver


def _inside(tracer, name: str, outer) -> list:
    """Spans called ``name`` within ``outer`` (the workload runs on one thread)."""
    return [s for s in tracer.named(name) if outer.start <= s.start and s.end <= outer.end]


def run(args, tracer, root, memory) -> Outcome:
    out = Outcome()
    inputs = make_inputs(args.seed, args.scale)
    pins = PINS[args.scale]
    config = get_example("ch4-2", n_side=inputs["n_side"])

    (layout, hierarchy, _), setup_times = repeated_setup(
        lambda: _setup(config, tracer), SETUP_REPEATS, tracer, before=factor_cache_clear
    )

    wavelet_times, wavelet_spans, wavelet_counts = [], [], []
    for _ in range(WAVELET_PASSES):
        # every pass starts from empty factor caches, as on a new substrate
        # (the previous pass's solver, and with it its factor, is released first)
        solver = counting = None
        factor_cache_clear()
        with tracer.span("substrate.build"):
            solver = config.build_solver(layout)
        counting = CountingSolver(TimedSolver(solver, tracer) if tracer.enabled else solver)
        start = time.monotonic()
        with tracer.span("core.wavelet") as span_id:
            rep_w = WaveletSparsifier(hierarchy, order=2).extract(counting)
            with tracer.span("core.threshold"):
                rep_wt = rep_w.threshold_to_sparsity(
                    rep_w.sparsity_factor() * THRESHOLD_MULTIPLIER
                )
        wavelet_times.append(time.monotonic() - start)
        wavelet_spans.append(span_id)
        wavelet_counts.append(counting.solve_count)
    wavelet_s = median(wavelet_times)
    wavelet_solves = counting.solve_count

    start = time.monotonic()
    with tracer.span("core.lowrank"):
        lowrank = LowRankSparsifier(hierarchy, max_rank=6)
        with tracer.span("core.lowrank_build"):
            lowrank.build(counting)
        with tracer.span("core.lowrank_assemble"):
            rep_l = lowrank.to_sparsified()
        with tracer.span("core.threshold"):
            rep_lt = rep_l.threshold_to_sparsity(
                rep_l.sparsity_factor() * THRESHOLD_MULTIPLIER
            )
    lowrank_s = time.monotonic() - start
    lowrank_solves = counting.solve_count - wavelet_solves
    out.attempted = WAVELET_PASSES + 1

    stats = solver.stats
    cache = factor_cache_info()
    n = layout.n_contacts
    memory.stop()

    check_start = time.monotonic()
    with tracer.span("analysis.check"):
        columns = np.asarray(inputs["sample_columns"])
        exact = extract_columns(solver, columns)
        reports = {
            "wavelet": evaluate_against_columns(rep_wt, columns, exact),
            "lowrank": evaluate_against_columns(rep_lt, columns, exact),
        }
        # the last pass is checked below, with its representation
        for k, count in enumerate(wavelet_counts[:-1]):
            if count != pins["wavelet_solves"]:
                out.fail(("wavelet", k), f"wavelet pass {k}: {count} black-box solves, "
                         f"pinned {pins['wavelet_solves']}")
        solves = {"wavelet": wavelet_solves, "lowrank": lowrank_solves}
        got_values = {"wavelet": values(rep_wt), "lowrank": values(rep_lt)}
        for method, report in reports.items():
            if solves[method] != pins[f"{method}_solves"]:
                out.fail(method, f"{method}: {solves[method]} black-box solves, "
                         f"pinned {pins[f'{method}_solves']}")
            want = pins[f"{method}_sparsity"]
            if abs(report.sparsity_factor - want) > SPARSITY_RTOL * want:
                out.fail(method, f"{method}: sparsity {report.sparsity_factor!r}, "
                         f"pinned {want!r}")
            for key, got in got_values[method].items():
                want = pins[f"{method}_{key}"]
                if not abs(got - want) <= VALUE_RTOL * abs(want):
                    out.fail(method, f"{method}: {key} {got!r}, pinned {want!r}")
            bound = pins[f"{method}_max_rel_err"] * (1 + ERROR_SLACK)
            if not report.max_relative_error <= bound:
                out.fail(method, f"{method}: max relative error "
                         f"{report.max_relative_error!r} on the sampled columns "
                         f"exceeds the whole-G bound {bound!r}")
    check_s = time.monotonic() - check_start
    # a fresh solver's narrow extraction: the raw path a served job competes with
    with tracer.span("substrate.raw_narrow"):
        factor_cache_clear()
        fresh = config.build_solver(layout)
        start = time.monotonic()
        extract_columns(fresh, columns[:NARROW])
        raw_narrow_s = time.monotonic() - start

    out.e2e = {
        "setup_s": median(setup_times),
        "light_s": wavelet_s,
        "heavy_s": lowrank_s,
        "cols_per_s": 2 * n / (wavelet_s + lowrank_s),
        "solves_per_col": (wavelet_solves + lowrank_solves) / (2 * n),
    }
    layers = {
        "substrate.solve_cols": counting.solve_count,
        "substrate.direct_solves": stats.n_direct_solves,
        "substrate.iterative_solves": stats.n_iterative_solves,
        "substrate.krylov_iters": stats.total_iterations,
        "substrate.factor_builds": stats.n_factor_rebuilds,
        "substrate.factor_bytes": cache["bytes"],
        "substrate.factor_cache_hits": cache["hits"],
        "substrate.factor_cache_misses": cache["misses"],
        "substrate.raw_narrow_s": raw_narrow_s,
        "analysis.check_s": check_s,
        "core.wavelet_nnz": rep_wt.nnz_gw,
        "core.lowrank_nnz": rep_lt.nnz_gw,
    }
    if tracer.enabled:
        own = self_times(tracer.spans)
        # the breakdown is that of the median wavelet pass and the low-rank half
        by_id = {s.span_id: s for s in tracer.spans}
        middle = sorted(range(WAVELET_PASSES), key=wavelet_times.__getitem__)[WAVELET_PASSES // 2]
        halves = (by_id[wavelet_spans[middle]], tracer.named("core.lowrank")[0])
        wavelet_solve_spans, lowrank_solve_spans = (
            _inside(tracer, "substrate.solve", half) for half in halves
        )
        first = min(wavelet_solve_spans, key=lambda s: s.start)

        def own_total(name):
            return sum(own[s.span_id] for half in halves for s in _inside(tracer, name, half))

        def setup_median(name):
            return median(s.duration for s in tracer.named(name))

        layers.update(
            {
                "geometry.layout_s": setup_median("geometry.layout"),
                "geometry.hierarchy_s": setup_median("geometry.hierarchy"),
                "substrate.build_s": setup_median("substrate.build"),
                "substrate.wavelet_solve_s": sum(s.duration for s in wavelet_solve_spans),
                "substrate.lowrank_solve_s": sum(s.duration for s in lowrank_solve_spans),
                "substrate.first_solve_s": first.duration,
                "substrate.solve_calls": len(wavelet_solve_spans) + len(lowrank_solve_spans),
                "core.wavelet_self_s": own[halves[0].span_id],
                "core.lowrank_build_self_s": own_total("core.lowrank_build"),
                "core.lowrank_assemble_s": own_total("core.lowrank_assemble"),
                "core.threshold_s": own_total("core.threshold"),
            }
        )
    out.layers = layers
    out.report = {
        "n_contacts": n,
        "setup_s": setup_times,
        "wavelet_s": wavelet_s,
        "wavelet_passes_s": wavelet_times,
        "lowrank_s": lowrank_s,
        "blackbox_solves": wavelet_solves + lowrank_solves,
        "wavelet_solves": wavelet_solves,
        "lowrank_solves": lowrank_solves,
        "wavelet": reports["wavelet"].as_dict(),
        "lowrank": reports["lowrank"].as_dict(),
        "values": got_values,
    }
    return out
