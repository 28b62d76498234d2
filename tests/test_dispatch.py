"""Tests for the adaptive solver-dispatch layer.

Covers the policy's routing decisions (small / wide / floating blocks, forced
paths, ceilings), the new bordered Schur-complement direct path for floating
backplanes (equivalence with single-RHS MINRES including the gauge constant
``c``), solve-accounting invariance across paths, and the separated
iterative/direct solve statistics.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (
    CountingSolver,
    DispatchPolicy,
    EigenfunctionSolver,
    SolveCostModel,
    SolveStats,
    SubstrateProfile,
    extract_dense,
    regular_grid,
    resolve_fft_workers,
)


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


def _solver(layout, grounded=True, **kwargs) -> EigenfunctionSolver:
    kwargs.setdefault("max_panels", 32)
    kwargs.setdefault("rtol", 1e-10)
    return EigenfunctionSolver(layout, _profile(grounded), **kwargs)


# ------------------------------------------------------------------ policy unit
def test_policy_narrow_block_goes_iterative():
    policy = DispatchPolicy()
    d = policy.choose(n_panels=1024, n_rhs=1, grid_points=4096, grounded=True)
    assert d.path == "iterative"


def test_policy_wide_block_goes_direct():
    policy = DispatchPolicy()
    d = policy.choose(n_panels=1024, n_rhs=256, grid_points=4096, grounded=True)
    assert d.path == "direct"
    assert d.direct_cost is not None and d.direct_cost <= d.iterative_cost


def test_policy_floating_crossover_is_earlier_than_grounded():
    """MINRES needs more iterations than CG, so the direct path should win
    for narrower floating blocks than grounded ones."""
    policy = DispatchPolicy()

    def crossover(grounded: bool) -> int:
        for k in range(1, 2049):
            if (
                policy.choose(
                    n_panels=1024, n_rhs=k, grid_points=4096, grounded=grounded
                ).path
                == "direct"
            ):
                return k
        return 2049

    assert crossover(grounded=False) < crossover(grounded=True)


def test_policy_cached_factor_prefers_direct_even_for_one_rhs():
    policy = DispatchPolicy()
    d = policy.choose(
        n_panels=1024, n_rhs=1, grid_points=4096, grounded=True, factor_cached=True
    )
    assert d.path == "direct"
    assert d.reason == "cached factor"


def test_policy_panel_ceiling_and_failure_force_iterative():
    # above the dense ceiling only the iterative path remains
    policy = DispatchPolicy(max_direct_panels=100)
    assert (
        policy.choose(n_panels=101, n_rhs=512, grid_points=4096, grounded=True).path
        == "iterative"
    )
    policy = DispatchPolicy()
    d = policy.choose(
        n_panels=64, n_rhs=512, grid_points=4096, grounded=True, factor_failed=True
    )
    assert d.path == "iterative"
    # disabling the factored path forces iterative everywhere
    policy = DispatchPolicy(max_direct_panels=0)
    assert (
        policy.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True).path
        == "iterative"
    )


def test_policy_force_path_overrides_model_but_not_feasibility():
    forced = DispatchPolicy(force_path="direct")
    assert forced.choose(n_panels=64, n_rhs=1, grid_points=4096, grounded=True).path == "direct"
    forced_it = DispatchPolicy(force_path="iterative")
    assert (
        forced_it.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True).path
        == "iterative"
    )
    # a forced direct path cannot conjure a factorisation that is impossible
    capped = DispatchPolicy(force_path="direct", max_direct_panels=10)
    d = capped.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True)
    assert d.path == "iterative"
    with pytest.raises(ValueError):
        DispatchPolicy(force_path="cholesky")
    with pytest.raises(ValueError):
        DispatchPolicy(force_path="tiled")


def test_cost_model_monotone_in_rhs_width():
    model = SolveCostModel()
    narrow = model.iterative_cost(1024, 8, 4096, grounded=True)
    wide = model.iterative_cost(1024, 64, 4096, grounded=True)
    assert wide > narrow
    cached = model.direct_cost(1024, 8, 4096, factor_cached=True, grounded=True)
    fresh = model.direct_cost(1024, 8, 4096, factor_cached=False, grounded=True)
    assert cached < fresh


def test_resolve_fft_workers():
    assert resolve_fft_workers(1) is None
    assert resolve_fft_workers(4) == 4
    assert resolve_fft_workers(-1) == -1
    with pytest.raises(ValueError):
        resolve_fft_workers(0)
    resolved = resolve_fft_workers(None)
    assert resolved is None or (isinstance(resolved, int) and resolved > 1)


# ------------------------------------------------------- solver-level routing
def test_solver_max_direct_panels_zero_still_means_iterative_only(tiny_layout):
    solver = EigenfunctionSolver(
        tiny_layout, _profile(True), max_panels=32, max_direct_panels=0, fft_workers=1
    )
    solver.solve_many(np.eye(tiny_layout.n_contacts))
    assert solver.last_dispatch.path == "iterative"
    assert solver.stats.n_direct_solves == 0


def test_solver_records_dispatch_decision(tiny_layout):
    solver = _solver(tiny_layout)
    v = np.eye(tiny_layout.n_contacts)
    solver.solve_many(v)
    assert solver.last_dispatch is not None
    assert solver.last_dispatch.path in ("direct", "iterative")


def test_forced_paths_agree_with_sequential(tiny_layout):
    rng = np.random.default_rng(0)
    v = rng.standard_normal((tiny_layout.n_contacts, 8))
    for grounded in (True, False):
        reference = _solver(tiny_layout, grounded)
        seq = np.column_stack(
            [reference.solve_currents(v[:, j]) for j in range(v.shape[1])]
        )
        scale = np.abs(seq).max()
        for path in ("direct", "iterative"):
            solver = _solver(
                tiny_layout, grounded, dispatch=DispatchPolicy(force_path=path)
            )
            out = solver.solve_many(v)
            assert solver.last_dispatch.path == path
            assert np.allclose(out, seq, rtol=0.0, atol=1e-8 * scale), (
                grounded,
                path,
            )


def test_direct_path_chunks_wide_blocks(tiny_layout):
    """A block much wider than max_batch is served in max_batch-sized chunks
    on the direct path too (the RHS gather never materialises full width)."""
    solver = _solver(
        tiny_layout, max_batch=3, dispatch=DispatchPolicy(force_path="direct")
    )
    rng = np.random.default_rng(1)
    v = rng.standard_normal((tiny_layout.n_contacts, 11))
    out = solver.solve_many(v)
    assert solver.stats.n_direct_solves == 11
    seq = np.column_stack(
        [_solver(tiny_layout).solve_currents(v[:, j]) for j in range(11)]
    )
    assert np.allclose(out, seq, rtol=0.0, atol=1e-8 * np.abs(seq).max())


def test_direct_factorisation_failure_warns_and_falls_back(tiny_layout, monkeypatch):
    solver = _solver(tiny_layout, dispatch=DispatchPolicy(force_path="direct"))

    from scipy.linalg import LinAlgError

    def boom() -> None:
        raise LinAlgError("synthetic factorisation failure")

    monkeypatch.setattr(solver, "_ensure_direct_factor", boom)
    v = np.eye(tiny_layout.n_contacts)
    with pytest.warns(RuntimeWarning, match="falling back to the iterative path"):
        out = solver.solve_many(v)
    # the block was still solved — by the iterative engine
    assert solver.stats.n_iterative_solves == tiny_layout.n_contacts
    assert solver.stats.n_direct_solves == 0
    assert solver._direct_failed
    assert solver.last_dispatch.path == "iterative"
    g_ref = extract_dense(_solver(tiny_layout))
    assert np.allclose(out, g_ref, rtol=0.0, atol=1e-8 * np.abs(g_ref).max())
    # subsequent blocks skip the doomed factorisation without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.solve_many(v[:, :2])


# ------------------------------------------- floating bordered direct path
def test_floating_bordered_direct_matches_minres_with_gauge(tiny_layout):
    """The Schur-complement direct solve must reproduce the single-RHS MINRES
    solution *and* the gauge constant ``c`` of the bordered system."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal((tiny_layout.n_contacts, 5))

    seq = _solver(tiny_layout, grounded=False)
    gauges_seq = np.empty(v.shape[1])
    currents_seq = np.empty_like(v)
    for j in range(v.shape[1]):
        currents_seq[:, j] = seq.solve_currents(v[:, j])
        gauges_seq[j] = seq.last_gauge_constants[0]

    direct = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    currents_direct = direct.solve_many(v)
    assert direct._direct_factor[0] in ("schur", "bordered")
    assert direct.stats.n_direct_solves == v.shape[1]

    scale = np.abs(currents_seq).max()
    assert np.allclose(currents_direct, currents_seq, rtol=0.0, atol=1e-8 * scale)
    gauge_scale = np.abs(gauges_seq).max()
    assert np.allclose(
        direct.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * gauge_scale
    )

    # the batch-major MINRES block path reports the same gauge constants too
    iterative = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="iterative")
    )
    iterative.solve_many(v)
    assert np.allclose(
        iterative.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * gauge_scale
    )


def test_floating_gauge_constants_accumulate_across_chunks(tiny_layout):
    """Regression: an iterative block wider than max_batch must report one
    gauge constant per column, not just the final chunk's."""
    rng = np.random.default_rng(8)
    v = rng.standard_normal((tiny_layout.n_contacts, 11))
    seq = _solver(tiny_layout, grounded=False)
    gauges_seq = np.empty(11)
    for j in range(11):
        seq.solve_currents(v[:, j])
        gauges_seq[j] = seq.last_gauge_constants[0]
    chunked = _solver(
        tiny_layout,
        grounded=False,
        max_batch=3,
        dispatch=DispatchPolicy(force_path="iterative"),
    )
    chunked.solve_many(v)
    assert chunked.last_gauge_constants.shape == (11,)
    scale = np.abs(gauges_seq).max()
    assert np.allclose(
        chunked.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * scale
    )


def test_floating_gauge_constant_satisfies_bordered_system(tiny_layout):
    """A q + c 1 = v on the contact panels, and 1' q = 0 (charge neutrality)."""
    solver = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    rng = np.random.default_rng(4)
    v = rng.standard_normal((tiny_layout.n_contacts, 3))
    solver.solve_many(v)
    # reconstruct panel currents from the factor to check the raw system
    owner = solver.grid.panel_to_contact[solver.grid.all_contact_panels]
    v_panel = v[owner]
    kind, *factor = solver._direct_factor
    assert kind == "schur"
    from scipy.linalg import cho_solve

    chol, w, s = factor
    q0 = cho_solve(chol, v_panel)
    c = q0.sum(axis=0) / s
    q = q0 - w[:, None] * c
    residual = solver.operator.apply_contact_panels(q) + c[None, :] - v_panel
    assert np.abs(residual).max() < 1e-8 * np.abs(v_panel).max()
    assert np.abs(q.sum(axis=0)).max() < 1e-8 * np.abs(q).max()
    assert np.allclose(c, solver.last_gauge_constants)


def test_floating_extraction_properties_direct_path(tiny_layout):
    """Dense extraction through the bordered direct path keeps the Section 2.4
    structure: symmetric, zero row sums (floating rank deficiency)."""
    solver = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    g = extract_dense(solver)
    scale = np.abs(g).max()
    assert np.abs(g - g.T).max() < 1e-8 * scale
    assert np.abs(g.sum(axis=1)).max() < 1e-6 * scale


# ------------------------------------------------------- accounting invariance
@pytest.mark.parametrize("path", ["direct", "iterative"])
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_counting_solver_attribution_invariant_across_paths(
    tiny_layout, grounded, path
):
    solver = _solver(tiny_layout, grounded, dispatch=DispatchPolicy(force_path=path))
    counting = CountingSolver(solver)
    extract_dense(counting)
    assert counting.solve_count == tiny_layout.n_contacts
    counting.solve_many(np.eye(tiny_layout.n_contacts)[:, :5])
    assert counting.solve_count == tiny_layout.n_contacts + 5


# ------------------------------------------------------------ solve statistics
def test_solve_stats_separate_direct_from_iterative():
    stats = SolveStats()
    stats.record(10)
    stats.record(14)
    stats.record_direct(100)
    # the direct solves must not dilute the Krylov iteration mean
    assert stats.mean_iterations == 12.0
    assert stats.n_iterative_solves == 2
    assert stats.n_direct_solves == 100
    assert stats.n_solves == 102
    d = stats.as_dict()
    assert d["mean_iterations"] == 12.0
    assert d["n_direct_solves"] == 100


def test_mixed_workload_mean_iterations_regression(tiny_layout):
    """Regression: a wide direct block followed by an iterative solve must
    report the iterative solve's true iteration count, not a mean dragged
    toward zero by the zero-iteration direct solves."""
    solver = _solver(tiny_layout, dispatch=DispatchPolicy(force_path="direct"))
    solver.solve_many(np.eye(tiny_layout.n_contacts))  # all direct
    assert solver.mean_iterations_per_solve() == 0.0  # no iterative solves yet
    solver.solve_currents(np.ones(tiny_layout.n_contacts))  # one CG solve
    iters = solver.stats.iterations_per_solve[-1]
    assert iters > 0
    assert solver.mean_iterations_per_solve() == float(iters)
    assert solver.stats.n_direct_solves == tiny_layout.n_contacts
    assert solver.stats.n_solves == tiny_layout.n_contacts + 1


def test_grounded_in_core_crossover_matches_reference_measurement():
    """Pin the fft_unit calibration at the reference measurement point
    (ncp=4096, k=1024 columns, 128x128 panel grid, grounded): the cold
    in-core direct path measured 0.9 s against 5.6 s iterative, a ratio of
    about 0.16, so the model must route the block direct with a
    direct/iterative cost ratio in [0.1, 0.25]."""
    point = {"n_panels": 4096, "n_rhs": 1024, "grid_points": 128 * 128, "grounded": True}
    d = DispatchPolicy().choose(**point)
    assert d.path == "direct"
    assert 0.1 <= d.direct_cost / d.iterative_cost <= 0.25
    # sanity: the pre-recalibration fft_unit=12 puts the ratio far outside it
    old = DispatchPolicy(cost_model=SolveCostModel(fft_unit=12.0)).choose(**point)
    assert not 0.1 <= old.direct_cost / old.iterative_cost <= 0.25
