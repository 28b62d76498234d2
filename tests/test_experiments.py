"""Tests for the experiment configuration and runner module."""

import pytest

from repro.experiments import (
    chapter4_examples,
    get_example,
    paper_examples,
    run_solver_speed_table,
    run_wavelet_table,
)


class TestExampleConfigs:
    def test_paper_examples_cover_table_3_1(self):
        examples = paper_examples(n_side=8)
        assert set(examples) == {"1a", "1b", "2", "3"}
        assert examples["1b"].solver == "fd"

    def test_chapter4_examples_cover_tables_4_x(self):
        examples = chapter4_examples(n_side=8)
        assert set(examples) == {"ch4-1", "ch4-2", "ch4-3", "ch4-4", "ch4-5"}

    @pytest.mark.parametrize("name", ["1a", "2", "3", "ch4-1", "ch4-2", "ch4-3"])
    def test_layouts_build_and_fit_hierarchy(self, name):
        config = get_example(name, n_side=8)
        layout = config.build_layout()
        hierarchy = config.build_hierarchy(layout)
        assert hierarchy.layout.n_contacts == layout.n_contacts

    def test_solver_kinds(self):
        config = get_example("1a", n_side=4)
        solver = config.build_solver(config.build_layout())
        assert solver.n_contacts == 16
        config_fd = get_example("1b", n_side=4)
        config_fd.fd_resolution = (16, 16)
        config_fd.fd_planes_per_layer = (1, 2, 1)
        solver_fd = config_fd.build_solver(config_fd.build_layout())
        assert solver_fd.n_contacts == 16

    def test_unknown_solver_kind(self):
        config = get_example("1a", n_side=4)
        config.solver = "bogus"
        with pytest.raises(ValueError):
            config.build_solver(config.build_layout())


class TestRunners:
    def test_wavelet_runner_produces_reports(self):
        config = get_example("1a", n_side=8)
        config.max_panels = 64
        result = run_wavelet_table(config)
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0]["thresholded"] is False and rows[1]["thresholded"] is True
        assert result.unthresholded.max_relative_error < 0.05
        assert result.thresholded.sparsity_factor > result.unthresholded.sparsity_factor

    def test_solver_speed_runner(self):
        config = get_example("1a", n_side=4)
        config.max_panels = 32
        config.fd_resolution = (16, 16)
        config.fd_planes_per_layer = (1, 2, 1)
        rows = run_solver_speed_table(config, n_solves=2)
        names = {r["solver"] for r in rows}
        assert names == {"finite difference", "eigenfunction"}
        for r in rows:
            assert r["time_per_solve_s"] > 0
