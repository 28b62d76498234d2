"""Table 4.3 — the low-rank method on larger examples.

Paper (example 4: 4096-contact alternating grid; example 5: 10240 mixed-size
contacts): sparsity 10-21 unthresholded and 62-129 thresholded, 1.7-3.2% of
entries off by more than 10%, and solve-reduction factors of 8.7-18.  Accuracy
is measured on a 10% column sample of the exact G.

This benchmark runs scaled versions of the two layouts (set
``REPRO_BENCH_NSIDE=32`` for a 4096-contact example 4) with the real
eigenfunction black box, so it also exercises the paper's headline claim that
the representation is extracted with many fewer solves than contacts.
"""

import pytest

from repro.experiments import chapter4_examples, run_lowrank_table

from common import bench_n_side, format_report_row, write_result


@pytest.mark.benchmark(group="table-4.3")
def test_table_4_3_large_examples(benchmark):
    configs = chapter4_examples(n_side=bench_n_side())

    def run_all():
        out = {}
        for name in ("ch4-4", "ch4-5"):
            out[name] = run_lowrank_table(
                configs[name], max_dense=1200, sample_columns=96
            )
        return out

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)

    lines = ["Table 4.3 — low-rank method on larger examples"]
    for name, res in results.items():
        lines.append(format_report_row(f"{name} (Gw)", res.unthresholded))
        lines.append(format_report_row(f"{name} (Gwt)", res.thresholded))
    write_result("table_4_3_large", lines)

    for res in results.values():
        # headline shape: real solve reduction and modest error growth
        assert res.unthresholded.solve_reduction_factor > 1.0
        assert res.thresholded.sparsity_factor > res.unthresholded.sparsity_factor
        assert res.thresholded.fraction_above_10pct < 0.25
