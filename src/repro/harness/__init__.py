"""Benchmark harness: workloads, timed runners, throughput rules, and
the experiment drivers reproducing every table and figure of the
paper's evaluation section (see DESIGN.md §4 for the index)."""

from repro.harness.experiments import (
    CODES,
    ExperimentReport,
    SuiteConfig,
    fig6_throughput,
    fig7_scaling,
    fig8_runtime_breakdown,
    fig9_ablation_throughput,
    run_all_codes,
    table1_inputs,
    table2_runtimes,
    table3_bfs_counts,
    table4_stage_effectiveness,
    table5_ablation_bfs,
)
from repro.harness.figures import line_series, log_bar_chart, stacked_percent_bars
from repro.harness.runner import (
    DEFAULT_REPEATS,
    DEFAULT_TIMEOUT_S,
    TimedRun,
    run_timed,
)
from repro.harness.tables import format_cell, render_table
from repro.harness.throughput import (
    geomean_throughput,
    pairwise_speedup,
    penalized_geomean_throughput,
    speedup_range,
)
from repro.harness.workloads import (
    ALL_INPUTS,
    FAST_INPUTS,
    HIGH_DIAMETER_INPUTS,
    SMALL_WORLD_INPUTS,
    Workload,
    get_workload,
    iter_workloads,
)

__all__ = [
    "ALL_INPUTS",
    "CODES",
    "DEFAULT_REPEATS",
    "DEFAULT_TIMEOUT_S",
    "ExperimentReport",
    "FAST_INPUTS",
    "HIGH_DIAMETER_INPUTS",
    "SMALL_WORLD_INPUTS",
    "SuiteConfig",
    "TimedRun",
    "Workload",
    "fig6_throughput",
    "fig7_scaling",
    "fig8_runtime_breakdown",
    "fig9_ablation_throughput",
    "format_cell",
    "geomean_throughput",
    "get_workload",
    "iter_workloads",
    "line_series",
    "log_bar_chart",
    "pairwise_speedup",
    "penalized_geomean_throughput",
    "render_table",
    "run_all_codes",
    "run_timed",
    "speedup_range",
    "stacked_percent_bars",
    "table1_inputs",
    "table2_runtimes",
    "table3_bfs_counts",
    "table4_stage_effectiveness",
    "table5_ablation_bfs",
]
