"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver returns an :class:`ExperimentReport` carrying both the
structured data (asserted on by the benchmark tests and recorded in
EXPERIMENTS.md) and the rendered plain-text table/figure.

Code names match the paper's: ``F-Diam (ser)``, ``F-Diam (par)``,
``iFUB (ser)``, ``iFUB (par)``, ``Graph-Diam.``. The serial/parallel
split maps to the scalar and vectorized BFS engines (DESIGN.md §2).
Every F-Diam code here runs the paper's one-BFS-at-a-time main loop
(``ecc_lanes="off"``), so the counts in Tables 3-5 and the stage split
of Figure 8 follow the paper's per-BFS schedule rather than the
lane-batched default (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.graph_diameter import graph_diameter
from repro.baselines.ifub import ifub_diameter
from repro.core.config import ABLATIONS, FDiamConfig
from repro.core.fdiam import fdiam
from repro.graph.degrees import degree_summary
from repro.harness.figures import line_series, log_bar_chart, stacked_percent_bars
from repro.harness.runner import (
    DEFAULT_REPEATS,
    DEFAULT_TIMEOUT_S,
    TimedRun,
    run_timed,
)
from repro.harness.tables import render_table
from repro.harness.throughput import geomean_throughput, pairwise_speedup
from repro.harness.workloads import ALL_INPUTS, iter_workloads
from repro.parallel.scaling import PAPER_THREAD_COUNTS, ScalingStudy

__all__ = [
    "ExperimentReport",
    "SuiteConfig",
    "CODES",
    "table1_inputs",
    "run_all_codes",
    "table2_runtimes",
    "fig6_throughput",
    "fig7_scaling",
    "table3_bfs_counts",
    "table4_stage_effectiveness",
    "fig8_runtime_breakdown",
    "table5_ablation_bfs",
    "fig9_ablation_throughput",
]


@dataclass(frozen=True)
class ExperimentReport:
    """Structured data plus rendered text of one reproduced experiment."""

    experiment: str
    text: str
    data: object


@dataclass(frozen=True)
class SuiteConfig:
    """Shared knobs of an experiment run."""

    inputs: tuple[str, ...] = ALL_INPUTS
    repeats: int = DEFAULT_REPEATS
    timeout_s: float = DEFAULT_TIMEOUT_S


#: The paper's main loop: one eccentricity BFS at a time.
PAPER_LOOP = FDiamConfig(ecc_lanes="off")


def _fdiam_runner(config: FDiamConfig) -> Callable:
    paper = config.ablate(ecc_lanes="off")

    def run(graph, deadline=None):
        return fdiam(graph, paper, deadline=deadline)

    return run


#: The five codes of Table 2 / Figure 6, in the paper's column order.
CODES: dict[str, Callable] = {
    "F-Diam (ser)": _fdiam_runner(FDiamConfig(engine="serial")),
    "F-Diam (par)": _fdiam_runner(FDiamConfig(engine="parallel")),
    "iFUB (ser)": lambda graph, deadline=None: ifub_diameter(
        graph, engine="serial", deadline=deadline
    ),
    "iFUB (par)": lambda graph, deadline=None: ifub_diameter(
        graph, engine="parallel", deadline=deadline
    ),
    "Graph-Diam.": lambda graph, deadline=None: graph_diameter(
        graph, engine="parallel", deadline=deadline
    ),
}


# ----------------------------------------------------------------------
# Table 1 — input graphs
# ----------------------------------------------------------------------
def table1_inputs(cfg: SuiteConfig | None = None) -> ExperimentReport:
    """Reproduce Table 1: the input catalog (for the analogs)."""
    cfg = cfg or SuiteConfig()
    rows = []
    for wl in iter_workloads(cfg.inputs):
        summary = degree_summary(wl.graph)
        result = fdiam(wl.graph)
        rows.append(
            {
                "name": wl.name,
                "type": wl.spec.topology,
                "vertices": summary.num_vertices,
                "edges": 2 * summary.num_edges,
                "avg degree": round(summary.average_degree, 1),
                "max degree": summary.max_degree,
                "CC diameter": result.diameter,
                "paper vertices": wl.spec.paper_vertices,
                "paper CC diameter": wl.spec.paper_diameter,
            }
        )
    text = render_table(
        "Table 1: Information about the input graphs (synthetic analogs)",
        [
            "name",
            "type",
            "vertices",
            "edges",
            "avg degree",
            "max degree",
            "CC diameter",
            "paper vertices",
            "paper CC diameter",
        ],
        rows,
    )
    return ExperimentReport("table1", text, rows)


# ----------------------------------------------------------------------
# Table 2 / Figure 6 / Table 3 share one measurement pass
# ----------------------------------------------------------------------
def run_all_codes(cfg: SuiteConfig | None = None) -> dict[str, list[TimedRun]]:
    """Measure all five codes on all configured inputs."""
    cfg = cfg or SuiteConfig()
    runs: dict[str, list[TimedRun]] = {name: [] for name in CODES}
    for wl in iter_workloads(cfg.inputs):
        for code_name, fn in CODES.items():
            runs[code_name].append(
                run_timed(
                    code_name,
                    fn,
                    wl.graph,
                    repeats=cfg.repeats,
                    timeout_s=cfg.timeout_s,
                )
            )
    return runs


def table2_runtimes(
    runs: dict[str, list[TimedRun]], cfg: SuiteConfig | None = None
) -> ExperimentReport:
    """Reproduce Table 2: measured runtimes in seconds (T/O = timeout)."""
    cfg = cfg or SuiteConfig()
    by_input: dict[str, dict[str, object]] = {}
    for code_name, code_runs in runs.items():
        for r in code_runs:
            row = by_input.setdefault(r.graph_name, {"Graphs": r.graph_name})
            row[code_name] = float("inf") if r.timed_out else r.median_seconds
    text = render_table(
        f"Table 2: Measured runtimes in seconds (T/O = timeout at "
        f"{cfg.timeout_s:g}s; F-Diam runs the paper's one-BFS-at-a-time loop)",
        ["Graphs", *CODES.keys()],
        by_input.values(),
    )
    return ExperimentReport("table2", text, by_input)


def fig6_throughput(runs: dict[str, list[TimedRun]]) -> ExperimentReport:
    """Reproduce Figure 6: throughput of the five codes per input,
    plus the paper's geometric-mean speedup summary."""
    series: dict[str, dict[str, float]] = {}
    for code_name, code_runs in runs.items():
        for r in code_runs:
            series.setdefault(r.graph_name, {})[code_name] = r.throughput
    chart = log_bar_chart(
        "Figure 6: Throughput of various diameter codes "
        "(missing bars denote timeouts)",
        series,
    )
    summary_lines = ["", "Geometric-mean speedups (common non-timeout inputs):"]
    speedups: dict[str, float] = {}
    for fast in ("F-Diam (ser)", "F-Diam (par)"):
        for slow in ("iFUB (ser)", "iFUB (par)", "Graph-Diam."):
            s = pairwise_speedup(runs[fast], runs[slow])
            speedups[f"{fast} vs {slow}"] = s
            summary_lines.append(f"  {fast} vs {slow}: {s:,.1f}x")
    geo = {name: geomean_throughput(rs) for name, rs in runs.items()}
    return ExperimentReport(
        "fig6",
        chart + "\n" + "\n".join(summary_lines),
        {"series": series, "speedups": speedups, "geomean_throughput": geo},
    )


def table3_bfs_counts(runs: dict[str, list[TimedRun]]) -> ExperimentReport:
    """Reproduce Table 3: number of BFS traversals per code and input.

    Counting convention per the paper: eccentricity BFS + Winnow calls
    for F-Diam; all full BFS calls for the baselines; Eliminate is not
    counted.
    """
    tracked = ("F-Diam (par)", "iFUB (par)", "Graph-Diam.")
    by_input: dict[str, dict[str, object]] = {}
    for code_name in tracked:
        for r in runs[code_name]:
            row = by_input.setdefault(r.graph_name, {"Graphs": r.graph_name})
            if r.timed_out or r.result is None:
                row[code_name] = "timeout"
            else:
                res = r.result
                count = (
                    res.stats.bfs_traversals
                    if hasattr(res, "stats")
                    else res.bfs_traversals
                )
                row[code_name] = count
    text = render_table(
        "Table 3: Number of BFS traversals",
        ["Graphs", *tracked],
        by_input.values(),
    )
    return ExperimentReport("table3", text, by_input)


# ----------------------------------------------------------------------
# Table 4 / Figure 8 — stage effectiveness and runtime split
# ----------------------------------------------------------------------
def table4_stage_effectiveness(cfg: SuiteConfig | None = None) -> ExperimentReport:
    """Reproduce Table 4: % of vertices removed per F-Diam stage."""
    cfg = cfg or SuiteConfig()
    rows = []
    fractions_by_input: dict[str, dict[str, float]] = {}
    for wl in iter_workloads(cfg.inputs):
        result = fdiam(wl.graph, PAPER_LOOP)
        frac = result.stats.removal_fractions()
        fractions_by_input[wl.name] = frac
        rows.append(
            {
                "Graphs": wl.name,
                "Winnow": f"{100 * frac['winnow']:.2f}%",
                "Eliminate": f"{100 * frac['eliminate']:.2f}%",
                "Chain": f"{100 * frac['chain']:.2f}%",
                "Degree-0 Vertices": f"{100 * frac['degree0']:.2f}%",
                "Computed": f"{100 * frac['computed']:.2f}%",
            }
        )
    text = render_table(
        "Table 4: Percentage of vertices removed from consideration",
        ["Graphs", "Winnow", "Eliminate", "Chain", "Degree-0 Vertices", "Computed"],
        rows,
    )
    return ExperimentReport("table4", text, fractions_by_input)


def fig8_runtime_breakdown(cfg: SuiteConfig | None = None) -> ExperimentReport:
    """Reproduce Figure 8: share of runtime per F-Diam stage."""
    cfg = cfg or SuiteConfig()
    shares: dict[str, dict[str, float]] = {}
    for wl in iter_workloads(cfg.inputs):
        result = fdiam(wl.graph, PAPER_LOOP)
        shares[wl.name] = result.stats.times.fractions()
    text = stacked_percent_bars(
        "Figure 8: Percentage of runtime of each function in F-Diam", shares
    )
    return ExperimentReport("fig8", text, shares)


# ----------------------------------------------------------------------
# Table 5 / Figure 9 — ablations
# ----------------------------------------------------------------------
def _run_ablations(cfg: SuiteConfig) -> dict[str, list[TimedRun]]:
    runs: dict[str, list[TimedRun]] = {name: [] for name in ABLATIONS}
    for wl in iter_workloads(cfg.inputs):
        for variant, config in ABLATIONS.items():
            runs[variant].append(
                run_timed(
                    variant,
                    _fdiam_runner(config),
                    wl.graph,
                    repeats=max(1, cfg.repeats - 1),
                    timeout_s=cfg.timeout_s,
                )
            )
    return runs


def table5_ablation_bfs(
    cfg: SuiteConfig | None = None,
    runs: dict[str, list[TimedRun]] | None = None,
) -> ExperimentReport:
    """Reproduce Table 5: BFS calls of the ablated F-Diam versions."""
    cfg = cfg or SuiteConfig()
    runs = runs or _run_ablations(cfg)
    by_input: dict[str, dict[str, object]] = {}
    for variant, variant_runs in runs.items():
        for r in variant_runs:
            row = by_input.setdefault(r.graph_name, {"Graphs": r.graph_name})
            if r.timed_out or r.result is None:
                row[variant] = "timeout"
            else:
                row[variant] = r.result.stats.bfs_traversals
    text = render_table(
        "Table 5: Number of BFS calls in different versions of F-Diam",
        ["Graphs", *ABLATIONS.keys()],
        by_input.values(),
    )
    return ExperimentReport("table5", text, by_input)


def fig9_ablation_throughput(
    cfg: SuiteConfig | None = None,
    runs: dict[str, list[TimedRun]] | None = None,
) -> ExperimentReport:
    """Reproduce Figure 9: throughput of the ablated F-Diam versions."""
    cfg = cfg or SuiteConfig()
    runs = runs or _run_ablations(cfg)
    series: dict[str, dict[str, float]] = {}
    for variant, variant_runs in runs.items():
        for r in variant_runs:
            series.setdefault(r.graph_name, {})[variant] = r.throughput
    chart = log_bar_chart(
        "Figure 9: Throughput of various F-Diam versions "
        "(missing bars denote timeouts)",
        series,
    )
    baseline = geomean_throughput(runs["F-Diam"])
    rel = {}
    lines = ["", "Geomean throughput relative to full F-Diam:"]
    for variant, variant_runs in runs.items():
        g = geomean_throughput(variant_runs)
        rel[variant] = g / baseline if baseline > 0 else 0.0
        lines.append(f"  {variant}: {100 * rel[variant]:.0f}%")
    return ExperimentReport(
        "fig9", chart + "\n" + "\n".join(lines), {"series": series, "relative": rel}
    )


# ----------------------------------------------------------------------
# Figure 7 — thread scaling (modeled; see DESIGN.md §2)
# ----------------------------------------------------------------------
def fig7_scaling(cfg: SuiteConfig | None = None) -> ExperimentReport:
    """Reproduce Figure 7: geometric-mean F-Diam throughput by thread
    count, from the level-synchronous cost model driven by measured
    traces."""
    cfg = cfg or SuiteConfig()
    study = ScalingStudy()
    for wl in iter_workloads(cfg.inputs):
        study.run_input(wl.graph)
    geo = study.geomean_throughput()
    speedups = study.geomean_speedup()
    points = [(float(t), geo[t]) for t in PAPER_THREAD_COUNTS if t in geo]
    text = line_series(
        "Figure 7: F-Diam modeled throughput for different thread counts",
        points,
        x_label="threads",
        y_label="geomean modeled throughput (vertices/s)",
    )
    text += "\n\nGeomean modeled speedup over 1 thread:\n" + "\n".join(
        f"  {t:>3} threads: {speedups[t]:.2f}x" for t in speedups
    )
    return ExperimentReport(
        "fig7", text, {"throughput": geo, "speedup": speedups, "points": study.points}
    )
