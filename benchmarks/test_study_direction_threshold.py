"""Design-choice study: the direction-optimization threshold.

Paper §4.6: "We experimentally determined a threshold of 10% of the
number of vertices to yield good performance. Once the worklist size
reaches this threshold, the following frontier ... is often close to
50% of the graph, making the bottom-up BFS very effective."

This study regenerates that determination: F-Diam runs with the
threshold swept across the range (plus direction optimization disabled
entirely) on one small-world and one high-diameter input, reporting
runtimes and the number of bottom-up levels actually taken. The shape
to reproduce: small-world inputs benefit from bottom-up steps, while
high-diameter inputs never reach the threshold (paper §6.2: on
europe_osm "the worklist size never passes the threshold").
"""

import time

import numpy as np
import pytest

from conftest import emit
from repro.core import FDiamConfig, fdiam
from repro.harness import get_workload, render_table

THRESHOLDS = (0.02, 0.05, 0.10, 0.20, 0.50)


def _bottom_up_levels(result) -> int:
    from repro.bfs import Direction

    return sum(
        sum(1 for lv in tr.levels if lv.direction == Direction.BOTTOM_UP)
        for tr in result.stats.traces
    )


@pytest.mark.benchmark(group="study-threshold")
def test_direction_threshold_sweep(benchmark):
    def run():
        rows = []
        for name in ("soc-LiveJournal1", "USA-road-d.USA"):
            g = get_workload(name).graph
            fdiam(g)  # warm the graph caches out of the timings
            for threshold in THRESHOLDS:
                # The paper's one-BFS-at-a-time loop: the direction switch
                # lives in the scalar BFS, and lane sweeps leave no traces.
                config = FDiamConfig(
                    threshold=threshold, keep_traces=True, ecc_lanes="off"
                )
                t0 = time.perf_counter()
                result = fdiam(g, config)
                rows.append(
                    {
                        "graph": name,
                        "threshold": f"{100 * threshold:g}%",
                        "seconds": time.perf_counter() - t0,
                        "bottom-up levels": _bottom_up_levels(result),
                        "diameter": result.diameter,
                    }
                )
            t0 = time.perf_counter()
            result = fdiam(g, FDiamConfig(directions=False, ecc_lanes="off"))
            rows.append(
                {
                    "graph": name,
                    "threshold": "off",
                    "seconds": time.perf_counter() - t0,
                    "bottom-up levels": 0,
                    "diameter": result.diameter,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Study (paper §4.6): direction-optimization threshold sweep",
            ["graph", "threshold", "seconds", "bottom-up levels", "diameter"],
            rows,
        )
    )

    by_graph: dict[str, list[dict]] = {}
    for row in rows:
        by_graph.setdefault(row["graph"], []).append(row)
    # Exactness is threshold-independent.
    for name, graph_rows in by_graph.items():
        assert len({r["diameter"] for r in graph_rows}) == 1, name
    # Small-world input actually exercises bottom-up at the paper's 10%.
    soc = {r["threshold"]: r for r in by_graph["soc-LiveJournal1"]}
    assert soc["10%"]["bottom-up levels"] > 0
    # High-diameter road input never passes a 50% threshold (paper §6.2).
    road = {r["threshold"]: r for r in by_graph["USA-road-d.USA"]}
    assert road["50%"]["bottom-up levels"] == 0


def _lane_sweeps(graph) -> list:
    """The sources and level caps of every lane sweep a default fdiam runs."""
    from repro.bfs.kernel import TraversalKernel

    recorded = []
    original = TraversalKernel.levels_batched64

    def record(kernel, sources, max_level=None, **kwargs):
        recorded.append((np.asarray(sources).copy(), max_level))
        return original(kernel, sources, max_level, **kwargs)

    TraversalKernel.levels_batched64 = record
    try:
        fdiam(graph)
    finally:
        TraversalKernel.levels_batched64 = original
    return recorded


#: The three ways to pick each lane-sweep level's direction: keyword
#: arguments of the sweep, and whether the arc test is forced to pass.
DIRECTION_MODES = {
    "rule": ({}, False),
    "discovery": ({"directions": False}, False),
    "pull-only": ({"threshold": 0.0}, True),
}


def _time_modes(sweep, reps: int = 5) -> tuple[dict, dict, dict]:
    """Best-of-``reps`` time, pull-only levels and answer of each mode.

    The modes run interleaved within each repetition, so drift in the
    host's speed reaches all three alike.
    """
    from repro.bfs import bitparallel

    rule = bitparallel._pull_wins
    best = dict.fromkeys(DIRECTION_MODES, float("inf"))
    pulls, answers = {}, {}
    try:
        for _ in range(reps):
            for mode, (kwargs, forced) in DIRECTION_MODES.items():
                count = [0]

                def counted(front_arcs, unsat_arcs, forced=forced, count=count):
                    verdict = forced or rule(front_arcs, unsat_arcs)
                    count[0] += verdict
                    return verdict

                bitparallel._pull_wins = counted
                t0 = time.perf_counter()
                answers[mode] = sweep(**kwargs)
                best[mode] = min(best[mode], time.perf_counter() - t0)
                pulls[mode] = count[0]
    finally:
        bitparallel._pull_wins = rule
    return best, pulls, answers


@pytest.mark.benchmark(group="study-threshold")
def test_lane_sweep_direction(benchmark):
    """Lane sweeps under the direction rule against both forced directions.

    Pull-only levels skip the discovery gather (Beamer's bottom-up step
    on lane words). The rule goes pull-only past the kernel's 10 %
    threshold when 2 × the frontier's arcs exceed the unsaturated
    vertices' arcs; forcing discovery is ``directions=False``, forcing
    pull-only is a zero threshold with the arc test always passing.
    ``regret`` is the rule's time over the faster forced direction,
    minus one (negative: the rule beats both).
    """
    from repro.bfs.bitparallel import lane_sweep
    from repro.bfs.kernel import TraversalKernel, Workspace

    def run():
        cases = []
        for name in ("soc-LiveJournal1", "kron_g500-logn21"):
            g = get_workload(name).graph
            sweeps = _lane_sweeps(g)
            ws = Workspace(g.num_vertices)
            cases.append((f"{name} (fdiam, {len(sweeps)} sweeps)", lambda g=g, s=sweeps, ws=ws, **kw: [
                lane_sweep(g, src, cap, pool=ws, **kw).eccentricities.tolist()
                for src, cap in s
            ]))
        g = get_workload("USA-road-d.NY").graph
        sources = np.linspace(0, g.num_vertices - 1, 16).astype(np.int64)
        ws = Workspace(g.num_vertices)
        cases.append(("USA-road-d.NY (distance_batch, 16 lanes)", lambda g=g, ws=ws, **kw: (
            TraversalKernel(g, workspace=ws, **kw).distance_batch(sources)[0].tolist()
        )))
        rows = []
        for label, sweep in cases:
            best, pulls, answers = _time_modes(sweep)
            want = answers["rule"]
            assert answers["discovery"] == want and answers["pull-only"] == want, label
            rows.append({
                "sweeps": label,
                "rule ms": round(1e3 * best["rule"], 1),
                "discovery ms": round(1e3 * best["discovery"], 1),
                "pull-only ms": round(1e3 * best["pull-only"], 1),
                "rule pull levels": pulls["rule"],
                "regret": round(
                    best["rule"] / min(best["discovery"], best["pull-only"]) - 1, 3
                ),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Study (paper §4.6): lane-sweep direction, rule vs forced",
            ["sweeps", "rule ms", "discovery ms", "pull-only ms", "rule pull levels", "regret"],
            rows,
        )
    )
    by_label = {r["sweeps"].split(" ")[0]: r for r in rows}
    # The small-world sweeps do go pull-only; the 16-lane road batch,
    # whose frontiers hold a fifth of the arcs at most, never does.
    assert by_label["soc-LiveJournal1"]["rule pull levels"] > 0
    assert by_label["kron_g500-logn21"]["rule pull levels"] > 0
    assert by_label["USA-road-d.NY"]["rule pull levels"] == 0
