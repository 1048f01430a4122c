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
