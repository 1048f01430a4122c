"""Routing study: a lone distance row, scalar hybrid BFS or a 1-lane sweep.

``TraversalKernel.distance_batch`` answers a chunk of one source with
the direction-optimized scalar BFS (paper §4.6) rather than a 1-lane
``lane_distances`` sweep: a lane sweep pays off only when its lanes
share the gathers, and one source shares nothing. This study times
that choice against the branch it rejects, on a small-world input, a
high-diameter road map, and the 40×40 ``road_network`` that
``repro serve``'s benchmark uses as its ``road`` tenant.

It also records the per-row cost of both engines at ``k`` = 2, 4 and
8 sources, where ``distance_batch`` takes lanes today: the input to a
later rule for when a small batch should stay scalar. Nothing here is
gated; the answers of both engines must agree.
"""

import json
import time

import numpy as np
import pytest

from conftest import emit
from repro.bfs.bitparallel import lane_distances
from repro.bfs.kernel import TraversalKernel
from repro.generators.road import road_network
from repro.harness import get_workload, render_table

#: Batch sizes whose per-row cost is recorded for both engines.
BATCH_SIZES = (2, 4, 8)

#: Sources per graph, spread evenly over the vertex ids.
SOURCES = 8


def _graphs():
    yield "internet", get_workload("internet").graph
    yield "USA-road-d.NY", get_workload("USA-road-d.NY").graph
    yield "road_network 40x40", road_network(
        40, 40, edge_keep=0.85, chain_fraction=0.2, chain_length=3, seed=720
    )


def _per_row(engines: dict, reps: int = 5) -> tuple[dict, dict]:
    """Best-of-``reps`` seconds per row, and the rows, of each engine.

    The engines run interleaved within each repetition, so drift in the
    host's speed reaches both alike.
    """
    best = dict.fromkeys(engines, float("inf"))
    rows = {}
    for _ in range(reps):
        for name, (run, count) in engines.items():
            t0 = time.perf_counter()
            rows[name] = run()
            best[name] = min(best[name], (time.perf_counter() - t0) / count)
    return best, rows


@pytest.mark.benchmark(group="study-routing")
def test_lone_source_rows(benchmark):
    def run():
        records, costs = [], []
        for name, g in _graphs():
            kernel = TraversalKernel(g)
            ws = kernel.workspace
            sources = np.linspace(0, g.num_vertices - 1, SOURCES).astype(np.int64)

            def scalar(srcs):
                return np.concatenate([kernel.distance_batch([s])[0] for s in srcs])

            def lanes(srcs, width):
                return np.concatenate([
                    lane_distances(g, srcs[i : i + width], pool=ws)[0]
                    for i in range(0, len(srcs), width)
                ])

            best, rows = _per_row({
                "scalar": (lambda: scalar(sources), len(sources)),
                "lanes": (lambda: lanes(sources, 1), len(sources)),
            })
            assert np.array_equal(rows["scalar"], rows["lanes"]), name
            records.append({
                "decision": "lone_row",
                "inputs": {"graph": name, "n": g.num_vertices,
                           "arcs": g.num_directed_edges, "k": 1},
                "choice": "scalar",
                "chosen_s": best["scalar"],
                "rejected_s": best["lanes"],
                "regret": round(best["scalar"] / best["lanes"] - 1, 3),
            })
            for k in BATCH_SIZES:
                best, rows = _per_row({
                    "scalar": (lambda: scalar(sources), len(sources)),
                    "lanes": (lambda k=k: lanes(sources, k), len(sources)),
                })
                assert np.array_equal(rows["scalar"], rows["lanes"]), (name, k)
                costs.append({
                    "graph": name,
                    "k": k,
                    "scalar ms/row": round(1e3 * best["scalar"], 2),
                    "lanes ms/row": round(1e3 * best["lanes"], 2),
                })
        return records, costs

    records, costs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Study: a lone distance row, scalar hybrid BFS vs a 1-lane sweep",
            ["graph", "scalar ms", "1-lane ms", "regret"],
            [
                {
                    "graph": r["inputs"]["graph"],
                    "scalar ms": round(1e3 * r["chosen_s"], 2),
                    "1-lane ms": round(1e3 * r["rejected_s"], 2),
                    "regret": r["regret"],
                }
                for r in records
            ],
        )
    )
    emit(
        render_table(
            "Study: per-row cost of small batches, scalar vs lanes",
            ["graph", "k", "scalar ms/row", "lanes ms/row"],
            costs,
        )
    )
    emit("\n".join(json.dumps(r) for r in records))
    assert len(records) == 3 and len(costs) == 3 * len(BATCH_SIZES)
