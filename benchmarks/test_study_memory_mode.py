"""Routing study: a served ``diam`` on a mmap'd ``.scsr``, decoded or budgeted.

``load_scsr(mmap=True)`` decodes the full CSR at load and keeps it
resident, so a decoded-block budget saves no memory (DESIGN.md §14.1).
``QueryEngine`` therefore runs every traversal, ``diam``'s F-Diam run
included, on the decoded arrays. This study times that choice against
the branch it rejects: the same ``diam`` as
``fdiam(FDiamConfig(prep="auto", memory_budget=decoded // 8))``, which
routes every level through the store's block cache (the ``"cached"``
memory mode). The inputs are the 55×55 ``road_network`` that
``repro serve``'s benchmark stores as its ``road-big`` tenant and the
``internet`` analog.

Nothing here is gated; both branches must report the same diameter.
"""

import json
import time

import pytest

from conftest import emit
from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam
from repro.generators.road import road_network
from repro.harness import get_workload, render_table
from repro.query import QueryEngine
from repro.store import load_scsr, save_scsr

#: Repetitions per branch; each loads the ``.scsr`` afresh so no
#: branch inherits a warm block cache.
REPS = 3


def _graphs():
    yield "road-big 55x55", road_network(
        55, 55, edge_keep=0.8, chain_fraction=0.25, chain_length=4, seed=8440
    )
    yield "internet", get_workload("internet").graph


def _served_diam(graph) -> int:
    engine = QueryEngine()
    (diameter,), _ = engine.run(engine.add_graph(graph), ["diam"])
    return diameter


def _budgeted_diam(graph) -> int:
    decoded = graph.indptr.nbytes + graph.indices.nbytes
    config = FDiamConfig(prep="auto", memory_budget=decoded // 8)
    return fdiam(graph, config).diameter


def _best(path, branches: dict) -> tuple[dict, dict]:
    """Best-of-:data:`REPS` seconds, and the answer, of each branch.

    The load stays outside the timed region. The branches run
    interleaved within each repetition, so drift in the host's speed
    reaches both alike.
    """
    best = dict.fromkeys(branches, float("inf"))
    answers = {}
    for _ in range(REPS):
        for name, run in branches.items():
            graph = load_scsr(path, mmap=True)
            try:
                t0 = time.perf_counter()
                answers[name] = run(graph)
                best[name] = min(best[name], time.perf_counter() - t0)
            finally:
                graph.backing_store.close()
    return best, answers


@pytest.mark.benchmark(group="study-routing")
def test_served_diam_memory_mode(benchmark, tmp_path):
    def run():
        records = []
        for name, g in _graphs():
            path = tmp_path / f"{len(records)}.scsr"
            save_scsr(g, path)
            best, answers = _best(
                path, {"decoded": _served_diam, "budgeted": _budgeted_diam}
            )
            assert answers["decoded"] == answers["budgeted"], name
            decoded = g.indptr.nbytes + g.indices.nbytes
            records.append({
                "decision": "serve_memory_mode",
                "inputs": {"graph": name, "n": g.num_vertices,
                           "arcs": g.num_directed_edges,
                           "decoded_bytes": decoded,
                           "budget_bytes": decoded // 8},
                "choice": "decoded",
                "chosen_s": best["decoded"],
                "rejected_s": best["budgeted"],
                "regret": round(best["decoded"] / best["budgeted"] - 1, 3),
                "diameter": answers["decoded"],
            })
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Study: a served diam on a mmap'd .scsr, decoded vs a 1/8 budget",
            ["graph", "diameter", "decoded ms", "budgeted ms", "regret"],
            [
                {
                    "graph": r["inputs"]["graph"],
                    "diameter": r["diameter"],
                    "decoded ms": round(1e3 * r["chosen_s"], 1),
                    "budgeted ms": round(1e3 * r["rejected_s"], 1),
                    "regret": r["regret"],
                }
                for r in records
            ],
        )
    )
    emit("\n".join(json.dumps(r) for r in records))
    assert len(records) == 2
