"""Micro-benchmarks of the traversal kernels (pytest-benchmark proper).

These time the substrate primitives in isolation — full vectorized BFS,
serial BFS, Winnow's partial BFS, and a complete F-Diam run on a
mid-size analog — using pytest-benchmark's statistics machinery (these
run multiple rounds, unlike the single-shot experiment reproductions).
"""

import pytest

from repro.bfs import TraversalKernel, VisitMarks, run_bfs, serial_bfs
from repro.core import FDiamConfig, FDiamState, fdiam, winnow
from repro.harness import get_workload


@pytest.fixture(scope="module")
def powerlaw_graph():
    return get_workload("internet").graph


@pytest.fixture(scope="module")
def road_graph():
    return get_workload("USA-road-d.NY").graph


@pytest.mark.benchmark(group="micro-bfs")
def test_vectorized_bfs_powerlaw(benchmark, powerlaw_graph):
    marks = VisitMarks(powerlaw_graph.num_vertices)
    result = benchmark(run_bfs, powerlaw_graph, 0, marks)
    assert result.eccentricity > 0


@pytest.mark.benchmark(group="micro-bfs")
def test_serial_bfs_powerlaw(benchmark, powerlaw_graph):
    marks = VisitMarks(powerlaw_graph.num_vertices)
    result = benchmark(serial_bfs, powerlaw_graph, 0, marks)
    assert result.eccentricity > 0


@pytest.mark.benchmark(group="micro-bfs")
def test_vectorized_bfs_road(benchmark, road_graph):
    marks = VisitMarks(road_graph.num_vertices)
    result = benchmark(run_bfs, road_graph, 0, marks)
    assert result.eccentricity > 0


@pytest.mark.benchmark(group="micro-bfs")
def test_kernel_pooled_bfs_powerlaw(benchmark, powerlaw_graph):
    """Persistent kernel with distance recording: the pooled workspace
    must serve repeated traversals from recycled buffers (the reuse hit
    rate is asserted, so a pooling regression fails the benchmark)."""
    kernel = TraversalKernel(powerlaw_graph)

    def pooled_bfs():
        res = kernel.bfs(0, record_dist=True)
        kernel.workspace.release_dist(res.dist)
        return res

    result = benchmark(pooled_bfs)
    assert result.eccentricity > 0
    assert kernel.workspace.stats.hit_rate > 0.5


@pytest.mark.benchmark(group="micro-winnow")
def test_winnow_partial_bfs(benchmark, powerlaw_graph):
    u = powerlaw_graph.max_degree_vertex()
    bound = run_bfs(powerlaw_graph, u).eccentricity * 2

    def do_winnow():
        state = FDiamState(powerlaw_graph, FDiamConfig())
        winnow(state, u, bound)
        return state

    state = benchmark(do_winnow)
    assert state.stats.winnow_calls == 1


@pytest.mark.benchmark(group="micro-fdiam")
def test_fdiam_parallel_end_to_end(benchmark, powerlaw_graph):
    result = benchmark(fdiam, powerlaw_graph)
    assert result.diameter > 0


@pytest.mark.benchmark(group="micro-fdiam")
def test_fdiam_serial_end_to_end(benchmark, powerlaw_graph):
    result = benchmark(fdiam, powerlaw_graph, FDiamConfig(engine="serial"))
    assert result.diameter > 0
