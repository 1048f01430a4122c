"""Property-based equivalence of the traversal engines and read-outs.

A :class:`~repro.bfs.kernel.TraversalKernel` runs single-source BFS on
one of two engines — the vectorized direction-optimized hybrid
("parallel") and the scalar reference ("serial"). Whichever it is
configured with, the observable results must be identical on every
graph and source: eccentricity, visited count, the full distance array,
and the set of deepest vertices. The two multi-source primitives driven
with a single source — the scalar level wave (:meth:`levels`) and one
lane of the bit-parallel sweep (:meth:`levels_batched64`) — are
structurally independent code paths and must yield the same distances.
The strategies deliberately include disconnected graphs (random edge
soups and explicit disjoint unions of generator graphs) because the
multi-source paths degrade differently there.
"""

from typing import get_args

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.bfs import Engine, TraversalKernel, serial_distances
from repro.generators import barabasi_albert, broom, grid_2d, lollipop
from repro.graph import from_edge_arrays


def _edges_of(graph):
    src, dst = [], []
    for u, v in graph.iter_edges():
        src.append(u)
        dst.append(v)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _disjoint_union(g1, g2):
    s1, d1 = _edges_of(g1)
    s2, d2 = _edges_of(g2)
    off = g1.num_vertices
    return from_edge_arrays(
        np.concatenate([s1, s2 + off]),
        np.concatenate([d1, d2 + off]),
        num_vertices=g1.num_vertices + g2.num_vertices,
    )


@st.composite
def generator_graph(draw):
    """A small graph from the generator families, possibly disconnected."""
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        g = grid_2d(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    elif kind == 1:
        m = draw(st.integers(1, 3))
        g = barabasi_albert(
            draw(st.integers(m + 1, 25)), m, seed=draw(st.integers(0, 1000))
        )
    elif kind == 2:
        g = lollipop(draw(st.integers(3, 6)), draw(st.integers(1, 8)))
    elif kind == 3:
        g = broom(draw(st.integers(1, 8)), draw(st.integers(1, 6)))
    else:
        # Random edge soup: frequently disconnected, may have isolated
        # vertices and multi-edges.
        n = draw(st.integers(1, 30))
        m = draw(st.integers(0, 2 * n))
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        g = from_edge_arrays(
            rng.integers(0, n, size=m), rng.integers(0, n, size=m), num_vertices=n
        )
    if draw(st.booleans()):
        # Force disconnection: glue on an independent second component.
        g = _disjoint_union(g, grid_2d(2, draw(st.integers(2, 4))))
    return g


ENGINES = get_args(Engine)


def _levels_dist(g, source, cap):
    """Distances from the scalar multi-source wave driven with one source."""
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    for depth, level in enumerate(TraversalKernel(g).levels([source], cap), 1):
        dist[level] = depth
    return dist


def _lane_dist(g, source, cap):
    """Distances from one lane of the bit-parallel sweep."""
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    dist[source] = 0

    def record(depth, fresh, _words):
        dist[fresh] = depth

    TraversalKernel(g).levels_batched64([source], cap, on_level=record)
    return dist


#: Single-source distance read-outs of the multi-source primitives.
READOUTS = {"levels": _levels_dist, "levels_batched64": _lane_dist}


@st.composite
def graph_and_source(draw):
    g = draw(generator_graph())
    return g, draw(st.integers(min_value=0, max_value=g.num_vertices - 1))


@settings(max_examples=120, deadline=None)
@given(graph_and_source())
@example((from_edge_arrays([], [], num_vertices=1), 0))  # single vertex
@example((from_edge_arrays([0, 1], [1, 2], num_vertices=4), 3))  # isolated
def test_all_registered_engines_equivalent(pair):
    g, source = pair
    reference = serial_distances(g, source)
    results = {
        engine: TraversalKernel(g, engine=engine).bfs(source, record_dist=True)
        for engine in ENGINES
    }
    assert set(results) == {"parallel", "serial"}
    for name, readout in READOUTS.items():
        np.testing.assert_array_equal(readout(g, source, None), reference, name)
    for engine, res in results.items():
        assert res.eccentricity == int(max(reference.max(), 0)), engine
        assert res.visited_count == int(np.count_nonzero(reference >= 0)), engine
        assert (res.dist == reference).all(), engine
        assert sorted(res.last_frontier.tolist()) == sorted(
            np.flatnonzero(reference == reference.max()).tolist()
            if reference.max() > 0
            else [source]
        ), engine


@settings(max_examples=80, deadline=None)
@given(graph_and_source(), st.integers(min_value=0, max_value=5))
def test_all_engines_agree_on_level_caps(pair, cap):
    g, source = pair
    reference = serial_distances(g, source)
    expected_visited = int(np.count_nonzero((reference >= 0) & (reference <= cap)))
    capped = np.where(reference <= cap, reference, -1)
    for name, readout in READOUTS.items():
        np.testing.assert_array_equal(readout(g, source, cap), capped, name)
    for engine in ENGINES:
        res = TraversalKernel(g, engine=engine).bfs(source, max_level=cap)
        assert res.visited_count == expected_visited, engine
        assert res.eccentricity == min(cap, int(max(reference.max(), 0))), engine


@settings(max_examples=60, deadline=None)
@given(generator_graph())
def test_engines_agree_on_all_eccentricities(g):
    per_engine = []
    for engine in ENGINES:
        kernel = TraversalKernel(g, engine=engine)
        per_engine.append([kernel.eccentricity(v) for v in range(g.num_vertices)])
    for eccs in per_engine[1:]:
        assert eccs == per_engine[0]
