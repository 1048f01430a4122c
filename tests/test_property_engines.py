"""Property-based equivalence of the BFS engines (hypothesis).

The three traversal implementations — vectorized hybrid (both
directions), vectorized pure top-down, and the scalar reference — must
be observationally identical on every graph and source: same
eccentricity, same visited set, same distance array, same last level.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bfs import TraversalKernel, serial_bfs, serial_distances
from repro.graph import from_edge_arrays


@st.composite
def graph_and_source(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = from_edge_arrays(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), num_vertices=n
    )
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return g, source


@settings(max_examples=150, deadline=None)
@given(graph_and_source(), st.floats(min_value=0.01, max_value=0.99))
def test_engines_equivalent(pair, threshold):
    g, source = pair
    hybrid = TraversalKernel(g, threshold=threshold).bfs(source, record_dist=True)
    topdown = TraversalKernel(g, directions=False).bfs(source, record_dist=True)
    scalar = serial_bfs(g, source, record_dist=True)
    reference = serial_distances(g, source)

    assert hybrid.eccentricity == topdown.eccentricity == scalar.eccentricity
    assert hybrid.visited_count == scalar.visited_count
    assert (hybrid.dist == reference).all()
    assert (topdown.dist == reference).all()
    assert (scalar.dist == reference).all()
    assert sorted(hybrid.last_frontier.tolist()) == sorted(
        scalar.last_frontier.tolist()
    )


@settings(max_examples=100, deadline=None)
@given(graph_and_source(), st.integers(min_value=0, max_value=6))
def test_level_cap_prefix_property(pair, cap):
    """A level-capped BFS visits exactly the distance <= cap prefix."""
    g, source = pair
    capped = TraversalKernel(g).bfs(source, max_level=cap)
    dist = serial_distances(g, source)
    expected = int(np.count_nonzero((dist >= 0) & (dist <= cap)))
    assert capped.visited_count == expected
    assert capped.eccentricity == min(cap, int(dist.max()))


@settings(max_examples=100, deadline=None)
@given(graph_and_source())
def test_matches_networkx_distances(pair):
    g, source = pair
    res = TraversalKernel(g).bfs(source, record_dist=True)
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    G.add_edges_from(g.iter_edges())
    lengths = nx.single_source_shortest_path_length(G, source)
    for v in range(g.num_vertices):
        assert res.dist[v] == lengths.get(v, -1)
