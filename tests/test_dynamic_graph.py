"""DynamicGraph: delta overlay, compaction, epochs, digests.

The load-bearing claims under test:

* the overlay view and the compacted base are observably identical to
  a from-scratch rebuild of the oracle edge set, after any batch mix;
* batches validate all-or-nothing, no-ops are counted but change
  nothing, and the epoch advances exactly when the edge set changes;
* views are cached per epoch and tagged with it, and the cache digest
  never aliases across epochs — even when the byte content returns.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.errors import AlgorithmError
from repro.graph import from_networkx
from repro.graph.build import from_edge_arrays


def path_graph(n: int = 12):
    return from_networkx(nx.path_graph(n))


def edge_set(graph) -> set:
    n = graph.num_vertices
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    cols = graph.indices.astype(np.int64)
    upper = row_of < cols
    return set(zip(row_of[upper].tolist(), cols[upper].tolist()))


def rebuild(n: int, edges: set):
    if edges:
        arr = np.asarray(sorted(edges), dtype=np.int64)
        return from_edge_arrays(arr[:, 0], arr[:, 1], n, "oracle")
    empty = np.empty(0, dtype=np.int64)
    return from_edge_arrays(empty, empty, n, "oracle")


def assert_same_arrays(view, oracle):
    assert np.array_equal(view.indptr, oracle.indptr)
    assert np.array_equal(view.indices, oracle.indices)


class TestOverlay:
    def test_view_matches_rebuild_under_random_batches(self):
        base = from_networkx(nx.random_regular_graph(3, 24, seed=5))
        rng = np.random.default_rng(7)
        n = base.num_vertices
        # Two instances, one per compaction policy, fed identical
        # batches: the overlay read path and the rebuilt-base read path
        # must both match the oracle (and therefore each other).
        overlay = DynamicGraph(base)
        compacting = DynamicGraph(
            base, compaction_ratio=0.0, min_compaction_edges=1
        )
        edges = edge_set(base)
        for _ in range(25):
            inserts, deletes = [], []
            for _ in range(int(rng.integers(0, 4))):
                u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
                inserts.append((int(u), int(v)))
            pool = sorted(edges | set(inserts))
            for _ in range(int(rng.integers(0, 3))):
                deletes.append(pool[int(rng.integers(len(pool)))])
            overlay.apply(inserts=inserts, deletes=deletes)
            compacting.apply(inserts=inserts, deletes=deletes)
            edges |= set(inserts)
            edges -= set(deletes)
            oracle = rebuild(n, edges)
            assert_same_arrays(overlay.view(), oracle)
            assert_same_arrays(compacting.view(), oracle)
            assert overlay.epoch == compacting.epoch
            assert overlay.num_edges == len(edges)
        assert compacting.compactions > 0
        assert compacting.overlay_edges == 0  # every batch folded in
        assert overlay.compactions == 0  # default floor never reached

    def test_forced_compaction_is_observably_identical(self):
        dgraph = DynamicGraph(path_graph(10))
        dgraph.apply(inserts=[(0, 5)], deletes=[(3, 4)])
        before = dgraph.view()
        epoch = dgraph.epoch
        assert dgraph.overlay_edges == 2
        assert dgraph.compact(force=True)
        assert dgraph.overlay_edges == 0
        assert dgraph.epoch == epoch  # compaction is not a mutation
        assert_same_arrays(dgraph.view(), before)
        assert not dgraph.compact(force=True)  # nothing left to fold

    def test_noops_counted_but_change_nothing(self):
        dgraph = DynamicGraph(path_graph(6))
        batch = dgraph.apply(inserts=[(0, 1)], deletes=[(0, 5)])
        assert (batch.inserted, batch.deleted) == (0, 0)
        assert (batch.noop_inserts, batch.noop_deletes) == (1, 1)
        assert not batch.mutated
        assert dgraph.epoch == 0
        assert dgraph.num_edges == 5

    def test_validation_is_all_or_nothing(self):
        dgraph = DynamicGraph(path_graph(6))
        with pytest.raises(AlgorithmError, match="out of range"):
            dgraph.apply(inserts=[(0, 3), (0, 99)])
        with pytest.raises(AlgorithmError, match="self-loop"):
            dgraph.apply(inserts=[(0, 3)], deletes=[(2, 2)])
        with pytest.raises(AlgorithmError, match="pair"):
            dgraph.apply(inserts=[(0, 1, 2)])
        # The valid half of each rejected batch was not applied.
        assert dgraph.epoch == 0
        assert not dgraph.has_edge(0, 3)

    @pytest.mark.parametrize(
        "pair", [(0.9, 5), (0, 5.0), (True, 5), (0, "4.5"), (None, 5)]
    )
    def test_non_integer_endpoints_rejected(self, pair):
        dgraph = DynamicGraph(path_graph(6))
        with pytest.raises(AlgorithmError, match="not an integer"):
            dgraph.apply(inserts=[(1, 4), pair])
        with pytest.raises(AlgorithmError, match="not an integer"):
            dgraph.apply(deletes=[pair])
        assert dgraph.epoch == 0
        assert not dgraph.has_edge(0, 5)
        assert not dgraph.has_edge(1, 4)

    def test_integer_like_endpoints_accepted(self):
        dgraph = DynamicGraph(path_graph(6))
        batch = dgraph.apply(inserts=[(np.int64(0), "5"), (np.int32(1), 4)])
        assert batch.inserted == 2
        assert dgraph.has_edge(0, 5) and dgraph.has_edge(1, 4)

    def test_insert_before_delete_within_a_batch(self):
        dgraph = DynamicGraph(path_graph(6))
        batch = dgraph.apply(inserts=[(0, 4)], deletes=[(0, 4)])
        assert (batch.inserted, batch.deleted) == (1, 1)
        assert not dgraph.has_edge(0, 4)
        assert dgraph.num_edges == 5
        assert dgraph.epoch == 1  # content returned, but the set changed

    def test_has_edge_and_neighbors_merge_overlay(self):
        dgraph = DynamicGraph(path_graph(6))
        dgraph.apply(inserts=[(1, 4)], deletes=[(2, 3)])
        assert dgraph.has_edge(1, 4) and dgraph.has_edge(4, 1)
        assert not dgraph.has_edge(2, 3)
        assert dgraph.neighbors(1).tolist() == [0, 2, 4]
        assert dgraph.neighbors(2).tolist() == [1]
        assert dgraph.neighbors(3).tolist() == [4]

    def test_mutations_since_sums_the_window(self):
        dgraph = DynamicGraph(path_graph(8))
        dgraph.apply(inserts=[(0, 2)])
        dgraph.apply(inserts=[(0, 3)], deletes=[(4, 5)])
        dgraph.apply(deletes=[(0, 2)])
        assert dgraph.mutations_since(0) == (2, 2)
        assert dgraph.mutations_since(1) == (1, 2)
        assert dgraph.mutations_since(3) == (0, 0)


class TestViewsAndDigest:
    def test_view_cached_per_epoch(self):
        dgraph = DynamicGraph(path_graph(8))
        first = dgraph.view()
        assert dgraph.view() is first
        dgraph.apply(inserts=[(0, 7)])
        second = dgraph.view()
        assert second is not first
        assert dgraph.view() is second

    def test_view_storage_tag_embeds_epoch(self):
        dgraph = DynamicGraph(path_graph(8))
        assert dgraph.view().storage == "dynamic:e0"
        dgraph.apply(inserts=[(0, 7)])
        assert dgraph.view().storage == "dynamic:e1"

    def test_digest_never_aliases_across_epochs(self):
        dgraph = DynamicGraph(path_graph(8))
        seen = {dgraph.digest()}
        dgraph.apply(inserts=[(0, 7)])
        seen.add(dgraph.digest())
        # Delete it again: byte content is back to epoch 0's, but the
        # digest must not be — a sidecar written at epoch 0 describes
        # bounds that two mutations may have invalidated in between.
        dgraph.apply(deletes=[(0, 7)])
        assert_same_arrays(dgraph.view(), path_graph(8))
        seen.add(dgraph.digest())
        assert len(seen) == 3

    def test_empty_overlay_view_reuses_base_arrays(self):
        base = path_graph(8)
        dgraph = DynamicGraph(base)
        view = dgraph.view()
        assert view.indptr is base.indptr
        assert view.indices is base.indices
