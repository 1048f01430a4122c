"""Block decoding: per-block gathers, compressed-image sharing, and the stats.

Every row the block-decoding gather produces must be bit-identical to
the in-memory CSR row; the LRU cache only changes where the bytes come
from. Traversals never take this path: a mapped ``.scsr`` graph is
traversed through its decoded arrays and decodes no blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.frontier import gather_neighbors
from repro.bfs.kernel import Workspace
from repro.errors import AlgorithmError
from repro.generators.registry import build_analog, build_fuzz_graph
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.store import load_scsr, open_scsr, save_scsr


@pytest.fixture(scope="module")
def analog():
    return build_analog("internet")


@pytest.fixture
def stored(tmp_path, analog):
    path = tmp_path / "internet.scsr"
    save_scsr(analog, path)
    return path


class TestDecodeBlock:
    @pytest.mark.parametrize("seed", [0, 4, 11])
    @pytest.mark.parametrize("block_size", [1, 5, 64])
    def test_every_block_matches_the_source_rows(
        self, tmp_path, seed, block_size
    ):
        graph, _ = build_fuzz_graph(seed, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=block_size)
        with open_scsr(path) as store:
            for block in range(store.num_blocks):
                local_indptr, adj = store.decode_block(block)
                lo = block * block_size
                hi = min(lo + block_size, graph.num_vertices)
                want = graph.indices[
                    graph.indptr[lo] : graph.indptr[hi]
                ].astype(np.int64)
                assert np.array_equal(adj, want)
                rel = graph.indptr[lo : hi + 1] - graph.indptr[lo]
                assert np.array_equal(local_indptr, rel)

    def test_gather_rows_matches_in_memory_gather(self, analog, stored):
        rng = np.random.default_rng(42)
        frontier = rng.integers(0, analog.num_vertices, size=200)
        with open_scsr(stored) as store:
            got, lengths = store.gather_rows(frontier)
        want = gather_neighbors(analog, np.asarray(frontier, dtype=np.int64))
        assert np.array_equal(got, np.asarray(want, dtype=np.int64))
        degs = np.diff(analog.indptr)
        assert np.array_equal(lengths, degs[frontier])

    def test_duplicate_and_empty_frontiers(self, analog, stored):
        with open_scsr(stored) as store:
            vals, lens = store.gather_rows(np.array([7, 7, 7]))
            row = analog.indices[analog.indptr[7] : analog.indptr[8]]
            assert np.array_equal(vals, np.tile(row.astype(np.int64), 3))
            vals, lens = store.gather_rows(np.empty(0, dtype=np.int64))
            assert len(vals) == 0 and len(lens) == 0

    def test_gather_edge_cases_match_csr_rows(self, tmp_path):
        """Duplicate sources, empty rows, and block-boundary spans all
        reproduce the CSRGraph rows."""
        graph, _ = build_fuzz_graph(9, max_vertices=48)
        path = tmp_path / "g.scsr"
        block_size = 4
        save_scsr(graph, path, block_size=block_size)
        degs = np.diff(graph.indptr)
        empty = np.flatnonzero(degs == 0)
        boundary = np.array(
            [block_size - 1, block_size], dtype=np.int64
        ) % max(graph.num_vertices, 1)
        batteries = [
            np.array([3, 3, 3, 1, 1], dtype=np.int64)
            % max(graph.num_vertices, 1),
            boundary,  # request spanning a block boundary
        ]
        if len(empty):
            batteries.append(np.repeat(empty[:1], 3))
        with open_scsr(path) as store:
            for frontier in batteries:
                got, lengths = store.gather_rows(frontier)
                want = gather_neighbors(graph, frontier)
                assert np.array_equal(got, np.asarray(want, dtype=np.int64))
                assert np.array_equal(lengths, degs[frontier])


class TestCacheStats:
    def test_hits_and_evictions_accounted(self, tmp_path):
        graph, _ = build_fuzz_graph(2, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=2)
        with open_scsr(path, cache_blocks=2) as store:
            store.decode_block(0)
            store.decode_block(0)
            stats = store.stats
            assert stats.block_requests == 2
            assert stats.block_hits == 1
            assert stats.blocks_decoded == 1
            assert stats.hit_rate == 0.5
            assert stats.decoded_bytes > 0
            if store.num_blocks >= 4:
                for b in range(4):
                    store.decode_block(b)
                assert stats.evictions >= 1
                # Block 0 was evicted: re-requesting decodes again.
                store.decode_block(0)
                assert stats.blocks_decoded >= 4

    def test_lru_bounds_residency_and_counts_thrash(self, analog, stored):
        rng = np.random.default_rng(11)
        frontier = rng.integers(0, analog.num_vertices, size=2000)
        with open_scsr(stored, cache_blocks=4) as store:
            store.gather_rows(frontier)
            assert store.stats.blocks_decoded - store.stats.evictions <= 4
            assert store.stats.evictions > 0
            # The same frontier again: evicted blocks re-decode and the
            # thrash counters say so.
            store.gather_rows(frontier)
            assert store.stats.redecoded_blocks > 0
            assert 0.0 < store.stats.thrash_rate <= 1.0
            assert store.stats.decode_seconds > 0.0
            assert store.stats.decode_bandwidth > 0.0


class TestKernelBlockPath:
    def test_fdiam_answer_unchanged_by_block_path(self, analog, stored, tmp_path):
        # A mapped graph runs on its decoded arrays: the same answer, BFS
        # and arc counts as the unmapped graph, and no block requests.
        # The road analog's Winnow and Eliminate waves are small and
        # level-capped, the case a block gather would be tempted by.
        from repro.core import fdiam

        road = build_analog("USA-road-d.NY")
        save_scsr(road, tmp_path / "road.scsr")
        for plain, path in ((analog, stored), (road, tmp_path / "road.scsr")):
            graph = load_scsr(path, mmap=True)
            try:
                got = fdiam(graph)
                want = fdiam(plain)
                assert got.diameter == want.diameter
                assert got.stats.bfs_traversals == want.stats.bfs_traversals
                assert got.stats.edges_examined == want.stats.edges_examined
                assert graph.backing_store.stats.block_requests == 0
            finally:
                graph.backing_store.close()


class TestCompressedImageSharing:
    def test_shared_csr_ships_the_image(self, analog, stored):
        """With an attached store whose image beats the decoded arrays,
        SharedCSR places the compressed image in the segment and a
        worker-side attach decodes a bit-identical graph."""
        from repro.parallel.shm import SharedCSR

        graph = load_scsr(stored, mmap=True)
        decoded = graph.indptr.nbytes + graph.indices.nbytes
        try:
            with SharedCSR(graph) as shared:
                assert shared.spec.get("kind") == "scsr"
                assert shared.nbytes < decoded
                rebuilt, seg = SharedCSR.attach(shared.spec)
                try:
                    assert rebuilt.name == graph.name
                    assert np.array_equal(rebuilt.indptr, graph.indptr)
                    assert np.array_equal(rebuilt.indices, graph.indices)
                finally:
                    seg.close()
        finally:
            graph.backing_store.close()

    def test_plain_graph_still_ships_decoded_arrays(self, analog):
        from repro.parallel.shm import SharedCSR

        with SharedCSR(analog) as shared:
            assert "kind" not in shared.spec

    def test_multiprocess_sweep_identical_over_the_image(
        self, analog, stored
    ):
        from repro.parallel.sweep import create_executor

        graph = load_scsr(stored, mmap=True)
        sources = np.arange(0, analog.num_vertices, 997, dtype=np.int64)
        try:
            with create_executor(analog, backend="bitparallel") as ref_ex:
                ref, _ = ref_ex.distance_rows(sources)
            with create_executor(
                graph, workers=2, backend="multiprocess"
            ) as mp_ex:
                got, info = mp_ex.distance_rows(sources)
            assert np.array_equal(got, ref)
        finally:
            graph.backing_store.close()


class TestGatherPathCostModel:
    def test_uncapped_expansion_stays_decoded(self):
        model = LevelSynchronousCostModel()
        path, reason = model.choose_gather_path(
            num_sources=1,
            max_level=None,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "decoded"
        assert "uncapped" in reason

    def test_shallow_cap_on_a_large_graph_uses_blocks(self):
        model = LevelSynchronousCostModel()
        path, _ = model.choose_gather_path(
            num_sources=1,
            max_level=2,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "blocks"

    def test_wide_seed_set_overflows_to_decoded(self):
        model = LevelSynchronousCostModel()
        path, _ = model.choose_gather_path(
            num_sources=10**6,
            max_level=2,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "decoded"

    def test_deep_cap_does_not_overflow(self):
        # avg_degree ** 10_000 overflows a float; the log-space guard
        # must still return a verdict.
        path, _ = LevelSynchronousCostModel().choose_gather_path(
            num_sources=4,
            max_level=10_000,
            num_vertices=10**6,
            num_directed_edges=4 * 10**6,
        )
        assert path == "decoded"

    def test_fraction_param_validated(self):
        with pytest.raises(AlgorithmError):
            CostModelParams(block_gather_fraction=0.0)
        with pytest.raises(AlgorithmError):
            CostModelParams(block_gather_fraction=1.5)

    def test_workspace_pool_is_used(self, analog, stored):
        ws = Workspace(analog.num_vertices)
        with open_scsr(stored) as store:
            store.gather_rows(np.array([0, 1, 2]), pool=ws)
        assert ws.stats.buffer_requests > 0
