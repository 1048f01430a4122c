"""Batched multi-query engine: grammar, correctness, and accounting.

Correctness oracle is the scalar traversal kernel (one BFS per
source); the engine must give identical answers while spending far
fewer physical gather passes.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_gnp
from repro.bfs.kernel import TraversalKernel
from repro.cache import WarmStartStore
from repro.core.fdiam import fdiam
from repro.errors import AlgorithmError
from repro.generators import disjoint_union, path_graph, star_graph
from repro.query import BatchStats, QueryEngine, parse_query
from repro.store import load_scsr, save_scsr


@pytest.fixture()
def graph():
    g, _ = random_gnp(200, 0.03, seed=5)
    return g


def scalar_answers(graph, queries):
    """Ground truth: one scalar BFS per query (plus fdiam for diam)."""
    kernel = TraversalKernel(graph)
    answers = []
    for q in queries:
        q = parse_query(q)
        if q[0] == "diam":
            answers.append(fdiam(graph).diameter)
            continue
        res = kernel.bfs(q[1], record_dist=True)
        dist = res.dist
        if q[0] == "dist":
            answers.append(int(dist[q[2]]))
        else:
            answers.append(int(dist.max()))
        kernel.workspace.release_dist(dist)
    return answers


class TestParse:
    def test_strings(self):
        assert parse_query("dist 3 7") == ("dist", 3, 7)
        assert parse_query("  ECC   4 ") == ("ecc", 4)
        assert parse_query("diam") == ("diam",)

    def test_tuples_pass_through(self):
        assert parse_query(("dist", "3", 7)) == ("dist", 3, 7)
        assert parse_query(["ecc", 2]) == ("ecc", 2)

    @pytest.mark.parametrize(
        "junk",
        ["", "dist 1", "dist 1 2 3", "ecc", "ecc a", "diam 4", "radius 1"],
    )
    def test_malformed_rejected(self, junk):
        with pytest.raises(AlgorithmError):
            parse_query(junk)


class TestVertexIds:
    @pytest.mark.parametrize(
        "query",
        [
            ["ecc", 2.7],
            ["ecc", 2.0],
            ["dist", True, 3.99],
            ["dist", 0, False],
            ["ecc", None],
            ["ecc", [1]],
            ["ecc", "2.7"],
        ],
    )
    def test_non_integer_ids_rejected(self, query):
        with pytest.raises(AlgorithmError, match="not an integer"):
            parse_query(query)

    def test_integer_ids_accepted(self):
        assert parse_query(["ecc", np.int64(4)]) == ("ecc", 4)
        assert parse_query(("dist", np.int32(1), "7")) == ("dist", 1, 7)
        assert parse_query("dist 2 3") == ("dist", 2, 3)

    def test_engine_rejects_truncatable_ids(self):
        engine = QueryEngine()
        key = engine.add_graph(path_graph(5), key="p")
        with pytest.raises(AlgorithmError, match="not an integer"):
            engine.run(key, [["ecc", 2.7]])
        with pytest.raises(AlgorithmError, match="not an integer"):
            engine.run(key, [["dist", True, 3.99]])
        assert engine.run(key, [["ecc", np.int64(2)]])[0] == [2]


class TestAnswers:
    def test_mixed_batch_matches_scalar_oracle(self, graph):
        rng = np.random.default_rng(1)
        n = graph.num_vertices
        queries = ["diam"]
        for _ in range(120):
            kind = rng.choice(["dist", "ecc"])
            if kind == "dist":
                u, v = rng.integers(0, n, size=2)
                queries.append(f"dist {u} {v}")
            else:
                queries.append(f"ecc {rng.integers(0, n)}")
        engine = QueryEngine()
        key = engine.add_graph(graph)
        answers, stats = engine.run(key, queries)
        assert answers == scalar_answers(graph, queries)
        assert stats.queries == len(queries)

    def test_unreachable_distance_is_minus_one(self):
        g = disjoint_union([path_graph(4), star_graph(3)])
        engine = QueryEngine()
        key = engine.add_graph(g)
        answers, _ = engine.run(key, ["dist 0 5", "dist 0 3"])
        assert answers == [-1, 3]

    def test_out_of_range_vertex_rejected(self, graph):
        engine = QueryEngine()
        key = engine.add_graph(graph)
        with pytest.raises(AlgorithmError, match="out of range"):
            engine.run(key, [f"ecc {graph.num_vertices}"])
        with pytest.raises(AlgorithmError, match="negative"):
            engine.run(key, ["dist 0 -1"])

    def test_validation_happens_at_parse_time(self, graph):
        # The serving layer rejects a bad query *before* it joins a
        # coalesced batch, so the errors must come from parse_query
        # itself, not from deep inside the sweep.
        with pytest.raises(AlgorithmError, match="negative"):
            parse_query("ecc -3")
        with pytest.raises(AlgorithmError, match="negative"):
            parse_query(("dist", 0, -1))
        with pytest.raises(AlgorithmError, match="out of range"):
            parse_query("dist 0 500", num_vertices=200)
        with pytest.raises(AlgorithmError, match="out of range"):
            parse_query("ecc 200", num_vertices=200)
        assert parse_query("dist 0 199", num_vertices=200) == ("dist", 0, 199)

    def test_unknown_key_rejected(self):
        with pytest.raises(AlgorithmError, match="add_graph"):
            QueryEngine().run("nope", ["diam"])


class TestAccounting:
    def test_batch_beats_scalar_by_4x(self, graph):
        # The ISSUE's acceptance shape: 256 mixed queries drawn from a
        # limited source pool answer in >= 4x fewer gather passes than
        # one-BFS-per-query.
        rng = np.random.default_rng(2)
        pool = rng.integers(0, graph.num_vertices, size=48)
        queries = []
        for _ in range(256):
            u, v = rng.choice(pool, size=2)
            queries.append(
                f"dist {u} {v}" if rng.random() < 0.7 else f"ecc {u}"
            )
        engine = QueryEngine()
        key = engine.add_graph(graph)
        answers, stats = engine.run(key, queries)
        assert stats.scalar_traversals == 256
        assert stats.sweeps <= stats.scalar_traversals / 4
        assert stats.gather_pass_ratio >= 4.0
        assert answers == scalar_answers(graph, queries)

    def test_memo_hits_across_batches(self, graph):
        engine = QueryEngine()
        key = engine.add_graph(graph)
        _, first = engine.run(key, ["ecc 1", "ecc 2", "dist 1 9"])
        # Within one batch a repeated source is deduplicated into the
        # same sweep lane (not a memo hit); hits count across batches.
        assert first.memo_hits == 0
        assert first.bfs_sources == 2
        assert first.sweeps == 1
        _, second = engine.run(key, ["ecc 1", "dist 2 5"])
        assert second.memo_hits == 2
        assert second.sweeps == 0  # everything served from the memo

    def test_memo_lru_cap(self, graph):
        engine = QueryEngine(memo_vectors=2)
        key = engine.add_graph(graph)
        engine.run(key, ["ecc 1", "ecc 2", "ecc 3"])
        _, stats = engine.run(key, ["ecc 1"])  # evicted by 2 and 3
        assert stats.memo_hits == 0 and stats.bfs_sources == 1
        _, stats = engine.run(key, ["ecc 3"])  # still resident
        assert stats.memo_hits == 1

    def test_diam_cached_after_first_batch(self, graph):
        engine = QueryEngine()
        key = engine.add_graph(graph)
        first_answers, first = engine.run(key, ["diam"])
        assert first.sweeps > 0  # the fdiam run's traversals
        assert first.sweeps == first.scalar_traversals  # charged to both
        second_answers, second = engine.run(key, ["diam", "diam"])
        assert second_answers == first_answers * 2
        assert second.sweeps == 0  # memoized diameter is free
        assert second.memo_hits == 2  # both served from the diam memo
        # The resolving batch itself is not a memo hit.
        assert first.memo_hits == 0

    def test_empty_batch(self, graph):
        engine = QueryEngine()
        key = engine.add_graph(graph)
        answers, stats = engine.run(key, [])
        assert answers == [] and stats == BatchStats()

    def test_chunking_respects_batch_lanes(self, graph):
        engine = QueryEngine(batch_lanes=8, memo_vectors=0)
        key = engine.add_graph(graph)
        queries = [f"ecc {v}" for v in range(20)]
        _, stats = engine.run(key, queries)
        assert stats.bfs_sources == 20
        assert stats.sweeps == 3  # ceil(20 / 8) chunks


class TestRegistry:
    def test_remove_graph(self):
        engine = QueryEngine()
        key = engine.add_graph(path_graph(5), key="a")
        engine.run(key, ["ecc 0"])
        assert engine.remove_graph(key) is True
        assert engine.remove_graph(key) is False
        assert key not in engine.graph_keys()
        with pytest.raises(AlgorithmError, match="unknown graph"):
            engine.run(key, ["ecc 0"])
        # Re-adding after removal works (the serving registry's
        # evict-then-reopen path).
        engine.add_graph(path_graph(5), key="a")
        answers, _ = engine.run(key, ["ecc 0"])
        assert answers == [4]

    def test_invalid_parameters(self):
        with pytest.raises(AlgorithmError):
            QueryEngine(batch_lanes=0)
        with pytest.raises(AlgorithmError):
            QueryEngine(memo_vectors=-1)


class TestStoreIntegration:
    def test_sidecar_preloads_memo_and_diameter(self, graph, tmp_path):
        store = WarmStartStore(tmp_path / "c")
        warm_engine = QueryEngine(store=store)
        key = warm_engine.add_graph(graph)
        _, first = warm_engine.run(key, ["diam"])
        assert first.sweeps > 0  # cold: ran (and cached) fdiam
        assert warm_engine.flush() >= 0  # nothing dirty yet is fine

        fresh = QueryEngine(store=store)
        key2 = fresh.add_graph(graph)
        answers, stats = fresh.run(key2, ["diam"])
        assert answers == [fdiam(graph).diameter]
        assert stats.sweeps == 0  # diameter preloaded from the sidecar

    def test_flush_persists_hot_rows(self, graph, tmp_path):
        store = WarmStartStore(tmp_path / "c")
        engine = QueryEngine(store=store)
        key = engine.add_graph(graph)
        engine.run(key, ["diam"])  # writes the sidecar via fdiam_cached
        _, stats = engine.run(key, ["ecc 7", "dist 7 9"])
        assert stats.bfs_sources == 1
        assert engine.flush() == 1

        fresh = QueryEngine(store=store)
        key2 = fresh.add_graph(graph)
        _, warm = fresh.run(key2, ["ecc 7"])
        assert warm.memo_hits == 1 and warm.sweeps == 0

    def test_flush_without_store_is_noop(self, graph):
        engine = QueryEngine()
        key = engine.add_graph(graph)
        engine.run(key, ["ecc 0"])
        assert engine.flush() == 0


class TestServedScsrReadsDecodedArrays:
    def test_every_query_reads_the_decoded_arrays(self, graph, tmp_path):
        # load_scsr(mmap=True) keeps the full decoded CSR resident, and
        # the engine serves diam, lone rows and lane pages from it: no
        # query may fall back to decoding the store's blocks.
        save_scsr(graph, tmp_path / "g.scsr")
        stored = load_scsr(tmp_path / "g.scsr", mmap=True)
        try:
            engine = QueryEngine()
            key = engine.add_graph(stored)
            served = engine._entry(key).graph
            assert served.backing_store is None
            assert served.indices is stored.indices
            assert stored.backing_store is not None
            requests = stored.backing_store.stats.block_requests
            answers, _ = engine.run(key, ["diam"])
            assert answers == scalar_answers(graph, ["diam"])
            for query in ("ecc 7", "dist 3 150"):
                answers, stats = engine.run(key, [query])
                assert answers == scalar_answers(graph, [query])
                assert stats.sweeps == 1
            page = ["ecc 11", "dist 40 120", "ecc 199", "dist 150 3", "diam"]
            answers, _ = engine.run(key, page)
            assert answers == scalar_answers(graph, page)
            assert stored.backing_store.stats.block_requests == requests
        finally:
            stored.backing_store.close()
