"""Byte-budgeted LRU residency of the service's graph registry."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import AlgorithmError
from repro.generators import path_graph
from repro.graph import from_networkx, save_npz
from repro.query import QueryEngine
from repro.service import GraphRegistry, GraphSpec, UnknownGraphError
from repro.service.registry import resident_bytes


def make_graph(n, seed):
    return from_networkx(nx.gnp_random_graph(n, 4.0 / n, seed=seed))


@pytest.fixture
def engine():
    engine = QueryEngine()
    yield engine
    engine.close()


class TestSpecs:
    def test_exactly_one_of_path_or_graph(self):
        g = make_graph(16, 0)
        GraphSpec(key="ok", graph=g)
        GraphSpec(key="ok", path="x.npz")
        with pytest.raises(AlgorithmError, match="exactly one"):
            GraphSpec(key="bad")
        with pytest.raises(AlgorithmError, match="exactly one"):
            GraphSpec(key="bad", path="x.npz", graph=g)

    def test_unknown_key(self, engine):
        registry = GraphRegistry(engine)
        with pytest.raises(UnknownGraphError, match="ghost"):
            registry.ensure("ghost")

    def test_negative_budget_rejected(self, engine):
        with pytest.raises(AlgorithmError):
            GraphRegistry(engine, byte_budget=-1)


class TestLRU:
    def test_least_recent_evicted_and_reopens(self, engine, tmp_path):
        graphs = {k: make_graph(200, i) for i, k in enumerate("abc")}
        paths = {}
        for key, graph in graphs.items():
            paths[key] = str(tmp_path / f"{key}.npz")
            save_npz(graph, paths[key], compressed=False)

        per_graph = resident_bytes(graphs["a"])
        # Budget fits roughly two graphs of this size.
        registry = GraphRegistry(
            engine, byte_budget=int(2.5 * per_graph)
        )
        for key in "abc":
            registry.register(key, path=paths[key])

        registry.ensure("a")
        registry.ensure("b")
        assert registry.evictions == 0
        registry.ensure("c")  # over budget: 'a' is the LRU victim
        assert registry.evictions == 1
        snap = registry.snapshot()
        assert not snap["graphs"]["a"]["resident"]
        assert snap["graphs"]["b"]["resident"]
        assert snap["graphs"]["c"]["resident"]
        assert "a" not in engine.graph_keys()

        # Touching 'b' refreshes it; 'c' becomes the next victim.
        registry.ensure("b")
        registry.ensure("a")  # reopen works; evicts 'c'
        assert registry.opens == 4
        assert registry.evictions == 2
        assert "c" not in engine.graph_keys()
        registry.close()
        assert registry.snapshot()["resident"] == 0

    def test_answers_survive_eviction(self, engine, tmp_path):
        graph = make_graph(150, 9)
        path = str(tmp_path / "g.npz")
        save_npz(graph, path, compressed=False)
        registry = GraphRegistry(engine, byte_budget=0)
        registry.register("g", path=path)

        registry.ensure("g")
        before, _ = engine.run("g", ["ecc 0", "diam"])
        registry.evict("g")
        registry.ensure("g")  # cold reopen
        after, _ = engine.run("g", ["ecc 0", "diam"])
        assert before == after

    def test_pinned_graph_never_evicted(self, engine):
        a, b = make_graph(200, 1), make_graph(200, 2)
        registry = GraphRegistry(engine, byte_budget=0)  # nothing fits
        registry.register("a", graph=a)
        registry.register("b", graph=b)

        registry.pin("a")
        registry.ensure("a")
        registry.ensure("b")  # 'b' is kept (keep=key); 'a' is pinned
        snap = registry.snapshot()
        assert snap["graphs"]["a"]["resident"], "pinned graph was evicted"
        registry.unpin("a")
        registry.ensure("b")  # now 'a' is evictable
        assert not registry.snapshot()["graphs"]["a"]["resident"]

    def test_caller_owned_graph_not_closed(self, engine):
        graph = make_graph(64, 5)
        registry = GraphRegistry(engine, byte_budget=None)
        registry.register("g", graph=graph)
        registry.ensure("g")
        registry.evict("g")
        # The caller's graph object must still be usable.
        assert graph.num_vertices == 64
        assert graph.indptr[-1] == graph.indices.shape[0]

    def test_mutated_dynamic_graph_never_evicted(self, engine, tmp_path):
        # Evicting a --mutable graph that holds mutations used to drop
        # its overlay: the next ensure re-read the base file at epoch 0
        # and answered for the pre-mutation graph without error.
        paths = {}
        for key in "ab":
            paths[key] = str(tmp_path / f"{key}.npz")
            save_npz(path_graph(10), paths[key], compressed=False)
        registry = GraphRegistry(engine, byte_budget=1)
        for key in "ab":
            registry.register(key, path=paths[key], dynamic=True)

        registry.ensure("a")
        engine.mutate("a", inserts=[(0, 9)])
        assert engine.graph_epoch("a") == 1
        registry.ensure("b")  # over budget: 'a' is the LRU candidate
        assert registry.snapshot()["graphs"]["a"]["resident"]
        graph = registry.ensure("a")
        assert engine.graph_epoch("a") == 1
        assert graph.has_edge(0, 9)
        answers, _ = engine.run("a", ["dist 0 9", "diam"])
        assert answers == [1, 5]

    def test_unmutated_dynamic_graph_still_evictable(self, engine, tmp_path):
        paths = {}
        for key in "ab":
            paths[key] = str(tmp_path / f"{key}.npz")
            save_npz(path_graph(10), paths[key], compressed=False)
        registry = GraphRegistry(engine, byte_budget=1)
        for key in "ab":
            registry.register(key, path=paths[key], dynamic=True)
        registry.ensure("a")
        registry.ensure("b")
        assert not registry.snapshot()["graphs"]["a"]["resident"]


class TestDynamicResidency:
    def test_mutated_view_counts_toward_the_budget(self, engine):
        # After a mutation the engine traverses the graph's merged view,
        # a second CSR about the size of the base: it must count, so the
        # next ensure of the mutated graph evicts the other resident.
        a, b = make_graph(200, 1), make_graph(200, 2)
        base_a, base_b = resident_bytes(a), resident_bytes(b)
        registry = GraphRegistry(
            engine, byte_budget=base_a + base_b + base_a // 4
        )
        registry.register("a", graph=a, dynamic=True)
        registry.register("b", graph=b)
        registry.ensure("a")
        registry.ensure("b")
        assert registry.evictions == 0

        u, v = next(
            (u, v) for u in range(200) for v in range(u + 1, 200)
            if not a.has_edge(u, v)
        )
        engine.mutate("a", inserts=[(u, v)])
        engine.run("a", ["ecc 0"])  # builds the epoch-1 view
        snap = registry.snapshot()
        assert snap["graphs"]["a"]["resident_bytes"] > base_a
        assert snap["resident_bytes"] > registry.byte_budget

        registry.ensure("a")
        assert registry.evictions == 1
        assert not registry.snapshot()["graphs"]["b"]["resident"]
        assert "b" not in engine.graph_keys()
        answers, _ = engine.run("a", [f"dist {u} {v}"])
        assert answers == [1]

    def test_unmutated_dynamic_graph_counts_its_base_once(self, engine):
        graph = make_graph(120, 4)
        registry = GraphRegistry(engine)
        registry.register("g", graph=graph, dynamic=True)
        registry.ensure("g")
        engine.run("g", ["ecc 0"])  # the epoch-0 view shares the base
        assert registry.resident_total == resident_bytes(graph)
