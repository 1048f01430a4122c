"""Multi-graph registry: lazy opens, byte-budgeted LRU residency.

The server is configured with *specs* (a key plus a graph file path,
or an already-built :class:`~repro.graph.csr.CSRGraph`); the registry
opens them lazily on first query and keeps the resident set under a
byte budget with LRU eviction. Residency is measured the same way the
out-of-core tier measures it (``decoded_bytes``):
``indptr.nbytes + indices.nbytes`` — the arrays a traversal actually
walks. A mutated :class:`~repro.dynamic.DynamicGraph` also holds its
merged view, a second CSR the engine traverses, so residency is
measured from the live graphs every time the budget is applied.

The budget here evicts *whole graphs*. A resident graph, ``.scsr``
included, holds its decoded arrays, and every query on it traverses
those (DESIGN.md §14).

Threading contract: :meth:`ensure`, :meth:`evict`, and :meth:`close`
run on the scheduler's single dispatch thread (the same thread that
runs ``QueryEngine`` batches), so the engine's registry and this one
are mutated from exactly one thread. Each batch job calls
:meth:`ensure` and then runs its batch with nothing in between on that
thread, so the graph a batch runs on is resident for the whole run
without any pin. The event loop reads the spec table (:meth:`spec`)
to answer 404s at admission and never opens or evicts.

Eviction spares only the graph being ensured and a
:class:`~repro.dynamic.DynamicGraph` that holds mutations (epoch > 0):
a reopen would re-read the base file at epoch 0 and answer for the
pre-mutation graph. A graph whose batch is still queued may be evicted;
its own job reopens it (an extra open, never an error). The budget is
therefore overshot only by the graph being ensured and by mutated
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic import DynamicGraph
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.io import read_graph

__all__ = ["GraphRegistry", "GraphSpec", "UnknownGraphError", "resident_bytes"]


class UnknownGraphError(AlgorithmError):
    """A query named a graph key the registry has no spec for (404)."""


def resident_bytes(graph) -> int:
    """Decoded working-set estimate: the arrays a traversal walks.

    A :class:`~repro.dynamic.DynamicGraph` counts its base CSR plus its
    cached merged view when that view has arrays of its own.
    """
    return int(graph.memory_bytes())


def _holds_mutations(graph) -> bool:
    """Whether evicting ``graph`` would lose applied mutations."""
    return isinstance(graph, DynamicGraph) and graph.epoch > 0


@dataclass
class GraphSpec:
    """One serveable graph: a key plus how to materialize it."""

    key: str
    #: Path to open lazily (``.npz``/``.scsr``/text), or ``None`` when
    #: ``graph`` is provided directly.
    path: str | None = None
    #: Pre-built graph (tests, embedded use); kept out of eviction's
    #: store-closing path since the caller owns it.
    graph: CSRGraph | None = None
    #: Memory-map binary containers on open (``.scsr`` decodes in full
    #: and keeps the compressed image attached for process sharing).
    mmap: bool = True
    #: Wrap in a :class:`~repro.dynamic.DynamicGraph` on open so the
    #: service can apply ``POST /mutate`` batches to it.
    dynamic: bool = False

    def __post_init__(self):
        if (self.path is None) == (self.graph is None):
            raise AlgorithmError(
                f"graph spec {self.key!r} needs exactly one of path/graph"
            )


class _Resident:
    __slots__ = ("graph", "opened_here")

    def __init__(self, graph: CSRGraph, opened_here: bool):
        self.graph = graph
        self.opened_here = opened_here


class GraphRegistry:
    """Byte-budgeted LRU of resident graphs in front of a QueryEngine."""

    def __init__(self, engine, *, byte_budget: int | None = None):
        if byte_budget is not None and byte_budget < 0:
            raise AlgorithmError("byte_budget must be >= 0")
        self.engine = engine
        self.byte_budget = byte_budget
        self._specs: dict[str, GraphSpec] = {}
        self._resident: dict[str, _Resident] = {}  # insertion = LRU order
        self.opens = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------
    def register(
        self,
        key: str,
        *,
        path: str | None = None,
        graph: CSRGraph | None = None,
        mmap: bool = True,
        dynamic: bool = False,
    ) -> None:
        """Declare a serveable graph (not opened until first query)."""
        self._specs[key] = GraphSpec(
            key=key, path=path, graph=graph, mmap=mmap, dynamic=dynamic
        )

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def keys(self) -> list[str]:
        return list(self._specs)

    def spec(self, key: str) -> GraphSpec:
        """The spec registered under ``key``; unknown keys raise
        :class:`UnknownGraphError` (the server's 404)."""
        spec = self._specs.get(key)
        if spec is None:
            raise UnknownGraphError(
                f"unknown graph {key!r}; serveable: {sorted(self._specs)}"
            )
        return spec

    @property
    def resident_total(self) -> int:
        return sum(resident_bytes(r.graph) for r in self._resident.values())

    # ------------------------------------------------------------------
    # Residency (dispatch-thread side)
    # ------------------------------------------------------------------
    def ensure(self, key: str) -> CSRGraph:
        """Open ``key`` if cold, register it with the engine, and
        return the graph; refreshes LRU order and applies the budget."""
        spec = self.spec(key)
        resident = self._resident.get(key)
        if resident is None:
            if spec.graph is not None:
                graph, opened_here = spec.graph, False
            else:
                graph, opened_here = read_graph(spec.path, mmap=spec.mmap), True
            if spec.dynamic and not isinstance(graph, DynamicGraph):
                graph = DynamicGraph(graph)
            self.engine.add_graph(graph, key=key)
            resident = _Resident(graph, opened_here)
            self._resident[key] = resident
            self.opens += 1
        else:
            # Refresh LRU order (dict preserves insertion order).
            self._resident.pop(key)
            self._resident[key] = resident
        self._evict_over_budget(keep=key)
        return resident.graph

    def _evict_over_budget(self, *, keep: str) -> None:
        if self.byte_budget is None:
            return
        while self.resident_total > self.byte_budget:
            victim = next(
                (
                    k
                    for k in self._resident
                    if k != keep
                    and not _holds_mutations(self._resident[k].graph)
                ),
                None,
            )
            if victim is None:
                # Everything else is mutated (or this is the only
                # graph): allow the overshoot — shedding the graph the
                # next batch runs on, or applied mutations, to honor a
                # byte budget would corrupt answers.
                return
            self.evict(victim)

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the engine and close its backing store."""
        resident = self._resident.pop(key, None)
        if resident is None:
            return False
        self.engine.remove_graph(key)
        base = getattr(resident.graph, "base", resident.graph)
        backing = getattr(base, "backing_store", None)
        if resident.opened_here and backing is not None:
            backing.close()
        self.evictions += 1
        return True

    def close(self) -> None:
        """Evict everything (shutdown path)."""
        for key in list(self._resident):
            self.evict(key)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/stats`` endpoint's ``registry`` section."""
        return {
            "registered": len(self._specs),
            "resident": len(self._resident),
            "resident_bytes": self.resident_total,
            "byte_budget": self.byte_budget,
            "opens": self.opens,
            "evictions": self.evictions,
            "graphs": {
                key: {
                    "resident": key in self._resident,
                    "resident_bytes": (
                        resident_bytes(self._resident[key].graph)
                        if key in self._resident
                        else 0
                    ),
                    "vertices": (
                        self._resident[key].graph.num_vertices
                        if key in self._resident
                        else None
                    ),
                }
                for key in self._specs
            },
        }
