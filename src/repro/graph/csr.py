"""Compressed-sparse-row graph representation.

This is the substrate every algorithm in the package runs on. It mirrors
the representation used by the paper's C++ code (Section 2: "F-Diam uses
the compressed-sparse-row (CSR) representation to fit sparse graphs with
many millions of vertices and edges into the main memory"):

* ``indptr``  — ``int64`` array of length ``n + 1``; the neighbours of
  vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
* ``indices`` — ``int32`` (or ``int64`` for very large graphs) array of
  length ``m`` holding the concatenated, sorted adjacency lists.

Graphs are **undirected** and **unweighted**: every undirected edge
``{u, v}`` is stored twice, once as ``u → v`` and once as ``v → u``, as in
the paper's evaluation setup ("each undirected edge is represented by two
directed edges in opposite directions"). Self-loops and parallel edges
are removed at construction time by the builders in
:mod:`repro.graph.build`.

The class is deliberately immutable: algorithms never mutate the graph,
only per-vertex working arrays (eccentricity slots, visit counters) that
live outside it. This keeps a single graph shareable across every
algorithm, engine, and benchmark repetition.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import AlgorithmError

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected, unweighted graph in CSR form.

    Instances are normally created through the builders in
    :mod:`repro.graph.build` (e.g. :func:`~repro.graph.build.from_edges`)
    or the readers in :mod:`repro.graph.io`, which take care of
    symmetrizing, sorting, and deduplicating the adjacency structure.

    Attributes
    ----------
    indptr:
        ``int64`` row-pointer array of length ``num_vertices + 1``.
    indices:
        Column-index array of length ``num_directed_edges``; each
        undirected edge contributes two entries.
    name:
        Optional human-readable label used in benchmark tables.
    storage:
        Storage-format tag of the container the graph was decoded
        from: ``"csr"`` for in-memory construction and the plain
        array formats (``.npz``, text), ``"scsr:v1"`` for the
        block-compressed store. :func:`repro.graph.io.graph_digest`
        folds this tag into the cache key so loads of the same graph
        through different formats never share warm-start sidecars.
        Excluded from equality — the adjacency structure is what a
        graph *is*; the tag records where it came from.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = "graph"
    storage: str = field(default="csr", compare=False)
    _degrees: np.ndarray = field(init=False, repr=False, compare=False)
    _adj_lists: list | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices)
        if indices.dtype not in (np.int32, np.int64):
            indices = indices.astype(np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        degrees = np.diff(indptr)
        degrees.setflags(write=False)
        object.__setattr__(self, "_degrees", degrees)

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` (vertex ids are ``0 .. n-1``)."""
        return len(self.indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored directed arcs (``2 *`` undirected edges)."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return self.num_vertices

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the sorted neighbour list of ``v``."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of all vertex degrees (length ``n``)."""
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists.

        Binary search on the sorted neighbour list of the lower-degree
        endpoint; ``O(log max(deg(u), deg(v)))``.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if self._degrees[u] > self._degrees[v]:
            u, v = v, u
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def adjacency_lists(self) -> list:
        """Adjacency as plain Python ``list``-of-``list`` (lazily cached).

        The scalar serial BFS engine iterates edges one at a time;
        indexing NumPy arrays element-wise boxes every value and is
        several times slower than iterating native lists. The conversion
        is done once per graph and memoized (safe despite the frozen
        dataclass: the cache is derived state, invisible to equality).
        """
        if self._adj_lists is None:
            indptr, indices = self.indptr, self.indices
            lists = [
                indices[indptr[v] : indptr[v + 1]].tolist()
                for v in range(self.num_vertices)
            ]
            object.__setattr__(self, "_adj_lists", lists)
        return self._adj_lists

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` pairs with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    # ------------------------------------------------------------------
    # Derived vertices of interest
    # ------------------------------------------------------------------
    def max_degree_vertex(self) -> int:
        """The vertex ``u`` with the largest degree (lowest id wins ties).

        F-Diam uses this vertex as both the 2-sweep starting point and
        the Winnow centre because high-degree vertices tend to be
        centrally located (paper Section 3).
        """
        if self.num_vertices == 0:
            raise AlgorithmError("max_degree_vertex() on an empty graph")
        return int(np.argmax(self._degrees))

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self._degrees.max())

    def average_degree(self) -> float:
        """Average degree ``num_directed_edges / n`` (paper Table 1 column)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_directed_edges / self.num_vertices

    def isolated_vertices(self) -> np.ndarray:
        """Ids of degree-0 vertices (paper Table 4's last column)."""
        return np.flatnonzero(self._degrees == 0)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "CSRGraph":
        """A copy of this graph (sharing arrays) under a different name.

        The memoized adjacency-list cache is shared too — it is derived
        purely from the (shared) CSR arrays, and rebuilding it on the
        renamed copy would silently repeat the most expensive part of a
        serial-engine warm-up.
        """
        copy = CSRGraph(
            self.indptr, self.indices, name=name, storage=self.storage
        )
        if self._adj_lists is not None:
            object.__setattr__(copy, "_adj_lists", self._adj_lists)
        backing = self.backing_store
        if backing is not None:
            object.__setattr__(copy, "_backing", backing)
        return copy

    def without_store(self) -> "CSRGraph":
        """This graph, sharing every array, minus its :attr:`backing_store`.

        A multiprocess pool over the copy shares these decoded arrays
        with its workers instead of shipping the compressed image for
        each worker to decode a private copy (see
        :class:`~repro.parallel.shm.SharedCSR`).
        """
        if self.backing_store is None:
            return self
        clone = shallow_copy(self)
        object.__delattr__(clone, "_backing")
        return clone

    @property
    def backing_store(self):
        """The open compressed container behind this graph, if any.

        ``.scsr`` loads with ``mmap=True`` attach their
        :class:`~repro.store.CompressedCSR` here (via
        ``object.__setattr__`` — derived state, like the adjacency-list
        cache) so the multiprocess pool can ship the compressed image
        instead of the decoded arrays. Traversals never read it: every
        expansion gathers from the decoded ``indptr`` / ``indices``.
        ``None`` for every other graph.
        """
        return getattr(self, "_backing", None)

    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (useful in benchmark reports)."""
        return self.indptr.nbytes + self.indices.nbytes

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise AlgorithmError(
                f"vertex {v} out of range for graph with "
                f"{self.num_vertices} vertices"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges})"
        )
