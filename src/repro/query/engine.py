"""The batched query engine (see package docstring).

Query grammar (one query per string, whitespace-separated):

* ``dist U V`` — shortest-path distance between vertices ``U`` and
  ``V`` (``-1`` when they are in different components),
* ``ecc V`` — exact eccentricity of ``V`` within its component,
* ``diam`` — the exact (CC) diameter of the graph.

Tuples of the same shape (``("dist", u, v)`` etc.) are accepted
directly. Answers are plain ints, in query order.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.bfs.kernel import TraversalKernel
from repro.dynamic import DynamicDiameter, DynamicGraph, MutationBatch
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_digest
from repro.graph.validate import as_vertex_id

__all__ = ["BatchStats", "QueryEngine", "parse_query"]


def parse_query(query, *, num_vertices: int | None = None) -> tuple:
    """Normalize one query into a ``("dist"|"ecc"|"diam", ...)`` tuple.

    Vertex ids must be integers
    (:func:`~repro.graph.validate.as_vertex_id`: a ``2.7`` or ``True``
    is rejected, never truncated), non-negative, and — when
    ``num_vertices`` is given — below it. Violations raise
    :class:`AlgorithmError` here, at parse time, rather than deep
    inside a sweep: the serving layer rejects a bad query with a
    structured 400 *before* it joins a coalesced batch, so one
    malformed request can never poison the in-flight queries it would
    have shared a sweep with.
    """
    if isinstance(query, str):
        parts = query.split()
    else:
        try:
            parts = list(query)
        except TypeError:
            raise AlgorithmError(
                f"malformed query {query!r}; expected a string or a sequence"
            ) from None
    if not parts:
        raise AlgorithmError("empty query")
    kind = str(parts[0]).lower()
    parsed = None
    try:
        if kind == "dist" and len(parts) == 3:
            parsed = ("dist", as_vertex_id(parts[1]), as_vertex_id(parts[2]))
        elif kind == "ecc" and len(parts) == 2:
            parsed = ("ecc", as_vertex_id(parts[1]))
        elif kind == "diam" and len(parts) == 1:
            parsed = ("diam",)
    except AlgorithmError as exc:
        raise AlgorithmError(f"malformed query {query!r}: {exc}") from None
    if parsed is None:
        raise AlgorithmError(
            f"malformed query {query!r}; expected 'dist U V', 'ecc V', or 'diam'"
        )
    for v in parsed[1:]:
        if v < 0:
            raise AlgorithmError(
                f"malformed query {query!r}: vertex id {v} is negative"
            )
        if num_vertices is not None and v >= num_vertices:
            raise AlgorithmError(
                f"query vertex {v} out of range for n={num_vertices}"
            )
    return parsed


@dataclass
class BatchStats:
    """Accounting of one :meth:`QueryEngine.run` batch.

    ``scalar_traversals`` is what a one-BFS-per-query engine would have
    spent on the same batch (the denominator-free baseline the ISSUE's
    gather-pass comparison uses); ``sweeps`` is the number of physical
    edge-gather passes this engine actually ran. Memo hits and repeated
    sources cost zero sweeps.
    """

    queries: int = 0
    scalar_traversals: int = 0
    sweeps: int = 0
    bfs_sources: int = 0  # distinct sources actually swept this batch
    #: Queries answered without any traversal: memoized distance rows
    #: plus ``diam`` queries served from the per-graph diameter memo
    #: (a previous batch's resolution or the store's sidecar).
    memo_hits: int = 0
    edges_examined: int = 0
    lane_occupancy: float = 0.0
    #: Graph epoch the batch was answered under (0 for static graphs;
    #: the mutation counter of a registered
    #: :class:`~repro.dynamic.DynamicGraph` otherwise). The serving
    #: layer surfaces it per response so clients can line answers up
    #: with the mutation stream.
    epoch: int = 0

    @property
    def gather_pass_ratio(self) -> float:
        """How many scalar gather passes each physical sweep replaced."""
        return self.scalar_traversals / self.sweeps if self.sweeps else 0.0


class _GraphEntry:
    """One registered graph: kernel, memoized rows, cached diameter."""

    __slots__ = (
        "graph",
        "kernel",
        "executor",
        "memo",
        "diameter",
        "digest",
        "dirty",
        "dynamic",
        "maintainer",
        "epoch",
    )

    def __init__(self, graph):
        #: The mutable handle when registered as a DynamicGraph
        #: (``None`` for static entries).
        self.dynamic: DynamicGraph | None = (
            graph if isinstance(graph, DynamicGraph) else None
        )
        #: Incremental diameter maintainer (dynamic entries only).
        self.maintainer: DynamicDiameter | None = (
            DynamicDiameter(graph) if self.dynamic is not None else None
        )
        self.epoch = graph.epoch if self.dynamic is not None else 0
        #: The immutable CSR every traversal runs on: the current
        #: epoch's view for dynamic entries; for static ones the graph
        #: minus any ``.scsr`` store, so a ``workers > 1`` pool maps one
        #: shared copy of the decoded arrays instead of every worker
        #: decoding a private copy of the image.
        self.graph: CSRGraph = (
            graph.view() if self.dynamic is not None else graph.without_store()
        )
        self.kernel = TraversalKernel(self.graph)
        #: Lazily built sweep executor (see QueryEngine._executor_for).
        self.executor = None
        #: source vertex -> int32 distance row, LRU-ordered.
        self.memo: OrderedDict[int, np.ndarray] = OrderedDict()
        self.diameter: int | None = None
        self.digest: str | None = None
        self.dirty = False  # memo rows not yet flushed to the store

    def advance_epoch(self) -> None:
        """Epoch-tagged invalidation after a mutation batch.

        Everything derived from the previous epoch's adjacency is
        dropped or rebuilt: memoized distance rows (stale rows are
        upper/lower bounds, not answers), the cached diameter (the
        maintainer repairs it lazily on the next ``diam`` query), the
        kernel and executor (they hold the old CSR arrays), and the
        digest (so sidecar traffic can never alias epochs).
        """
        assert self.dynamic is not None
        self.epoch = self.dynamic.epoch
        self.graph = self.dynamic.view()
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        self.kernel = TraversalKernel(self.graph)
        self.memo.clear()
        self.diameter = None
        self.dirty = False

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


@dataclass
class QueryEngine:
    """Mixed distance/eccentricity/diameter batches over cached kernels.

    Every traversal reads the graph's decoded CSR arrays. A mmap'd
    ``.scsr`` graph holds them resident from load (DESIGN.md §14), so
    serving takes no decoded-block budget.

    Parameters
    ----------
    store:
        Optional :class:`repro.cache.WarmStartStore`. When given, a
        registered graph preloads its memo from the sidecar's landmark
        rows, ``diam`` queries warm-start through :func:`fdiam_cached`,
        and :meth:`flush` persists the hottest memo rows back as
        landmarks for the next process.
    batch_lanes:
        Upper bound on sources per physical sweep chunk
        (:meth:`TraversalKernel.distance_batch`).
    memo_vectors:
        Per-graph cap on memoized distance rows (LRU evicted).
    workers:
        Worker processes for the per-graph sweep executor. ``1`` (the
        default) keeps every sweep in-process on the bitparallel
        backend; ``> 1`` lets the cost model dispatch batches to a
        shared-memory pool per registered graph.
    """

    store: object | None = None
    batch_lanes: int = 256
    memo_vectors: int = 64
    workers: int = 1
    _graphs: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.batch_lanes < 1:
            raise AlgorithmError("batch_lanes must be >= 1")
        if self.memo_vectors < 0:
            raise AlgorithmError("memo_vectors must be >= 0")
        if self.workers < 1:
            raise AlgorithmError("workers must be >= 1")

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add_graph(self, graph, key: str | None = None) -> str:
        """Register a graph under ``key`` (default: its name).

        ``graph`` may be a static :class:`CSRGraph` or a
        :class:`~repro.dynamic.DynamicGraph`; only the latter accepts
        :meth:`mutate` batches. Re-registering an existing key replaces
        the entry. With a store attached, the graph's sidecar (if any)
        seeds the memo with the cached landmark rows and the cached
        diameter — keyed by the epoch-aware digest for dynamic graphs,
        so a sidecar from another epoch can never seed anything.
        """
        key = key if key is not None else graph.name
        entry = _GraphEntry(graph)
        if self.store is not None:
            entry.digest = (
                graph.digest()
                if entry.dynamic is not None
                else graph_digest(graph)
            )
            art = self.store.load(entry.graph, digest=entry.digest)
            if art is not None:
                entry.diameter = int(art.diameter)
                if entry.maintainer is not None:
                    entry.maintainer.seed_from_artifacts(art)
                sources = np.asarray(art.landmark_sources, dtype=np.int64)
                dists = np.asarray(art.landmark_dists, dtype=np.int32)
                n = entry.graph.num_vertices
                usable = dists.shape == (len(sources), n) and bool(
                    ((sources >= 0) & (sources < n)).all()
                )
                if usable:
                    for j, s in enumerate(sources.tolist()):
                        self._memoize(entry, int(s), dists[j])
                elif len(sources):
                    if hasattr(self.store, "stale_rejects"):
                        self.store.stale_rejects += 1
                    warnings.warn(
                        f"discarding {len(sources)} stale landmark row(s) "
                        f"for graph {key!r} (shape or source mismatch); "
                        "queries run cold",
                        stacklevel=2,
                    )
                entry.dirty = False  # preloaded rows are already on disk
        old = self._graphs.pop(key, None)
        if old is not None:
            old.close()
        self._graphs[key] = entry
        return key

    def remove_graph(self, key: str) -> bool:
        """Drop ``key`` from the registry, closing its executor.

        Returns whether the key was registered. The graph's backing
        store (if any) stays open — whoever opened the file owns it;
        the serving layer's byte-budgeted registry closes it after
        calling this.
        """
        entry = self._graphs.pop(key, None)
        if entry is None:
            return False
        entry.close()
        return True

    def graph_keys(self) -> list[str]:
        """Registered graph keys, in registration order."""
        return list(self._graphs)

    def executor_counters(self) -> dict:
        """Per-graph cumulative sweep-executor counters.

        Only graphs whose executor has been built (i.e. that swept at
        least one fresh source) appear; the serving layer's ``/stats``
        endpoint merges this with its own batch accounting.
        """
        return {
            key: entry.executor.counters.snapshot()
            for key, entry in self._graphs.items()
            if entry.executor is not None
        }

    def _entry(self, key: str) -> _GraphEntry:
        if key not in self._graphs:
            raise AlgorithmError(f"unknown graph {key!r}; add_graph() it first")
        return self._graphs[key]

    def _executor_for(self, entry: _GraphEntry):
        """The entry's sweep executor, built on first use.

        Single-worker engines pin the ``bitparallel`` backend, which
        reproduces the pre-executor chunked lane sweeps exactly; with a
        worker team the cost model dispatches per the graph structure.
        """
        if entry.executor is None:
            entry.executor = entry.kernel.sweep_executor(
                workers=self.workers,
                batch_lanes=self.batch_lanes,
                backend="bitparallel" if self.workers <= 1 else "auto",
            )
        return entry.executor

    def close(self) -> None:
        """Shut down every registered graph's executor (pools, shm)."""
        for entry in self._graphs.values():
            entry.close()

    # ------------------------------------------------------------------
    # Mutation (dynamic graphs)
    # ------------------------------------------------------------------
    def mutate(self, key: str, inserts=(), deletes=()) -> MutationBatch:
        """Apply one batched mutation to the dynamic graph under ``key``.

        Only valid for graphs registered as
        :class:`~repro.dynamic.DynamicGraph`; static entries raise
        :class:`AlgorithmError`. A batch that actually changes the edge
        set advances the entry's epoch and invalidates everything the
        previous epoch derived (memo rows, cached diameter, kernel,
        digest) — the diameter maintainer repairs its bounds lazily on
        the next ``diam`` query instead of recomputing here. Not
        thread-safe against concurrent :meth:`run`; the serving layer
        serializes both onto its single dispatch thread.
        """
        entry = self._entry(key)
        if entry.dynamic is None:
            raise AlgorithmError(
                f"graph {key!r} is static; register a DynamicGraph to mutate"
            )
        batch = entry.dynamic.apply(inserts, deletes)
        if batch.mutated:
            entry.advance_epoch()
            if self.store is not None:
                entry.digest = entry.dynamic.digest()
        return batch

    def graph_epoch(self, key: str) -> int:
        """Current mutation epoch of ``key`` (0 for static graphs)."""
        return self._entry(key).epoch

    def _memoize(self, entry: _GraphEntry, source: int, row: np.ndarray) -> None:
        if self.memo_vectors == 0:
            return
        entry.memo[source] = row
        entry.memo.move_to_end(source)
        while len(entry.memo) > self.memo_vectors:
            entry.memo.popitem(last=False)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run(self, key: str, queries) -> tuple[list[int], BatchStats]:
        """Answer a batch of queries against the graph under ``key``.

        All distinct sources the batch needs that are not already
        memoized are packed into chunked 64-lane sweeps, except that a
        lone source (or a chunk's one-source tail) runs the scalar
        hybrid BFS, which is 2–4× cheaper than a 1-lane sweep and
        still counts as one sweep; ``diam`` is
        answered from the entry's cached diameter when known (a
        previous batch, or the store's sidecar), else by one
        :func:`repro.core.fdiam.fdiam` run on the decoded arrays whose
        traversals are charged to the batch.
        """
        entry = self._entry(key)
        n = entry.graph.num_vertices
        parsed = [parse_query(q, num_vertices=n) for q in queries]
        stats = BatchStats(queries=len(parsed), epoch=entry.epoch)

        diam_queries = 0
        wanted: list[int] = []
        for q in parsed:
            if q[0] == "diam":
                diam_queries += 1
                continue
            # One scalar BFS from the (first) named vertex answers the
            # query, which is exactly what the batched path amortizes.
            stats.scalar_traversals += 1
            wanted.append(q[1])

        sources: list[int] = []
        seen: set[int] = set()
        for v in wanted:
            if v in entry.memo:
                entry.memo.move_to_end(v)
                stats.memo_hits += 1
            elif v not in seen:
                seen.add(v)
                sources.append(v)

        if sources:
            dist, info = self._executor_for(entry).distance_rows(sources)
            stats.bfs_sources = len(sources)
            stats.sweeps += info.sweeps
            stats.edges_examined += info.edges_examined
            stats.lane_occupancy = info.lane_occupancy
            for j, s in enumerate(sources):
                self._memoize(entry, s, dist[j])
                if self.memo_vectors > 0:
                    entry.dirty = True
            rows = {s: dist[j] for j, s in enumerate(sources)}
        else:
            rows = {}

        if diam_queries:
            if entry.diameter is None:
                entry.diameter = self._compute_diameter(entry, stats)
            else:
                # Memoized per graph across batches: every later diam
                # answer is O(1) (the serving layer's hottest query).
                stats.memo_hits += diam_queries

        answers: list[int] = []
        for q in parsed:
            if q[0] == "diam":
                answers.append(int(entry.diameter))
                continue
            source = q[1]
            row = rows.get(source)
            if row is None:
                row = entry.memo[source]
            if q[0] == "dist":
                answers.append(int(row[q[2]]))
            else:  # ecc
                answers.append(int(row.max()))
        return answers, stats

    def _compute_diameter(self, entry: _GraphEntry, stats: BatchStats) -> int:
        """Resolve a ``diam`` query, charging its traversals to ``stats``.

        The run's traversals are charged to *both* sides of the
        gather-pass ledger — a per-query scalar engine would execute
        the identical diameter run — so ``diam`` neither inflates nor
        dilutes the batching ratio; once resolved, the memoized value
        makes every later ``diam`` free.

        Dynamic entries route through the
        :class:`~repro.dynamic.DynamicDiameter` maintainer instead:
        after an insert-only mutation window the repair path typically
        costs one witness BFS rather than a full cold run, and the
        maintainer falls back to cold ``fdiam`` itself whenever repair
        is unsound (deletions, disconnection) or estimated to lose.
        """
        if entry.maintainer is not None:
            repair = entry.maintainer.refresh()
            stats.sweeps += repair.bfs_traversals
            stats.scalar_traversals += repair.bfs_traversals
            return int(entry.maintainer.diameter)
        if self.store is not None:
            # Call-time import: repro.cache sits above the query layer's
            # other dependencies and imports core.
            from repro.cache.runner import fdiam_cached

            result, _ = fdiam_cached(entry.graph, store=self.store)
        else:
            from repro.core.fdiam import fdiam

            result = fdiam(entry.graph)
        stats.sweeps += result.stats.bfs_traversals
        stats.scalar_traversals += result.stats.bfs_traversals
        stats.edges_examined += result.stats.edges_examined
        return result.diameter

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def flush(self, key: str | None = None, *, max_rows: int = 8) -> int:
        """Persist the hottest memo rows as sidecar landmarks.

        Returns the number of graphs whose sidecar was rewritten. A
        no-op without a store, for clean entries, and for graphs that
        have no sidecar yet (the memo alone cannot fabricate the
        diameter/status certificate a sidecar requires).
        """
        if self.store is None:
            return 0
        keys = [key] if key is not None else list(self._graphs)
        written = 0
        for k in keys:
            entry = self._graphs.get(k)
            if entry is None or not entry.dirty:
                continue
            art = self.store.load(entry.graph, digest=entry.digest)
            if art is None:
                continue
            hottest = list(entry.memo.items())[-max_rows:]
            if not hottest:
                continue
            art.landmark_sources = np.asarray(
                [s for s, _ in hottest], dtype=np.int64
            )
            art.landmark_dists = np.stack([r for _, r in hottest]).astype(
                np.int32
            )
            art.landmark_eccs = np.asarray(
                [int(r.max()) for _, r in hottest], dtype=np.int64
            )
            self.store.save(art)
            entry.dirty = False
            written += 1
        return written
