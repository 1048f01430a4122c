"""The shared traversal kernel every stage, baseline, and benchmark uses.

Every stage of F-Diam — 2-sweep, Winnow, Chain Processing, Eliminate,
the incremental extension, and the main eccentricity loop — ultimately
runs a level-synchronous BFS, as do all of the baseline diameter codes.
Historically each of them hand-rolled its own frontier loop and
allocated fresh scratch arrays per call; this module centralizes the
whole traversal surface behind two objects:

* :class:`Workspace` — per-graph pooled scratch state: the counter-based
  :class:`~repro.bfs.visited.VisitMarks` (the paper's ``counter``
  parameter), the bottom-up frontier flag array, the claim flag used
  for large-set frontier compaction, a cached ``arange`` ramp for the
  edge gathers, a free list of distance buffers, and per-width pools of
  the uint64 lane matrices used by the bit-parallel engine. Pooling
  removes the per-BFS ``O(n)`` allocation cost that the paper's counter
  trick exists to avoid, and records reuse statistics (peak scratch
  bytes, buffer/lane reuse hit rates, lane words allocated) for the
  ``--workspace-stats`` report.

* :class:`TraversalKernel` — a graph-bound facade exposing the full
  traversal surface: single-source BFS (:meth:`bfs`) on one of two
  engines — ``"parallel"``, the direction-optimized hybrid (paper
  Algorithm 2 / §4.6), or ``"serial"``, the scalar reference loop of
  :func:`repro.bfs.reference.serial_bfs` — the level-capped scalar
  multi-source wave (:meth:`levels`, the primitive behind Winnow /
  Eliminate / the §4.5 extension), bit-parallel 64-lane multi-source
  BFS (:meth:`levels_batched64`, one shared edge sweep driving up to 64
  logical traversals per machine word — see
  :mod:`repro.bfs.bitparallel`), and the staggered multi-source wave
  (:meth:`staggered_wave`) that Chain Processing injects its anchors
  into. The top-down and bottom-up modules act as direction-step
  strategies invoked by the kernel; an optional deadline is checked at
  every level of every engine, so even a single huge traversal aborts
  within one level of the budget expiring.

A held kernel is the only way to run a traversal: callers keep one per
run so the pooled workspace buffers get reused across traversals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence, get_args

import numpy as np

from repro.bfs.bitparallel import LaneSweep, lane_distances, lane_sweep
from repro.bfs.bottomup import bottomup_step
from repro.bfs.frontier import DEFAULT_THRESHOLD, compact_unique
from repro.bfs.instrumentation import BFSTrace, Direction
from repro.bfs.topdown import topdown_step
from repro.bfs.visited import VisitMarks
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.graph.csr import CSRGraph

__all__ = [
    "BFSResult",
    "DEFAULT_THRESHOLD",
    "Engine",
    "Workspace",
    "WorkspaceStats",
    "TraversalKernel",
]

#: Single-source BFS engine: the vectorized direction-optimized hybrid
#: (the paper's OpenMP code analog) or the scalar reference loop (the
#: paper's serial code analog).
Engine = Literal["parallel", "serial"]


@dataclass(frozen=True)
class BFSResult:
    """Outcome of one complete (or level-capped) BFS traversal.

    Attributes
    ----------
    source:
        Starting vertex.
    eccentricity:
        Number of levels that discovered vertices — the eccentricity of
        ``source`` within its connected component (or the depth reached,
        if the traversal was level-capped).
    visited_count:
        Vertices reached, including the source.
    last_frontier:
        The vertices of the deepest non-empty level; ``last_frontier[0]``
        is the paper's choice of "farthest vertex" for the 2-sweep.
    dist:
        Distance array (``-1`` for unreached vertices) if requested via
        ``record_dist``, else ``None``. The array may come from the
        workspace's buffer pool; hand it back via
        :meth:`Workspace.release_dist` once it is no longer needed.
    trace:
        Per-level instrumentation if requested, else ``None``.
    """

    source: int
    eccentricity: int
    visited_count: int
    last_frontier: np.ndarray
    dist: np.ndarray | None = None
    trace: BFSTrace | None = None


@dataclass
class WorkspaceStats:
    """Scratch-buffer accounting of one :class:`Workspace`.

    ``buffer_requests`` counts every time a traversal needed a pooled
    scratch buffer (bottom-up frontier flag, claim flag, owner buffer,
    arange ramp, or distance array); ``buffer_reuses`` counts how many
    of those were served from the pool without allocating. Lane
    matrices (the bit-parallel engine's ``(n, width)`` reach/frontier
    words) are accounted separately: ``lane_requests`` /
    ``lane_reuses`` mirror the generic counters and
    ``lane_words_allocated`` totals the ``uint64`` lane words ever
    allocated. ``peak_scratch_bytes`` is the high-water mark of all
    scratch memory owned by the workspace (visit marks included), while
    ``owned_bytes`` tracks what is *resident* in the workspace right
    now — the singleton flags/owner/ramp plus every pooled distance
    buffer and lane matrix. ``CSRGraph.memory_bytes`` knows nothing
    about this scratch, so ``owned_bytes`` is what the
    ``--workspace-stats`` report adds to the graph's own footprint.
    ``edges_examined`` totals the arcs gathered by every traversal that
    ran on the workspace (top-down, bottom-up, and lane sweeps alike).

    The multiprocess sweep backend charges its shared-memory segments
    here too: ``shm_segments`` counts every segment created on behalf
    of this workspace's kernel (the shared CSR plus one output block
    per round), ``shm_resident`` is what is mapped right now, and
    ``shm_bytes`` is the high-water mark — the shm analog of
    ``peak_scratch_bytes``.
    """

    buffer_requests: int = 0
    buffer_reuses: int = 0
    lane_requests: int = 0
    lane_reuses: int = 0
    lane_words_allocated: int = 0
    allocated_bytes: int = 0
    peak_scratch_bytes: int = 0
    owned_bytes: int = 0
    epochs: int = 0
    edges_examined: int = 0
    shm_segments: int = 0
    shm_bytes: int = 0
    shm_resident: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of buffer requests served without an allocation."""
        if self.buffer_requests == 0:
            return 0.0
        return self.buffer_reuses / self.buffer_requests

    @property
    def lane_hit_rate(self) -> float:
        """Fraction of lane-matrix requests served without an allocation."""
        if self.lane_requests == 0:
            return 0.0
        return self.lane_reuses / self.lane_requests

    def _record_alloc(self, nbytes: int) -> None:
        self.allocated_bytes += nbytes
        self.peak_scratch_bytes = max(self.peak_scratch_bytes, self.allocated_bytes)

    def _record_free(self, nbytes: int) -> None:
        self.allocated_bytes -= nbytes


class Workspace:
    """Pooled per-graph traversal scratch state.

    One instance is created per algorithm run (F-Diam state, baseline
    context, spectrum computation, ...) and shared by every traversal
    of that run, exactly like the paper threads its ``counter``
    parameter through Algorithms 1–5 — extended here to *all* per-BFS
    scratch, not just the visited marks.
    """

    __slots__ = (
        "num_vertices",
        "marks",
        "stats",
        "_flag",
        "_claim",
        "_owner",
        "_arange",
        "_dist_pool",
        "_lane_pool",
    )

    def __init__(self, num_vertices: int, marks: VisitMarks | None = None):
        if marks is not None and len(marks) != num_vertices:
            raise AlgorithmError(
                f"workspace size {num_vertices} does not match marks of "
                f"size {len(marks)}"
            )
        self.num_vertices = num_vertices
        self.stats = WorkspaceStats()
        self.marks = marks if marks is not None else VisitMarks(num_vertices)
        self.stats._record_alloc(self.marks.marks.nbytes)
        #: Lazily allocated boolean frontier flag for bottom-up steps.
        self._flag: np.ndarray | None = None
        #: Lazily allocated all-False claim flag for large-set compaction.
        self._claim: np.ndarray | None = None
        #: Lazily allocated never-reset owner ids for small-set compaction.
        self._owner: np.ndarray | None = None
        #: Cached monotonically-grown ``0..size-1`` ramp for gathers.
        self._arange: np.ndarray | None = None
        #: Free list of released distance buffers.
        self._dist_pool: list[np.ndarray] = []
        #: Free lists of released lane matrices, keyed by word width.
        self._lane_pool: dict[int, list[np.ndarray]] = {}
        self._sync_owned()

    def owned_bytes(self) -> int:
        """Bytes currently resident in the workspace.

        Visit marks, the singleton flag/claim/owner/ramp buffers, and
        every buffer sitting in the distance and lane pools. Buffers
        lent out to a running traversal are *not* counted (they show up
        again once released); ``stats.allocated_bytes`` covers
        live-but-lent memory and ``stats.peak_scratch_bytes`` its
        high-water mark.
        """
        total = self.marks.marks.nbytes
        for buf in (self._flag, self._claim, self._owner, self._arange):
            if buf is not None:
                total += buf.nbytes
        total += sum(d.nbytes for d in self._dist_pool)
        for pool in self._lane_pool.values():
            total += sum(m.nbytes for m in pool)
        return total

    def _sync_owned(self) -> None:
        self.stats.owned_bytes = self.owned_bytes()

    def new_epoch(self) -> int:
        """Start a fresh traversal epoch on the shared marks."""
        self.stats.epochs += 1
        return self.marks.new_epoch()

    def _singleton(self, slot: str, make) -> np.ndarray:
        """The pooled per-vertex buffer in ``slot``, made on first request."""
        self.stats.buffer_requests += 1
        buf = getattr(self, slot)
        if buf is None:
            buf = make(self.num_vertices)
            setattr(self, slot, buf)
            self.stats._record_alloc(buf.nbytes)
            self._sync_owned()
        else:
            self.stats.buffer_reuses += 1
        return buf

    def frontier_flag(self) -> np.ndarray:
        """The pooled bottom-up frontier flag (contents unspecified).

        Callers must fully reinitialize it (``flag[:] = False``) before
        use; the bottom-up step does exactly that each level.
        """
        return self._singleton("_flag", lambda n: np.zeros(n, dtype=bool))

    def claim_flag(self) -> np.ndarray:
        """The pooled claim flag for large-set compaction.

        Contract: the flag is all-``False`` on entry and every user
        must restore it to all-``False`` before returning it (see
        :func:`repro.bfs.frontier.compact_unique`) — unlike
        :meth:`frontier_flag`, which bottom-up steps may leave dirty.
        """
        return self._singleton("_claim", lambda n: np.zeros(n, dtype=bool))

    def owner_buffer(self) -> np.ndarray:
        """The pooled ``int64`` owner buffer for small-set compaction.

        Contents unspecified and never reset:
        :func:`repro.bfs.frontier.compact_unique` reads only the slots
        it wrote earlier in the same call.
        """
        return self._singleton("_owner", lambda n: np.empty(n, dtype=np.int64))

    def arange(self, total: int) -> np.ndarray:
        """A read-only-by-convention ``0..total-1`` ramp, cached and grown.

        Replaces the per-gather ``np.arange(total)`` allocation in
        :func:`repro.bfs.frontier.gather_rows`: the cached ramp grows
        geometrically and every gather takes a prefix view of it.
        """
        self.stats.buffer_requests += 1
        if self._arange is None or len(self._arange) < total:
            size = max(total, 1024)
            if self._arange is not None:
                size = max(size, 2 * len(self._arange))
                self.stats._record_free(self._arange.nbytes)
            self._arange = np.arange(size, dtype=np.int64)
            self.stats._record_alloc(self._arange.nbytes)
            self._sync_owned()
        else:
            self.stats.buffer_reuses += 1
        return self._arange[:total]

    def acquire_lanes(self, width: int) -> np.ndarray:
        """A zeroed ``(n, width)`` uint64 lane matrix, pooled when possible.

        Lane matrices back the bit-parallel sweeps (per-vertex reach
        and frontier words); hand them back via :meth:`release_lanes`.
        """
        if width < 1:
            raise AlgorithmError(f"lane width must be >= 1, got {width}")
        self.stats.lane_requests += 1
        pool = self._lane_pool.get(width)
        if pool:
            self.stats.lane_reuses += 1
            lanes = pool.pop()
            lanes.fill(0)
            self._sync_owned()
            return lanes
        lanes = np.zeros((self.num_vertices, width), dtype=np.uint64)
        self.stats.lane_words_allocated += self.num_vertices * width
        self.stats._record_alloc(lanes.nbytes)
        return lanes

    def release_lanes(self, lanes: np.ndarray | None) -> None:
        """Return a lane matrix to the pool for reuse.

        Accepts ``None`` and foreign arrays gracefully. Re-releasing a
        matrix that is already pooled is a no-op (the identity guard
        closes the double-free where one buffer could later be handed
        to two concurrent sweeps at once). When the per-width pool is
        at capacity the matrix is dropped and its bytes leave the
        live-allocation accounting.
        """
        if (
            lanes is None
            or lanes.ndim != 2
            or lanes.dtype != np.uint64
            or lanes.shape[0] != self.num_vertices
        ):
            return
        pool = self._lane_pool.setdefault(lanes.shape[1], [])
        if any(entry is lanes for entry in pool):
            return
        if len(pool) < 4:
            pool.append(lanes)
        else:
            self.stats._record_free(lanes.nbytes)
        self._sync_owned()

    def acquire_dist(self) -> np.ndarray:
        """A distance buffer pre-filled with ``-1``, pooled when possible."""
        self.stats.buffer_requests += 1
        if self._dist_pool:
            self.stats.buffer_reuses += 1
            dist = self._dist_pool.pop()
            dist.fill(-1)
            self._sync_owned()
            return dist
        dist = np.full(self.num_vertices, -1, dtype=np.int64)
        self.stats._record_alloc(dist.nbytes)
        return dist

    def release_dist(self, dist: np.ndarray | None) -> None:
        """Return a distance buffer to the pool for reuse.

        Accepts ``None`` and foreign arrays gracefully so callers can
        unconditionally recycle ``result.dist``; re-releasing a pooled
        buffer is a no-op (same double-free guard as
        :meth:`release_lanes`). The pool is capped at a handful of
        buffers; traversal patterns never hold more than two distance
        arrays at once (the midpoint computations), so a larger pool
        would only pin memory — dropped buffers leave the
        live-allocation accounting.
        """
        if (
            dist is None
            or dist.dtype != np.int64
            or len(dist) != self.num_vertices
        ):
            return
        if any(entry is dist for entry in self._dist_pool):
            return
        if len(self._dist_pool) < 4:
            self._dist_pool.append(dist)
        else:
            self.stats._record_free(dist.nbytes)
        self._sync_owned()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(n={self.num_vertices}, epoch={self.marks.counter}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )


class TraversalKernel:
    """Graph-bound traversal facade with a pooled :class:`Workspace`.

    Every expansion gathers from the graph's decoded ``indptr`` /
    ``indices``; a ``.scsr`` graph's
    :attr:`~repro.graph.csr.CSRGraph.backing_store` is never read here.

    Parameters
    ----------
    graph:
        The graph all traversals of this kernel run on.
    engine:
        Execution engine for :meth:`bfs`: ``"parallel"`` (vectorized
        direction-optimized hybrid) or ``"serial"`` (scalar reference
        loop). Any other name raises :class:`AlgorithmError`.
    threshold:
        Frontier-size fraction of ``|V|`` at which the hybrid goes
        bottom-up and a lane sweep may go pull-only.
    directions:
        ``False`` forces pure top-down in the hybrid and discovery on
        every lane-sweep level.
    workspace:
        Shared scratch state; a private one is created when omitted.
    deadline:
        Optional ``time.perf_counter()`` instant. Every level loop in
        the kernel checks it and raises
        :class:`~repro.errors.BenchmarkTimeout`, so even one huge
        traversal (2-sweep, Winnow, Extend) aborts within a level of
        the budget expiring.
    """

    __slots__ = (
        "graph",
        "engine",
        "threshold",
        "directions",
        "workspace",
        "deadline",
    )

    def __init__(
        self,
        graph: CSRGraph,
        *,
        engine: Engine = "parallel",
        threshold: float = DEFAULT_THRESHOLD,
        directions: bool = True,
        workspace: Workspace | None = None,
        deadline: float | None = None,
    ):
        self.graph = graph
        if engine not in get_args(Engine):
            raise AlgorithmError(
                f"engine must be 'parallel' or 'serial', got {engine!r}"
            )
        self.engine = engine
        self.threshold = threshold
        self.directions = directions
        self.workspace = workspace or Workspace(graph.num_vertices)
        if self.workspace.num_vertices != graph.num_vertices:
            raise AlgorithmError(
                "workspace/graph size mismatch: "
                f"{self.workspace.num_vertices} != {graph.num_vertices}"
            )
        self.deadline = deadline

    # ------------------------------------------------------------------
    # Deadline
    # ------------------------------------------------------------------
    def check_deadline(self) -> None:
        """Raise :class:`BenchmarkTimeout` once the deadline has passed."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BenchmarkTimeout("traversal kernel exceeded its time budget")

    # ------------------------------------------------------------------
    # Full (or level-capped) single-source BFS
    # ------------------------------------------------------------------
    def bfs(
        self,
        source: int,
        *,
        max_level: int | None = None,
        record_dist: bool = False,
        record_trace: bool = False,
    ) -> BFSResult:
        """One complete (or level-capped) BFS through the configured engine."""
        if self.engine == "serial":
            # Call-time import: the reference module builds on the
            # BFSResult defined here.
            from repro.bfs.reference import serial_bfs

            return serial_bfs(
                self.graph,
                source,
                self.workspace.marks,
                max_level=max_level,
                record_dist=record_dist,
                check=self.check_deadline,
            )
        return self._hybrid_bfs(
            source,
            max_level=max_level,
            record_dist=record_dist,
            record_trace=record_trace,
        )

    def _hybrid_bfs(
        self,
        source: int,
        *,
        max_level: int | None,
        record_dist: bool,
        record_trace: bool,
    ) -> BFSResult:
        """Direction-optimized BFS (the paper's Algorithm 2 / §4.6)."""
        graph, ws = self.graph, self.workspace
        n = graph.num_vertices
        if not 0 <= source < n:
            raise AlgorithmError(f"BFS source {source} out of range [0, {n})")
        marks = ws.marks
        ws.new_epoch()
        marks.visit(source)

        dist = ws.acquire_dist() if record_dist else None
        if dist is not None:
            dist[source] = 0
        trace = BFSTrace(source=source) if record_trace else None

        frontier = np.array([source], dtype=np.int64)
        size_threshold = self.threshold * n
        visited = 1
        level = 0
        last_nonempty = frontier

        while len(frontier):
            if max_level is not None and level >= max_level:
                break
            self.check_deadline()
            level += 1
            if self.directions and len(frontier) > size_threshold:
                flag = ws.frontier_flag()
                flag[:] = False
                flag[frontier] = True
                next_frontier, edges = bottomup_step(graph, flag, marks, pool=ws)
                direction = Direction.BOTTOM_UP
            else:
                next_frontier, edges = topdown_step(graph, frontier, marks, pool=ws)
                direction = Direction.TOP_DOWN
            ws.stats.edges_examined += edges
            if trace is not None:
                trace.record(
                    frontier_size=len(frontier),
                    edges_examined=edges,
                    direction=direction,
                    discovered=len(next_frontier),
                )
            if len(next_frontier) == 0:
                level -= 1  # this level discovered nothing
                break
            if dist is not None:
                dist[next_frontier] = level
            visited += len(next_frontier)
            last_nonempty = next_frontier
            frontier = next_frontier

        return BFSResult(
            source=source,
            eccentricity=level,
            visited_count=visited,
            last_frontier=last_nonempty,
            dist=dist,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Batched multi-source level expansion (Winnow / Eliminate / Extend)
    # ------------------------------------------------------------------
    def levels(
        self,
        sources: Sequence[int] | np.ndarray,
        max_level: int | None,
        *,
        marks: VisitMarks | None = None,
        new_epoch: bool = True,
        mark_sources: bool = True,
        on_level: Callable[[int, np.ndarray], object] | None = None,
    ) -> list[np.ndarray]:
        """Expand up to ``max_level`` BFS levels from a set of sources.

        This is the batched multi-source primitive behind Winnow
        (Algorithm 3), Eliminate (Algorithm 5), and the §4.5 extension
        of eliminated regions: the whole seed set advances as ONE
        level-synchronous wave, so the cost is independent of the
        number of seeds. Expansion runs top-down: pruning frontiers
        are either small (Eliminate) or dominated by first-touch work
        (Winnow), and the paper's Algorithms 3/5 use plain top-down
        worklists as well.

        Parameters
        ----------
        sources:
            One or more starting vertices (deduplicated).
        max_level:
            Number of levels to expand; ``0`` returns immediately and
            ``None`` runs to exhaustion.
        marks:
            Visited-marks override (Winnow passes its persistent
            boolean ball marks); defaults to the workspace marks.
        new_epoch:
            Start a fresh epoch on the marks (disable for persistent
            marks that must survive across calls).
        mark_sources:
            Whether the sources themselves are marked visited (disable
            when resuming from an already-marked frontier).
        on_level:
            Optional ``callback(depth, vertices)`` invoked for each
            discovered level (depth counts from 1). Returning the
            literal ``False`` stops the expansion early — Korf's
            baseline uses this for its active-set early termination.

        Returns
        -------
        list of arrays
            ``result[k]`` holds the vertices first discovered at depth
            ``k + 1`` from the source set; sources are not included.
        """
        n = self.graph.num_vertices
        use_ws_marks = marks is None
        if use_ws_marks:
            marks = self.workspace.marks
        sources = np.asarray(sources, dtype=np.int64).ravel()
        if len(sources) and (sources.min() < 0 or sources.max() >= n):
            raise AlgorithmError(f"partial BFS source out of range [0, {n})")
        sources = compact_unique(sources, n, pool=self.workspace)
        if new_epoch:
            if use_ws_marks:
                self.workspace.new_epoch()
            else:
                marks.new_epoch()
        if mark_sources:
            marks.visit(sources)

        levels: list[np.ndarray] = []
        frontier = sources
        level = 0
        while len(frontier):
            if max_level is not None and level >= max_level:
                break
            self.check_deadline()
            next_frontier, edges = topdown_step(
                self.graph, frontier, marks, pool=self.workspace
            )
            self.workspace.stats.edges_examined += edges
            if len(next_frontier) == 0:
                break
            levels.append(next_frontier)
            frontier = next_frontier
            level += 1
            if on_level is not None and on_level(level, next_frontier) is False:
                break
        return levels

    def levels_batched64(
        self,
        sources: Sequence[int] | np.ndarray,
        max_level: int | None = None,
        *,
        on_level: Callable[[int, np.ndarray, np.ndarray], object] | None = None,
    ) -> LaneSweep:
        """Bit-parallel multi-source BFS: one sweep, up to 64 lanes per word.

        Lane ``i`` runs an independent logical BFS from ``sources[i]``;
        all lanes share every edge gather of the sweep (the whole point
        — see :mod:`repro.bfs.bitparallel`). Returns the
        :class:`~repro.bfs.bitparallel.LaneSweep` with per-lane
        eccentricities; ``on_level(depth, fresh_vertices, fresh_words)``
        exposes the per-level lane bits for distance-style read-outs.
        Wide levels go pull-only under the kernel's ``threshold`` and
        ``directions``, as the hybrid BFS goes bottom-up. Lane matrices
        come from the kernel workspace's pool and the deadline is
        checked at every level.
        """
        return lane_sweep(
            self.graph,
            np.asarray(sources, dtype=np.int64),
            max_level,
            threshold=self.threshold,
            directions=self.directions,
            pool=self.workspace,
            on_level=on_level,
            check=self.check_deadline,
        )

    def distance_batch(
        self,
        sources: Sequence[int] | np.ndarray,
        *,
        max_lanes: int = 256,
    ) -> tuple[np.ndarray, list[LaneSweep]]:
        """Full distance rows for many sources via chunked lane sweeps.

        The bulk primitive behind the batched query engine
        (:mod:`repro.query`): ``sources`` are packed 64 per machine
        word and swept in chunks of at most ``max_lanes``, so ``k``
        distance rows cost ``ceil(k / max_lanes)`` physical gather
        passes instead of ``k`` scalar traversals. A chunk of one
        source — a lone query, or the tail of a chunked batch — has no
        gathers to share, so it runs the direction-optimized scalar BFS
        instead (:meth:`_lone_row`). On a 2-vCPU host a row took 1.2–1.9
        ms that way against 2.7–7.8 ms as a 1-lane sweep, on the
        ``repro serve`` benchmark's three tenants. Returns
        the stacked ``(k, n)`` ``int32`` distance matrix (``-1``
        unreached, row ``i`` for ``sources[i]``) plus one
        :class:`~repro.bfs.bitparallel.LaneSweep` record per chunk,
        whose ``eccentricities`` / ``edges_examined`` fields carry the
        accounting the caller reports.
        """
        if max_lanes <= 0:
            raise AlgorithmError(
                f"max_lanes must be positive, got {max_lanes}"
            )
        sources = np.asarray(sources, dtype=np.int64).ravel()
        n = self.graph.num_vertices
        if len(sources) == 0:
            return np.empty((0, n), dtype=np.int32), []
        rows: list[np.ndarray] = []
        sweeps: list[LaneSweep] = []
        for lo in range(0, len(sources), max_lanes):
            chunk = sources[lo : lo + max_lanes]
            if len(chunk) == 1:
                dist, sweep = self._lone_row(int(chunk[0]))
            else:
                dist, sweep = lane_distances(
                    self.graph,
                    chunk,
                    threshold=self.threshold,
                    directions=self.directions,
                    pool=self.workspace,
                    check=self.check_deadline,
                )
            rows.append(dist)
            sweeps.append(sweep)
        stacked = rows[0] if len(rows) == 1 else np.concatenate(rows)
        return stacked, sweeps

    def _lone_row(self, source: int) -> tuple[np.ndarray, LaneSweep]:
        """One source's ``(1, n)`` distance row by the hybrid BFS.

        The row is reported as a one-lane sweep, so callers count it the
        same way.
        """
        stats = self.workspace.stats
        edges_before = stats.edges_examined
        result = self._hybrid_bfs(
            source,
            max_level=None,
            record_dist=True,
            record_trace=False,
        )
        row = result.dist.astype(np.int32)[None, :]
        self.workspace.release_dist(result.dist)
        sweep = LaneSweep(
            sources=np.array([source], dtype=np.int64),
            width=1,
            eccentricities=np.array([result.eccentricity], dtype=np.int64),
            levels=result.eccentricity,
            edges_examined=stats.edges_examined - edges_before,
        )
        return row, sweep

    # ------------------------------------------------------------------
    # Staggered multi-source wave (Chain Processing)
    # ------------------------------------------------------------------
    def staggered_wave(
        self,
        injections: Mapping[int, Sequence[int] | np.ndarray],
        num_steps: int,
        *,
        on_discover: Callable[[int, np.ndarray], object] | None = None,
    ) -> int:
        """Multi-source wave with per-step source injection.

        Chain Processing's batched Algorithm 4: the anchor of a
        length-``s`` chain enters the frontier at offset
        ``max_len - s``, so one wave realizes the element-wise minimum
        of all per-chain Eliminate writes (see
        :mod:`repro.core.chain`). ``injections[step]`` seeds new
        sources right before step ``step`` expands; ``on_discover``
        receives every first-touched vertex with its wave depth
        (injected sources at their injection step, expanded vertices
        one past the step that discovered them).

        Returns the number of vertices discovered (injected sources
        included).
        """
        marks = self.workspace.marks
        self.workspace.new_epoch()
        discovered = 0
        frontier = np.empty(0, dtype=np.int64)
        for step in range(num_steps + 1):
            injected = injections.get(step)
            if injected is not None:
                arr = compact_unique(
                    np.asarray(injected, dtype=np.int64).ravel(),
                    self.graph.num_vertices,
                    pool=self.workspace,
                )
                fresh = arr[~marks.is_visited(arr)]
                if len(fresh):
                    marks.visit(fresh)
                    discovered += len(fresh)
                    if on_discover is not None:
                        on_discover(step, fresh)
                    frontier = np.concatenate([frontier, fresh])
            if step == num_steps:
                break
            self.check_deadline()
            if len(frontier):
                frontier, edges = topdown_step(
                    self.graph, frontier, marks, pool=self.workspace
                )
                self.workspace.stats.edges_examined += edges
                if len(frontier):
                    discovered += len(frontier)
                    if on_discover is not None:
                        on_discover(step + 1, frontier)
        return discovered

    def sweep_executor(
        self,
        *,
        workers: int = 1,
        batch_lanes: int = 64,
        backend: str = "auto",
    ):
        """A :class:`~repro.parallel.sweep.SweepExecutor` bound to this kernel.

        The preferred way for callers that already hold a kernel
        (spectrum, baselines, query engine) to obtain a dispatcher:
        the executor shares this kernel's workspace — so serial and
        bitparallel rounds keep the pooled buffers and the edge
        accounting, and multiprocess rounds charge their shm segments
        to :class:`WorkspaceStats`. Call-time import: the sweep layer
        sits above the kernel.
        """
        from repro.parallel.sweep import create_executor

        return create_executor(
            self.graph,
            workers=workers,
            batch_lanes=batch_lanes,
            backend=backend,
            kernel=self,
        )

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    def ball(
        self, center: int, radius: int, *, include_center: bool = True
    ) -> np.ndarray:
        """All vertices within ``radius`` steps of ``center`` (sorted)."""
        levels = self.levels([center], radius)
        parts = levels + (
            [np.array([center], dtype=np.int64)] if include_center else []
        )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraversalKernel(graph={self.graph.name!r}, engine={self.engine!r}, "
            f"n={self.graph.num_vertices})"
        )
