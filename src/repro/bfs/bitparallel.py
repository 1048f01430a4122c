"""Bit-parallel 64-lane multi-source BFS (the lane-mask sweep engine).

F-Diam's cost is dominated by repeated traversals over the same CSR
graph: the eccentricity spectrum, the SumSweep / Takes–Kosters
baselines, and the multi-source pruning waves (Eliminate extension,
Winnow resume) all launch many BFS runs whose memory passes could be
shared. This module batches up to 64 *logical* traversals per machine
word into one *physical* level-synchronous sweep:

* every vertex carries a ``uint64`` lane word (an ``(n, ceil(k/64))``
  matrix for ``k > 64`` sources) whose bit *i* means "reached by
  source *i*";
* one level expands ALL lanes at once: the frontier's neighbourhood is
  gathered (``gather_rows``), and each candidate pulls the bitwise OR
  of its neighbours' frontier words via :func:`segmented_or` — the
  ``row_any`` cumsum trick generalized from boolean "any" to bitwise
  OR (``reduceat`` per lane word, with the zero-length-segment fixup);
* a candidate's *fresh* bits are the pulled word minus its reach word,
  so per-lane first-touch semantics are preserved exactly;
* a wide level skips the discovery gather and goes *pull-only*: every
  unsaturated vertex (one not yet reached by all lanes) pulls, which is
  Beamer's bottom-up step on lane words. ``front`` is zero off the
  frontier, so the extra candidates OR in nothing and the level's fresh
  vertices and words are unchanged. :func:`lane_sweep` goes pull-only
  when the frontier holds more than ``threshold`` (the paper's 10 %,
  §4.6) of ``|V|`` and twice its arcs exceed the unsaturated vertices'
  arcs (:func:`_pull_wins`); ``directions=False`` keeps every level on
  discovery, as it keeps the scalar hybrid BFS top-down.

The edge gathers — the bandwidth-bound part — are shared by all lanes,
so 64 eccentricities or partial balls cost roughly one traversal's
worth of memory passes instead of 64 (the classic bit-parallel BFS
batching, cf. multi-source BFS in the Magnien–Latapy–Habib
bounding-BFS lineage; see DESIGN.md §8 for the mapping onto the
paper's multi-source partial BFS).

Read-out is per source: per-lane eccentricities and distance
matrices. This backs :meth:`TraversalKernel.levels_batched64`,
:meth:`TraversalKernel.distance_batch`, the batched eccentricity
spectrum, the query engine's distance batches, and chain-tip batching.

Buffers come from a duck-typed :class:`~repro.bfs.kernel.Workspace`
pool (``acquire_lanes`` / ``release_lanes``) so repeated sweeps reuse
their lane matrices; this module deliberately imports nothing from
:mod:`repro.bfs.kernel` to keep the dependency direction acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.bfs.frontier import DEFAULT_THRESHOLD, compact_unique, gather_rows
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = [
    "LANE_WIDTH",
    "LaneSweep",
    "segmented_or",
    "lane_sweep",
    "lane_distances",
]

#: Logical traversals per lane word (the machine word width).
LANE_WIDTH = 64

#: Most arcs one gather of a sweep materializes at once (see
#: :func:`_row_chunks`).
_GATHER_CHUNK = 1 << 18

#: A pull-only level reads its rows' whole span contiguously (see
#: :func:`_pull`) while the span holds fewer than this many times their
#: arcs: per arc, a gathered read costs about three contiguous ones.
_SPAN_READ = 3

_ONE = np.uint64(1)
_ZERO = np.uint64(0)


def segmented_or(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row bitwise OR over a flat lane-word array segmented by ``lengths``.

    ``values`` has shape ``(total, W)`` (a 1-D array is treated as
    ``W = 1``); row ``i`` of the result is the OR of the ``lengths[i]``
    consecutive rows of its segment. This is :func:`repro.bfs.frontier.row_any`
    generalized from boolean "any" to bitwise OR: ``reduceat`` per lane
    word, with the explicit fixup for ``reduceat``'s zero-length-segment
    misbehaviour (it returns the element *at* the segment start instead
    of the reduction identity, so empty segments are masked to 0).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.ndim == 1:
        values = values[:, None]
    rows = len(lengths)
    if rows == 0 or len(values) == 0:
        return np.zeros((rows, values.shape[1]), dtype=values.dtype)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nonempty = lengths > 0
    if nonempty.all():  # no fixup needed
        return np.bitwise_or.reduceat(values, starts, axis=0)
    out = np.zeros((rows, values.shape[1]), dtype=values.dtype)
    # Reduceat over the starts of the non-empty segments: each reduces
    # exactly its own segment because the next non-empty start equals
    # this segment's end (empty segments contribute no elements).
    out[nonempty] = np.bitwise_or.reduceat(values, starts[nonempty], axis=0)
    return out


def _row_chunks(indptr: np.ndarray, rows: np.ndarray) -> list[tuple[int, int]]:
    """Split ``rows`` into consecutive slices of about ``_GATHER_CHUNK`` arcs.

    A sweep's widest levels touch nearly every arc; gathering them in
    slices keeps its scratch (the gathered ids, their lane words, the
    gather ramp) at the size of one slice instead of the whole graph.
    A single row longer than the limit still forms one slice.
    """
    if int(indptr[-1]) <= _GATHER_CHUNK:  # the whole graph fits one slice
        return [(0, len(rows))]
    ends = np.cumsum(indptr[rows + 1] - indptr[rows])
    total = int(ends[-1])
    if total <= _GATHER_CHUNK:
        return [(0, len(rows))]
    cuts = np.searchsorted(ends, np.arange(_GATHER_CHUNK, total, _GATHER_CHUNK), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(rows)])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _pull(
    indptr: np.ndarray,
    indices: np.ndarray,
    front: np.ndarray,
    rows: np.ndarray,
    pool,
    dense: bool,
) -> tuple[np.ndarray, int]:
    """OR of the frontier words of each row's neighbours, and arcs read.

    ``rows`` is sorted. The gathered read materializes exactly their
    arcs. The ``dense`` read instead takes every row from ``rows[0]``
    to ``rows[-1]`` as contiguous slices of ``indices`` and keeps the
    wanted rows: it reads the arcs of the rows in between as well, but
    skips building a gather index, which costs more than the read
    itself once ``rows`` covers most of its span. Both read in slices
    of about ``_GATHER_CHUNK`` arcs.
    """
    parts = []
    arcs = 0
    if dense:
        first = int(rows[0])
        for lo, hi in _row_chunks(indptr, np.arange(first, int(rows[-1]) + 1)):
            lo, hi = lo + first, hi + first  # the vertex ids of the slice
            vals = indices[indptr[lo] : indptr[hi]].astype(np.int64, copy=False)
            words = segmented_or(front.take(vals, axis=0), np.diff(indptr[lo : hi + 1]))
            i, j = np.searchsorted(rows, (lo, hi))
            parts.append(words.take(rows[i:j] - lo, axis=0))
            arcs += len(vals)
    else:
        for lo, hi in _row_chunks(indptr, rows):
            vals, lengths = gather_rows(
                indices, indptr[rows[lo:hi]], indptr[rows[lo:hi] + 1], pool=pool
            )
            arcs += len(vals)
            parts.append(segmented_or(front.take(vals, axis=0), lengths))
            del vals
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), arcs


def _pull_wins(front_arcs: int, unsat_arcs: int) -> bool:
    """Whether a wide level should pull from every unsaturated vertex.

    Beamer's ``m_f`` vs ``m_u`` test on lane words. A discovery level
    reads the frontier's ``front_arcs`` and then the rows of the
    candidates it finds; a pull-only level reads the rows of every
    unsaturated vertex (``unsat_arcs``) and nothing else. Only
    frontiers past the size threshold ask.
    """
    return 2 * front_arcs > unsat_arcs


def _lane_layout(k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Width in words plus per-source (word, bit) lane assignment."""
    width = max(1, -(-k // LANE_WIDTH))
    word = np.arange(k) // LANE_WIDTH
    bitpos = (np.arange(k) % LANE_WIDTH).astype(np.uint64)
    return width, word, np.left_shift(_ONE, bitpos)


@dataclass
class LaneSweep:
    """Outcome of one bit-parallel multi-source sweep.

    Attributes
    ----------
    sources:
        The lane assignment: lane ``i`` traverses from ``sources[i]``.
    width:
        Lane words per vertex (``ceil(k / 64)``).
    eccentricities:
        Per lane, the deepest level at which the lane discovered a
        vertex — the source's eccentricity within its component when
        the sweep ran to exhaustion, or the depth reached under a
        level cap.
    levels:
        Number of levels the sweep expanded.
    edges_examined:
        Total adjacency entries read: the discovery gathers of the
        frontier's rows plus the pulls of the candidates' rows. A
        pull-only level has no discovery gather, and when it reads its
        rows' whole span contiguously it counts every arc of that span.
        Shared by ALL lanes, which is the entire point: compare against
        ``k`` scalar traversals' edge counts.
    """

    sources: np.ndarray
    width: int
    eccentricities: np.ndarray
    levels: int
    edges_examined: int

    @property
    def lane_count(self) -> int:
        """Number of logical traversals batched into the sweep."""
        return len(self.sources)

    @property
    def lane_occupancy(self) -> float:
        """Fraction of the allocated lane bits actually carrying a source."""
        capacity = self.width * LANE_WIDTH
        return self.lane_count / capacity if capacity else 0.0


def lane_sweep(
    graph: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    max_level: int | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    directions: bool = True,
    pool=None,
    on_level: Callable[[int, np.ndarray, np.ndarray], object] | None = None,
    check: Callable[[], None] | None = None,
) -> LaneSweep:
    """Run one bit-parallel level-synchronous sweep from ``sources``.

    Parameters
    ----------
    graph:
        The CSR graph to traverse.
    sources:
        Lane assignment: lane ``i`` starts from ``sources[i]``
        (duplicates allowed — duplicate lanes simply shadow each
        other). An empty set returns an empty zero-level sweep.
    max_level:
        Level cap; ``None`` runs every lane to exhaustion.
    threshold:
        Frontier-size fraction of ``|V|`` past which a level may go
        pull-only (see :func:`_pull_wins`); the paper's 10 % by default.
    directions:
        ``False`` expands every level by discovery, as it forces the
        scalar hybrid BFS top-down.
    pool:
        Optional duck-typed :class:`~repro.bfs.kernel.Workspace`
        supplying pooled lane matrices, the arange gather scratch, and
        the owner buffer and claim flag for frontier dedup.
    on_level:
        Optional ``callback(depth, fresh_vertices, fresh_words)``
        invoked per level (depth counts from 1, ``fresh_words`` is the
        per-vertex lane-bit matrix of that level). Returning the
        literal ``False`` stops the sweep.
    check:
        Optional per-level hook (deadline enforcement).
    """
    sources = np.asarray(sources, dtype=np.int64).ravel()
    k = len(sources)
    n = graph.num_vertices
    if k and (sources.min() < 0 or sources.max() >= n):
        raise AlgorithmError(f"lane sweep source out of range [0, {n})")
    width, word_idx, bits = _lane_layout(k)
    ecc = np.zeros(k, dtype=np.int64)
    if k == 0:
        return LaneSweep(
            sources=sources,
            width=0,
            eccentricities=ecc,
            levels=0,
            edges_examined=0,
        )

    front = pool.acquire_lanes(width) if pool is not None else np.zeros((n, width), dtype=np.uint64)
    np.bitwise_or.at(front, (sources, word_idx), bits)
    reach = pool.acquire_lanes(width) if pool is not None else np.zeros((n, width), dtype=np.uint64)
    reach[sources] = front[sources]
    full = np.full(width, ~_ZERO, dtype=np.uint64)
    if k % LANE_WIDTH:
        full[-1] = np.uint64((1 << (k % LANE_WIDTH)) - 1)

    indptr, indices = graph.indptr, graph.indices
    frontier = compact_unique(sources, n, pool=pool)
    level = 0
    edges = 0
    advanced = []  # per level, the lanes that discovered a vertex
    # Direction state: frontiers wider than ``gate`` vertices may go
    # pull-only. ``unsat`` (sorted unsaturated vertices) and
    # ``unsat_arcs`` (their arcs) are built the first time the gate
    # opens; from then on every vertex that saturates leaves
    # ``unsat_arcs`` at once and ``unsat`` lazily (``stale``).
    gate = threshold * n if directions else np.inf
    unsat = None
    unsat_arcs = 0
    stale = False
    # The level loop runs user callbacks (on_level, deadline checks)
    # that may raise mid-level; the try/finally guarantees the pooled
    # lane matrices always go back to the pool (release_lanes itself
    # guards against double releases), closing the leak where an abort
    # stranded a front/reach matrix and the next sweep allocated anew.
    try:
        while len(frontier):
            if max_level is not None and level >= max_level:
                break
            if check is not None:
                check()
            pull_only = False
            if len(frontier) > gate:
                if unsat is None:
                    degree = graph.degrees
                    unsat = np.flatnonzero((reach != full).any(axis=1))
                    unsat_arcs = int(degree[unsat].sum())
                pull_only = _pull_wins(int(degree[frontier].sum()), unsat_arcs)
            if pull_only:
                # Bottom-up: every unsaturated vertex pulls. Off the
                # frontier ``front`` is zero, so the extra candidates
                # OR in nothing and the level comes out unchanged.
                if stale:
                    unsat = unsat[(reach.take(unsat, axis=0) != full).any(axis=1)]
                    stale = False
                cand = unsat
                held = reach.take(cand, axis=0)
                dense = len(cand) > 0 and (
                    indptr[cand[-1] + 1] - indptr[cand[0]] < _SPAN_READ * unsat_arcs
                )
            else:
                # Discovery: which vertices border the frontier at all.
                # This gather is shared by every lane in the batch.
                parts = []
                for lo, hi in _row_chunks(indptr, frontier):
                    neigh, _ = gather_rows(
                        indices, indptr[frontier[lo:hi]], indptr[frontier[lo:hi] + 1],
                        pool=pool,
                    )
                    edges += len(neigh)
                    parts.append(compact_unique(neigh, n, pool=pool))
                cand = parts[0] if len(parts) == 1 else compact_unique(
                    np.concatenate(parts), n, pool=pool
                )
                del parts, neigh
                cand = cand[(reach.take(cand, axis=0) != full).any(axis=1)]  # drop saturated
                held = reach.take(cand, axis=0)
                dense = False
            if len(cand) == 0:
                break
            # Pull: each candidate ORs its neighbours' frontier lane words.
            pulled, arcs = _pull(indptr, indices, front, cand, pool, dense)
            edges += arcs
            pulled &= ~held
            live = np.flatnonzero(pulled.any(axis=1))
            if len(live) == 0:
                break
            fresh = cand[live]
            fresh_words = pulled.take(live, axis=0)
            now = held.take(live, axis=0) | fresh_words
            reach[fresh] = now
            if unsat is not None:
                done = (now == full).all(axis=1)
                if done.any():  # newly saturated vertices leave unsat_arcs
                    unsat_arcs -= int(degree[fresh[done]].sum())
                    stale = True
            front[frontier] = _ZERO
            front[fresh] = fresh_words
            frontier = fresh
            level += 1
            advanced.append(np.bitwise_or.reduce(fresh_words, axis=0))
            if on_level is not None and on_level(level, fresh, fresh_words) is False:
                break
    finally:
        front[frontier] = _ZERO  # pooled buffers go back clean
        if pool is not None:
            pool.release_lanes(front)
            pool.release_lanes(reach)
            stats = getattr(pool, "stats", None)
            if stats is not None:
                stats.edges_examined += edges

    if advanced:
        # A lane's eccentricity is the last level on which it advanced.
        hit = (np.stack(advanced)[:, word_idx] & bits) != _ZERO
        deepest = len(advanced) - np.argmax(hit[::-1], axis=0)
        ecc[:] = np.where(hit.any(axis=0), deepest, 0)
    return LaneSweep(
        sources=sources,
        width=width,
        eccentricities=ecc,
        levels=level,
        edges_examined=edges,
    )


def lane_distances(
    graph: CSRGraph,
    sources: Sequence[int] | np.ndarray,
    max_level: int | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    directions: bool = True,
    pool=None,
    check: Callable[[], None] | None = None,
) -> tuple[np.ndarray, LaneSweep]:
    """Per-source BFS distances for up to a few hundred sources at once.

    Returns ``(dist, sweep)`` where ``dist`` has shape ``(k, n)``
    (``int32``, ``-1`` for unreached) and ``dist[i]`` is the distance
    array of ``sources[i]`` — the read-out the query engine's distance
    batches and the batched eccentricity spectrum consume. The per-level unpack costs ``O(k * touched)``
    bookkeeping, but the edge gathers remain shared. ``threshold`` and
    ``directions`` pick each level's direction as in :func:`lane_sweep`.
    """
    sources = np.asarray(sources, dtype=np.int64).ravel()
    k = len(sources)
    n = graph.num_vertices
    dist = np.full((k, n), -1, dtype=np.int32)
    if k == 0:
        sweep = lane_sweep(graph, sources, max_level, pool=pool, check=check)
        return dist, sweep
    dist[np.arange(k), sources] = 0
    width, word_idx, bits = _lane_layout(k)

    def unpack(depth: int, fresh: np.ndarray, fresh_words: np.ndarray) -> None:
        for j in range(k):
            hit = (fresh_words[:, word_idx[j]] & bits[j]) != _ZERO
            if hit.any():
                dist[j, fresh[hit]] = depth

    sweep = lane_sweep(
        graph, sources, max_level, threshold=threshold, directions=directions,
        pool=pool, on_level=unpack, check=check,
    )
    return dist, sweep
