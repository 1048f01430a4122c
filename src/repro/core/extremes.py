"""Radius, center, periphery, and the full eccentricity spectrum.

The paper centres on the diameter (the maximum eccentricity) but leans
on the wider eccentricity structure throughout: Theorem 3 relates the
radius to the diameter, Winnow wants a near-central starting vertex,
and the periphery ("vertices with eccentricities close to the
diameter") is what realizes the diameter. This module rounds the
library out with exact computations of those quantities using the same
substrate and the standard two-sided bounding scheme (the machinery of
:mod:`repro.baselines.takes_kosters`, generalized):

* per-vertex bounds ``lb[v] <= ecc(v) <= ub[v]`` refined after each
  exact eccentricity BFS via both triangle inequalities,
* a target-driven candidate rule — a vertex stays interesting only if
  its bounds still straddle the answer the caller asked for,
* selection alternating between the extremes (big-``ub`` hunters and
  small-``lb`` centre candidates), which is what makes the scheme
  converge in few traversals in practice.

Unlike the diameter-only F-Diam driver, these routines cannot use
Winnow (Theorem 2's two-witness guarantee is specific to the maximum),
so they cost more BFS calls — the comparison is itself instructive and
is exercised in the benchmarks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.bfs.eccentricity import Engine
from repro.bfs.kernel import TraversalKernel
from repro.core.state import MAX_BOUND
from repro.errors import AlgorithmError
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph

__all__ = ["EccentricitySpectrum", "eccentricity_spectrum", "radius", "center", "periphery"]


@dataclass(frozen=True)
class EccentricitySpectrum:
    """Exact eccentricity structure of a graph.

    For disconnected graphs the eccentricities are per-component (BFS
    level counts), matching the convention used everywhere else in the
    library; radius/center are reported for the **largest** component
    (the paper's "largest connected component" convention) and the
    periphery realizes the largest eccentricity over all components.
    """

    eccentricities: np.ndarray
    radius: int
    diameter: int
    center: np.ndarray  # vertices of the largest component with ecc == radius
    periphery: np.ndarray  # vertices with ecc == diameter (any component)
    connected: bool
    bfs_traversals: int
    #: Arcs gathered by the traversals (0 when the engine doesn't count).
    edges_examined: int = 0
    #: Level-synchronous sweeps executed. The scalar path runs one sweep
    #: per traversal; the bit-parallel path amortizes up to
    #: ``batch_lanes`` traversals per sweep, so the ratio
    #: ``bfs_traversals / sweeps`` is the edge-gather saving.
    sweeps: int = 0
    #: Mean fraction of allocated lane bits actually carrying a source
    #: (1.0 for the scalar path; < 1 when the last batch is ragged).
    lane_occupancy: float = 0.0
    #: Whether a requested lane batch was dropped back to the scalar
    #: path because the cost model advised against it (``auto_fallback``).
    lane_fallback: bool = False
    #: The cost model's verdict when ``lane_fallback`` is set, else "".
    lane_fallback_reason: str = ""
    #: Sweep backend the refinement rounds ran on: "scalar" for the
    #: one-vertex-at-a-time loop, else the executor's backend name
    #: ("bitparallel" / "multiprocess").
    backend: str = "scalar"
    #: Worker processes the rounds were spread over (1 = in-process).
    workers: int = 1


def _refine_bounds(
    ecc_lb: np.ndarray, ecc_ub: np.ndarray, v: int, ecc_v: int, dist: np.ndarray
) -> None:
    """Fold one exact eccentricity's distances into the global bounds."""
    reached = dist >= 0
    np.maximum(
        ecc_lb,
        np.where(reached, np.maximum(ecc_v - dist, dist), ecc_lb),
        out=ecc_lb,
    )
    np.minimum(ecc_ub, np.where(reached, ecc_v + dist, ecc_ub), out=ecc_ub)
    ecc_lb[v] = ecc_ub[v] = ecc_v


def _pick_batch(
    cand: np.ndarray, ecc_lb: np.ndarray, ecc_ub: np.ndarray, lanes: int
) -> np.ndarray:
    """Up to ``lanes`` open vertices, alternating the two extremes.

    Interleaves the biggest-upper-bound hunters with the
    smallest-lower-bound centre candidates (the same alternation the
    scalar loop uses one vertex at a time), deduplicated, preserving
    that alternation order.
    """
    high = cand[np.argsort(-ecc_ub[cand], kind="stable")]
    low = cand[np.argsort(ecc_lb[cand], kind="stable")]
    interleaved = np.empty(2 * len(cand), dtype=cand.dtype)
    interleaved[0::2] = high
    interleaved[1::2] = low
    _, first = np.unique(interleaved, return_index=True)
    picks = interleaved[np.sort(first)]
    return picks[:lanes]


def _seed_from_warm(
    graph: CSRGraph,
    kernel: TraversalKernel,
    warm,
    ecc_lb: np.ndarray,
    ecc_ub: np.ndarray,
    count_edges: bool,
) -> tuple[bool, int, int]:
    """Fold warm-start artifacts into the bounds; ``(used, bfs, edges)``.

    Trust model (DESIGN.md §10): the artifacts already passed the cache
    layer's content-digest check, and before anything is folded in, one
    *fresh* BFS from the first cached landmark must reproduce its cached
    distance row bit-for-bit — a cheap end-to-end proof that the sidecar
    was computed on this exact graph. Only then are the cached per-vertex
    eccentricity bounds adopted; any open vertex the seeding leaves
    behind is still resolved by an exact traversal, so a *consistent*
    cache only ever removes work.
    """
    n = graph.num_vertices
    status = getattr(warm, "status", None)
    if status is None or len(status) != n:
        warnings.warn(
            "warm-start artifacts do not match the graph shape; "
            "ignoring them",
            stacklevel=3,
        )
        return False, 0, 0
    sources = np.asarray(
        getattr(warm, "landmark_sources", np.empty(0, np.int64)),
        dtype=np.int64,
    )
    dists = np.asarray(
        getattr(warm, "landmark_dists", np.empty((0, 0), np.int32))
    )
    if (
        len(sources) == 0
        or dists.shape != (len(sources), n)
        or not 0 <= int(sources[0]) < n
    ):
        # No landmark rows to verify against: refuse to trust the
        # sidecar's bounds rather than adopt them unverified.
        return False, 0, 0
    res = kernel.bfs(int(sources[0]), record_dist=True, record_trace=count_edges)
    spent_edges = res.trace.total_edges_examined if res.trace else 0
    fresh = res.dist
    verified = np.array_equal(
        np.asarray(fresh, dtype=np.int64), dists[0].astype(np.int64)
    )
    if not verified:
        kernel.workspace.release_dist(fresh)
        warnings.warn(
            "warm-start landmark distances do not reproduce on this "
            "graph; ignoring the cached artifacts",
            stacklevel=3,
        )
        return False, 1, spent_edges
    # Every landmark row is a genuine distance array of this graph, so
    # folding it through the triangle inequalities needs no further
    # trust; the row's max is its source's exact eccentricity.
    for j in range(len(sources)):
        row = dists[j].astype(np.int64)
        _refine_bounds(ecc_lb, ecc_ub, int(sources[j]), int(row.max()), row)
    kernel.workspace.release_dist(fresh)
    # Per-vertex upper-bound certificates from the cached run: the
    # spectrum's exact bounds when a spectrum wrote the sidecar, else
    # min(status, D) from the diameter run's final status array.
    diameter = int(getattr(warm, "diameter", 0))
    lower = np.asarray(
        getattr(warm, "ecc_lower", np.empty(0, np.int64)), dtype=np.int64
    )
    upper = np.asarray(
        getattr(warm, "ecc_upper", np.empty(0, np.int64)), dtype=np.int64
    )
    if len(upper) == n:
        np.minimum(ecc_ub, upper, out=ecc_ub)
        if len(lower) == n:
            np.maximum(ecc_lb, lower, out=ecc_lb)
    else:
        status = np.asarray(status, dtype=np.int64)
        numeric = (status >= 0) & (status < MAX_BOUND)
        np.minimum(
            ecc_ub,
            np.where(numeric, np.minimum(status, diameter), diameter),
            out=ecc_ub,
        )
    return True, 1, spent_edges


def eccentricity_spectrum(
    graph: CSRGraph,
    *,
    engine: Engine = "parallel",
    batch_lanes: int = 0,
    auto_fallback: bool = True,
    workers: int = 1,
    warm=None,
) -> EccentricitySpectrum:
    """Compute every vertex's exact eccentricity with bound pruning.

    The bounding scheme only avoids BFS calls for vertices whose bounds
    meet (``lb == ub``); since *all* eccentricities are requested, the
    pruning is purely opportunistic, yet on real topologies it still
    resolves the bulk of the vertices without a dedicated traversal.

    With ``batch_lanes > 0`` the traversals run through the
    bit-parallel lane sweep (:mod:`repro.bfs.bitparallel`), up to
    ``batch_lanes`` sources per sweep: each round picks the open
    vertices the scalar loop would have picked next (alternating
    extremes) and refines the bounds from all of their exact distance
    rows at once. Every bound update is the same sound triangle
    inequality, so the result is exact either way; some lanes may be
    spent on vertices a same-round peer would have closed, which is the
    price of sharing the edge gathers — the gather saving is reported
    as ``bfs_traversals / sweeps``.

    ``auto_fallback`` (default on) lets the cost model veto a requested
    lane batch from the graph's structure alone: on high-estimated-
    diameter inputs the lane sweep re-gathers the same edges over
    hundreds of thin levels (the measured 23× gather-pass blow-up on
    road meshes), so the request silently drops to the scalar path and
    ``lane_fallback`` is set on the result. Pass ``False`` to force the
    lanes for A/B measurements.

    ``workers > 1`` spreads each refinement round over a persistent
    shared-memory worker pool (the ``multiprocess``
    :class:`~repro.parallel.sweep.SweepExecutor` backend) when the cost
    model expects the round to be worth leaving the process; the bound
    refinement is identical either way, so the eccentricities are exact
    regardless of backend or worker count.

    ``warm`` seeds the bounds from cached artifacts of a previous run on
    the byte-identical graph (:class:`repro.cache.WarmArtifacts`): after
    one fresh BFS verifies the first cached landmark row, the remaining
    landmark rows and per-vertex certificates are folded in, typically
    closing most (for a spectrum-written sidecar: all) vertices before
    the refinement loop starts. Unusable or unverifiable artifacts are
    ignored with a warning.
    """
    n = graph.num_vertices
    if n == 0:
        raise AlgorithmError("eccentricity_spectrum on an empty graph")
    if workers < 1:
        raise AlgorithmError(f"workers must be >= 1, got {workers}")
    fell_back = False
    fallback_reason = ""
    if batch_lanes > 0 and auto_fallback:
        # Call-time import: repro.parallel's package init pulls the
        # scaling study, which imports the core layer.
        from repro.parallel.costmodel import LevelSynchronousCostModel

        model = LevelSynchronousCostModel()
        estimate = model.estimate_diameter(
            n, graph.num_directed_edges, graph.max_degree()
        )
        ok, reason = model.lane_batch_verdict(estimate, batch_lanes)
        if not ok:
            batch_lanes = 0
            fell_back = True
            fallback_reason = reason
    count_edges = engine == "parallel" or batch_lanes > 0 or workers > 1
    kernel = TraversalKernel(graph, engine=engine)

    # Route the refinement rounds through the sweep dispatch layer when
    # the caller asked for lanes or a worker team. A single-worker lane
    # request pins the bitparallel backend (the historical behaviour);
    # a team goes through "auto", and if the cost model still resolves
    # to the serial backend the rounds are cheaper in the scalar
    # alternating loop below, so the executor is dropped.
    executor = None
    if workers > 1:
        executor = kernel.sweep_executor(
            workers=workers,
            batch_lanes=batch_lanes if batch_lanes > 0 else 64,
            backend="auto",
        )
        if executor.backend == "serial":
            executor.close()
            executor = None
    elif batch_lanes > 0:
        executor = kernel.sweep_executor(
            workers=1, batch_lanes=batch_lanes, backend="bitparallel"
        )

    cc = connected_components(graph)
    ecc_lb = np.zeros(n, dtype=np.int64)
    ecc_ub = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    ecc_ub[graph.degrees == 0] = 0
    traversals = 0
    sweeps = 0
    edges = 0
    occupancy_sum = 0.0

    if warm is not None:
        _, warm_bfs, warm_edges = _seed_from_warm(
            graph, kernel, warm, ecc_lb, ecc_ub, count_edges
        )
        traversals += warm_bfs
        sweeps += warm_bfs
        edges += warm_edges
        occupancy_sum += float(warm_bfs)
        # Inconsistent certificates can leave lb > ub on some vertices;
        # those stay open (lb != ub) and are resolved by an exact BFS
        # like any other open vertex, so nothing is clamped here.

    try:
        for comp in range(cc.num_components):
            vertices = cc.vertices_of(comp)
            if len(vertices) < 2:
                continue
            in_comp = np.zeros(n, dtype=bool)
            in_comp[vertices] = True
            pick_high = True
            while True:
                open_mask = in_comp & (ecc_lb != ecc_ub)
                if not open_mask.any():
                    break
                cand = np.flatnonzero(open_mask)
                if executor is not None:
                    picks = _pick_batch(cand, ecc_lb, ecc_ub, executor.round_size)
                    dist, info = executor.distance_rows(picks)
                    for j, v in enumerate(picks):
                        _refine_bounds(
                            ecc_lb, ecc_ub, int(v), int(info.eccentricities[j]), dist[j]
                        )
                    traversals += info.traversals
                    sweeps += info.sweeps
                    edges += info.edges_examined
                    occupancy_sum += info.lane_occupancy * info.sweeps
                    continue
                if pick_high:
                    v = int(cand[int(np.argmax(ecc_ub[cand]))])
                else:
                    v = int(cand[int(np.argmin(ecc_lb[cand]))])
                pick_high = not pick_high
                res = kernel.bfs(v, record_dist=True, record_trace=count_edges)
                traversals += 1
                sweeps += 1
                occupancy_sum += 1.0
                if res.trace is not None:
                    edges += res.trace.total_edges_examined
                dist = res.dist
                _refine_bounds(ecc_lb, ecc_ub, v, res.eccentricity, dist)
                # The distances were folded into the bounds; recycle the
                # buffer so every refinement after the first reuses it.
                kernel.workspace.release_dist(dist)
    finally:
        if executor is not None:
            executor.close()

    ecc = ecc_lb  # bounds have met everywhere
    diameter = int(ecc.max()) if n else 0
    connected = cc.num_components <= 1
    if cc.num_components:
        largest = cc.vertices_of(cc.largest())
        if len(largest) >= 2:
            rad = int(ecc[largest].min())
        else:
            rad = 0
        center_mask = np.zeros(n, dtype=bool)
        center_mask[largest] = True
        center_vertices = np.flatnonzero(center_mask & (ecc == rad))
    else:
        rad = 0
        center_vertices = np.empty(0, dtype=np.int64)
    periphery_vertices = (
        np.flatnonzero(ecc == diameter) if diameter > 0 else np.empty(0, dtype=np.int64)
    )
    return EccentricitySpectrum(
        eccentricities=ecc,
        radius=rad,
        diameter=diameter,
        center=center_vertices,
        periphery=periphery_vertices,
        connected=connected,
        bfs_traversals=traversals,
        edges_examined=edges,
        sweeps=sweeps,
        lane_occupancy=occupancy_sum / sweeps if sweeps else 0.0,
        lane_fallback=fell_back,
        lane_fallback_reason=fallback_reason,
        backend=executor.backend if executor is not None else "scalar",
        workers=executor.workers if executor is not None else 1,
    )


def radius(graph: CSRGraph, *, engine: Engine = "parallel") -> int:
    """Exact radius (minimum eccentricity) of the largest component."""
    return eccentricity_spectrum(graph, engine=engine).radius


def center(graph: CSRGraph, *, engine: Engine = "parallel") -> np.ndarray:
    """Vertices of the largest component whose eccentricity equals the radius."""
    return eccentricity_spectrum(graph, engine=engine).center


def periphery(graph: CSRGraph, *, engine: Engine = "parallel") -> np.ndarray:
    """All vertices whose eccentricity equals the (CC) diameter."""
    return eccentricity_spectrum(graph, engine=engine).periphery
