"""Load → warm run → save orchestration around the core entry points.

:func:`fdiam_cached` and :func:`spectrum_cached` are what the CLI's
``--cache DIR`` flag routes through: they key the store by the graph's
content digest, hand any artifacts to the warm seams of
:func:`repro.core.fdiam.fdiam_with_state` /
:func:`repro.core.extremes.eccentricity_spectrum`, and write a fresh
sidecar after a cold (or distrusted-warm) run.

Artifact collection reads the final
:class:`~repro.core.state.FDiamState` of the whole-graph run, so its
status arrays line up with the original vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bfs.bitparallel import lane_distances
from repro.cache.store import WarmArtifacts, WarmStartStore
from repro.core.config import FDiamConfig
from repro.core.extremes import EccentricitySpectrum, eccentricity_spectrum
from repro.core.fdiam import DiameterResult, fdiam_with_state
from repro.core.state import FDiamState
from repro.core.stats import Reason
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_digest

__all__ = ["CacheInfo", "fdiam_cached", "spectrum_cached"]

#: Landmark rows a cold run persists: enough to seed spectrum bounds
#: and the query memo meaningfully, cheap enough (one 64-lane sweep)
#: to never dominate the run being cached.
_LANDMARKS = 4


@dataclass(frozen=True)
class CacheInfo:
    """What the cache layer did around one run."""

    digest: str
    hit: bool  # a usable sidecar existed for this digest
    verified: bool  # the warm run's witness reproduced the cached diameter
    saved: bool  # a (new or refreshed) sidecar was written
    path: Path | None  # sidecar location, when one was read or written


def _collect_landmarks(
    graph: CSRGraph,
    status: np.ndarray,
    reason: np.ndarray,
    witness: int,
    *,
    pool=None,
    check=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A handful of full distance rows from structurally distinct spots.

    One 64-lane sweep over the deduplicated picks — the max-degree hub,
    the diameter witness (peripheral), and the most central explicitly
    evaluated vertices — so persisting them costs a single extra
    gather pass on the run being cached.
    """
    n = graph.num_vertices
    picks: list[int] = [graph.max_degree_vertex(), witness]
    computed = np.flatnonzero((reason == Reason.COMPUTED) & (status >= 0))
    if len(computed):
        central = computed[np.argsort(status[computed], kind="stable")]
        picks.extend(int(v) for v in central[: 2 * _LANDMARKS])
    seen: set[int] = set()
    sources = [
        v for v in picks if 0 <= v < n and not (v in seen or seen.add(v))
    ][:_LANDMARKS]
    dist, sweep = lane_distances(
        graph,
        np.asarray(sources, dtype=np.int64),
        pool=pool,
        check=check,
    )
    return (
        np.asarray(sources, dtype=np.int64),
        dist,
        np.asarray(sweep.eccentricities, dtype=np.int64),
    )


def _artifacts_from_run(
    digest: str,
    graph: CSRGraph,
    result: DiameterResult,
    state: FDiamState,
) -> WarmArtifacts:
    """Snapshot a completed plain run into the sidecar schema."""
    witness = state.pick_witness(result.diameter)
    sources, dists, eccs = _collect_landmarks(
        graph,
        state.status,
        state.reason,
        witness,
        pool=state.kernel.workspace,
        check=state.kernel.check_deadline,
    )
    return WarmArtifacts(
        digest=digest,
        num_vertices=graph.num_vertices,
        diameter=result.diameter,
        connected=result.connected,
        witness=witness,
        status=state.status.copy(),
        reason=state.reason.copy(),
        winnow_center=(
            state.winnow_center if state.winnow_center is not None else -1
        ),
        winnow_radius=state.winnow_radius,
        winnow_visited=state.winnow_visited.copy(),
        winnow_frontier=np.asarray(state.winnow_frontier, dtype=np.int64),
        landmark_sources=sources,
        landmark_dists=dists,
        landmark_eccs=eccs,
    )


def fdiam_cached(
    graph: CSRGraph,
    config: FDiamConfig | None = None,
    *,
    store: WarmStartStore,
    deadline: float | None = None,
    save: bool = True,
) -> tuple[DiameterResult, CacheInfo]:
    """Exact diameter through the warm-start store.

    A usable sidecar seeds :func:`fdiam_with_state`'s warm path (one
    verifying witness BFS instead of the whole pipeline); a miss — or a
    distrusted sidecar — runs cold and, with ``save``, (re)writes the
    sidecar from the finished state. The diameter is exact in every
    branch; only the traversal count varies.
    """
    digest = graph_digest(graph)
    art = store.load(graph, digest=digest)
    if art is not None:
        result, state = fdiam_with_state(
            graph, config, deadline=deadline, warm=art
        )
        path = store.path_for(digest)
        saved = False
        if not result.stats.warm_verified and save:
            # The fallback ran the full cold pipeline, so its state is
            # sidecar-grade: replace the inconsistent artifacts.
            path = store.save(
                _artifacts_from_run(digest, graph, result, state)
            )
            saved = True
        return result, CacheInfo(
            digest=digest,
            hit=True,
            verified=result.stats.warm_verified,
            saved=saved,
            path=path,
        )
    result, state = fdiam_with_state(graph, config, deadline=deadline)
    path = None
    saved = False
    if save:
        path = store.save(_artifacts_from_run(digest, graph, result, state))
        saved = True
    return result, CacheInfo(
        digest=digest, hit=False, verified=False, saved=saved, path=path
    )


def spectrum_cached(
    graph: CSRGraph,
    *,
    store: WarmStartStore,
    engine: str = "parallel",
    batch_lanes: int = 0,
    auto_fallback: bool = True,
    save: bool = True,
    workers: int = 1,
) -> tuple[EccentricitySpectrum, CacheInfo]:
    """Exact eccentricity spectrum through the warm-start store.

    Warm artifacts seed the two-sided bounds (closing every vertex when
    a previous spectrum wrote the sidecar); afterwards the *exact*
    spectrum upgrades the sidecar — ``ecc_lower == ecc_upper`` per
    vertex — so the next ``fdiam`` or spectrum run on this graph starts
    from a complete certificate. A sidecar written by a spectrum run
    alone is also a full ``fdiam`` warm start (status = exact
    eccentricities, witness = a diameter-realizing vertex).
    """
    digest = graph_digest(graph)
    art = store.load(graph, digest=digest)
    hit = art is not None
    spectrum = eccentricity_spectrum(
        graph,
        engine=engine,
        batch_lanes=batch_lanes,
        auto_fallback=auto_fallback,
        warm=art,
        workers=workers,
    )
    path = store.path_for(digest) if hit else None
    saved = False
    if save:
        ecc = np.asarray(spectrum.eccentricities, dtype=np.int64)
        if art is None:
            witness = (
                int(spectrum.periphery[0])
                if len(spectrum.periphery)
                else graph.max_degree_vertex()
            )
            reason = np.full(graph.num_vertices, Reason.COMPUTED, dtype=np.uint8)
            sources, dists, eccs = _collect_landmarks(
                graph, ecc, reason, witness
            )
            art = WarmArtifacts(
                digest=digest,
                num_vertices=graph.num_vertices,
                diameter=spectrum.diameter,
                connected=spectrum.connected,
                witness=witness,
                status=ecc.copy(),
                reason=reason,
                landmark_sources=sources,
                landmark_dists=dists,
                landmark_eccs=eccs,
            )
        art.ecc_lower = ecc.copy()
        art.ecc_upper = ecc.copy()
        path = store.save(art)
        saved = True
    return spectrum, CacheInfo(
        digest=digest, hit=hit, verified=False, saved=saved, path=path
    )
