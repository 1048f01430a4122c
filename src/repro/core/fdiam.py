"""The F-Diam driver (paper Algorithm 1).

Orchestrates the stages:

1. remove degree-0 vertices (eccentricity 0, no computation needed),
2. 2-sweep from the max-degree vertex ``u`` → initial ``bound``,
3. Winnow the ball ``B(u, ⌊bound/2⌋)``,
4. Chain Processing,
5. loop over the remaining active vertices: compute the eccentricity;
   on a larger value, upgrade the bound, extend the winnow ball, and
   extend all eliminated regions with one multi-source sweep; otherwise
   Eliminate around the vertex. On hub-heavy graphs with a short bound
   the eccentricities are evaluated 64 at a time in one lane sweep
   (``FDiamConfig.ecc_lanes``) and applied in the same order.

The final bound is the exact largest eccentricity over all connected
components — the diameter for connected inputs, and the paper's
reported "CC diameter" (with an infinity flag) for disconnected ones.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.bfs.bitparallel import LANE_WIDTH
from repro.core.chain import process_chains
from repro.core.config import FDiamConfig
from repro.core.eliminate import eliminate
from repro.core.extend import extend_eliminated
from repro.core.state import ACTIVE, MAX_BOUND, WINNOWED, FDiamState
from repro.core.stats import FDiamStats, Reason
from repro.core.sweep import two_sweep, witness_sweep
from repro.core.winnow import restore_winnow, winnow
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.graph.csr import CSRGraph

__all__ = [
    "DiameterResult",
    "ecc_batch_size",
    "fdiam",
    "fdiam_with_state",
    "initial_stages",
    "main_loop",
]


@dataclass(frozen=True)
class DiameterResult:
    """Result of an exact diameter computation.

    Attributes
    ----------
    diameter:
        The largest eccentricity in any connected component. For a
        connected graph this is the graph diameter; for a disconnected
        graph the true diameter is infinite (see ``infinite``) and this
        value is what the paper's codes report alongside the flag.
    connected:
        Whether the graph is a single connected component.
    infinite:
        ``True`` iff the graph is disconnected (so the true diameter is
        unbounded).
    stats:
        Full per-run statistics (traversal counts, removal attribution,
        stage timings).
    """

    diameter: int
    connected: bool
    infinite: bool
    stats: FDiamStats

    def __str__(self) -> str:
        if self.infinite:
            return f"infinite (largest component eccentricity: {self.diameter})"
        return str(self.diameter)


def fdiam(
    graph: CSRGraph,
    config: FDiamConfig | None = None,
    *,
    deadline: float | None = None,
    warm=None,
) -> DiameterResult:
    """Compute the exact diameter of ``graph`` (see :func:`fdiam_with_state`).

    This is the public entry point; it discards the internal run state.
    With ``config.prep`` set (anything other than ``"off"``), the run
    first goes through the exactness-preserving reduction pipeline of
    :mod:`repro.prep` — pendant-tree peeling, mirror collapsing,
    per-component reordering and chain-tip planning — and the per-component
    results are merged back into one :class:`DiameterResult` carrying
    the identical diameter (and infinity convention) as the plain path.

    ``warm`` seeds the run from cached certificates (see
    :func:`fdiam_with_state`); it supersedes ``prep``, whose one-time
    savings the cached artifacts already subsume.
    """
    effective = config or FDiamConfig()
    if warm is not None:
        result, _ = fdiam_with_state(
            graph, effective.ablate(prep="off"), deadline=deadline, warm=warm
        )
        return result
    if effective.prep not in ("", "off", "none"):
        # Local import: repro.prep sits above the core layer.
        from repro.prep.pipeline import fdiam_prepped

        return fdiam_prepped(graph, effective, deadline=deadline)
    result, _ = fdiam_with_state(graph, effective, deadline=deadline)
    return result


def fdiam_with_state(
    graph: CSRGraph,
    config: FDiamConfig | None = None,
    *,
    deadline: float | None = None,
    warm=None,
) -> tuple[DiameterResult, FDiamState]:
    """Compute the exact diameter of ``graph`` with the F-Diam algorithm.

    Parameters
    ----------
    graph:
        Undirected, unweighted graph (any :class:`CSRGraph`); may be
        disconnected.
    config:
        Tunables and ablation switches; defaults to the full algorithm
        with the vectorized engine.
    warm:
        Optional warm-start artifacts from a previous run on the *same*
        graph (:class:`repro.cache.WarmArtifacts` or anything with the
        same ``witness`` / ``diameter`` / ``status`` / winnow-ball
        attributes). The caller is responsible for the graph match
        (the cache layer enforces it by content digest). Exactness
        never rests on the cache: one fresh BFS from the cached witness
        establishes a true diameter lower bound; when it reproduces the
        cached diameter, every cached upper bound is a certificate at
        or below it and the run finishes after that single traversal.
        When it does not (inconsistent artifacts), a warning is issued,
        no cached facts are applied, and the normal
        Winnow/Chain/Eliminate machinery runs cold — only the witness
        BFS's own eccentricity is kept as the initial bound — so the
        result is exact either way. Artifacts whose
        shape does not match the graph are ignored with a warning.
    deadline:
        Optional ``time.perf_counter()`` instant after which the run
        aborts with :class:`~repro.errors.BenchmarkTimeout` — the same
        per-input budget mechanism the baselines use, mirroring the
        paper's 2.5-hour cap (which F-Diam itself never hit, but the
        ablated variants in Table 5/Figure 9 do). The deadline is
        threaded into the run's traversal kernel, so it is enforced at
        every BFS *level* — a huge 2-sweep, Winnow, or Extend phase
        aborts mid-traversal instead of only between eccentricity
        calls.

    Returns
    -------
    (DiameterResult, FDiamState)
        The result plus the final run state (per-vertex status and
        removal attribution), which the invariant tests and the
        analysis examples inspect.

    Raises
    ------
    AlgorithmError
        If the graph has no vertices.
    BenchmarkTimeout
        If ``deadline`` passes mid-run.
    """
    if graph.num_vertices == 0:
        raise AlgorithmError("fdiam() requires a graph with at least one vertex")
    state = FDiamState(graph, config or FDiamConfig(), deadline=deadline)
    start, connected = initial_stages(state, warm)
    main_loop(state, start)
    if state.oracle is not None:
        state.oracle.check_final(state, state.bound, connected)
    result = DiameterResult(
        diameter=state.bound,
        connected=connected,
        infinite=not connected,
        stats=state.stats,
    )
    return result, state


def initial_stages(state: FDiamState, warm=None) -> tuple[int, bool]:
    """Algorithm 1 lines 1-5: everything before the main loop.

    Removes degree-0 vertices, sets the initial bound (2-sweep, or one
    witness BFS when ``warm``), then Winnows and runs Chain Processing —
    or, for a verified warm start, discharges every vertex from the
    cached certificates. Returns the Winnow centre (later extensions
    reuse it) and whether the graph is connected.
    """
    config, stats = state.config, state.stats
    graph = state.graph
    n = graph.num_vertices

    with stats.timing("other"):
        # Degree-0 vertices have eccentricity 0 and require no BFS
        # (paper Table 4's last column).
        isolated = graph.isolated_vertices()
        if len(isolated):
            state.remove(isolated, np.int64(0), Reason.DEGREE_ZERO)
        start = graph.max_degree_vertex() if config.use_max_degree_start else 0
        if warm is not None and not _warm_usable(warm, n):
            warnings.warn(
                "warm-start artifacts do not match the graph shape; "
                "running cold",
                stacklevel=3,
            )
            warm = None

    # ------------------------------------------------------------------
    # Initial bound (Algorithm 1 lines 1-3) — or, warm, one verifying
    # BFS from the cached diameter witness.
    # ------------------------------------------------------------------
    with stats.timing("init_bfs"):
        if warm is not None:
            witness = int(warm.witness)
            if not 0 <= witness < n:
                witness = start
            sweep = witness_sweep(state, witness)
            stats.warm_start = True
            stats.warm_verified = sweep.bound == int(warm.diameter)
        else:
            sweep = two_sweep(state, start)
    state.bound = sweep.bound
    stats.initial_bound = sweep.bound
    connected = sweep.visited_from_start == n
    if state.oracle is not None:
        state.oracle.check_stage(state, "two-sweep")

    # ------------------------------------------------------------------
    # Bulk pruning (Algorithm 1 lines 4-5). A *verified* warm start
    # (the witness reproduced the cached diameter) replaces all of it:
    # the cold run proved no eccentricity exceeds the cached diameter,
    # so every vertex is discharged by certificate and the main loop
    # finds nothing active. An unverified warm start falls back to the
    # full pruning machinery, seeded with whatever cached facts remain
    # valid under the fresh witness bound.
    # ------------------------------------------------------------------
    if warm is not None and stats.warm_verified:
        if config.use_winnow and _restore_warm_ball(state, warm):
            # Later winnow extensions must use the pinned centre.
            start = int(warm.winnow_center)
        with stats.timing("other"):
            _apply_warm_certificates(state, warm)
    else:
        if warm is not None:
            # An inconsistent sidecar discredits *all* of its claims, so
            # none of the cached facts are applied; the witness BFS's
            # eccentricity is its own (real) fact and is kept as the
            # initial bound for an otherwise cold run.
            warnings.warn(
                f"warm-start witness eccentricity {sweep.bound} does not "
                f"reproduce the cached diameter {int(warm.diameter)}; "
                "distrusting the cached certificates and running cold",
                stacklevel=3,
            )
        if config.use_winnow:
            with stats.timing("winnow"):
                winnow(state, start, state.bound)
        if config.use_chain:
            with stats.timing("chain"):
                process_chains(state)
            # Chain-tip batching (config.chain_tip_batch) may have raised
            # the bound past the 2-sweep value; resume the incremental
            # winnow so the wider ball prunes before the main loop starts.
            if config.use_winnow and state.bound > sweep.bound:
                with stats.timing("winnow"):
                    winnow(state, start, state.bound)
    return start, connected


def main_loop(
    state: FDiamState,
    start: int,
    batch: int | None = None,
    *,
    lanes: bool = True,
) -> None:
    """Algorithm 1 lines 6-21: evaluate what the pruning left active.

    ``pending`` — the still-active vertices in scan order — is found
    in one vectorized pass; the scan then only has to skip the ones
    later pruning removes, since nothing reactivates a vertex once the
    main loop starts. Each round claims the next ``batch`` pending
    vertices that are still active and evaluates them: one scalar BFS
    for a lone vertex, else one lane sweep (``lanes``) or one scalar BFS
    each. The results are applied in scan order, exactly as the serial
    loop would: a member still active at its turn is removed as
    COMPUTED and either raises the bound (winnow + extend) or runs
    Eliminate. A member an earlier one pruned is a *redundant
    evaluation* — the serial loop never evaluates it — and is dropped,
    so the run's state evolves exactly as the serial loop's and the
    logical BFS count grows by exactly the redundant evaluations.

    ``batch=None`` takes the size from :func:`ecc_batch_size`; a forced
    ``batch`` with ``lanes=False`` is the paper's concurrent-BFS study
    (:mod:`repro.core.concurrent`).
    """
    config, stats = state.config, state.stats
    n = state.graph.num_vertices
    if config.order == "random":
        order = np.random.default_rng(config.seed).permutation(n)
    else:
        order = np.arange(n)
    status = state.status
    deadline = state.kernel.deadline
    pending = order[status[order] == ACTIVE]
    if batch is None:
        batch, reason = ecc_batch_size(state, len(pending))
    else:
        reason = f"forced batch of {batch}, scalar evaluation"
    stats.ecc_batch, stats.ecc_batch_reason = batch, reason

    cursor = 0
    while True:
        members, cursor = _claim(status, pending, cursor, batch)
        if not len(members):
            break
        if deadline is not None and time.perf_counter() > deadline:
            raise BenchmarkTimeout(
                f"F-Diam exceeded its time budget after "
                f"{stats.eccentricity_bfs} eccentricity BFS calls"
            )
        with stats.timing("ecc_bfs"):
            if lanes and len(members) > 1:
                eccs = state.ecc_lanes(members).tolist()
            else:
                eccs = [state.ecc_bfs(v).eccentricity for v in members.tolist()]

        for v, ecc_v in zip(members.tolist(), eccs):
            if state.oracle is not None:
                state.oracle.check_computed(state, v, ecc_v)
            if status[v] != ACTIVE:
                stats.redundant_evaluations += 1
                continue
            state.remove(v, np.int64(ecc_v), Reason.COMPUTED)
            if ecc_v > state.bound:
                old = state.bound
                state.bound = ecc_v
                stats.bound_updates += 1
                if config.use_winnow:
                    with stats.timing("winnow"):
                        winnow(state, start, state.bound)
                if config.use_eliminate:
                    with stats.timing("eliminate"):
                        extend_eliminated(state, old, state.bound)
            elif config.use_eliminate and ecc_v < state.bound:
                with stats.timing("eliminate"):
                    eliminate(state, v, ecc_v, state.bound)
            # ecc_v == bound: "F-Diam only eliminates v" — done above.


def ecc_batch_size(state: FDiamState, pending: int) -> tuple[int, str]:
    """Main-loop batch size for ``state.config.ecc_lanes``, with its reason.

    ``"auto"`` batches 64 lanes only on a hub-heavy graph (the cost
    model's degree-skew test) whose bound the cost model's lane verdict
    accepts for ``min(64, pending)`` lanes: within the lane level cap
    and with at least 8 lanes filled. Everywhere else — meshes, road
    maps, anything with a long bound — the main loop's Eliminates do
    prune each other's vertices, so it runs one BFS at a time.
    """
    mode = state.config.ecc_lanes
    if mode == "off":
        return 1, "ecc_lanes='off'"
    if mode == "on":
        return LANE_WIDTH, "ecc_lanes='on'"
    # Call-time import: repro.parallel sits above the core layer.
    from repro.parallel.costmodel import LevelSynchronousCostModel

    graph = state.graph
    model = LevelSynchronousCostModel()
    n, m = graph.num_vertices, graph.num_directed_edges
    max_degree = graph.max_degree()
    if not model.hub_heavy(n, m, max_degree):
        skew = max_degree * n / m if m else 0.0
        return 1, (
            f"degree skew {skew:.1f} below hub skew {model.params.hub_skew:.1f}"
        )
    ok, reason = model.lane_batch_verdict(state.bound, min(LANE_WIDTH, pending))
    if not ok:
        return 1, reason
    return LANE_WIDTH, (
        f"hub-heavy, bound {state.bound} within lane level cap "
        f"{model.params.lane_level_cap}"
    )


def _claim(
    status: np.ndarray, pending: np.ndarray, cursor: int, batch: int
) -> tuple[np.ndarray, int]:
    """The next ``batch`` still-active pending vertices, and the new cursor."""
    if batch == 1:
        while cursor < len(pending):
            cursor += 1
            if status[pending[cursor - 1]] == ACTIVE:
                return pending[cursor - 1 : cursor], cursor
        return pending[:0], cursor
    parts = []
    found = 0
    while found < batch and cursor < len(pending):
        window = pending[cursor : cursor + batch - found]
        cursor += len(window)
        live = window[status[window] == ACTIVE]
        parts.append(live)
        found += len(live)
    if not parts:
        return pending[:0], cursor
    return np.concatenate(parts), cursor


# ----------------------------------------------------------------------
# Warm-start helpers (the cache layer builds the artifacts; exactness
# is enforced here, where the fresh witness bound lives).
# ----------------------------------------------------------------------
def _warm_usable(warm, n: int) -> bool:
    """Whether the artifacts are structurally valid for an ``n``-graph."""
    status = getattr(warm, "status", None)
    if status is None or len(status) != n:
        return False
    return getattr(warm, "witness", None) is not None


def _apply_warm_certificates(state: FDiamState, warm) -> None:
    """Discharge every active vertex from the verified cached run.

    Sound because the witness BFS reproduced the cached diameter ``D``
    on this exact graph: the cold run's completed search proved
    ``ecc(v) <= D`` for *every* vertex, so ``D`` (tightened to the
    cached per-vertex value where one was recorded) is a valid upper
    bound at or below the current true lower bound — exactly the
    condition under which F-Diam removes a vertex without a traversal.
    """
    status = np.asarray(warm.status, dtype=np.int64)
    bound = np.int64(state.bound)
    numeric = (status >= 0) & (status < MAX_BOUND)
    ub = np.where(numeric, np.minimum(status, bound), bound)
    active = np.flatnonzero(state.active_mask())
    if len(active):
        state.remove_bounded(active, ub[active], Reason.WARM)


def _restore_warm_ball(state: FDiamState, warm) -> bool:
    """Re-adopt the cached winnow ball; True on success.

    Only called on the verified path, where the witness bound equals
    the cached diameter — the ``radius <= bound // 2`` recheck is then
    exactly the condition the cold run grew the ball under, but it is
    enforced again here so a sidecar carrying an oversized ball can
    never smuggle an unsound discard past the witness verification.
    """
    n = state.graph.num_vertices
    center = int(getattr(warm, "winnow_center", -1))
    radius = int(getattr(warm, "winnow_radius", 0))
    visited = getattr(warm, "winnow_visited", None)
    frontier = getattr(warm, "winnow_frontier", None)
    if not 0 <= center < n or visited is None or len(visited) != n:
        return False
    if frontier is None or radius > state.bound // 2:
        return False
    with state.stats.timing("winnow"):
        restore_winnow(state, center, radius, visited, frontier)
        ball = np.flatnonzero(np.asarray(warm.status, dtype=np.int64) == WINNOWED)
        if len(ball):
            state.remove(ball, WINNOWED, Reason.WARM)
    return True
