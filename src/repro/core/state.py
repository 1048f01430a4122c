"""Shared mutable state of one F-Diam run.

The paper's Algorithms 1–5 communicate through three pieces of shared
state: the per-vertex eccentricity slots (where any write also removes
the vertex from consideration), the visit-counter array, and the current
diameter bound. :class:`FDiamState` bundles them together with the
first-touch removal bookkeeping needed for the Table 4 statistics and
the saved Winnow frontier needed for incremental extension (§4.5).

Status encoding (per-vertex ``int64``)
--------------------------------------
* ``ACTIVE``   (``2**62``)     — eccentricity still needs consideration.
* ``MAX_BOUND``(``ACTIVE - 1``)— the ``MAX`` constant of Algorithm 4.
* ``WINNOWED`` (``-1``)        — removed by Winnow; carries no bound.
* any other value ``b``        — removed; ``b`` is a valid upper bound
  on the vertex's eccentricity (it equals the true eccentricity when
  the vertex was explicitly evaluated).

Following the paper, a vertex's status is written at most once per
partial BFS but *may* be overwritten across calls; every write is a
valid upper bound, so overwrites never violate the invariant
``status[v] >= ecc(v)`` for removed vertices (checked property-based in
the test suite).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bitparallel import LANE_WIDTH
from repro.bfs.kernel import BFSResult, TraversalKernel
from repro.core.config import FDiamConfig
from repro.core.stats import FDiamStats, Reason
from repro.graph.csr import CSRGraph

__all__ = ["ACTIVE", "MAX_BOUND", "WINNOWED", "FDiamState", "ecc_batch_size"]

#: Sentinel for "still under consideration".
ACTIVE = np.int64(2**62)
#: The ``MAX`` pseudo-eccentricity used by Chain Processing
#: (paper: "The constant MAX is INT_MAX - 1").
MAX_BOUND = ACTIVE - 1
#: Marker for vertices removed by Winnow (no bound information).
WINNOWED = np.int64(-1)


class FDiamState:
    """Mutable state threaded through every stage of one run."""

    __slots__ = (
        "graph",
        "config",
        "stats",
        "status",
        "reason",
        "kernel",
        "marks",
        "bound",
        "winnow_center",
        "winnow_radius",
        "winnow_frontier",
        "winnow_visited",
        "oracle",
    )

    def __init__(
        self,
        graph: CSRGraph,
        config: FDiamConfig,
        *,
        deadline: float | None = None,
    ):
        self.graph = graph
        self.config = config
        self.stats = FDiamStats(
            num_vertices=graph.num_vertices, num_edges=graph.num_edges
        )
        #: Per-vertex status (see module docstring for the encoding).
        self.status = np.full(graph.num_vertices, ACTIVE, dtype=np.int64)
        #: First-touch removal attribution per vertex (Reason values).
        self.reason = np.full(graph.num_vertices, Reason.ACTIVE, dtype=np.uint8)
        #: The run's shared traversal kernel: every stage (2-sweep,
        #: Winnow, Chain, Eliminate, Extend, eccentricity loop) routes
        #: its traversals through it, sharing one pooled workspace and
        #: the optional deadline (so even a single huge level loop
        #: aborts within one level of the budget expiring). An engine
        #: name outside the kernel's pair fails here, before any BFS.
        self.kernel = TraversalKernel(
            graph,
            engine=config.engine,
            threshold=config.threshold,
            directions=config.directions,
            deadline=deadline,
        )
        #: Shared visit counter (the paper's ``counter`` parameter) —
        #: an alias of the kernel workspace's marks.
        self.marks = self.kernel.workspace.marks
        self.stats.workspace = self.kernel.workspace.stats
        #: Current lower bound on the diameter.
        self.bound = 0

        # Incremental-Winnow bookkeeping (§4.5: "Incrementally extending
        # the winnowed region is trivial as it is centered around one
        # starting vertex"): the BFS around the winnow centre is resumed
        # from its saved frontier instead of restarted.
        self.winnow_center: int | None = None
        self.winnow_radius = 0
        self.winnow_frontier = np.empty(0, dtype=np.int64)
        self.winnow_visited = np.zeros(graph.num_vertices, dtype=bool)

        #: Invariant oracle (``config.verify``): every stage hook checks
        #: its writes against reference BFS distances. ``None`` in
        #: normal runs, so the hooks cost one attribute test.
        self.oracle = None
        if config.verify:
            # Call-time import: repro.verify sits above the core layer.
            from repro.verify.oracle import InvariantOracle

            self.oracle = InvariantOracle(graph)

    # ------------------------------------------------------------------
    # Removal primitives (every status write funnels through these so
    # the first-touch attribution stays consistent).
    # ------------------------------------------------------------------
    def remove(
        self, vertices: np.ndarray | int, value: np.int64, reason: Reason
    ) -> None:
        """Write ``value`` into the status of ``vertices``.

        Vertices that were still active are attributed to ``reason`` and
        receive ``value``. Vertices already removed keep their original
        attribution and keep the *tighter* of the two bounds — a safe
        refinement of the paper's unconditional overwrite (every write
        is a valid upper bound, so the minimum is too), which preserves
        the invariant that COMPUTED vertices record their exact
        eccentricity even when a later Chain/Eliminate wave re-crosses
        them. WINNOWED markers are terminal: a winnowed vertex is inside
        the one winnow ball forever, so numeric bounds neither replace
        the marker nor get replaced by it.
        """
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        current = self.status[vertices]
        newly = vertices[current == ACTIVE]
        if len(newly):
            self.stats.removed_by[reason] += len(newly)
            self.reason[newly] = reason
            self.status[newly] = value
        already = vertices[(current != ACTIVE) & (current != WINNOWED)]
        if len(already) and value != WINNOWED:
            self.status[already] = np.minimum(self.status[already], value)

    def remove_bounded(
        self, vertices: np.ndarray, values: np.ndarray, reason: Reason
    ) -> None:
        """Write per-vertex upper bounds in one vectorized pass.

        The warm-start bulk application of cached certificates: like
        :meth:`remove` but with an individual bound per vertex, under
        the same first-touch attribution and tighter-bound-wins merge
        rules. Every ``values[i]`` must be a valid upper bound on
        ``ecc(vertices[i])``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        current = self.status[vertices]
        newly = current == ACTIVE
        if newly.any():
            self.stats.removed_by[reason] += int(np.count_nonzero(newly))
            self.reason[vertices[newly]] = reason
            self.status[vertices[newly]] = values[newly]
        already = (current != ACTIVE) & (current != WINNOWED)
        if already.any():
            hit = vertices[already]
            self.status[hit] = np.minimum(self.status[hit], values[already])

    def remove_levels(
        self, levels: list[np.ndarray], base: int, reason: Reason
    ) -> None:
        """Write ``base + k + 1`` into level ``k``'s vertices (Alg. 5 body)."""
        for k, level in enumerate(levels):
            self.remove(level, np.int64(base + k + 1), reason)

    def reactivate(self, vertex: int) -> None:
        """Set a vertex back to ACTIVE (Chain Processing's tip rescue).

        Returns the attribution taken by whichever stage removed the
        vertex so the Table 4 percentages keep summing correctly.
        """
        if self.status[vertex] != ACTIVE:
            self.stats.removed_by[self.reason[vertex]] -= 1
            self.reason[vertex] = Reason.ACTIVE
            self.status[vertex] = ACTIVE

    # ------------------------------------------------------------------
    # Eccentricity BFS through the configured engine or a lane sweep
    # ------------------------------------------------------------------
    def ecc_bfs(self, vertex: int) -> BFSResult:
        """Run one counted eccentricity BFS with the configured engine.

        Central funnel for every eccentricity traversal of a run: it
        runs on the run's pooled kernel (engine, direction threshold,
        and deadline come from the config), collects traces when asked,
        and increments the Table 3 traversal counter.
        """
        self.stats.eccentricity_bfs += 1
        res = self.kernel.bfs(vertex, record_trace=self.config.keep_traces)
        if res.trace is not None:
            self.stats.traces.append(res.trace)
        return res

    def ecc_lanes(self, vertices: np.ndarray) -> np.ndarray:
        """Eccentricities of up to 64 vertices from one lane sweep.

        The batched counterpart of :meth:`ecc_bfs`: each lane is one
        logical eccentricity BFS under the Table 3 convention, and the
        sweep itself counts once in ``stats.ecc_sweeps``. The kernel's
        deadline is checked at every level of the sweep. Lane sweeps
        record no per-level traces. :func:`ecc_batch_size` decides when
        a run sweeps in lanes at all.
        """
        self.stats.eccentricity_bfs += len(vertices)
        self.stats.ecc_sweeps += 1
        return self.kernel.levels_batched64(vertices).eccentricities

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_mask(self) -> np.ndarray:
        """Boolean mask of all still-active vertices."""
        return self.status == ACTIVE

    def active_count(self) -> int:
        """Number of still-active vertices."""
        return int(np.count_nonzero(self.status == ACTIVE))

    def pick_witness(self, diameter: int) -> int:
        """A vertex whose eccentricity provably equals ``diameter``.

        Preferably one whose eccentricity was explicitly evaluated
        (COMPUTED); the bound-realizing vertex of a completed run always
        is, but fall back through any exact-status vertex to the
        max-degree start so degenerate runs still name a witness.
        """
        exact = self.status == diameter
        computed = exact & (self.reason == Reason.COMPUTED)
        if computed.any():
            return int(np.flatnonzero(computed)[0])
        if exact.any():
            return int(np.flatnonzero(exact)[0])
        return self.graph.max_degree_vertex()


def ecc_batch_size(state: FDiamState, pending: int) -> tuple[int, str]:
    """Lane batch size for ``state.config.ecc_lanes``, with its reason.

    The one rule behind every lane-swept eccentricity of a run: the
    surviving chain tips' anchors (:mod:`repro.core.chain`, with
    ``pending`` = the batchable tips) and the main loop (``pending`` =
    the still-active vertices) both ask it. ``"off"`` is the paper's
    one BFS at a time; ``"on"`` always sweeps 64 lanes. ``"auto"``
    sweeps only on a hub-heavy graph (the cost model's degree-skew
    test) whose bound the cost model's lane verdict accepts for
    ``min(64, pending)`` lanes: within the lane level cap and with at
    least 8 lanes filled. Everywhere else — meshes, road maps, anything
    with a long bound — the main loop's Eliminates do prune each
    other's vertices (chain tips included), so the run evaluates one
    vertex at a time.
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
