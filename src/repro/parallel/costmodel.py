"""Level-synchronous parallel cost model.

This machine has a single CPU core, so the paper's thread-scaling study
(Figure 7, 1–64 threads on a 32-core Threadripper) cannot be measured
directly. Instead we *model* it — not from thin air, but from real
measured per-level traces of the vectorized BFS runs (frontier sizes and
edges examined per level, collected by
:class:`repro.bfs.instrumentation.BFSTrace`).

The model captures the three effects the paper identifies as limiting
scalability (§6.2):

1. **Per-level parallelism is bounded by the frontier.** A level with
   ``f`` frontier vertices split into chunks of size ``C`` can occupy at
   most ``ceil(f / C)`` threads — "the BFS traversals start out with
   little parallelism and may end with little as well".
2. **Memory bandwidth saturates.** Irregular neighbour gathers are
   bandwidth-bound; beyond ``bandwidth_threads`` concurrent threads,
   extra threads add no throughput — "the main-memory bandwidth does
   not scale with the core count on this irregular computation".
3. **Barriers cost.** Every level ends in a synchronization whose cost
   grows (logarithmically) with the team size; high-diameter graphs pay
   thousands of barriers per BFS.

Per level: ``t(T) = e / (r * T_eff) + t_barrier(T)`` with
``T_eff = min(T, ceil(f / C), B)``, where ``e`` is edges examined,
``r`` the single-thread edge rate, and ``B`` the bandwidth ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, log2, sqrt

from repro.bfs.instrumentation import BFSTrace
from repro.errors import AlgorithmError
from repro.parallel.chunking import DEFAULT_CHUNK_SIZE

__all__ = [
    "CostModelParams",
    "LevelSynchronousCostModel",
    "ReductionGates",
    "LANE_WIDTH",
]

#: Lanes per machine word (mirrors :data:`repro.bfs.bitparallel.LANE_WIDTH`
#: without importing the BFS layer into the model).
LANE_WIDTH = 64


@dataclass(frozen=True)
class CostModelParams:
    """Calibration constants of the cost model.

    Defaults are calibrated so a 32-thread configuration reproduces the
    paper's qualitative Figure 7: geometric-mean speedup in the single
    digits, saturating at the physical core count, with low-diameter
    power-law graphs near the bandwidth ceiling and high-diameter road
    maps barrier-bound.
    """

    #: Edges processed per second by one thread (normalizes time units).
    edge_rate: float = 25e6
    #: Worklist chunk size (paper's per-thread chunks).
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Effective thread ceiling from memory-bandwidth saturation. The
    #: paper's Threadripper keeps scaling to its 32 physical cores with
    #: diminishing returns; 26 effective threads reproduces that knee.
    bandwidth_threads: float = 26.0
    #: Barrier latency for a 2-thread team, seconds; grows as log2(T).
    #: Chosen relative to the *analog* graph sizes: the benchmark inputs
    #: are ~64x smaller than the paper's, so per-level compute shrinks
    #: by ~64x while a real barrier would not — a paper-scale barrier
    #: constant would overstate synchronization cost by that factor.
    barrier_base: float = 2.0e-7
    #: Fixed per-BFS launch overhead, seconds.
    bfs_overhead: float = 5.0e-6
    #: Degree skew (max degree over average degree) above which a graph
    #: counts as hub-heavy (:meth:`.hub_heavy`): small-world ``~log n``
    #: scaling instead of mesh/road ``~sqrt n`` scaling for
    #: :meth:`.estimate_diameter`, and lane-batched eccentricities
    #: (chain-tip anchors and the main loop) in F-Diam.
    hub_skew: float = 4.0
    #: Largest estimated diameter at which a lane sweep (spectrum
    #: bounding rounds, F-Diam's eccentricities, 64 sources per word) still
    #: beats scalar BFS. Beyond it the per-level word traffic over
    #: hundreds of near-empty levels eats the shared-gather saving.
    lane_level_cap: int = 64
    #: Minimum fill of the trailing lane word for a sweep to pay off;
    #: 0.125 = at least 8 of 64 lanes in use.
    lane_min_occupancy: float = 0.125
    #: Vertices-plus-arcs a structural reduction stage (peel / collapse)
    #: processes per second. Measured on the pinned analogs: the pure-
    #: numpy peel and mirror passes stream the CSR at 1-2M items/s, an
    #: order of magnitude below the BFS gather rate.
    prep_edge_rate: float = 2e6
    #: Expected traversal count of a full F-Diam run, used to size the
    #: work a reduction could save before any BFS has run (the paper's
    #: Table 3 counts sit around two dozen across both regimes).
    prep_bfs_estimate: float = 24.0
    #: BFS-work saving per unit of degree-1 vertex fraction: peeling a
    #: pendant tree removes more vertices than its leaves (the whole
    #: subtree hangs off them), so the leaf fraction undercounts.
    peel_gain: float = 4.0
    #: BFS-work saving per unit of mirror-candidate fraction. Collapse
    #: only removes a vertex when the candidate signature is confirmed
    #: by a full adjacency comparison, so the proxy overcounts; the
    #: gain stays below 1 to compensate.
    collapse_gain: float = 0.5
    #: Fraction of traversal time a cache-friendly vertex order can
    #: recover once the CSR spills the last-level cache.
    reorder_gain: float = 0.2
    #: Last-level cache size; reordering a graph whose CSR already fits
    #: in cache cannot improve locality, whatever the edge span says.
    llc_bytes: int = 32 * 2**20
    #: Fixed cost of dispatching one round through the multiprocess
    #: sweep backend: queue round-trips, the per-round shared output
    #: segment, and waking the (already warm) workers. The pool and the
    #: shared CSR are paid once per executor, not per round, so this is
    #: deliberately small — but a round whose serial BFS work is below
    #: it should never leave the process.
    process_overhead_s: float = 5e-3
    #: Largest fraction of the graph a level-capped expansion may be
    #: expected to touch for the block-decoding gather path
    #: (:meth:`repro.store.CompressedCSR.gather_rows`) to win over the
    #: decoded-array gather. Varint-decoding a block costs roughly an
    #: order of magnitude more per arc than slicing the decoded
    #: ``indices``, but it touches only the frontier's blocks — so it
    #: pays exactly when the expansion stays tiny (Eliminate probes,
    #: Winnow balls, ``ball()`` queries) and the full decoded arrays
    #: would be dragged through cache for a handful of rows.
    block_gather_fraction: float = 0.05
    #: Smallest fraction of the decoded image a byte-denominated block
    #: cache must be able to hold for cached block gathers to beat pure
    #: streaming. Measured far lower than intuition suggests: on
    #: powerlaw-10M a 64 KiB cache (1/1480 of the image) still beat
    #: zero retention 1.4x, because the LRU keeps at least the last
    #: block resident and hub blocks are requested by almost every
    #: frontier. Only a budget too small to matter at all (the cache
    #: churns before even a hub block is revisited) should stream.
    cache_min_fraction: float = 1.0 / 16384.0
    #: Multiplier the full decoded image must fit under the memory
    #: budget by for the full ``to_graph()`` decode to be chosen: the
    #: decode transient (varint values + delta scratch) briefly needs
    #: more than the final arrays.
    decode_headroom: float = 1.5

    def __post_init__(self) -> None:
        if self.edge_rate <= 0 or self.chunk_size < 1 or self.bandwidth_threads < 1:
            raise AlgorithmError("invalid cost model parameters")
        if self.hub_skew < 1 or self.lane_level_cap < 1:
            raise AlgorithmError("invalid cost model parameters")
        if not 0 < self.lane_min_occupancy <= 1:
            raise AlgorithmError("invalid cost model parameters")
        if self.prep_edge_rate <= 0 or self.prep_bfs_estimate <= 0:
            raise AlgorithmError("invalid cost model parameters")
        if min(self.peel_gain, self.collapse_gain, self.reorder_gain) <= 0:
            raise AlgorithmError("invalid cost model parameters")
        if self.llc_bytes < 1:
            raise AlgorithmError("invalid cost model parameters")
        if self.process_overhead_s <= 0:
            raise AlgorithmError("invalid cost model parameters")
        if not 0 < self.block_gather_fraction <= 1:
            raise AlgorithmError("invalid cost model parameters")
        if not 0 < self.cache_min_fraction <= 1:
            raise AlgorithmError("invalid cost model parameters")
        if self.decode_headroom < 1:
            raise AlgorithmError("invalid cost model parameters")


# No caller in src/; kept because perfbench/instrument.py reads its verdicts.
@dataclass(frozen=True)
class ReductionGates:
    """Payoff verdict for the structural prep stages of one run.

    ``True`` means the stage's modeled saving covers its modeled cost;
    ``gated`` lists the stages that were vetoed (canonical token names),
    in pipeline order, for the run statistics.
    """

    peel: bool
    collapse: bool
    reorder: bool

    @property
    def gated(self) -> tuple[str, ...]:
        out = []
        if not self.peel:
            out.append("peel")
        if not self.collapse:
            out.append("collapse")
        if not self.reorder:
            out.append("reorder")
        return tuple(out)


class LevelSynchronousCostModel:
    """Predict parallel BFS runtimes from measured level traces."""

    def __init__(self, params: CostModelParams | None = None):
        self.params = params or CostModelParams()

    def level_time(self, frontier_size: int, edges: int, num_threads: int) -> float:
        """Modeled wall-clock seconds for one BFS level."""
        if num_threads < 1:
            raise AlgorithmError("num_threads must be >= 1")
        p = self.params
        max_chunk_parallelism = max(1, ceil(frontier_size / p.chunk_size))
        t_eff = min(float(num_threads), float(max_chunk_parallelism), p.bandwidth_threads)
        compute = edges / (p.edge_rate * t_eff)
        barrier = p.barrier_base * log2(num_threads) if num_threads > 1 else 0.0
        return compute + barrier

    def trace_time(self, trace: BFSTrace, num_threads: int) -> float:
        """Modeled seconds for one full BFS traversal."""
        total = self.params.bfs_overhead
        for level in trace.levels:
            total += self.level_time(
                level.frontier_size, level.edges_examined, num_threads
            )
        return total

    def run_time(self, traces: list[BFSTrace], num_threads: int) -> float:
        """Modeled seconds for a whole run (sum of its traversals)."""
        return sum(self.trace_time(t, num_threads) for t in traces)

    def speedup(self, traces: list[BFSTrace], num_threads: int) -> float:
        """Modeled speedup of ``num_threads`` over one thread."""
        t1 = self.run_time(traces, 1)
        tn = self.run_time(traces, num_threads)
        if tn <= 0:
            raise AlgorithmError("degenerate trace set (zero modeled time)")
        return t1 / tn

    # ------------------------------------------------------------------
    # Structural advisability (no trace required)
    # ------------------------------------------------------------------
    def estimate_diameter(
        self, num_vertices: int, num_directed_edges: int, max_degree: int
    ) -> int:
        """Structural diameter estimate — no BFS, just size and skew.

        Hub-heavy graphs (``max_degree >= hub_skew * average_degree``)
        get small-world scaling ``~2 log n / log(avg_degree)``; low-skew
        graphs (grids, triangulations, road maps) get the mesh scaling
        ``~1.5 sqrt(n)``. Deliberately coarse: its one job is to put a
        graph on the right side of the lane-level caps before any
        traversal has run, and the two regimes differ by orders of
        magnitude there.
        """
        if num_vertices <= 1:
            return 0
        if self.hub_heavy(num_vertices, num_directed_edges, max_degree):
            estimate = 2.0 * log(num_vertices) / log(num_directed_edges / num_vertices)
        else:
            estimate = 1.5 * sqrt(num_vertices)
        return max(1, ceil(estimate))

    def hub_heavy(
        self, num_vertices: int, num_directed_edges: int, max_degree: int
    ) -> bool:
        """Whether ``max_degree >= hub_skew * average_degree`` (average above 1).

        The small-world test behind :meth:`estimate_diameter`, also the
        structural half of F-Diam's main-loop lane gate: on hub-heavy
        graphs most vertices left for the main loop have eccentricity
        equal to the bound, so their Eliminates prune nothing and a
        lane batch wastes little.
        """
        if num_vertices <= 0:
            return False
        average = num_directed_edges / num_vertices
        return average > 1.0 and max_degree >= self.params.hub_skew * average

    # No caller in src/; kept because perfbench/instrument.py patches it.
    def reduction_gates(
        self,
        *,
        num_vertices: int,
        num_directed_edges: int,
        deg1_count: int,
        graph_bytes: int,
        mirror_candidates=None,
    ) -> ReductionGates:
        """Decide which structural reductions pay their own wall-clock.

        Every stage is an O(n + m) pass over the CSR whose modeled cost
        is ``(n + m) / prep_edge_rate``; it pays off only when the
        traversal work it can plausibly remove from the expected
        ``prep_bfs_estimate`` BFS calls exceeds that cost:

        * **peel** saves in proportion to the pendant-tree mass, lower-
          bounded by the degree-1 vertex fraction times ``peel_gain``;
        * **collapse** saves at most the mirror-candidate fraction
          (vertices sharing a degree/neighbour-sum signature) times
          ``collapse_gain`` — ``mirror_candidates`` is a zero-argument
          callable evaluated lazily, and only when the stage could pay
          off even at 100 % candidate density (the proxy itself costs
          an O(m) pass, which must not be burned on hopeless inputs);
        * **reorder** saves nothing while the CSR fits the last-level
          cache, and at most ``reorder_gain`` of the run beyond it.

        The ratios are scale-free in ``n + m``, so the verdicts reflect
        graph *structure*: pendant-rich or mirror-rich inputs keep
        their reductions at any size, while the pinned benchmark
        analogs (0.4-0.8 % degree-1 vertices, sub-cache CSR) gate all
        three.
        """
        p = self.params
        n, m = max(num_vertices, 1), max(num_directed_edges, 0)
        run_s = p.prep_bfs_estimate * m / p.edge_rate
        stage_s = (n + m) / p.prep_edge_rate
        peel = p.peel_gain * (deg1_count / n) * run_s >= stage_s
        collapse = p.collapse_gain * run_s >= stage_s
        if collapse and mirror_candidates is not None:
            candidates = mirror_candidates()
            collapse = p.collapse_gain * (candidates / n) * run_s >= stage_s
        reorder = (
            graph_bytes > p.llc_bytes
            and p.reorder_gain * run_s >= stage_s
        )
        return ReductionGates(peel=peel, collapse=collapse, reorder=reorder)

    def lane_batch_verdict(self, diameter_estimate: int, lanes: int) -> tuple[bool, str]:
        """:meth:`lane_batch_advisable` plus the *reason* for a veto.

        The reason string is what the ``--spectrum`` report and the
        bench JSON surface for a lane fallback (a bare flag cannot tell
        a road map that tripped the level cap from a near-empty
        trailing word), so the vocabulary is small and stable:
        ``"single lane cannot amortize a sweep"``, ``"lane occupancy F
        below minimum M"``, and ``"estimated diameter D exceeds lane
        level cap C"``. An advisable batch returns ``(True, "")``.
        """
        if lanes <= 1:
            return False, "single lane cannot amortize a sweep"
        words = ceil(lanes / LANE_WIDTH)
        occupancy = lanes / (words * LANE_WIDTH)
        if occupancy < self.params.lane_min_occupancy:
            return False, (
                f"lane occupancy {occupancy:.3f} below minimum "
                f"{self.params.lane_min_occupancy:.3f}"
            )
        cap = self.params.lane_level_cap
        if diameter_estimate > cap:
            return False, (
                f"estimated diameter {diameter_estimate} exceeds lane level cap {cap}"
            )
        return True, ""

    def lane_batch_advisable(self, diameter_estimate: int, lanes: int) -> bool:
        """Whether a ``lanes``-source sweep should beat the scalar path.

        Two gates, matching the two ways lane sweeps lose in practice:
        the expected level count (``diameter_estimate`` against
        :attr:`~CostModelParams.lane_level_cap`), and the fill of the
        trailing lane word (fewer than ``lane_min_occupancy * 64``
        sources per word cannot amortize the per-level sweep overhead). :meth:`lane_batch_verdict` is the
        same gate with the veto reason attached.
        """
        ok, _ = self.lane_batch_verdict(diameter_estimate, lanes)
        return ok

    def choose_backend(
        self,
        *,
        num_sources: int,
        num_vertices: int,
        num_directed_edges: int,
        max_degree: int,
        workers: int = 1,
        lanes: int = LANE_WIDTH,
        shm_ok: bool = True,
    ) -> str:
        """Pick the sweep backend for a fan-out of ``num_sources`` BFS roots.

        The method that turns this model from a predictor into a
        dispatcher (it is what ``backend="auto"`` in
        :func:`repro.parallel.sweep.create_executor` calls). Three-way
        decision, cheapest structural signals only:

        * ``"multiprocess"`` when the caller brought a team
          (``workers >= 2``), shared memory works, the round has at
          least two sources per worker to hand out, and the modeled
          serial sweep time of the round — ``ceil(k / lanes) * m /
          edge_rate`` gather passes — exceeds
          :attr:`~CostModelParams.process_overhead_s` by more than the
          team could claw back (``serial_s * (1 - 1/workers)``);
        * else ``"bitparallel"`` when :meth:`lane_batch_advisable` says
          a lane sweep of ``min(num_sources, lanes)`` sources beats
          scalar BFS on this structure;
        * else ``"serial"``.
        """
        k = max(int(num_sources), 0)
        m = max(int(num_directed_edges), 0)
        estimate = self.estimate_diameter(num_vertices, m, max_degree)
        lanes = max(1, min(int(lanes), k if k else 1))
        use_lanes = self.lane_batch_advisable(estimate, lanes)
        if workers >= 2 and shm_ok and k >= 2 * workers:
            passes = ceil(k / lanes) if use_lanes else k
            serial_s = passes * m / self.params.edge_rate
            if serial_s * (1.0 - 1.0 / workers) > self.params.process_overhead_s:
                return "multiprocess"
        return "bitparallel" if use_lanes else "serial"

    # No caller in src/; kept because perfbench/instrument.py patches it.
    def choose_gather_path(
        self,
        *,
        num_sources: int,
        max_level: int | None,
        num_vertices: int,
        num_directed_edges: int,
    ) -> tuple[str, str]:
        """Pick the gather path for one multi-source level expansion.

        Returns ``("blocks" | "decoded", reason)``. Same reason-string
        contract as :meth:`lane_batch_verdict`: a small stable
        vocabulary the workspace report can surface.

        The expected touched-vertex count of a ``max_level``-capped
        expansion from ``k`` sources is modeled as
        ``min(n, k * avg_degree ** max_level)`` (computed in log space
        so deep caps cannot overflow); the block path wins only when
        that stays within
        :attr:`~CostModelParams.block_gather_fraction` of the graph —
        beyond it, per-block varint decoding re-pays the full-decode
        cost with none of the locality benefit.
        """
        n = max(int(num_vertices), 1)
        if max_level is None:
            return "decoded", "uncapped expansion reaches the whole component"
        k = max(int(num_sources), 1)
        avg = max(num_directed_edges / n, 1.0)
        log_touched = log(k) + max_level * log(avg) if avg > 1.0 else log(k)
        fraction = 1.0 if log_touched >= log(n) else min(
            (k * avg**max_level) / n, 1.0
        )
        limit = self.params.block_gather_fraction
        if fraction <= limit:
            return "blocks", (
                f"expected touch fraction {fraction:.4f} within "
                f"block gather fraction {limit:g}"
            )
        return "decoded", (
            f"expected touch fraction {fraction:.4f} exceeds "
            f"block gather fraction {limit:g}"
        )

    # No caller in src/; kept because perfbench/instrument.py patches it.
    def choose_memory_mode(
        self, *, decoded_bytes: int, budget_bytes: int | None
    ) -> tuple[str, str]:
        """Route a traversal by memory pressure over a compressed store.

        Returns ``("decode" | "cached" | "stream", reason)``. Same
        reason-string contract as :meth:`lane_batch_verdict`: small,
        stable vocabulary.

        * ``"decode"`` — no budget, or the full decoded image (times
          :attr:`~CostModelParams.decode_headroom` for the decode
          transient) fits it: the in-memory arrays are strictly faster
          than any block path.
        * ``"cached"`` — the budget cannot hold the decoded image but
          affords a block cache of at least
          :attr:`~CostModelParams.cache_min_fraction` of it: gather
          through the byte-capped LRU.
        * ``"stream"`` — the budget is below even a useful cache:
          decode blocks per gather and retain nothing, so the decoded
          working set never exceeds one frontier's blocks.
        """
        if budget_bytes is None:
            return "decode", "no memory budget set"
        decoded = max(int(decoded_bytes), 1)
        budget = max(int(budget_bytes), 0)
        if decoded * self.params.decode_headroom <= budget:
            return "decode", (
                f"decoded image {decoded} B fits budget {budget} B "
                f"with {self.params.decode_headroom:g}x headroom"
            )
        if budget >= self.params.cache_min_fraction * decoded:
            return "cached", (
                f"budget {budget} B affords a block cache >= "
                f"{self.params.cache_min_fraction:g} of the decoded image"
            )
        return "stream", (
            f"budget {budget} B below minimum useful cache "
            f"({self.params.cache_min_fraction:g} of {decoded} B decoded)"
        )
