"""Per-run statistics of the F-Diam driver.

Everything the paper's evaluation section reports about a single run is
collected here:

* BFS-traversal counts under the Table 3 convention (eccentricity BFS
  plus Winnow calls; Eliminate excluded),
* per-stage removal counts — Winnow / Eliminate / Chain / degree-0 —
  as percentages of ``n`` (Table 4),
* per-stage wall-clock time (Figure 8),
* bound evolution (initial 2-sweep bound, number of upgrades, final
  diameter).

Removal attribution follows "first touch": the stage that removed a
vertex from consideration first owns it, even if a later stage's
partial BFS sweeps over it again, matching how the paper's counters
can sum to ~100 %.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np

from repro.bfs.instrumentation import BFSTrace
from repro.bfs.kernel import WorkspaceStats

#: Workspace fields that merge as a high-water mark; the rest are summed.
_HIGH_WATER = frozenset({"peak_scratch_bytes", "owned_bytes", "shm_bytes"})

__all__ = ["Reason", "StageTimes", "PrepStats", "FDiamStats"]


class Reason(IntEnum):
    """Why a vertex was removed from consideration (first touch wins)."""

    ACTIVE = 0  # not removed (transient; none remain at the end of a run)
    WINNOW = 1
    ELIMINATE = 2
    CHAIN = 3
    DEGREE_ZERO = 4
    COMPUTED = 5  # eccentricity explicitly evaluated by a BFS
    PREP = 6  # peeled / collapsed / component-skipped before any BFS
    WARM = 7  # discharged by a warm-start certificate from the cache


@dataclass
class StageTimes:
    """Wall-clock seconds per F-Diam stage (paper Figure 8)."""

    init_bfs: float = 0.0  # the two 2-sweep eccentricity BFS calls
    winnow: float = 0.0
    chain: float = 0.0
    eliminate: float = 0.0  # Eliminate calls + extension sweeps
    ecc_bfs: float = 0.0  # main-loop eccentricity BFS calls
    other: float = 0.0

    _STAGES = ("init_bfs", "winnow", "chain", "eliminate", "ecc_bfs", "other")

    def total(self) -> float:
        """Sum over all stages."""
        return sum(getattr(self, s) for s in self._STAGES)

    def fractions(self) -> dict[str, float]:
        """Stage shares of the total runtime (0 when total is 0)."""
        total = self.total()
        if total <= 0:
            return {s: 0.0 for s in self._STAGES}
        return {s: getattr(self, s) / total for s in self._STAGES}


@dataclass
class PrepStats:
    """Deterministic effectiveness counters of the prep pipeline.

    Everything here is a structural count — vertices/edges removed,
    spine vertices synthesized, components planned, the edge-span
    locality proxy — so benchmark regression comparisons of the prep
    stages stay wall-clock-independent. Attached to
    :attr:`FDiamStats.prep` by :func:`repro.prep.pipeline.fdiam_prepped`.
    """

    #: Canonical stage tokens the run was configured with.
    stages: tuple[str, ...] = ()
    #: Stages the cost-model payoff gate vetoed (``plan`` spec only):
    #: configured but skipped because their modeled wall-clock cost
    #: exceeded the traversal work they could plausibly save.
    stages_gated: tuple[str, ...] = ()

    # Pendant-tree peeling.
    peel_vertices_removed: int = 0
    peel_edges_removed: int = 0
    peel_spine_vertices: int = 0
    peel_anchors: int = 0
    peel_tree_components: int = 0
    peel_correction: int = 0

    # Mirror-vertex collapsing.
    mirror_vertices_removed: int = 0
    mirror_edges_removed: int = 0
    mirror_open_groups: int = 0
    mirror_closed_groups: int = 0
    mirror_max_multiplicity: int = 0
    mirror_correction: int = 0

    # Per-component planning.
    components_total: int = 0
    components_solved: int = 0
    components_skipped: int = 0  # too small to beat the running bound
    reorder_strategies: dict[str, int] = field(default_factory=dict)

    #: Reorder bandwidth proxy: sum of |u - v| over undirected edges of
    #: the solved components, before and after permutation.
    edge_span_before: int = 0
    edge_span_after: int = 0

    @property
    def vertices_removed(self) -> int:
        """Original vertices the reductions deleted (peel + mirror)."""
        return self.peel_vertices_removed + self.mirror_vertices_removed

    @property
    def edges_removed(self) -> int:
        """Net edge reduction over both reduction stages."""
        return self.peel_edges_removed + self.mirror_edges_removed


@dataclass
class FDiamStats:
    """Everything measured during one F-Diam run."""

    num_vertices: int = 0
    num_edges: int = 0

    # Traversal counters (Table 3 convention). ``eccentricity_bfs`` is
    # logical: a lane sweep adds one per lane it evaluates.
    eccentricity_bfs: int = 0
    winnow_calls: int = 0
    eliminate_calls: int = 0

    #: Physical lane sweeps the main loop ran (each evaluates 2-64
    #: eccentricities; scalar main-loop BFS are not counted here).
    ecc_sweeps: int = 0
    #: Main-loop evaluations of vertices that an earlier member of the
    #: same batch had already pruned: the work a serial order skips.
    redundant_evaluations: int = 0
    #: Main-loop batch size chosen after Chain Processing (1 = one BFS
    #: at a time) and why (``FDiamConfig.ecc_lanes`` and the gate).
    ecc_batch: int = 1
    ecc_batch_reason: str = ""

    # Bound evolution.
    initial_bound: int = 0
    bound_updates: int = 0

    # First-touch removal attribution, indexed by Reason.
    removed_by: np.ndarray = field(
        default_factory=lambda: np.zeros(len(Reason), dtype=np.int64)
    )

    times: StageTimes = field(default_factory=StageTimes)
    traces: list[BFSTrace] = field(default_factory=list)

    #: Scratch-buffer accounting of the run's traversal kernel (peak
    #: scratch bytes, buffer-reuse hit rate); attached by FDiamState.
    workspace: WorkspaceStats | None = None

    #: Reduction-pipeline counters; ``None`` unless the run went through
    #: :func:`repro.prep.pipeline.fdiam_prepped`.
    prep: PrepStats | None = None

    #: Whether the run was seeded from a warm-start cache artifact
    #: (:mod:`repro.cache`): the 2-sweep is replaced by a single witness
    #: BFS and cached certificates discharge the remaining vertices.
    warm_start: bool = False
    #: Whether the witness BFS reproduced the cached diameter exactly
    #: (the fast path); ``False`` means the artifacts were inconsistent,
    #: none of their claims were applied, and the run fell back to the
    #: full cold pruning pipeline.
    warm_verified: bool = False

    @property
    def bfs_traversals(self) -> int:
        """Paper Table 3's count: eccentricity BFS + Winnow calls."""
        return self.eccentricity_bfs + self.winnow_calls

    @property
    def edges_examined(self) -> int:
        """Total arcs the traversal kernel gathered across the run."""
        return self.workspace.edges_examined if self.workspace else 0

    def removal_fractions(self) -> dict[str, float]:
        """Fraction of vertices removed by each stage (paper Table 4).

        The ``computed`` entry covers vertices whose eccentricity was
        explicitly evaluated (the paper folds these sub-percent values
        into rounding). The ``prep`` entry counts vertices the reduction
        pipeline deleted (or skipped with whole components) before any
        BFS; for prepped runs the fractions cover synthetic spine
        vertices too, so they are reported against the original ``n``
        and may sum slightly above 1.
        """
        n = max(self.num_vertices, 1)
        return {
            "winnow": self.removed_by[Reason.WINNOW] / n,
            "eliminate": self.removed_by[Reason.ELIMINATE] / n,
            "chain": self.removed_by[Reason.CHAIN] / n,
            "degree0": self.removed_by[Reason.DEGREE_ZERO] / n,
            "computed": self.removed_by[Reason.COMPUTED] / n,
            "prep": self.removed_by[Reason.PREP] / n,
            "warm": self.removed_by[Reason.WARM] / n,
        }

    def merge_from(self, other: FDiamStats) -> None:
        """Fold a per-component sub-run's counters into this aggregate.

        Used by the prep pipeline to combine the per-component F-Diam
        runs into one run-level view: traversal counters, removal
        attribution, stage times, and traces add up; the main-loop
        batch decision keeps the widest batch and its reason; workspace
        accounting sums every field except the high-water marks
        (:data:`_HIGH_WATER`), which keep the larger value.
        """
        self.eccentricity_bfs += other.eccentricity_bfs
        self.winnow_calls += other.winnow_calls
        self.eliminate_calls += other.eliminate_calls
        self.bound_updates += other.bound_updates
        self.ecc_sweeps += other.ecc_sweeps
        self.redundant_evaluations += other.redundant_evaluations
        # The widest batch any component ran is the run's decision.
        if other.ecc_batch > self.ecc_batch or not self.ecc_batch_reason:
            self.ecc_batch = other.ecc_batch
            self.ecc_batch_reason = other.ecc_batch_reason
        self.removed_by += other.removed_by
        for stage in StageTimes._STAGES:
            setattr(
                self.times,
                stage,
                getattr(self.times, stage) + getattr(other.times, stage),
            )
        self.traces.extend(other.traces)
        if other.workspace is not None:
            if self.workspace is None:
                self.workspace = WorkspaceStats()
            mine, theirs = self.workspace, other.workspace
            for f in fields(WorkspaceStats):
                a, b = getattr(mine, f.name), getattr(theirs, f.name)
                setattr(mine, f.name, max(a, b) if f.name in _HIGH_WATER else a + b)

    @contextmanager
    def timing(self, stage: str):
        """Accumulate the duration of a ``with`` block into ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            setattr(
                self.times, stage, getattr(self.times, stage) + time.perf_counter() - start
            )
