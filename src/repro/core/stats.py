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
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.bfs.instrumentation import BFSTrace
from repro.bfs.kernel import WorkspaceStats

__all__ = ["Reason", "StageTimes", "FDiamStats"]


class Reason(IntEnum):
    """Why a vertex was removed from consideration (first touch wins)."""

    ACTIVE = 0  # not removed (transient; none remain at the end of a run)
    WINNOW = 1
    ELIMINATE = 2
    CHAIN = 3
    DEGREE_ZERO = 4
    COMPUTED = 5  # eccentricity explicitly evaluated by a BFS
    PREP = 6  # no longer assigned; kept so persisted sidecar codes keep their values
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
        into rounding).
        """
        n = max(self.num_vertices, 1)
        return {
            "winnow": self.removed_by[Reason.WINNOW] / n,
            "eliminate": self.removed_by[Reason.ELIMINATE] / n,
            "chain": self.removed_by[Reason.CHAIN] / n,
            "degree0": self.removed_by[Reason.DEGREE_ZERO] / n,
            "computed": self.removed_by[Reason.COMPUTED] / n,
            "warm": self.removed_by[Reason.WARM] / n,
        }

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
