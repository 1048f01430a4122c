"""Incremental diameter maintenance over a :class:`DynamicGraph`.

The repair rules (DESIGN.md §16 carries the proofs):

* **Insertion** of an edge can only *shrink* shortest-path distances,
  so after an insert-only batch every per-vertex eccentricity upper
  bound recorded by the last full run — the sidecar/status array of
  PR 4, clipped to the old diameter — is still a valid upper bound,
  and the old diameter is a valid *upper* bound on the new one. What
  insertion invalidates is the *lower* bound: the old witness's
  eccentricity may have dropped. Repair therefore re-validates exactly
  what the mutation class can break: one BFS from the stored witness
  re-establishes an achieved lower bound ``lb``, and only vertices
  whose stale upper bound still exceeds ``lb`` (the *candidates*) can
  possibly realize a larger eccentricity — each is swept once, in
  descending stale-bound order, raising ``lb`` and tightening bounds
  until no candidate remains. The result is exact: every vertex ends
  with ``ub <= lb`` and ``lb`` is an achieved eccentricity.
* **Deletion** can only grow distances (or disconnect), so the cached
  upper bounds are worthless after a delete-containing batch — the
  maintainer falls back to a cold :func:`~repro.core.fdiam.fdiam` run
  and refreshes its repairable state from the final run state.
* **Disconnected** previous state also forces a cold run: the CC
  convention (largest-component eccentricity + infinity flag) is not
  monotone across connect/disconnect events, so no bound survives.

A cost model guards the repair path: when the estimated repair cost
(1 witness BFS + one BFS per candidate) exceeds
``repair_budget_factor ×`` the last cold run's traversal count, repair
would lose to recomputation and the maintainer recomputes instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bfs.kernel import TraversalKernel
from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam_with_state
from repro.core.state import MAX_BOUND
from repro.dynamic.graph import DynamicGraph
from repro.errors import AlgorithmError

__all__ = ["DynamicDiameter", "RepairStats"]


@dataclass(frozen=True)
class RepairStats:
    """What one :meth:`DynamicDiameter.refresh` actually did.

    ``strategy`` is ``"noop"`` (bounds already valid), ``"repair"``
    (incremental witness + candidate sweeps), or ``"recompute"``
    (cold fdiam). ``candidates`` is the size of the stale-bound
    candidate set the repair path examined (0 outside repair);
    ``bfs_traversals`` counts the BFS runs this refresh spent.
    """

    epoch: int
    strategy: str
    reason: str
    bfs_traversals: int = 0
    candidates: int = 0
    wall_s: float = 0.0


class DynamicDiameter:
    """Maintains the exact (CC-convention) diameter across mutations.

    Lazily consistent: mutations on the underlying
    :class:`DynamicGraph` cost nothing here until :meth:`refresh` (or
    the :attr:`diameter` property) is called, at which point the
    maintainer repairs or recomputes up to the graph's current epoch.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        config: FDiamConfig | None = None,
        *,
        repair_budget_factor: float = 1.0,
    ):
        if repair_budget_factor < 0:
            raise AlgorithmError("repair_budget_factor must be >= 0")
        self.graph = graph
        # The repairable state needs whole-graph status arrays, so the
        # cold path runs the plain driver (prep's component splitting
        # would misalign the vertex ids — same reason fdiam_cached does).
        self.config = (config or FDiamConfig()).ablate(prep="off")
        self.repair_budget_factor = float(repair_budget_factor)
        self.last_repair: RepairStats | None = None
        self.repairs = 0
        self.recomputes = 0
        self._valid_epoch = -1
        self._diameter: int | None = None
        self._connected = True
        self._witness = -1
        self._ecc_ub: np.ndarray | None = None
        self._last_cold_bfs = 0

    # ------------------------------------------------------------------
    @property
    def diameter(self) -> int:
        """The exact diameter at the graph's current epoch."""
        self.refresh()
        assert self._diameter is not None
        return self._diameter

    @property
    def connected(self) -> bool:
        self.refresh()
        return self._connected

    @property
    def infinite(self) -> bool:
        """CC-convention mirror of :class:`DiameterResult.infinite`."""
        return not self.connected

    @property
    def valid_epoch(self) -> int:
        """Epoch the maintained bounds are currently valid for."""
        return self._valid_epoch

    # ------------------------------------------------------------------
    def seed_from_artifacts(self, art) -> bool:
        """Adopt a warm-start sidecar as the repairable state.

        Only accepted when the sidecar matches the *current* epoch's
        digest (the store layer already keys by it); the artifact's
        status array becomes the stale-but-repairable upper bounds and
        its witness the lower-bound anchor. Returns whether it was
        adopted.
        """
        n = self.graph.num_vertices
        if art is None or int(art.num_vertices) != n:
            return False
        if str(art.digest) != self.graph.digest():
            return False
        witness = int(art.witness)
        if not 0 <= witness < n:
            return False
        diameter = int(art.diameter)
        status = np.asarray(art.status, dtype=np.int64)
        numeric = (status >= 0) & (status < MAX_BOUND)
        self._ecc_ub = np.where(
            numeric, np.minimum(status, diameter), diameter
        ).astype(np.int64)
        self._diameter = diameter
        self._connected = bool(art.connected)
        self._witness = witness
        self._valid_epoch = self.graph.epoch
        return True

    # ------------------------------------------------------------------
    def refresh(self) -> RepairStats:
        """Bring the maintained bounds up to the graph's current epoch."""
        t0 = time.perf_counter()
        epoch = self.graph.epoch
        if self._valid_epoch == epoch and self._diameter is not None:
            stats = RepairStats(
                epoch=epoch,
                strategy="noop",
                reason="bounds already valid for this epoch",
                wall_s=time.perf_counter() - t0,
            )
            self.last_repair = stats
            return stats
        if self._valid_epoch < 0 or self._diameter is None:
            return self._recompute(epoch, "initial computation", t0)
        inserted, deleted = self.graph.mutations_since(self._valid_epoch)
        if self._deletes_invalidate(deleted):
            return self._recompute(
                epoch,
                f"{deleted} deletion(s) since epoch {self._valid_epoch} "
                "invalidate every cached upper bound",
                t0,
            )
        if not self._connected:
            return self._recompute(
                epoch,
                "previous state disconnected; insertions can merge "
                "components (CC convention is not monotone)",
                t0,
            )
        return self._repair(epoch, t0)

    @staticmethod
    def _deletes_invalidate(deleted: int) -> bool:
        """Whether the pending window's deletions forbid bound repair."""
        return deleted > 0

    @staticmethod
    def _candidates(ecc_ub: np.ndarray, lb: int) -> np.ndarray:
        """Vertices whose stale upper bound still exceeds ``lb``."""
        return np.flatnonzero(ecc_ub > lb)

    # ------------------------------------------------------------------
    def _repair(self, epoch: int, t0: float) -> RepairStats:
        """Insert-only incremental repair (see module docstring)."""
        assert self._ecc_ub is not None and self._diameter is not None
        view = self.graph.view()
        kernel = TraversalKernel(view)
        ub = self._ecc_ub
        # 1. Re-validate the lower bound: one BFS from the old witness.
        #    Its eccentricity is exact, so it both anchors lb and
        #    tightens the witness's own upper bound.
        lb = int(kernel.bfs(self._witness).eccentricity)
        ub[self._witness] = lb
        bfs = 1
        witness = self._witness
        # 2. Only vertices whose stale (still-valid) upper bound exceeds
        #    lb can realize a larger eccentricity.
        candidates = self._candidates(ub, lb)
        est_recompute = max(4, self._last_cold_bfs)
        if 1 + len(candidates) > self.repair_budget_factor * est_recompute:
            return self._recompute(
                epoch,
                f"repair estimate {1 + len(candidates)} BFS exceeds "
                f"{self.repair_budget_factor:g}x recompute estimate "
                f"{est_recompute}",
                t0,
                extra_bfs=bfs,
                candidates=len(candidates),
            )
        # 3. Sweep candidates in descending stale-bound order; each BFS
        #    yields an exact eccentricity, tightening ub and possibly
        #    raising lb, until no candidate's bound exceeds lb.
        order = candidates[np.argsort(-ub[candidates], kind="stable")]
        for v in order:
            v = int(v)
            if ub[v] <= lb:
                continue
            ecc = int(kernel.bfs(v).eccentricity)
            bfs += 1
            ub[v] = ecc
            if ecc > lb:
                lb = ecc
                witness = v
        self._diameter = lb
        self._witness = witness
        self._valid_epoch = epoch
        self.repairs += 1
        stats = RepairStats(
            epoch=epoch,
            strategy="repair",
            reason=f"insert-only window; {len(candidates)} candidate(s)",
            bfs_traversals=bfs,
            candidates=len(candidates),
            wall_s=time.perf_counter() - t0,
        )
        self.last_repair = stats
        return stats

    # ------------------------------------------------------------------
    def _recompute(
        self,
        epoch: int,
        reason: str,
        t0: float,
        *,
        extra_bfs: int = 0,
        candidates: int = 0,
    ) -> RepairStats:
        """Cold fdiam run; refreshes the repairable state wholesale."""
        view = self.graph.view()
        if view.num_vertices == 0:
            self._diameter = 0
            self._connected = True
            self._witness = -1
            self._ecc_ub = np.empty(0, dtype=np.int64)
            self._valid_epoch = epoch
            bfs = extra_bfs
        else:
            result, state = fdiam_with_state(view, self.config)
            diameter = result.diameter
            status = state.status
            numeric = (status >= 0) & (status < MAX_BOUND)
            self._ecc_ub = np.where(
                numeric, np.minimum(status, diameter), diameter
            ).astype(np.int64)
            self._diameter = diameter
            self._connected = result.connected
            self._witness = state.pick_witness(diameter)
            self._last_cold_bfs = result.stats.bfs_traversals
            self._valid_epoch = epoch
            bfs = extra_bfs + result.stats.bfs_traversals
        self.recomputes += 1
        stats = RepairStats(
            epoch=epoch,
            strategy="recompute",
            reason=reason,
            bfs_traversals=bfs,
            candidates=candidates,
            wall_s=time.perf_counter() - t0,
        )
        self.last_repair = stats
        return stats
