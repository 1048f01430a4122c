"""The invariant oracle: per-stage safety checks against reference BFS.

The oracle precomputes the full distance matrix of the graph with the
structurally independent deque BFS (:func:`repro.bfs.reference
.serial_distances`) and exposes one check per F-Diam safety argument:

* **Sandwich** — ``state.bound`` is a true diameter lower bound, and
  every numeric status slot is a true eccentricity upper bound (exact
  for ``Reason.COMPUTED`` vertices). This is the status-encoding
  invariant of :mod:`repro.core.state`.
* **Winnow ball** (Theorems 2–3) — every ``WINNOWED`` vertex lies
  within ``⌊bound/2⌋`` of the pinned centre, so any pair of winnowed
  vertices is at most ``bound`` apart and discarding the ball keeps a
  witness of any larger distance outside it.
* **Eliminate radius** (Theorem 1) — an Eliminate call from ``x`` with
  known ``ecc(x)`` may only write levels ``1 .. bound - ecc(x)``, each
  level-``k`` vertex sits at true distance ``k`` from ``x``, and no
  written bound exceeds the current ``bound``.
* **Chain-tip dominance** (§4.3) — no vertex removed by Chain
  Processing has a larger true eccentricity than the best surviving
  tip (or the already-certified bound).
* **Witness preservation** — the master invariant implied by all of
  the above: at every stage boundary,
  ``max(bound, max ecc over active vertices) == true diameter``, i.e.
  a witness of the true diameter is still under consideration or
  already accounted for. Any unsound discard trips this check on a
  graph where the discarded vertex was the last witness.

Checks raise :class:`repro.errors.InvariantViolation` naming the stage
and offending vertices. Building the oracle costs one BFS per vertex;
it refuses graphs above ``max_vertices`` so a stray ``verify=True``
cannot silently turn a benchmark into APSP.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.reference import serial_distances
from repro.errors import AlgorithmError, InvariantViolation
from repro.graph.csr import CSRGraph

__all__ = ["InvariantOracle", "DEFAULT_MAX_VERTICES"]

#: Refuse to build reference distances above this size (O(n·m) setup).
DEFAULT_MAX_VERTICES = 4096


class InvariantOracle:
    """Reference distances plus the per-stage checks listed above."""

    __slots__ = ("graph", "dist", "true_ecc", "true_diameter", "connected")

    def __init__(self, graph: CSRGraph, *, max_vertices: int = DEFAULT_MAX_VERTICES):
        n = graph.num_vertices
        if n > max_vertices:
            raise AlgorithmError(
                f"invariant oracle needs O(n*m) reference distances; "
                f"graph has {n} > max_vertices={max_vertices} vertices"
            )
        self.graph = graph
        #: Full (n, n) distance matrix; -1 for unreachable pairs.
        self.dist = np.empty((n, n), dtype=np.int64)
        for v in range(n):
            self.dist[v] = serial_distances(graph, v)
        #: True per-vertex eccentricity within its component.
        self.true_ecc = self.dist.max(axis=1) if n else np.empty(0, np.int64)
        #: The paper's reported value: largest eccentricity in any CC.
        self.true_diameter = int(self.true_ecc.max()) if n else 0
        self.connected = bool(n <= 1 or (self.dist[0] >= 0).all())

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def check_bound(self, state, stage: str) -> None:
        """``state.bound`` must never exceed the true diameter."""
        if state.bound > self.true_diameter:
            raise InvariantViolation(
                f"[{stage}] lower bound {state.bound} exceeds the true "
                f"diameter {self.true_diameter}",
                stage=stage,
            )

    def check_upper_bounds(self, state, stage: str) -> None:
        """Every numeric status is a valid eccentricity upper bound."""
        from repro.core.state import ACTIVE, WINNOWED
        from repro.core.stats import Reason

        status = state.status
        numeric = (status != ACTIVE) & (status != WINNOWED)
        bad = np.flatnonzero(numeric & (status < self.true_ecc))
        if len(bad):
            v = int(bad[0])
            raise InvariantViolation(
                f"[{stage}] status[{v}] = {int(status[v])} is below the "
                f"true eccentricity {int(self.true_ecc[v])} "
                f"(reason {Reason(state.reason[v]).name})",
                stage=stage,
            )
        computed = numeric & (state.reason == Reason.COMPUTED)
        wrong = np.flatnonzero(computed & (status != self.true_ecc))
        if len(wrong):
            v = int(wrong[0])
            raise InvariantViolation(
                f"[{stage}] computed eccentricity status[{v}] = "
                f"{int(status[v])} != true {int(self.true_ecc[v])}",
                stage=stage,
            )

    def check_winnow(self, state, stage: str = "winnow") -> None:
        """Theorems 2–3: the winnowed set is inside ``B(c, ⌊bound/2⌋)``."""
        from repro.core.state import WINNOWED

        ball = np.flatnonzero(state.status == WINNOWED)
        if len(ball) == 0:
            return
        center = state.winnow_center
        if center is None:
            raise InvariantViolation(
                f"[{stage}] {len(ball)} WINNOWED vertices but no pinned "
                "winnow centre",
                stage=stage,
            )
        radius = state.bound // 2
        d = self.dist[center, ball]
        bad = np.flatnonzero((d < 0) | (d > radius))
        if len(bad):
            v = int(ball[bad[0]])
            raise InvariantViolation(
                f"[{stage}] winnowed vertex {v} is at distance "
                f"{int(self.dist[center, v])} from centre {center}, "
                f"outside the sound radius ⌊{state.bound}/2⌋ = {radius}",
                stage=stage,
            )

    def check_eliminate(
        self, state, source: int, ecc: int, levels: list[np.ndarray]
    ) -> None:
        """Theorem 1: radius, level membership, and bound containment."""
        stage = "eliminate"
        n = self.graph.num_vertices
        if 0 <= ecc <= n:  # real eccentricities only (chains pass MAX-s)
            if ecc != int(self.true_ecc[source]):
                raise InvariantViolation(
                    f"[{stage}] called with ecc({source}) = {ecc}, but the "
                    f"true eccentricity is {int(self.true_ecc[source])}",
                    stage=stage,
                )
            if ecc + len(levels) > state.bound:
                raise InvariantViolation(
                    f"[{stage}] expanded {len(levels)} levels from vertex "
                    f"{source} (ecc {ecc}): deepest written bound "
                    f"{ecc + len(levels)} exceeds the current diameter "
                    f"bound {state.bound} — radius must be bound - ecc = "
                    f"{state.bound - ecc}",
                    stage=stage,
                )
        for k, level in enumerate(levels):
            wrong = np.flatnonzero(self.dist[source, level] != k + 1)
            if len(wrong):
                v = int(level[wrong[0]])
                raise InvariantViolation(
                    f"[{stage}] vertex {v} surfaced on level {k + 1} of the "
                    f"partial BFS from {source} but its true distance is "
                    f"{int(self.dist[source, v])}",
                    stage=stage,
                )

    def check_chain(self, state, kept_tips) -> None:
        """§4.3 dominance: removed chain vertices never out-rank the tips."""
        from repro.core.state import ACTIVE
        from repro.core.stats import Reason

        stage = "chain"
        removed = np.flatnonzero(
            (state.reason == Reason.CHAIN) & (state.status != ACTIVE)
        )
        if len(removed) == 0:
            return
        dominated = int(self.true_ecc[removed].max())
        kept = np.asarray(list(kept_tips), dtype=np.int64)
        best_tip = int(self.true_ecc[kept].max()) if len(kept) else -1
        if dominated > max(best_tip, state.bound):
            v = int(removed[int(self.true_ecc[removed].argmax())])
            raise InvariantViolation(
                f"[{stage}] chain-removed vertex {v} has true eccentricity "
                f"{dominated}, above every surviving tip (best "
                f"{best_tip}) and the current bound {state.bound} — "
                f"dominance lost",
                stage=stage,
            )

    def check_witness(self, state, stage: str) -> None:
        """A witness of the true diameter must remain accounted for."""
        active = np.flatnonzero(state.active_mask())
        best_active = int(self.true_ecc[active].max()) if len(active) else 0
        if max(state.bound, best_active) < self.true_diameter:
            raise InvariantViolation(
                f"[{stage}] every witness of the true diameter "
                f"{self.true_diameter} was discarded: bound is "
                f"{state.bound} and the best still-active eccentricity is "
                f"{best_active}",
                stage=stage,
            )

    # ------------------------------------------------------------------
    # Composite entry points the core hooks call
    # ------------------------------------------------------------------
    def check_stage(self, state, stage: str) -> None:
        """The full post-stage battery (cheap: O(n) on cached truths)."""
        self.check_bound(state, stage)
        self.check_upper_bounds(state, stage)
        self.check_winnow(state, stage)
        self.check_witness(state, stage)

    def check_computed(self, state, vertex: int, ecc: int) -> None:
        """An evaluated eccentricity must be the true value.

        Called for every eccentricity a run evaluates after the 2-sweep:
        each main-loop BFS or lane, and each chain-tip anchor lane.
        """
        if ecc != int(self.true_ecc[vertex]):
            raise InvariantViolation(
                f"[ecc-bfs] eccentricity BFS from {vertex} returned {ecc}, "
                f"true value is {int(self.true_ecc[vertex])}",
                stage="ecc-bfs",
            )

    def check_final(self, state, diameter: int, connected: bool) -> None:
        """End-of-run: exact diameter, exact flag, no vertex left active."""
        stage = "final"
        self.check_upper_bounds(state, stage)
        if diameter != self.true_diameter:
            raise InvariantViolation(
                f"[{stage}] reported diameter {diameter} != true "
                f"{self.true_diameter}",
                stage=stage,
            )
        if connected != self.connected:
            raise InvariantViolation(
                f"[{stage}] reported connected={connected}, reference says "
                f"{self.connected}",
                stage=stage,
            )
        leftovers = state.active_count()
        if leftovers:
            raise InvariantViolation(
                f"[{stage}] {leftovers} vertices still ACTIVE after the "
                "main loop",
                stage=stage,
            )
