"""Configuration of the F-Diam driver, including ablation switches.

The paper's Section 6.5 evaluates F-Diam with individual features
disabled ("We only disable one feature at a time as disabling multiple
together mostly results in timeouts"). Every switch studied there is a
field here so the ablation benchmarks (Table 5, Figure 9) are plain
configuration changes, not code forks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, get_args

from repro.bfs.kernel import DEFAULT_THRESHOLD, Engine
from repro.errors import AlgorithmError

__all__ = ["FDiamConfig", "ABLATIONS"]

Order = Literal["sequential", "random"]
EccLanes = Literal["auto", "off", "on"]


@dataclass(frozen=True)
class FDiamConfig:
    """Tunables and ablation switches of :func:`repro.core.fdiam.fdiam`.

    Attributes
    ----------
    engine:
        ``"parallel"`` (vectorized direction-optimized BFS — the paper's
        OpenMP code) or ``"serial"`` (scalar Python BFS — the paper's
        serial code); any other name fails when the run starts. Affects
        the eccentricity traversals, which dominate the runtime (paper
        Fig. 8); the pruning passes share one scalar multi-source wave
        (see DESIGN.md §2).
    use_winnow:
        Enable the Winnow stage (paper §4.2). Disabling reproduces the
        "no Winnow" ablation.
    use_eliminate:
        Enable the Eliminate stage and the incremental extension of
        eliminated regions (§4.4/§4.5). Disabling reproduces "no Elim.".
    use_chain:
        Enable Chain Processing (§4.3).
    use_max_degree_start:
        Start the 2-sweep and Winnow from the max-degree vertex ``u``.
        ``False`` starts from vertex 0, reproducing the "no 'u'"
        ablation ("Changing the starting point from the maximum-degree
        vertex u to the vertex with ID zero").
    order:
        Order in which remaining active vertices are evaluated:
        ``"sequential"`` follows Algorithm 1's id scan; ``"random"``
        follows the §4.4 prose ("F-Diam randomly picks such a vertex").
    seed:
        RNG seed for ``order="random"``.
    threshold:
        Direction-switch threshold of the hybrid BFS and of the lane
        sweeps' pull-only levels (fraction of |V|).
    directions:
        Allow bottom-up steps in the hybrid BFS and pull-only levels in
        lane sweeps; ``False`` forces pure top-down.
    keep_traces:
        Retain per-level BFS traces (needed by the parallel cost model).
    ecc_lanes:
        How the run evaluates eccentricities. ``"off"`` is the paper's
        algorithm: one BFS per still-active vertex, each seeing every
        earlier vertex's pruning. ``"on"`` evaluates up to 64 at a time
        in one bit-parallel lane sweep, twice over: the anchors of the
        chain tips that survive Chain Processing (a pendant tip ``x``
        whose chain of length ``s`` anchors at ``w`` has
        ``ecc(x) = s + ecc(w)`` whenever ``ecc(w) > s``), and then the
        main loop's still-active vertices. A lone tip is left to the
        main loop, and a lone claimed vertex runs one scalar BFS.
        ``"auto"`` (the default) applies one rule to both: it sweeps
        only on hub-heavy graphs whose bound fits the cost model's lane
        level cap with at least 8 lanes pending (see DESIGN.md §8).
        Exact with any value; main-loop batching may evaluate vertices
        a serial order would have pruned, which the run counts as
        ``stats.redundant_evaluations``.
    verify:
        Attach the invariant oracle of :mod:`repro.verify` to the run:
        reference BFS distances are precomputed up front and every
        stage transition is checked against the paper's safety
        theorems (bounds sandwich true eccentricities, Winnow stays
        inside the ``⌊bound/2⌋`` ball, Eliminate never writes past the
        ``bound - ecc`` radius, chain-tip dominance, diameter-witness
        preservation). O(n·m) setup — meant for the fuzzer and tests
        on small graphs, never for benchmark runs.
    """

    engine: Engine = "parallel"
    use_winnow: bool = True
    use_eliminate: bool = True
    use_chain: bool = True
    use_max_degree_start: bool = True
    order: Order = "sequential"
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD
    directions: bool = True
    keep_traces: bool = False
    ecc_lanes: EccLanes = "auto"
    verify: bool = False

    def __post_init__(self) -> None:
        if self.ecc_lanes not in get_args(EccLanes):
            raise AlgorithmError(
                f"ecc_lanes must be one of {get_args(EccLanes)}, "
                f"got {self.ecc_lanes!r}"
            )

    def ablate(self, **changes: object) -> "FDiamConfig":
        """A copy of this config with the given fields changed."""
        return replace(self, **changes)


#: The four variants compared in the paper's Table 5 / Figure 9.
ABLATIONS: dict[str, FDiamConfig] = {
    "F-Diam": FDiamConfig(),
    "no Winnow": FDiamConfig(use_winnow=False),
    "no Elim.": FDiamConfig(use_eliminate=False),
    "no 'u'": FDiamConfig(use_max_degree_start=False),
}
