"""Thread-scaling study (paper Figure 7) — modeled and measured.

Runs F-Diam once per input with trace collection enabled, then feeds
the measured per-level traces through the
:class:`~repro.parallel.costmodel.LevelSynchronousCostModel` at each
thread count, yielding modeled throughputs whose geometric mean over
all inputs reproduces the shape of the paper's Figure 7: throughput
rising to the physical core count and flattening beyond it.

:meth:`ScalingStudy.measure_sweep` complements the model with *real*
wall-clock points: the same fixed source battery is dispatched through
the :mod:`repro.parallel.sweep` executors at each worker count and
timed, so the modeled curve finally sits next to a measured
``workers × wall_s`` curve from the shared-memory multiprocess
backend. On a single-core container the measured curve is flat-to-
negative — that is the honest result, and exactly what the comparison
is for; the eccentricity checksum asserts that every worker count
computed identical rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel

__all__ = [
    "MeasuredPoint",
    "ScalingPoint",
    "ScalingStudy",
    "PAPER_THREAD_COUNTS",
]

#: The thread counts of the paper's Figure 7 x-axis.
PAPER_THREAD_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ScalingPoint:
    """Modeled performance of one input at one thread count."""

    graph_name: str
    num_threads: int
    modeled_seconds: float
    throughput: float  # vertices / second (the paper's metric)
    speedup: float  # over the 1-thread model


@dataclass(frozen=True)
class MeasuredPoint:
    """Measured wall-clock of one sweep battery at one worker count."""

    graph_name: str
    workers: int
    backend: str
    wall_s: float
    speedup: float  # over the measured 1-worker run
    sources: int
    #: Sum of the battery's eccentricities — identical across worker
    #: counts by construction; recorded so consumers can assert it.
    ecc_checksum: int


@dataclass
class ScalingStudy:
    """Collects per-input traces and evaluates the cost model."""

    params: CostModelParams = field(default_factory=CostModelParams)
    thread_counts: tuple[int, ...] = PAPER_THREAD_COUNTS
    points: list[ScalingPoint] = field(default_factory=list)
    measured: list[MeasuredPoint] = field(default_factory=list)

    def run_input(
        self, graph: CSRGraph, config: FDiamConfig | None = None
    ) -> list[ScalingPoint]:
        """Trace one F-Diam run on ``graph`` and model every thread count.

        ``config`` selects the engine (and any other F-Diam knobs) the
        traced run uses; trace collection is forced on, and so is the
        paper's one-BFS-at-a-time main loop (lane sweeps record no
        per-level traces). The default remains the parallel engine the
        paper's Figure 7 measures.
        """
        config = (config or FDiamConfig(engine="parallel")).ablate(
            keep_traces=True, ecc_lanes="off"
        )
        result = fdiam(graph, config)
        traces = result.stats.traces
        if not traces:
            raise AlgorithmError(
                f"no BFS traces collected on {graph.name!r} with engine "
                f"{config.engine!r}; cannot model scaling"
            )
        model = LevelSynchronousCostModel(self.params)
        t1 = model.run_time(traces, 1)
        points = []
        for t in self.thread_counts:
            seconds = model.run_time(traces, t)
            points.append(
                ScalingPoint(
                    graph_name=graph.name,
                    num_threads=t,
                    modeled_seconds=seconds,
                    throughput=graph.num_vertices / seconds,
                    speedup=t1 / seconds,
                )
            )
        self.points.extend(points)
        return points

    def measure_sweep(
        self,
        graph: CSRGraph,
        *,
        workers: tuple[int, ...] = (1, 2, 4),
        num_sources: int = 64,
        batch_lanes: int = 64,
        start_method: str | None = None,
    ) -> list[MeasuredPoint]:
        """Time a fixed sweep battery at each worker count — for real.

        The battery is the graph's ``num_sources`` highest-degree
        vertices (deterministic, hub-first, the sources bounding rounds
        favour). Worker count 1 runs the in-process ``bitparallel``
        backend; higher counts run the shared-memory ``multiprocess``
        backend with the same lane budget per worker. Each executor
        gets one untimed warmup round (pool spin-up and page faults
        excluded — the persistent-pool steady state is what the curve
        is about), then one timed round. The per-battery eccentricity
        checksum is asserted identical across worker counts before any
        point is recorded.
        """
        from repro.parallel.sweep import create_executor

        sources = np.argsort(-graph.degrees, kind="stable")[
            : min(num_sources, graph.num_vertices)
        ].astype(np.int64)
        points: list[MeasuredPoint] = []
        base_wall = None
        base_checksum = None
        for w in workers:
            executor = create_executor(
                graph,
                workers=w,
                batch_lanes=batch_lanes,
                backend="bitparallel" if w <= 1 else "multiprocess",
                start_method=start_method,
            )
            try:
                executor.distance_rows(sources)  # warmup
                t0 = time.perf_counter()
                _, info = executor.distance_rows(sources)
                wall = time.perf_counter() - t0
            finally:
                executor.close()
            checksum = int(info.eccentricities.sum())
            if base_checksum is None:
                base_checksum = checksum
            elif checksum != base_checksum:
                raise AlgorithmError(
                    f"scaling sweep on {graph.name!r} is not deterministic: "
                    f"checksum {checksum} at {w} workers != {base_checksum}"
                )
            if base_wall is None:
                base_wall = wall
            points.append(
                MeasuredPoint(
                    graph_name=graph.name,
                    workers=w,
                    backend=executor.backend,
                    wall_s=wall,
                    speedup=base_wall / wall if wall > 0 else 0.0,
                    sources=len(sources),
                    ecc_checksum=checksum,
                )
            )
        self.measured.extend(points)
        return points

    def geomean_throughput(self) -> dict[int, float]:
        """Geometric-mean modeled throughput per thread count
        (the paper's Figure 7 y-axis)."""
        out: dict[int, float] = {}
        for t in self.thread_counts:
            vals = [p.throughput for p in self.points if p.num_threads == t]
            if vals:
                out[t] = float(np.exp(np.mean(np.log(vals))))
        return out

    def geomean_speedup(self) -> dict[int, float]:
        """Geometric-mean modeled speedup per thread count."""
        out: dict[int, float] = {}
        for t in self.thread_counts:
            vals = [p.speedup for p in self.points if p.num_threads == t]
            if vals:
                out[t] = float(np.exp(np.mean(np.log(vals))))
        return out
