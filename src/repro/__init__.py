"""F-Diam: fast exact diameter computation of sparse graphs.

A from-scratch Python reproduction of

    Bradley, Mongandampulath Akathoott, Burtscher.
    "Fast Exact Diameter Computation of Sparse Graphs", ICPP 2025.

Quickstart
----------
>>> import repro
>>> g = repro.generators.grid_2d(64, 64)
>>> result = repro.fdiam(g)
>>> result.diameter
126

The package is organized into:

* :mod:`repro.graph` — CSR graph substrate, builders, I/O.
* :mod:`repro.generators` — synthetic workload generators (analogs of
  the paper's 17 evaluation inputs).
* :mod:`repro.bfs` — level-synchronous BFS engines (vectorized
  top-down, bottom-up, direction-optimized hybrid, partial/multi-source).
* :mod:`repro.core` — the F-Diam algorithm (Winnow, Chain Processing,
  Eliminate, incremental extension).
* :mod:`repro.baselines` — iFUB, Graph-Diameter, Korf, Takes–Kosters,
  and naive all-eccentricity baselines.
* :mod:`repro.prep` — exactness-preserving reductions (pendant-tree
  peeling, mirror-vertex collapsing) and vertex reorderings, which
  F-Diam does not call.
* :mod:`repro.parallel` — chunked executor and the level-synchronous
  parallel cost model used for the thread-scaling study.
* :mod:`repro.harness` — benchmark workloads, runners, and the
  table/figure emitters reproducing the paper's evaluation section.
"""

from repro import baselines, bfs, core, generators, graph, harness, parallel, prep
from repro._version import __version__
from repro.core.fdiam import DiameterResult, fdiam
from repro.errors import (
    AlgorithmError,
    BenchmarkTimeout,
    GraphFormatError,
    GraphValidationError,
    ReproError,
)
from repro.graph import CSRGraph, from_edges, read_graph

__all__ = [
    "AlgorithmError",
    "BenchmarkTimeout",
    "CSRGraph",
    "DiameterResult",
    "GraphFormatError",
    "GraphValidationError",
    "ReproError",
    "__version__",
    "baselines",
    "bfs",
    "core",
    "fdiam",
    "from_edges",
    "generators",
    "graph",
    "harness",
    "parallel",
    "prep",
    "read_graph",
]
