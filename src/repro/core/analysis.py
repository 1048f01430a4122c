"""Analysis tools for F-Diam's structural claims.

The paper grounds several design choices in structural claims about
real graphs: the max-degree vertex "tends to be centrally located"
(§3), winnowing from a central vertex "maximize[s] the number of
vertices in the winnowed region" (§4.2), and starting from vertex 0
instead costs performance (§6.5) — except on two inputs where vertex 0
happened to be *more* central. This module measures those claims
directly on any graph, so the reproduction can verify (and, at analog
scale, honestly qualify) them:

* :func:`winnow_coverage` — the fraction of vertices a winnow ball from
  a given centre would remove, without touching any algorithm state.
* :func:`coverage_by_centrality` — coverage statistics across centre
  choices grouped by degree percentile, quantifying "hubs are good
  winnow centres".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.kernel import TraversalKernel
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = ["WinnowCoverage", "winnow_coverage", "coverage_by_centrality"]


@dataclass(frozen=True)
class WinnowCoverage:
    """Coverage of one hypothetical winnow ball."""

    center: int
    center_degree: int
    bound: int
    radius: int
    covered: int
    fraction: float


def winnow_coverage(
    graph: CSRGraph,
    center: int,
    bound: int,
    kernel: TraversalKernel | None = None,
) -> WinnowCoverage:
    """Measure the ball ``B(center, ⌊bound/2⌋)`` without removing anything.

    ``fraction`` is relative to the whole vertex set (the Table 4
    convention), so disconnected remainders and isolated vertices count
    against the coverage just as they do in the algorithm. Pass a held
    ``kernel`` of ``graph`` to share its workspace across many calls.
    """
    n = graph.num_vertices
    if n == 0:
        raise AlgorithmError("winnow_coverage on an empty graph")
    if bound < 0:
        raise AlgorithmError("bound must be non-negative")
    radius = bound // 2
    if kernel is None:
        kernel = TraversalKernel(graph)
    covered = kernel.ball(center, radius, include_center=False)
    return WinnowCoverage(
        center=center,
        center_degree=graph.degree(center),
        bound=bound,
        radius=radius,
        covered=len(covered),
        fraction=len(covered) / n,
    )


def coverage_by_centrality(
    graph: CSRGraph,
    bound: int,
    *,
    samples_per_bucket: int = 5,
    percentiles: tuple[int, ...] = (0, 25, 50, 75, 95, 100),
    seed: int = 0,
) -> dict[int, float]:
    """Mean winnow coverage for centres sampled by degree percentile.

    Returns ``{percentile: mean coverage fraction}``. Bucket ``100``
    always includes the max-degree vertex itself (the paper's ``u``),
    so the result directly quantifies "the highest-degree vertex ...
    tends to be centrally located" against low-degree alternatives.
    """
    n = graph.num_vertices
    if n == 0:
        raise AlgorithmError("coverage_by_centrality on an empty graph")
    rng = np.random.default_rng(seed)
    order = np.argsort(graph.degrees, kind="stable")
    kernel = TraversalKernel(graph)
    out: dict[int, float] = {}
    for pct in percentiles:
        # Vertices whose degree rank falls in a small window around pct.
        centre_rank = round((n - 1) * pct / 100)
        lo = max(0, centre_rank - max(n // 20, samples_per_bucket))
        hi = min(n, centre_rank + max(n // 20, samples_per_bucket) + 1)
        bucket = order[lo:hi]
        picks = rng.choice(bucket, size=min(samples_per_bucket, len(bucket)), replace=False)
        if pct == 100:
            picks = np.unique(np.append(picks, graph.max_degree_vertex()))
        fractions = [
            winnow_coverage(graph, int(v), bound, kernel).fraction for v in picks
        ]
        out[pct] = float(np.mean(fractions))
    return out
