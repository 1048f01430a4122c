"""Batched multi-query engine over the bit-parallel substrate.

Answering one distance or eccentricity query costs one BFS; answering
256 of them as 256 scalar BFS calls costs 256 edge-gather passes over
the same CSR arrays. :class:`QueryEngine` instead packs the distinct
sources of a mixed batch into 64-lane bit-parallel sweeps
(:meth:`repro.bfs.kernel.TraversalKernel.distance_batch`), memoizes the
resulting distance rows (optionally persisting them through the
warm-start cache), and keeps every registered graph's kernel alive
until :meth:`QueryEngine.remove_graph` drops it (residency under a byte
budget is :class:`repro.service.GraphRegistry`'s job) — so a 256-query
batch typically runs a handful of physical sweeps. A batch that needs
one fresh source has no gathers to share: its row comes from the
kernel's direction-optimized scalar BFS instead of a 1-lane sweep
(about 1.2–1.9 ms against 2.7–7.8 ms per row on the ``repro serve``
benchmark's tenants, 2-vCPU host), and still counts as one sweep.
"""

from repro.query.engine import BatchStats, QueryEngine, parse_query

__all__ = ["BatchStats", "QueryEngine", "parse_query"]
