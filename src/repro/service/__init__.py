"""Coalescing graph-query service: continuous batching for throughput.

PR 4's :class:`~repro.query.QueryEngine` packs a pre-formed batch of
mixed dist/ecc/diam queries into 64-lane sweeps — 256 queries in one
edge-gather pass. Production traffic doesn't arrive pre-formed: it is
many concurrent clients each holding one query. This package closes
that gap with the trick inference servers use — **continuous
batching**: an always-on asyncio HTTP/JSON server that runs a batch as
soon as its dispatch thread is free and merges every request arriving
meanwhile into the next one, so N concurrent single queries cost ~N/64
gather passes instead of N scalar BFS runs. A query that runs alone
gets the scalar hybrid BFS, which beats a 1-lane sweep.

Layers (DESIGN.md §15):

* :class:`~repro.service.scheduler.CoalescingScheduler` — the
  work-conserving idle/busy dispatch rule and event-loop-only
  admission control; each batch job opens its own graph right before
  it runs, so residency needs no pins.
* :class:`~repro.service.registry.GraphRegistry` — multi-graph
  residency under a byte budget with LRU eviction; a resident graph's
  queries run on its decoded CSR arrays.
* :class:`~repro.service.server.QueryService` — the HTTP front end
  (``POST /query``, ``GET /stats``, ``GET /graphs``, ``GET /healthz``)
  and lifecycle owner.
* :class:`~repro.service.client.ServiceClient` — the dependency-free
  client the load harness, CI gate, and tests drive it with.

``python -m repro serve graph.scsr --mmap`` boots one from the CLI.
"""

from repro.service.client import ServiceClient
from repro.service.registry import GraphRegistry, GraphSpec, UnknownGraphError
from repro.service.scheduler import (
    BatchFailedError,
    CoalescingScheduler,
    QueueFullError,
    SchedulerConfig,
    ServiceClosedError,
)
from repro.service.server import QueryService
from repro.service.stats import LatencyRecorder, ServiceStats, percentile

__all__ = [
    "BatchFailedError",
    "CoalescingScheduler",
    "GraphRegistry",
    "GraphSpec",
    "LatencyRecorder",
    "QueryService",
    "QueueFullError",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceStats",
    "UnknownGraphError",
    "percentile",
]
