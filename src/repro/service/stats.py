"""Service-side accounting: latency percentiles and coalescing ratios.

Every admitted request records one end-to-end latency sample (submit →
answer, including the wait for the dispatch thread); every dispatched batch
folds its :class:`repro.query.BatchStats` into the service totals. The
two headline numbers the load harness and the ``/stats`` endpoint
report:

* **coalescing ratio** — queries per dispatched batch. 1.0 means the
  scheduler never merged anything; 64 means each batch filled a full
  lane word.
* **gather-pass ratio** — scalar one-BFS-per-query traversals the
  served queries would have cost, divided by the physical edge-gather
  sweeps actually run. This is the same ledger
  :class:`~repro.query.BatchStats` keeps per batch, accumulated over
  the service lifetime.

All mutation happens on the event-loop thread (batch completions are
marshalled back via ``call_soon_threadsafe``), so the recorder needs no
locking; ``snapshot()`` readers on the same loop always see a
consistent view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LatencyRecorder", "ServiceStats", "percentile"]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    k = int(round(q / 100.0 * (len(ordered) - 1)))
    return float(ordered[max(0, min(len(ordered) - 1, k))])


class LatencyRecorder:
    """Bounded ring of recent latency samples plus lifetime totals.

    Percentiles are computed over the retained window (the last
    ``capacity`` samples) — a long-running server's p99 should reflect
    recent behaviour, not the cold start an unbounded reservoir would
    average in forever. ``count``/``total_s`` stay lifetime-accurate.
    """

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: list[float] = []
        self._next = 0
        self.count = 0
        self.total_s = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    def snapshot(self) -> dict:
        """JSON-friendly mean + p50/p95/p99 (milliseconds)."""
        window = self._ring
        return {
            "count": self.count,
            "mean_ms": round(
                1e3 * self.total_s / self.count if self.count else 0.0, 3
            ),
            "p50_ms": round(1e3 * percentile(window, 50), 3),
            "p95_ms": round(1e3 * percentile(window, 95), 3),
            "p99_ms": round(1e3 * percentile(window, 99), 3),
            "window_samples": len(window),
        }


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`~repro.service.QueryService`."""

    #: Requests admitted into a graph's pending list.
    admitted: int = 0
    #: Requests answered successfully.
    answered: int = 0
    #: Requests shed by admission control (HTTP 429).
    rejected: int = 0
    #: Requests refused at parse/validation time (HTTP 400).
    invalid: int = 0
    #: Batches whose engine run raised (every rider got a 500).
    failed_batches: int = 0
    #: Batches that reported an older graph epoch than one already
    #: answered (failed with a 500, also counted in ``failed_batches``).
    epoch_regressions: int = 0
    #: Batches dispatched to the engine.
    batches: int = 0
    #: Queries carried by those batches.
    batched_queries: int = 0
    #: Physical edge-gather sweeps across all batches.
    sweeps: int = 0
    #: One-BFS-per-query scalar baseline across all batches.
    scalar_traversals: int = 0
    #: Fresh sources actually swept.
    bfs_sources: int = 0
    #: Queries answered from the distance-row or diameter memos.
    memo_hits: int = 0
    #: Edges examined across all batches.
    edges_examined: int = 0
    #: Mutation batches applied through ``POST /mutate``.
    mutations: int = 0
    #: Edges actually inserted or deleted by those batches (noop
    #: requests excluded).
    mutated_edges: int = 0
    #: Size and amortization of the most recent batch.
    last_batch: dict = field(default_factory=dict)
    #: End-to-end latency samples (submit -> answer).
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    def observe_batch(self, batch_stats) -> None:
        """Fold one dispatched batch's :class:`BatchStats` in."""
        self.batches += 1
        self.batched_queries += batch_stats.queries
        self.sweeps += batch_stats.sweeps
        self.scalar_traversals += batch_stats.scalar_traversals
        self.bfs_sources += batch_stats.bfs_sources
        self.memo_hits += batch_stats.memo_hits
        self.edges_examined += batch_stats.edges_examined
        self.last_batch = {
            "queries": batch_stats.queries,
            "sweeps": batch_stats.sweeps,
            "memo_hits": batch_stats.memo_hits,
        }

    @property
    def coalescing_ratio(self) -> float:
        """Mean queries per dispatched batch (1.0 = no coalescing)."""
        return self.batched_queries / self.batches if self.batches else 0.0

    @property
    def gather_pass_ratio(self) -> float:
        """Scalar-baseline traversals per physical sweep."""
        return self.scalar_traversals / self.sweeps if self.sweeps else 0.0

    def snapshot(self) -> dict:
        """The ``/stats`` endpoint's ``service`` section."""
        return {
            "admitted": self.admitted,
            "answered": self.answered,
            "rejected": self.rejected,
            "invalid": self.invalid,
            "failed_batches": self.failed_batches,
            "epoch_regressions": self.epoch_regressions,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "coalescing_ratio": round(self.coalescing_ratio, 3),
            "sweeps": self.sweeps,
            "scalar_traversals": self.scalar_traversals,
            "gather_pass_ratio": round(self.gather_pass_ratio, 3),
            "bfs_sources": self.bfs_sources,
            "memo_hits": self.memo_hits,
            "edges_examined": self.edges_examined,
            "mutations": self.mutations,
            "mutated_edges": self.mutated_edges,
            "last_batch": dict(self.last_batch),
            "latency": self.latency.snapshot(),
        }
