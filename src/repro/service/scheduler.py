"""The coalescing batch scheduler: continuous batching for queries.

The mechanism that turns PR 4's batched :class:`~repro.query.QueryEngine`
into multi-user throughput. Requests arrive one at a time from
concurrent clients; the scheduler merges each graph's arrivals into one
``QueryEngine.run`` batch, so N concurrent single queries cost ~N/64
edge-gather passes instead of N scalar BFS runs.

Dispatch is work-conserving: nothing ever waits on a timer (DESIGN.md
§15.1).

* **idle** — no batch is dispatched and unfinished. An admitted query
  is flushed at once: a lone query never waits for company.
* **busy** — a batch is on the dispatch thread. Arrivals pile up per
  graph key. When the last dispatched batch finishes (answered, failed
  or cancelled), every key with pending queries is flushed, in arrival
  order, so batch k+1 fills while batch k executes.

Reaching ``batch_limit`` pending queries for one graph flushes at once
even while busy. A flush swaps the pending list out atomically on the
event loop, pins the graph against registry eviction, and queues the
batch on the single dispatch thread.

Epochs never go backwards: the scheduler remembers the epoch of the
last batch it answered for each graph, and a batch that reports a
smaller one fails every rider (HTTP 500) and is counted in
``epoch_regressions`` — an answer from an older graph than one already
served is never returned.

Admission control: at most ``max_pending`` queries may be waiting
across all graphs. Excess submissions fail fast with
:class:`QueueFullError` (the server's 429) *before* touching any
batch state, so shed load can never corrupt in-flight work.

Threading contract: all scheduler state is mutated on the event-loop
thread. Engine work — registry opens, evictions, and batch runs —
happens on one dedicated dispatch thread (``QueryEngine`` is not
thread-safe; a single worker serializes every mutation of it).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import AlgorithmError, ReproError
from repro.query.engine import parse_query
from repro.service.stats import ServiceStats

__all__ = [
    "BatchFailedError",
    "CoalescingScheduler",
    "QueueFullError",
    "SchedulerConfig",
    "ServiceClosedError",
]


class QueueFullError(ReproError):
    """Admission control shed this request (HTTP 429)."""


class ServiceClosedError(ReproError):
    """The service is shutting down (HTTP 503)."""


class BatchFailedError(ReproError):
    """The engine run carrying this query raised (HTTP 500)."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the coalescing scheduler (see module docstring)."""

    #: Dispatch immediately once this many queries are pending for one
    #: graph (matches the engine's ``batch_lanes`` chunking).
    batch_limit: int = 256
    #: Admission-control bound on total pending queries.
    max_pending: int = 1024

    def __post_init__(self):
        if self.batch_limit < 1:
            raise AlgorithmError("batch_limit must be >= 1")
        if self.max_pending < 1:
            raise AlgorithmError("max_pending must be >= 1")


class _Pending:
    __slots__ = ("parsed", "future", "t0")

    def __init__(self, parsed: tuple, future: asyncio.Future, t0: float):
        self.parsed = parsed
        self.future = future
        self.t0 = t0


class CoalescingScheduler:
    """Per-graph pending lists over one dispatch thread."""

    def __init__(
        self,
        engine,
        registry,
        *,
        config: SchedulerConfig | None = None,
        stats: ServiceStats | None = None,
    ):
        self.engine = engine
        self.registry = registry
        self.config = config or SchedulerConfig()
        self.stats = stats if stats is not None else ServiceStats()
        self._pending: dict[str, list[_Pending]] = {}
        #: Epoch of the last batch answered per graph key: a later batch
        #: reporting a smaller one is failed, never answered.
        self._last_epoch: dict[str, int] = {}
        self._inflight: set[asyncio.Task] = set()
        #: Batches dispatched and not yet finished (0 = idle).
        self._running = 0
        self._total_pending = 0
        self._closed = False
        self._dispatch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch"
        )

    # ------------------------------------------------------------------
    @property
    def pending_total(self) -> int:
        """Queries admitted and waiting for a batch (not yet dispatched)."""
        return self._total_pending

    # ------------------------------------------------------------------
    async def submit(self, key: str, query) -> tuple[int, int]:
        """Coalesce one query into the graph's next batch.

        Returns ``(answer, epoch)`` — the epoch is the graph's
        mutation epoch the carrying batch actually ran under (always 0
        for static graphs), so a caller interleaving queries with
        ``POST /mutate`` can line every answer up with the mutation
        stream.

        Raises :class:`~repro.service.registry.UnknownGraphError` for
        an unregistered key, :class:`~repro.errors.AlgorithmError` for
        a malformed/out-of-range query (before it can join a batch),
        :class:`QueueFullError` when admission control sheds it, and
        :class:`ServiceClosedError` during shutdown.
        """
        t0 = time.perf_counter()
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        if self._total_pending >= self.config.max_pending:
            self.stats.rejected += 1
            raise QueueFullError(
                f"{self._total_pending} queries pending "
                f"(limit {self.config.max_pending}); retry later"
            )
        loop = asyncio.get_running_loop()
        # Cold graphs open on the dispatch thread (mmap + sidecar load
        # can take a while; the event loop keeps serving meanwhile).
        graph = await loop.run_in_executor(
            self._dispatch, self.registry.ensure, key
        )
        try:
            parsed = parse_query(query, num_vertices=graph.num_vertices)
        except AlgorithmError:
            self.stats.invalid += 1
            raise
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        # Authoritative admission check: the await above yielded, so
        # other submissions may have filled the queue since the fast
        # pre-check.
        if self._total_pending >= self.config.max_pending:
            self.stats.rejected += 1
            raise QueueFullError(
                f"{self._total_pending} queries pending "
                f"(limit {self.config.max_pending}); retry later"
            )

        future: asyncio.Future = loop.create_future()
        pending = self._pending.setdefault(key, [])
        pending.append(_Pending(parsed, future, t0))
        self._total_pending += 1
        self.stats.admitted += 1
        if not self._running or len(pending) >= self.config.batch_limit:
            self._flush(key)

        answer, epoch = await future
        self.stats.answered += 1
        self.stats.latency.record(time.perf_counter() - t0)
        return answer, epoch

    # ------------------------------------------------------------------
    def _flush(self, key: str) -> None:
        """Swap out the graph's pending list and dispatch it."""
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self._total_pending -= len(batch)
        self._running += 1
        self.registry.pin(key)
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key, batch)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, key: str, batch: list[_Pending]) -> None:
        queries = [p.parsed for p in batch]
        loop = asyncio.get_running_loop()
        try:
            answers, batch_stats = await loop.run_in_executor(
                self._dispatch, self.engine.run, key, queries
            )
        except BaseException as exc:  # noqa: BLE001 - fail the riders, keep serving
            self.stats.failed_batches += 1
            for p in batch:
                if not p.future.done():
                    p.future.set_exception(
                        BatchFailedError(f"batch failed: {exc}")
                    )
        else:
            last = self._last_epoch.get(key, 0)
            if batch_stats.epoch < last:
                # Answers computed on an older graph than riders of an
                # earlier batch already saw: fail loudly instead.
                self.stats.epoch_regressions += 1
                self.stats.failed_batches += 1
                for p in batch:
                    if not p.future.done():
                        p.future.set_exception(
                            BatchFailedError(
                                f"graph {key!r} epoch went backwards: batch "
                                f"ran at epoch {batch_stats.epoch} after "
                                f"epoch {last} was answered"
                            )
                        )
                return
            self._last_epoch[key] = batch_stats.epoch
            self.stats.observe_batch(batch_stats)
            for p, answer in zip(batch, answers):
                if not p.future.done():
                    p.future.set_result((answer, batch_stats.epoch))
        finally:
            self.registry.unpin(key)
            self._running -= 1
            # Work-conserving: the dispatcher went idle, so everything
            # that piled up behind this batch runs now. Without this
            # re-flush nothing else would ever move those queries.
            if not self._running:
                for pending_key in list(self._pending):
                    self._flush(pending_key)

    # ------------------------------------------------------------------
    async def submit_mutation(self, key: str, inserts=(), deletes=()):
        """Apply one mutation batch, interleaving safely with queries.

        Ordering contract: queries admitted *before* the mutation run
        on the pre-mutation epoch, the mutation itself runs alone on
        the dispatch thread (``QueryEngine.mutate`` swaps the entry's
        kernel/memo state, which must never race a batch), and queries
        admitted afterwards see the new epoch. This needs no global
        lock: the key's pending queries are flushed first,
        and since both batch runs and the mutation are submitted to the
        same single-worker executor in that order, FIFO execution on
        the dispatch thread is the serialization.

        Returns the :class:`~repro.dynamic.MutationBatch` record.
        Raises ``UnknownGraphError`` for an unregistered key,
        ``AlgorithmError`` for a static graph or malformed/out-of-range
        edges, and ``ServiceClosedError`` during shutdown.
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._dispatch, self.registry.ensure, key)
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        # Dispatch the queries admitted before the mutation...
        self._flush(key)
        # ... and let the freshly created batch task(s) reach their
        # run_in_executor submission (a task runs synchronously up to
        # its first await once the loop yields; call_soon is FIFO, so
        # one tick suffices) before the mutation enters the executor
        # queue behind them.
        await asyncio.sleep(0)
        self.registry.pin(key)
        try:
            batch = await loop.run_in_executor(
                self._dispatch, self.engine.mutate, key, inserts, deletes
            )
        finally:
            self.registry.unpin(key)
        self.stats.mutations += 1
        self.stats.mutated_edges += batch.inserted + batch.deleted
        return batch

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush every pending list and wait for in-flight batches."""
        for key in list(self._pending):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self) -> None:
        """Stop admitting, drain in-flight work, stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        for batch in self._pending.values():
            for p in batch:
                if not p.future.done():
                    p.future.set_exception(
                        ServiceClosedError("service is shutting down")
                    )
        self._pending.clear()
        self._total_pending = 0
        self._dispatch.shutdown(wait=True)
