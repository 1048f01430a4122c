"""The coalescing batch scheduler: continuous batching for queries.

The mechanism that turns PR 4's batched :class:`~repro.query.QueryEngine`
into multi-user throughput. Requests arrive one at a time from
concurrent clients; the scheduler merges each graph's arrivals into one
``QueryEngine.run`` batch, so N concurrent single queries cost ~N/64
edge-gather passes instead of N scalar BFS runs (a query flushed alone
runs the scalar hybrid BFS, which beats a 1-lane sweep).

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
event loop and queues one job for it on the single dispatch thread.
The job owns residency: it opens the graph (``registry.ensure``),
range-checks the riders against it, and runs the batch, with nothing
else on the thread in between — so no eviction can strike between the
open and the run, and nothing needs pinning.

Epochs never go backwards: the scheduler remembers the epoch of the
last batch it answered for each graph, and a batch that reports a
smaller one fails every rider (HTTP 500) and is counted in
``epoch_regressions`` — an answer from an older graph than one already
served is never returned.

Admission never leaves the event loop: a submit answers 404 from the
registry's spec table, 400 for bad syntax or sign, and 429 once
``max_pending`` queries are waiting across all graphs — each checked
once, since nothing awaits before the query joins its pending list.
Shed load therefore never touches batch state or in-flight work.

Threading contract: all scheduler state is mutated on the event-loop
thread. Engine work — registry opens, evictions, batch runs and
mutations — happens on one dedicated dispatch thread (``QueryEngine``
is not thread-safe; a single worker serializes every mutation of it).
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
        a malformed query (before it can join a batch) or an
        out-of-range one (from its batch job, without failing the
        batch), :class:`QueueFullError` when admission control sheds
        it, and :class:`ServiceClosedError` during shutdown.
        """
        t0 = time.perf_counter()
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        self.registry.spec(key)
        try:
            parsed = parse_query(query)
        except AlgorithmError:
            self.stats.invalid += 1
            raise
        if self._total_pending >= self.config.max_pending:
            self.stats.rejected += 1
            raise QueueFullError(
                f"{self._total_pending} queries pending "
                f"(limit {self.config.max_pending}); retry later"
            )

        future: asyncio.Future = asyncio.get_running_loop().create_future()
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
        """Swap out the graph's pending list and queue its batch job.

        ``run_in_executor`` submits at call time, so the job's place in
        the dispatch thread's FIFO is fixed here: a mutation queued
        after this flush runs after this batch.
        """
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self._total_pending -= len(batch)
        self._running += 1
        loop = asyncio.get_running_loop()
        job = loop.run_in_executor(
            self._dispatch, self._batch_job, key, [p.parsed for p in batch]
        )
        task = loop.create_task(self._finish_batch(key, batch, job))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _batch_job(self, key: str, queries: list[tuple]):
        """Dispatch thread: open the graph, set aside out-of-range
        riders, run the rest.

        Returns ``(errors, result)``: ``errors`` maps rider index to
        its range error; ``result`` is ``engine.run``'s, or ``None``
        when no rider was in range and the engine never ran.
        """
        n = self.registry.ensure(key).num_vertices
        errors = {}
        for i, q in enumerate(queries):
            try:
                parse_query(q, num_vertices=n)
            except AlgorithmError as exc:
                errors[i] = exc
        runnable = [q for i, q in enumerate(queries) if i not in errors]
        return errors, self.engine.run(key, runnable) if runnable else None

    async def _finish_batch(self, key: str, batch: list[_Pending], job) -> None:
        try:
            errors, result = await job
        except BaseException as exc:  # noqa: BLE001 - fail the riders, keep serving
            self.stats.failed_batches += 1
            for p in batch:
                if not p.future.done():
                    p.future.set_exception(
                        BatchFailedError(f"batch failed: {exc}")
                    )
        else:
            for i, exc in errors.items():
                self.stats.invalid += 1
                if not batch[i].future.done():
                    batch[i].future.set_exception(exc)
            if result is None:
                return
            answers, batch_stats = result
            riders = [p for i, p in enumerate(batch) if i not in errors]
            last = self._last_epoch.get(key, 0)
            if batch_stats.epoch < last:
                # Answers computed on an older graph than riders of an
                # earlier batch already saw: fail loudly instead.
                self.stats.epoch_regressions += 1
                self.stats.failed_batches += 1
                for p in riders:
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
            for p, answer in zip(riders, answers):
                if not p.future.done():
                    p.future.set_result((answer, batch_stats.epoch))
        finally:
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
        admitted afterwards see the new epoch. This needs no lock: the
        key's pending queries are flushed first, and since ``_flush``
        queues their job before the mutation job is queued on the same
        single-worker executor, FIFO execution on the dispatch thread
        is the serialization.

        Returns the :class:`~repro.dynamic.MutationBatch` record.
        Raises ``UnknownGraphError`` for an unregistered key,
        ``AlgorithmError`` for a static graph or malformed/out-of-range
        edges, and ``ServiceClosedError`` during shutdown.
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        self.registry.spec(key)
        self._flush(key)
        batch = await asyncio.get_running_loop().run_in_executor(
            self._dispatch, self._mutation_job, key, inserts, deletes
        )
        self.stats.mutations += 1
        self.stats.mutated_edges += batch.inserted + batch.deleted
        return batch

    def _mutation_job(self, key: str, inserts, deletes):
        """Dispatch thread: open the graph, then mutate it."""
        self.registry.ensure(key)
        return self.engine.mutate(key, inserts, deletes)

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
        # Every admitted query is answered: submits append without
        # awaiting, so nothing joins a pending list after this point.
        await self.drain()
        self._dispatch.shutdown(wait=True)
