"""The coalescing batch scheduler: continuous batching for queries.

The mechanism that turns PR 4's batched :class:`~repro.query.QueryEngine`
into multi-user throughput. Requests arrive one at a time from
concurrent clients; the scheduler holds each graph's arrivals in a
*batching window* and dispatches them as one ``QueryEngine.run`` batch,
so N concurrent single queries cost ~N/64 edge-gather passes instead of
N scalar BFS runs.

State machine per graph key (DESIGN.md §15):

* **idle** — no pending queries, no timer.
* **accumulating** — the first arrival arms a one-shot timer for the
  chosen window; later arrivals pile into the same list. Reaching
  ``batch_limit`` pending queries dispatches immediately (the window
  is a latency bound, not a batch-size requirement).
* **dispatch** — the timer (or the limit) fires: the pending list is
  swapped out atomically on the event loop, pinned against registry
  eviction, and run on the single dispatch thread. New arrivals start
  accumulating the *next* batch immediately — batch k+1 fills while
  batch k executes, which is exactly the continuous-batching overlap
  inference servers use.

Window tuning: the armed window is
``clamp(min_window_s, window_s, 63 × EWMA inter-arrival gap)`` when
``adaptive`` (the default). Under heavy load the gap is microseconds,
so the window shrinks toward ``min_window_s`` — batches still fill a
lane word because arrivals are dense, and nobody waits longer than
needed. Under light load the clamp rises to the configured ceiling:
a lone query waits at most ``window_s`` before running solo.

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
from repro.parallel.costmodel import LANE_WIDTH
from repro.query.engine import parse_query
from repro.service.stats import ServiceStats

__all__ = [
    "BatchFailedError",
    "CoalescingScheduler",
    "QueueFullError",
    "SchedulerConfig",
    "ServiceClosedError",
]

#: EWMA smoothing for the inter-arrival gap estimate.
_GAP_ALPHA = 0.2


class QueueFullError(ReproError):
    """Admission control shed this request (HTTP 429)."""


class ServiceClosedError(ReproError):
    """The service is shutting down (HTTP 503)."""


class BatchFailedError(ReproError):
    """The engine run carrying this query raised (HTTP 500)."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the coalescing window (see module docstring)."""

    #: Ceiling on how long the first query of a batch waits (seconds).
    window_s: float = 0.004
    #: Floor of the adaptive window (seconds).
    min_window_s: float = 0.0005
    #: Scale the window with the measured arrival rate.
    adaptive: bool = True
    #: Dispatch immediately once this many queries are pending for one
    #: graph (matches the engine's ``batch_lanes`` chunking).
    batch_limit: int = 256
    #: Admission-control bound on total pending queries.
    max_pending: int = 1024

    def __post_init__(self):
        if self.window_s < 0 or self.min_window_s < 0:
            raise AlgorithmError("window durations must be >= 0")
        if self.min_window_s > self.window_s:
            raise AlgorithmError("min_window_s must be <= window_s")
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
    """Per-graph batching windows over one dispatch thread."""

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
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._inflight: set[asyncio.Task] = set()
        self._total_pending = 0
        self._ewma_gap: float | None = None
        self._last_arrival: float | None = None
        self._closed = False
        self._dispatch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch"
        )

    # ------------------------------------------------------------------
    @property
    def pending_total(self) -> int:
        """Queries currently waiting in a window (not yet dispatched)."""
        return self._total_pending

    def _pick_window(self) -> float:
        window = self.config.window_s
        if self.config.adaptive and self._ewma_gap is not None:
            window = min(window, (LANE_WIDTH - 1) * self._ewma_gap)
        return max(self.config.min_window_s, window)

    def _note_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += _GAP_ALPHA * (gap - self._ewma_gap)
        self._last_arrival = now

    # ------------------------------------------------------------------
    async def submit(self, key: str, query) -> tuple[int, int]:
        """Coalesce one query into the graph's current window.

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
        self._note_arrival(time.perf_counter())
        if len(pending) >= self.config.batch_limit:
            self._flush(key)
        elif key not in self._timers:
            window = self._pick_window()
            self.stats.last_window_s = window
            self._timers[key] = loop.call_later(window, self._flush, key)

        answer, epoch = await future
        self.stats.answered += 1
        self.stats.latency.record(time.perf_counter() - t0)
        return answer, epoch

    # ------------------------------------------------------------------
    def _flush(self, key: str) -> None:
        """Swap out the graph's pending list and dispatch it."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self._total_pending -= len(batch)
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
            self.stats.observe_batch(
                batch_stats, window_s=self.stats.last_window_s
            )
            for p, answer in zip(batch, answers):
                if not p.future.done():
                    p.future.set_result((answer, batch_stats.epoch))
        finally:
            self.registry.unpin(key)

    # ------------------------------------------------------------------
    async def submit_mutation(self, key: str, inserts=(), deletes=()):
        """Apply one mutation batch, interleaving safely with queries.

        Ordering contract: queries admitted *before* the mutation run
        on the pre-mutation epoch, the mutation itself runs alone on
        the dispatch thread (``QueryEngine.mutate`` swaps the entry's
        kernel/memo state, which must never race a batch), and queries
        admitted afterwards see the new epoch. This needs no global
        lock: the key's currently-accumulating window is flushed first,
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
        # Dispatch the window the pre-mutation queries joined...
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
        """Flush every window and wait for in-flight batches."""
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
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for batch in self._pending.values():
            for p in batch:
                if not p.future.done():
                    p.future.set_exception(
                        ServiceClosedError("service is shutting down")
                    )
        self._pending.clear()
        self._total_pending = 0
        self._dispatch.shutdown(wait=True)
