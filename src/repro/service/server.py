"""Asyncio HTTP/JSON front door for the coalescing query scheduler.

A deliberately small, dependency-free HTTP/1.1 implementation over
``asyncio.start_server`` (the container has no aiohttp): request line +
headers + Content-Length body in, JSON out, keep-alive supported. The
interesting machinery lives in :mod:`repro.service.scheduler`; this
module just maps HTTP onto it.

Endpoints:

``POST /query``
    Body ``{"graph": KEY, "queries": [Q, ...]}`` (or a single
    ``"query": Q``). Each query coalesces *individually* into the
    graph's next batch, so the queries of one request and of every
    concurrent request that arrive while a batch runs share sweeps.
    Responds ``{"graph": KEY, "answers": [...], "epochs": [...]}`` — the epoch
    per answer is the mutation epoch its carrying batch ran under
    (all zeros for static graphs). Errors are structured:
    400 malformed/out-of-range query, 404 unknown graph, 429 shed by
    admission control, 500 batch failure, 503 shutting down.

``POST /mutate``
    Body ``{"graph": KEY, "insert": [[u, v], ...],
    "delete": [[u, v], ...]}`` (either list optional). Applies one
    batched edge mutation to a graph registered as dynamic
    (``add_graph(..., dynamic=True)``), serialized against query
    batches on the dispatch thread (see
    :meth:`CoalescingScheduler.submit_mutation`). Responds
    ``{"graph": KEY, "epoch": E, "applied": {...}}`` with the
    post-batch epoch and insert/delete/noop counts. 400 for a static
    graph, self-loops, or out-of-range endpoints; 404/503 as above.

``GET /stats``
    Service, scheduler, registry, per-graph executor, and warm-start
    cache counters (see :meth:`QueryService.stats_snapshot`).

``GET /graphs``
    The registry listing (keys, residency, sizes).

``GET /healthz``
    ``{"ok": true}`` once the server accepts connections.
"""

from __future__ import annotations

import asyncio
import json

from repro._version import __version__
from repro.errors import AlgorithmError, ReproError
from repro.query import QueryEngine
from repro.service.registry import GraphRegistry, UnknownGraphError
from repro.service.scheduler import (
    BatchFailedError,
    CoalescingScheduler,
    QueueFullError,
    SchedulerConfig,
    ServiceClosedError,
)
from repro.service.stats import ServiceStats

__all__ = ["QueryService"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies past this size are rejected outright (413).
_MAX_BODY = 1 << 20

def _status_for(exc: ReproError) -> int:
    if isinstance(exc, UnknownGraphError):
        return 404
    if isinstance(exc, QueueFullError):
        return 429
    if isinstance(exc, ServiceClosedError):
        return 503
    if isinstance(exc, BatchFailedError):
        return 500
    if isinstance(exc, AlgorithmError):
        return 400
    return 500


class QueryService:
    """One server: engine + registry + scheduler + HTTP front end."""

    def __init__(
        self,
        *,
        store=None,
        config: SchedulerConfig | None = None,
        byte_budget: int | None = None,
        batch_lanes: int = 256,
        workers: int = 1,
        memo_vectors: int = 64,
    ):
        self.store = store
        self.engine = QueryEngine(
            store=store,
            batch_lanes=batch_lanes,
            memo_vectors=memo_vectors,
            workers=workers,
        )
        self.registry = GraphRegistry(self.engine, byte_budget=byte_budget)
        self.stats = ServiceStats()
        self.scheduler = CoalescingScheduler(
            self.engine, self.registry, config=config, stats=self.stats
        )
        self._server: asyncio.base_events.Server | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def add_graph(
        self,
        key: str,
        *,
        path: str | None = None,
        graph=None,
        mmap: bool = True,
        dynamic: bool = False,
    ) -> None:
        """Register a serveable graph (opened lazily on first query).

        With ``dynamic=True`` the graph is wrapped in a
        :class:`~repro.dynamic.DynamicGraph` on open, which enables
        ``POST /mutate`` batches against it.
        """
        self.registry.register(
            key, path=path, graph=graph, mmap=mmap, dynamic=dynamic
        )

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_client, host=host, port=port
        )
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise AlgorithmError("start() the service first")
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain batches, flush sidecars, free graphs."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.close()
        loop = asyncio.get_running_loop()
        # Engine/registry teardown belongs to the dispatch thread, but
        # the scheduler's executor is gone now; state is quiesced, so
        # running it here is safe.
        await loop.run_in_executor(None, self._teardown)

    def _teardown(self) -> None:
        if self.store is not None:
            self.engine.flush()
        self.registry.close()
        self.engine.close()

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload."""
        snapshot = {
            "version": __version__,
            "service": self.stats.snapshot(),
            "scheduler": {
                "pending": self.scheduler.pending_total,
                "batch_limit": self.scheduler.config.batch_limit,
                "max_pending": self.scheduler.config.max_pending,
            },
            "registry": self.registry.snapshot(),
            "executors": self.engine.executor_counters(),
        }
        if self.store is not None:
            snapshot["cache"] = self.store.counters()
        return snapshot

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, payload = await self._dispatch_request(
                    method, path, body
                )
                writer.write(
                    self._encode_response(
                        status, payload, keep_alive=keep_alive
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            raise asyncio.IncompleteReadError(b"", length)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    def _encode_response(status, payload, *, keep_alive):
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    # ------------------------------------------------------------------
    async def _dispatch_request(self, method, path, body):
        path = path.split("?", 1)[0]
        if path == "/query":
            if method != "POST":
                return 405, {"error": "POST /query"}
            return await self._handle_query(body)
        if path == "/mutate":
            if method != "POST":
                return 405, {"error": "POST /mutate"}
            return await self._handle_mutate(body)
        if method != "GET":
            return 405, {"error": f"GET {path}"}
        if path == "/healthz":
            return 200, {"ok": True, "graphs": self.registry.keys()}
        if path == "/stats":
            return 200, self.stats_snapshot()
        if path == "/graphs":
            return 200, self.registry.snapshot()["graphs"]
        return 404, {"error": f"unknown path {path!r}"}

    async def _handle_query(self, body):
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        key = payload.get("graph")
        if not isinstance(key, str):
            return 400, {"error": "missing 'graph' key"}
        queries = payload.get("queries")
        if queries is None:
            single = payload.get("query")
            queries = None if single is None else [single]
        if not isinstance(queries, list) or not queries:
            return 400, {
                "error": "provide 'queries': [..] or 'query': '..'"
            }

        results = await asyncio.gather(
            *(self.scheduler.submit(key, q) for q in queries),
            return_exceptions=True,
        )
        answers, epochs, errors = [], [], []
        status = 200
        for query, result in zip(queries, results):
            if isinstance(result, ReproError):
                code = _status_for(result)
                errors.append(
                    {"query": query, "status": code, "error": str(result)}
                )
                answers.append(None)
                epochs.append(None)
                if status == 200:
                    status = code
            elif isinstance(result, BaseException):
                errors.append(
                    {"query": query, "status": 500, "error": str(result)}
                )
                answers.append(None)
                epochs.append(None)
                if status == 200:
                    status = 500
            else:
                answer, epoch = result
                answers.append(answer)
                epochs.append(epoch)
        response = {"graph": key, "answers": answers, "epochs": epochs}
        if errors:
            response["errors"] = errors
        return status, response

    async def _handle_mutate(self, body):
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        key = payload.get("graph")
        if not isinstance(key, str):
            return 400, {"error": "missing 'graph' key"}
        inserts = payload.get("insert", [])
        deletes = payload.get("delete", [])
        if not isinstance(inserts, list) or not isinstance(deletes, list):
            return 400, {"error": "'insert'/'delete' must be edge lists"}
        try:
            batch = await self.scheduler.submit_mutation(
                key, inserts, deletes
            )
        except ReproError as exc:
            return _status_for(exc), {"error": str(exc)}
        return 200, {
            "graph": key,
            "epoch": batch.epoch,
            "applied": {
                "inserted": batch.inserted,
                "deleted": batch.deleted,
                "noop_inserts": batch.noop_inserts,
                "noop_deletes": batch.noop_deletes,
            },
        }
