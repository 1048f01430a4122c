"""Open-loop load generator: one asyncio thread, a few keep-alive connections.

Requests are due on a fixed schedule whether or not earlier ones have
finished. Each request's latency runs from the moment it was *due*,
so time spent waiting for a free connection behind a slow request
counts (no coordinated omission). ``late`` is how far behind schedule
the generator itself woke up for a request.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field


@dataclass
class Op:
    """One planned request and, after the run, its outcome."""

    due: float  # seconds after the phase start
    path: str  # "/query" or "/mutate"
    payload: dict
    tag: str = ""  # workload-specific label (e.g. "diam_after_write")
    woke: float = float("nan")  # absolute perf_counter times
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0
    body: dict = field(default_factory=dict)
    start: float = 0.0  # absolute phase start

    @property
    def latency(self) -> float:
        """Due-time latency (seconds): completion minus when it was due."""
        return self.done - (self.start + self.due)

    @property
    def late(self) -> float:
        """How late the generator woke up for this request (seconds)."""
        return self.woke - (self.start + self.due)


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader = self._writer = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        if self._writer is None:
            await self.open()
        body = b"" if payload is None else json.dumps(payload).encode()
        self._writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
             f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
             "Connection: keep-alive\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {})


async def run_open_loop(ops: list[Op], send, connections: int) -> float:
    """Issue ``ops`` on schedule over ``connections`` slots; returns the start.

    ``send(slot, op)`` performs one request on connection ``slot`` and
    returns ``(status, body)``; a raised exception records status 0.
    """
    slots: asyncio.Queue = asyncio.Queue()
    for i in range(connections):
        slots.put_nowait(i)
    tasks: list[asyncio.Task] = []
    start = time.perf_counter()

    async def issue(op: Op) -> None:
        slot = await slots.get()
        op.sent = time.perf_counter()
        try:
            op.status, op.body = await send(slot, op)
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
            op.status, op.body = 0, {"error": repr(exc)}
        finally:
            op.done = time.perf_counter()
            slots.put_nowait(slot)

    for op in sorted(ops, key=lambda o: o.due):
        op.start = start
        delay = start + op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        op.woke = time.perf_counter()
        tasks.append(asyncio.create_task(issue(op)))
    await asyncio.gather(*tasks)
    return start


async def run_closed_loop(ops: list[Op], send, connections: int, seconds: float) -> list[Op]:
    """Keep every connection busy with the next of ``ops`` for ``seconds``.

    Each slot sends its next request as soon as its previous one is
    answered, until ``seconds`` have passed or ``ops`` run out; returns
    the ops sent, in order. Each op counts as due when it was sent, so
    its latency is its own service time.
    """
    start = time.perf_counter()
    stop = start + seconds
    pending = iter(ops)
    sent: list[Op] = []

    async def slot_loop(slot: int) -> None:
        for op in pending:
            op.start = start
            op.woke = op.sent = time.perf_counter()
            op.due = op.sent - start
            sent.append(op)
            try:
                op.status, op.body = await send(slot, op)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
                op.status, op.body = 0, {"error": repr(exc)}
            op.done = time.perf_counter()
            if op.done >= stop:
                return

    await asyncio.gather(*(slot_loop(i) for i in range(connections)))
    return sent


def backlog_at_end(ops: list[Op]) -> int:
    """Requests of a phase still waiting for a connection at its last due time."""
    if not ops:
        return 0
    last_due = max(op.start + op.due for op in ops)
    return sum(1 for op in ops if op.sent > last_due)


def uniform_schedule(rate: float, count: int, offset: float = 0.0) -> list[float]:
    """``count`` due times at a fixed ``rate`` per second."""
    return [offset + i / rate for i in range(count)]
