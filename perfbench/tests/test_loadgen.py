"""Open-loop latency is timed from when each request was due; the
closed loop keeps every connection busy and stops on time."""

import asyncio

import pytest

from loadgen import Op, backlog_at_end, run_closed_loop, run_open_loop, uniform_schedule


def _run(ops, service_s, connections):
    async def send(slot, op):
        await asyncio.sleep(service_s)
        return 200, {}

    asyncio.run(run_open_loop(ops, send, connections))


def test_waiting_for_a_connection_counts_toward_latency():
    # Three requests due at once, one connection, 40 ms each: the third
    # waits for two others, so its latency is ~120 ms, not ~40 ms.
    ops = [Op(0.0, "/query", {}) for _ in range(3)]
    _run(ops, 0.04, 1)
    lat = sorted(op.latency for op in ops)
    assert lat[0] == pytest.approx(0.04, abs=0.015)
    assert lat[2] == pytest.approx(0.12, abs=0.03)
    service = sorted(op.done - op.sent for op in ops)
    assert service[2] == pytest.approx(0.04, abs=0.015)


def test_schedule_is_kept_when_the_server_is_fast():
    ops = [Op(due, "/query", {}) for due in uniform_schedule(100.0, 10)]
    _run(ops, 0.001, 2)
    assert all(op.late < 0.02 for op in ops)
    assert all(op.latency < 0.03 for op in ops)
    assert backlog_at_end(ops) <= 1


def test_overload_leaves_a_backlog_and_growing_latency():
    ops = [Op(due, "/query", {}) for due in uniform_schedule(200.0, 20)]
    _run(ops, 0.02, 1)  # capacity 50/s against 200/s offered
    assert backlog_at_end(ops) > 5
    assert ops[-1].latency > ops[0].latency + 0.2


def test_failed_send_is_recorded_not_raised():
    async def send(slot, op):
        raise ConnectionResetError("gone")

    ops = [Op(0.0, "/query", {})]
    asyncio.run(run_open_loop(ops, send, 1))
    assert ops[0].status == 0 and "gone" in ops[0].body["error"]


def test_closed_loop_sends_back_to_back_until_time_is_up():
    # Two connections, 20 ms per request, 0.2 s: about 20 requests go out
    # of the 100 planned, and each one's latency is its service time.
    async def send(slot, op):
        await asyncio.sleep(0.02)
        return 200, {}

    ops = [Op(0.0, "/query", {}) for _ in range(100)]
    sent = asyncio.run(run_closed_loop(ops, send, 2, 0.2))
    assert 14 <= len(sent) <= 22
    assert sent == ops[:len(sent)]
    assert all(op.latency == pytest.approx(0.02, abs=0.015) for op in sent)
    assert max(op.done for op in sent) - sent[0].start < 0.2 + 0.05
