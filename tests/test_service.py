"""The coalescing query service: batching window, HTTP layer, errors.

The load-bearing claims under test:

* concurrent single-query clients genuinely coalesce — fewer engine
  batches than requests, fewer physical sweeps than queries — and the
  answers are bit-identical to a cold serial ``QueryEngine``;
* admission control sheds excess load with 429 without corrupting the
  queries already accepted into a window;
* the HTTP surface maps every failure mode to its structured status
  (400/404/405/429/503).

No pytest-asyncio in the container: each test drives its own event
loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import networkx as nx
import pytest

from repro.graph import from_networkx
from repro.query import QueryEngine
from repro.service import (
    QueryService,
    SchedulerConfig,
    ServiceClient,
    ServiceClosedError,
    UnknownGraphError,
)
from repro.service.scheduler import CoalescingScheduler
from repro.service.registry import GraphRegistry
from repro.service.stats import LatencyRecorder, percentile


def small_graph(n: int = 96, seed: int = 3):
    return from_networkx(nx.random_regular_graph(4, n, seed=seed))


def serve(test, *, config=None, graphs=None, dynamic=False, **kwargs):
    """Boot a service on an ephemeral port, run ``test(service, host,
    port)``, and always close it — one helper so every test follows
    the same lifecycle."""

    async def main():
        service = QueryService(config=config, **kwargs)
        for key, graph in (graphs or {"g": small_graph()}).items():
            service.add_graph(key, graph=graph, dynamic=dynamic)
        host, port = await service.start()
        try:
            return await test(service, host, port)
        finally:
            await service.close()

    return asyncio.run(main())


class TestCoalescing:
    def test_concurrent_clients_share_sweeps(self):
        """64 one-query clients must cost far fewer than 64 batches.

        The window is set generously (250 ms) so scheduling jitter
        cannot split the arrivals: this test is about the mechanism,
        not the tuning.
        """
        graph = small_graph(128)
        n_clients = 64

        async def test(service, host, port):
            async def one(i):
                async with ServiceClient(host, port) as client:
                    status, payload = await client.query("g", f"dist {i} {i + 1}")
                    assert status == 200, payload
                    return payload["answers"][0]

            answers = await asyncio.gather(*(one(i) for i in range(n_clients)))
            return answers, service.stats

        answers, stats = serve(
            test,
            config=SchedulerConfig(window_s=0.25, adaptive=False),
            graphs={"g": graph},
        )

        # Answers bit-identical to a cold serial engine.
        engine = QueryEngine()
        engine.add_graph(graph, key="g")
        expected, _ = engine.run(
            "g", [f"dist {i} {i + 1}" for i in range(64)]
        )
        assert answers == expected

        # The whole point: far fewer dispatches than requests, and far
        # fewer physical sweeps than a one-BFS-per-query baseline.
        assert stats.answered == n_clients
        assert stats.batches < n_clients
        assert stats.sweeps < n_clients
        assert stats.coalescing_ratio >= 4.0
        assert stats.gather_pass_ratio >= 4.0

    def test_batch_limit_dispatches_early(self):
        """Hitting batch_limit must not wait out the window."""

        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                queries = [f"dist 0 {i}" for i in range(8)]
                status, payload = await asyncio.wait_for(
                    client.query("g", *queries), timeout=5.0
                )
                assert status == 200
                return payload["answers"]

        # Window of 100 s: only the size trigger can dispatch in time.
        answers = serve(
            test,
            config=SchedulerConfig(
                window_s=100.0, adaptive=False, batch_limit=8
            ),
        )
        assert len(answers) == 8 and answers[0] == 0

    def test_diam_memoized_across_batches(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                first = await client.query("g", "diam")
                second = await client.query("g", "diam")
                assert first[1]["answers"] == second[1]["answers"]
            return service.stats.memo_hits

        memo_hits = serve(
            test, config=SchedulerConfig(window_s=0.0, min_window_s=0.0, adaptive=False)
        )
        assert memo_hits >= 1

    def test_adaptive_window_shrinks_under_load(self):
        config = SchedulerConfig(
            window_s=0.5, min_window_s=0.001, adaptive=True
        )
        engine = QueryEngine()
        registry = GraphRegistry(engine)
        scheduler = CoalescingScheduler(engine, registry, config=config)
        # Dense synthetic arrivals: 10 us apart -> EWMA gap ~1e-5 ->
        # 63 * gap << window ceiling.
        now = 0.0
        for _ in range(50):
            scheduler._note_arrival(now)
            now += 1e-5
        assert scheduler._pick_window() < 0.01
        # Sparse arrivals recover toward the ceiling.
        for _ in range(50):
            scheduler._note_arrival(now)
            now += 1.0
        assert scheduler._pick_window() == config.window_s


class TestAdmissionControl:
    def test_shed_load_gets_429_and_admitted_queries_survive(self):
        """Over-limit submissions fail fast; the ones already in the
        window still return correct answers."""
        graph = small_graph(64)

        async def test(service, host, port):
            async def one(i):
                async with ServiceClient(host, port) as client:
                    return await client.query("g", f"dist 0 {i % 64}")

            results = await asyncio.gather(*(one(i) for i in range(32)))
            return results, service.stats

        results, stats = serve(
            test,
            config=SchedulerConfig(
                window_s=0.25, adaptive=False, max_pending=4
            ),
            graphs={"g": graph},
        )
        ok = [r for r in results if r[0] == 200]
        shed = [r for r in results if r[0] == 429]
        assert shed, "expected some 429s with max_pending=4"
        assert ok, "expected some queries to be admitted"
        assert len(ok) + len(shed) == 32
        assert stats.rejected == len(shed)

        # Every admitted answer matches the serial oracle.
        engine = QueryEngine()
        engine.add_graph(graph, key="g")
        queries = [f"dist 0 {i % 64}" for i in range(32)]
        expected, _ = engine.run("g", queries)
        by_query = dict(zip(queries, expected))
        # The server echoes answers in request order; re-check each OK
        # response against the oracle via a second query round-trip.
        for (status, payload), query in zip(results, queries):
            if status == 200:
                assert payload["answers"][0] == by_query[query]

    def test_429_body_is_structured(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as a, ServiceClient(
                host, port
            ) as b:
                first = asyncio.ensure_future(a.query("g", "dist 0 1"))
                await asyncio.sleep(0.05)  # let it enter the window
                status, payload = await b.query("g", "dist 0 2")
                await first
                return status, payload

        status, payload = serve(
            test,
            config=SchedulerConfig(
                window_s=0.4, adaptive=False, max_pending=1
            ),
        )
        assert status == 429
        assert payload["errors"][0]["status"] == 429
        assert "pending" in payload["errors"][0]["error"]


class TestHTTPSurface:
    def test_endpoints(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                out = {}
                out["healthz"] = await client.request("GET", "/healthz")
                await client.query("g", "dist 0 1")  # first query opens it
                out["graphs"] = await client.request("GET", "/graphs")
                out["stats"] = await client.request("GET", "/stats")
                out["missing"] = await client.request("GET", "/nope")
                out["bad_method"] = await client.request("GET", "/query")
                out["bad_json"] = await client.request(
                    "POST", "/query", {"graph": 42}
                )
                return out

        out = serve(test, config=SchedulerConfig(window_s=0.0, min_window_s=0.0))
        assert out["healthz"] == (200, {"ok": True, "graphs": ["g"]})
        assert out["graphs"][0] == 200
        assert out["graphs"][1]["g"]["resident"] is True
        status, stats = out["stats"]
        assert status == 200
        assert stats["service"]["answered"] == 1
        assert stats["registry"]["opens"] == 1
        assert "g" in stats["executors"]
        assert out["missing"][0] == 404
        assert out["bad_method"][0] == 405
        assert out["bad_json"][0] == 400

    def test_unknown_graph_404(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                return await client.query("ghost", "dist 0 1")

        status, payload = serve(test)
        assert status == 404
        assert payload["errors"][0]["status"] == 404
        assert "ghost" in payload["errors"][0]["error"]

    def test_invalid_queries_400_before_batching(self):
        """Malformed and out-of-range queries get structured 400s and
        never join (or poison) a batch; valid riders still answer."""

        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                status, payload = await client.query(
                    "g", "dist 0 1", "dist 0 100000", "frob 1", "dist 0 -2"
                )
                return status, payload, service.stats

        status, payload, stats = serve(
            test, config=SchedulerConfig(window_s=0.05, adaptive=False)
        )
        assert status == 400
        assert isinstance(payload["answers"][0], int)  # valid rider answered
        assert payload["answers"][0] >= 0
        assert payload["answers"][1:] == [None, None, None]
        codes = [e["status"] for e in payload["errors"]]
        assert codes == [400, 400, 400]
        assert "out of range" in payload["errors"][0]["error"]
        assert stats.invalid == 3
        assert stats.failed_batches == 0

    def test_single_query_form(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                return await client.request(
                    "POST", "/query", {"graph": "g", "query": "ecc 0"}
                )

        status, payload = serve(test, config=SchedulerConfig(window_s=0.0, min_window_s=0.0))
        assert status == 200
        assert len(payload["answers"]) == 1

    def test_submit_after_close_503(self):
        async def test(service, host, port):
            await service.scheduler.close()
            with pytest.raises(ServiceClosedError):
                await service.scheduler.submit("g", "dist 0 1")

        serve(test)


class TestSchedulerUnits:
    def test_config_validation(self):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            SchedulerConfig(window_s=-1.0)
        with pytest.raises(AlgorithmError):
            SchedulerConfig(window_s=0.001, min_window_s=0.01)
        with pytest.raises(AlgorithmError):
            SchedulerConfig(batch_limit=0)
        with pytest.raises(AlgorithmError):
            SchedulerConfig(max_pending=0)

    def test_unknown_graph_raises_before_window(self):
        async def main():
            engine = QueryEngine()
            registry = GraphRegistry(engine)
            scheduler = CoalescingScheduler(engine, registry)
            try:
                with pytest.raises(UnknownGraphError):
                    await scheduler.submit("ghost", "diam")
                assert scheduler.pending_total == 0
            finally:
                await scheduler.close()
                engine.close()

        asyncio.run(main())

    def test_percentiles(self):
        samples = [float(i) for i in range(1, 102)]  # 1..101, odd count
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == 51.0  # the true median
        assert percentile(samples, 100) == 101.0
        assert percentile(samples, 99) >= 99.0
        assert percentile([], 50) == 0.0

    def test_latency_recorder_window(self):
        rec = LatencyRecorder(capacity=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            rec.record(v)
        snap = rec.snapshot()
        assert snap["count"] == 5  # lifetime count survives the ring
        assert snap["window_samples"] == 4
        assert snap["p50_ms"] >= 1000.0  # seconds in, milliseconds out


class TestMutation:
    """POST /mutate against a dynamic graph, interleaved with queries.

    The ordering contract under test: every response carries the epoch
    it was answered under, and its answers must equal a from-scratch
    recompute of *that* epoch's graph — regardless of how mutations
    and queries interleave on the wire.
    """

    CHORDS = [(5, 31), (3, 31), (1, 31)]

    def _expected_by_epoch(self):
        # d(0, 31) on P32 as each chord lands: 31 -> 6 -> 4 -> 2.
        from repro.bfs.reference import serial_distances

        graphs = {0: from_networkx(nx.path_graph(32))}
        edges = list(nx.path_graph(32).edges())
        for i, chord in enumerate(self.CHORDS, start=1):
            edges.append(chord)
            graphs[i] = from_networkx(nx.Graph(edges))
        return {
            epoch: int(serial_distances(graph, 0)[31])
            for epoch, graph in graphs.items()
        }

    def test_interleaved_mutations_and_queries_are_epoch_consistent(self):
        expected = self._expected_by_epoch()
        assert sorted(expected.values(), reverse=True) == [31, 6, 4, 2]

        async def test(service, host, port):
            stop = asyncio.Event()
            checked = []

            async def churn():
                # Concurrent load: every answer must match the epoch
                # its own response reports, whatever that epoch is.
                async with ServiceClient(host, port) as client:
                    while not stop.is_set():
                        status, payload = await client.query("g", "dist 0 31")
                        assert status == 200, payload
                        checked.append(
                            (payload["answers"][0], payload["epochs"][0])
                        )

            churners = [asyncio.create_task(churn()) for _ in range(4)]
            async with ServiceClient(host, port) as client:
                status, payload = await client.query("g", "dist 0 31")
                assert (payload["answers"][0], payload["epochs"][0]) == (31, 0)
                for i, chord in enumerate(self.CHORDS, start=1):
                    status, payload = await client.mutate(
                        "g", insert=[chord]
                    )
                    assert status == 200, payload
                    assert payload["epoch"] == i
                    assert payload["applied"]["inserted"] == 1
                    status, payload = await client.query("g", "dist 0 31")
                    assert payload["epochs"][0] == i
                    assert payload["answers"][0] == expected[i]
                    await asyncio.sleep(0.01)
            stop.set()
            await asyncio.gather(*churners)
            return checked

        checked = serve(
            test,
            config=SchedulerConfig(window_s=0.002, adaptive=False),
            graphs={"g": from_networkx(nx.path_graph(32))},
            dynamic=True,
        )
        assert checked  # the churners actually ran
        for answer, epoch in checked:
            assert answer == expected[epoch], (answer, epoch)
        assert len({epoch for _, epoch in checked}) >= 2  # saw a boundary

    def test_mutate_noop_and_counters(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                status, payload = await client.mutate(
                    "g", insert=[(0, 1)], delete=[(9, 31)]
                )
                assert status == 200
                assert payload["epoch"] == 0  # nothing actually changed
                assert payload["applied"] == {
                    "inserted": 0,
                    "deleted": 0,
                    "noop_inserts": 1,
                    "noop_deletes": 1,
                }
                status, payload = await client.mutate(
                    "g", insert=[(0, 9)], delete=[(0, 1)]
                )
                assert status == 200 and payload["epoch"] == 1
            return service.stats.snapshot()

        snap = serve(
            test,
            graphs={"g": from_networkx(nx.path_graph(32))},
            dynamic=True,
        )
        assert snap["mutations"] == 2
        assert snap["mutated_edges"] == 2

    def test_non_integer_ids_400_and_epoch_unchanged(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                bad = {}
                for label, queries in (
                    ("float", [["ecc", 2.7]]),
                    ("bool", [["dist", True, 3.99]]),
                ):
                    bad[label] = await client.request(
                        "POST", "/query", {"graph": "g", "queries": queries}
                    )
                bad["mutate"] = await client.request(
                    "POST", "/mutate", {"graph": "g", "insert": [[0.9, 5]]}
                )
                after = await client.query("g", "dist 0 5")
                return bad, after

        bad, (status, payload) = serve(
            test,
            graphs={"g": from_networkx(nx.path_graph(32))},
            dynamic=True,
        )
        for label in ("float", "bool"):
            code, body = bad[label]
            assert code == 400, label
            assert body["answers"] == [None]
            assert "not an integer" in body["errors"][0]["error"]
        code, body = bad["mutate"]
        assert code == 400
        assert "not an integer" in body["error"]
        # Neither (0, 5) nor anything else was inserted.
        assert status == 200
        assert payload["answers"] == [5]
        assert payload["epochs"] == [0]

    def test_mutate_static_graph_rejected(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                status, payload = await client.mutate("g", insert=[(0, 1)])
                assert status == 400
                assert "static" in payload["error"]

        serve(test)

    def test_mutate_error_surface(self):
        async def test(service, host, port):
            async with ServiceClient(host, port) as client:
                status, _ = await client.mutate("ghost", insert=[(0, 1)])
                assert status == 404
                status, payload = await client.request(
                    "POST", "/mutate", {"graph": "g", "insert": "nope"}
                )
                assert status == 400
                status, _ = await client.request("POST", "/mutate", {})
                assert status == 400
                status, payload = await client.mutate(
                    "g", insert=[(0, 999)]
                )
                assert status == 400
                assert "out of range" in payload["error"]
                status, _ = await client.request("GET", "/mutate")
                assert status == 405

        serve(
            test,
            graphs={"g": from_networkx(nx.path_graph(32))},
            dynamic=True,
        )
