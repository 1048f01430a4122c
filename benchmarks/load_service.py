#!/usr/bin/env python
"""Load harness for the coalescing query service.

Boots an in-process :class:`repro.service.QueryService` on an
ephemeral port, drives it with N concurrent single-query clients
replaying a zipf-skewed synthetic trace (graph popularity × source
popularity — multi-tenant traffic is never uniform), and reports:

* throughput (queries/s) and end-to-end latency p50/p95/p99,
* the coalescing ratio (queries per dispatched batch) and the
  gather-pass ratio (scalar one-BFS-per-query traversals replaced per
  physical sweep) from the server's own ledger,
* a full answer audit: every served answer is replayed through a cold
  serial ``QueryEngine`` and must match bit-for-bit.

Usage::

    python benchmarks/load_service.py --requests 200 --concurrency 64
    python benchmarks/load_service.py --graph internet --graph USA-road-d.NY
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.harness.workloads import get_workload  # noqa: E402
from repro.query import QueryEngine  # noqa: E402
from repro.service import QueryService, ServiceClient  # noqa: E402

#: Mix of query kinds in the synthetic trace.
DIST_SHARE = 0.70
ECC_SHARE = 0.25  # remainder is ``diam``


def zipf_trace(
    graphs: dict[str, int],
    n_requests: int,
    *,
    skew: float = 1.2,
    source_pool: int = 64,
    seed: int = 42,
) -> list[tuple[str, str]]:
    """A zipf-skewed ``(graph_key, query)`` trace.

    Graph popularity and source popularity are both zipf-distributed
    (rank-``r`` weight ``r**-skew``): a few graphs take most of the
    traffic and a few sources repeat constantly — which is exactly the
    regime where coalescing plus the engine's distance-row memo pays.
    ``graphs`` maps each key to its vertex count.
    """
    rng = np.random.default_rng(seed)
    keys = list(graphs)
    graph_weights = np.array([(i + 1) ** -skew for i in range(len(keys))])
    graph_weights /= graph_weights.sum()
    pool_weights = np.array([(i + 1) ** -skew for i in range(source_pool)])
    pool_weights /= pool_weights.sum()
    # Each graph gets its own popular-source pool.
    pools = {
        key: rng.integers(0, graphs[key], size=source_pool) for key in keys
    }

    trace = []
    for _ in range(n_requests):
        key = keys[int(rng.choice(len(keys), p=graph_weights))]
        pool = pools[key]
        roll = rng.random()
        if roll < DIST_SHARE:
            u = int(pool[int(rng.choice(source_pool, p=pool_weights))])
            v = int(rng.integers(0, graphs[key]))
            query = f"dist {u} {v}"
        elif roll < DIST_SHARE + ECC_SHARE:
            u = int(pool[int(rng.choice(source_pool, p=pool_weights))])
            query = f"ecc {u}"
        else:
            query = "diam"
        trace.append((key, query))
    return trace


async def _drive(service, host, port, trace, concurrency):
    """Replay ``trace`` through ``concurrency`` keep-alive clients."""
    queue: asyncio.Queue = asyncio.Queue()
    for item in enumerate(trace):
        queue.put_nowait(item)
    answers: list = [None] * len(trace)
    statuses: list = [0] * len(trace)

    async def worker():
        async with ServiceClient(host, port) as client:
            while True:
                try:
                    idx, (key, query) = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                status, payload = await client.query(key, query)
                statuses[idx] = status
                if status == 200:
                    answers[idx] = payload["answers"][0]

    t0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = time.perf_counter() - t0
    return answers, statuses, wall


def run_load(
    graphs,
    *,
    n_requests: int = 200,
    concurrency: int = 64,
    seed: int = 42,
    verify: bool = True,
) -> dict:
    """Boot, load, audit; returns the result record.

    ``graphs`` maps key -> CSRGraph. The returned record carries
    throughput, latency percentiles, the service's coalescing and
    gather-pass ratios, and ``mismatches`` from the serial-oracle
    audit (must be 0).
    """
    trace = zipf_trace(
        {k: g.num_vertices for k, g in graphs.items()}, n_requests, seed=seed
    )

    async def main():
        service = QueryService()
        for key, graph in graphs.items():
            service.add_graph(key, graph=graph)
        host, port = await service.start()
        try:
            answers, statuses, wall = await _drive(
                service, host, port, trace, concurrency
            )
            stats = service.stats_snapshot()
        finally:
            await service.close()
        return answers, statuses, wall, stats

    answers, statuses, wall, stats = asyncio.run(main())
    served = sum(1 for s in statuses if s == 200)
    if served != len(trace):
        bad = sorted({s for s in statuses if s != 200})
        raise RuntimeError(f"{len(trace) - served} requests failed: {bad}")

    mismatches = 0
    if verify:
        # The audit: one cold serial engine per graph, one run() per
        # query — the deliberately-unbatched baseline.
        oracle = QueryEngine(batch_lanes=1)
        for key, graph in graphs.items():
            oracle.add_graph(graph, key=key)
        for (key, query), got in zip(trace, answers):
            (expected,), _ = oracle.run(key, [query])
            if got != expected:
                mismatches += 1
        oracle.close()

    service_stats = stats["service"]
    latency = service_stats["latency"]
    return {
        "requests": len(trace),
        "concurrency": concurrency,
        "wall_s": round(wall, 4),
        "qps": round(len(trace) / wall, 1),
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "p99_ms": latency["p99_ms"],
        "batches": service_stats["batches"],
        "coalescing_ratio": service_stats["coalescing_ratio"],
        "gather_pass_ratio": service_stats["gather_pass_ratio"],
        "service_sweeps": service_stats["sweeps"],
        "service_scalar_traversals": service_stats["scalar_traversals"],
        "service_memo_hits": service_stats["memo_hits"],
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--graph",
        action="append",
        default=None,
        help="workload name(s) to serve (default: internet)",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the serial-oracle answer audit",
    )
    args = parser.parse_args(argv)

    names = args.graph or ["internet"]
    graphs = {name: get_workload(name).graph for name in names}
    record = run_load(
        graphs,
        n_requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        verify=not args.no_verify,
    )
    print(json.dumps(record, indent=2))
    ok = record["mismatches"] == 0
    print(
        f"{'OK' if ok else 'FAIL'}: {record['qps']} qps, "
        f"coalescing {record['coalescing_ratio']}x, "
        f"gather-pass {record['gather_pass_ratio']}x, "
        f"p99 {record['p99_ms']} ms, "
        f"{record['mismatches']} mismatches"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
