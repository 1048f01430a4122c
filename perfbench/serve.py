"""Workloads ``serve-zipf`` and ``serve-churn``: open-loop HTTP traffic.

The server under test runs as its own ``python -m repro serve``
process (``perfbench/launcher.py`` in traced runs). Load comes from
this process: one asyncio thread, at most ``CONNECTIONS`` keep-alive
connections. Each run has three phases: ``light`` and ``heavy``, whose
requests are due on a fixed schedule (open loop), then ``saturate``,
which keeps both connections busy back to back (closed loop) to
measure the server's throughput. Every served answer is audited after
the run.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from common import (E2E_UNITS, ROOT, WORK, emit, ensure_inputs, overhead_shares, pct_ms,
                    pid_cpu_s, pid_peak_rss_mb, report, src_env)
from loadgen import (Connection, Op, backlog_at_end, run_closed_loop, run_open_loop,
                     uniform_schedule)

#: Keep-alive connections of the load generator (one per core of the
#: 2-core machine the rates were sized on).
CONNECTIONS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A phase has a growing backlog when more than this share of its
#: requests still wait for a connection at its last due time.
BACKLOG_SHARE = 0.05
#: Read-latency percentile and limit a phase must meet to count
#: towards ``max_rps_at_slo``.
SLO_Q = 95
SLO_MS = 250.0
#: Percentile of light-phase read latency reported as ``typical_ms``.
TYPICAL_Q = 10
#: Zipf exponent of source popularity over a tenant's pool.
ZIPF_SKEW = 1.1
#: Requests planned per second of the saturated phase: far above either
#: workload's capacity, so the phase does not run out of requests.
SATURATE_PLAN_RPS = 1000.0


@dataclass(frozen=True)
class ServeConfig:
    name: str
    tenants: tuple[str, ...]
    weights: tuple[float, ...]  # traffic share per tenant
    mutable: bool
    budget_tenant: str | None  # tenant whose decoded size sets --memory-budget
    budget_fraction: float
    rates: tuple[float, float]  # light, heavy (requests/s)
    shares: tuple[float, float, float]  # share of the run: light, heavy, saturate
    pool: int  # popular sources per tenant (> the 64-row memo)
    mix: tuple[float, float, float]  # dist / ecc / diam among reads
    write_share: float  # share of operations that are POST /mutate
    page_share: float  # share of reads sent as a page of several queries
    page_max: int


CONFIGS = {
    "serve-zipf": ServeConfig(
        name="serve-zipf", tenants=("internet", "road", "road-big"),
        weights=(0.45, 0.35, 0.20), mutable=False, budget_tenant="road-big",
        budget_fraction=1 / 8, rates=(80.0, 120.0), shares=(0.45, 0.30, 0.25), pool=80,
        mix=(0.70, 0.25, 0.05), write_share=0.0, page_share=0.10, page_max=16,
    ),
    "serve-churn": ServeConfig(
        name="serve-churn", tenants=("internet", "road"), weights=(0.5, 0.5),
        mutable=True, budget_tenant=None, budget_fraction=0.0,
        rates=(40.0, 60.0), shares=(0.60, 0.25, 0.15), pool=32,
        mix=(0.50, 0.25, 0.25), write_share=0.20, page_share=0.0, page_max=1,
    ),
}

PHASES = ("light", "heavy", "saturate")


# ----------------------------------------------------------------------
# Traffic plan (a pure function of the seed)
# ----------------------------------------------------------------------
def plan(cfg: ServeConfig, meta: dict, seed: int, seconds: float):
    """``(phases, pools)``: the ops of each phase, and each tenant's
    popular sources in popularity order."""
    rng = np.random.default_rng([seed, 0x5E7E])
    n = {t: meta[t]["n"] for t in cfg.tenants}
    pools = {t: rng.choice(n[t], size=cfg.pool, replace=False) for t in cfg.tenants}
    zipf = np.array([(r + 1) ** -ZIPF_SKEW for r in range(cfg.pool)])
    zipf /= zipf.sum()
    weights = np.asarray(cfg.weights) / sum(cfg.weights)
    adjacency = {}
    if cfg.write_share:
        from repro.graph.io import read_graph

        for t in cfg.tenants:
            graph = read_graph(meta[t]["path"])
            adjacency[t] = (np.asarray(graph.indptr), np.asarray(graph.indices))
    planned_inserts: dict[str, list[tuple[int, int, int]]] = {t: [] for t in cfg.tenants}
    counter = 0

    def read(t: str) -> str:
        roll = rng.random()
        if roll < cfg.mix[0]:
            return f"dist {int(pools[t][rng.choice(cfg.pool, p=zipf)])} {int(rng.integers(n[t]))}"
        if roll < cfg.mix[0] + cfg.mix[1]:
            return f"ecc {int(pools[t][rng.choice(cfg.pool, p=zipf)])}"
        return "diam"

    def mutate(t: str) -> dict:
        # Inserts close triangles (u to a neighbour of a neighbour), as in
        # growing social and road graphs, so the graph stays near its base
        # instead of drifting to a random small world over the run.
        indptr, indices = adjacency[t]
        inserts, k = [], int(rng.integers(1, 4))
        while len(inserts) < k:
            u = int(rng.integers(n[t]))
            if indptr[u] == indptr[u + 1]:
                continue
            a = int(indices[rng.integers(indptr[u], indptr[u + 1])])
            v = int(indices[rng.integers(indptr[a], indptr[a + 1])])
            if v == u:
                continue
            inserts.append([min(u, v), max(u, v)])
            planned_inserts[t].append((counter, min(u, v), max(u, v)))
        deletes = []
        # Deletes target edges inserted at least 16 operations earlier.
        older = [e for e in planned_inserts[t] if e[0] <= counter - 16]
        if older and rng.random() < 0.25:
            _, u, v = older[int(rng.integers(len(older)))]
            deletes.append([u, v])
        return {"graph": t, "insert": inserts, "delete": deletes}

    phases: dict[str, list[Op]] = {}
    # The saturated phase's ops are all due at once; it sends a prefix.
    dues = [uniform_schedule(rate, int(rate * share * seconds))
            for rate, share in zip(cfg.rates, cfg.shares)]
    dues.append([0.0] * int(SATURATE_PLAN_RPS * cfg.shares[2] * seconds))
    for name, phase_dues in zip(PHASES, dues):
        ops = []
        for due in phase_dues:
            counter += 1
            t = cfg.tenants[int(rng.choice(len(cfg.tenants), p=weights))]
            if rng.random() < cfg.write_share:
                ops.append(Op(due, "/mutate", mutate(t), tag="mutate"))
                continue
            size = 1
            if rng.random() < cfg.page_share:
                size = int(rng.integers(2, cfg.page_max + 1))
            ops.append(Op(due, "/query", {"graph": t, "queries": [read(t) for _ in range(size)]},
                          tag="read"))
        phases[name] = ops
    return phases, {t: [int(v) for v in pools[t]] for t in cfg.tenants}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """Have the kernel stop the server if this process dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


_PR_SET_PDEATHSIG = 1


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cmd: list[str], log_path):
        self.cmd = cmd
        self.log = open(log_path, "ab")
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> "Server":
        self.proc = subprocess.Popen(
            self.cmd, stdout=subprocess.PIPE, stderr=self.log, env=src_env(), cwd=ROOT,
            preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                return self
        self.stop()
        raise RuntimeError(f"server did not start: {' '.join(self.cmd)}")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started from a non-interactive
        # shell's background job inherits SIGINT ignored.
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        self.log.close()


def server_command(cfg: ServeConfig, meta: dict, spans: str | None) -> list[str]:
    head = ([sys.executable, str(ROOT / "perfbench" / "launcher.py"), spans] if spans
            else [sys.executable, "-m", "repro", "serve"])
    args = [f"{t}={meta[t]['path']}" for t in cfg.tenants]
    args += ["--host", "127.0.0.1", "--port", "0"]
    if cfg.budget_tenant is not None:
        budget = int(meta[cfg.budget_tenant]["decoded_bytes"] * cfg.budget_fraction)
        args += ["--memory-budget", str(budget)]
    if cfg.mutable:
        args.append("--mutable")
    return head + args


async def _warm(port: int, pools: dict[str, list[int]]) -> None:
    """``/healthz``, each tenant's first ``diam``, then its memo primed.

    Priming asks for the eccentricity of every popular source, least
    popular first, so the memo ends holding the hottest rows.
    """
    conn = Connection("127.0.0.1", port)
    try:
        status, body = await conn.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}: {body}")
        for t, pool in pools.items():
            for queries in (["diam"], [f"ecc {v}" for v in reversed(pool)]):
                status, body = await conn.request(
                    "POST", "/query", {"graph": t, "queries": queries})
                if status != 200:
                    raise RuntimeError(f"warm-up on {t} answered {status}: {body}")
    finally:
        await conn.close()


def launch(cfg: ServeConfig, meta: dict, pools, log_path, spans: str | None = None):
    """Start a server and warm it; returns ``(server, setup_s, (t0, t1))``."""
    t0 = time.perf_counter()
    server = Server(server_command(cfg, meta, spans), log_path).start()
    try:
        asyncio.run(_warm(server.port, pools))
    except BaseException:
        server.stop()
        raise
    t1 = time.perf_counter()
    return server, t1 - t0, (t0, t1)


async def _drive(port: int, phases: dict[str, list[Op]], saturate_s: float, cpu_s) -> tuple:
    """Run the phases in order; the saturated phase keeps only the ops it sent.

    Returns ``(stats, cpu)``: the server's ``/stats`` and the server CPU
    seconds (``cpu_s()``) each phase used."""
    cpu = {}
    conns = [Connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

    async def send(slot: int, op: Op):
        return await conns[slot].request("POST", op.path, op.payload)

    try:
        for conn in conns:
            await conn.open()
        for name, ops in phases.items():
            c0 = cpu_s()
            if name == "saturate":
                phases[name] = await run_closed_loop(ops, send, CONNECTIONS, saturate_s)
            else:
                await run_open_loop(ops, send, CONNECTIONS)
            cpu[name] = cpu_s() - c0
        status, stats = await conns[0].request("GET", "/stats")
    finally:
        for conn in conns:
            await conn.close()
    return (stats if status == 200 else {}), cpu


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------
def _served(phases) -> list[tuple[str, str, int, int, Op]]:
    """``(graph, query, answer, epoch, op)`` for every answer served."""
    out = []
    for ops in phases.values():
        for op in ops:
            if op.path != "/query" or op.status != 200:
                continue
            for q, a, e in zip(op.payload["queries"], op.body["answers"], op.body["epochs"]):
                out.append((op.payload["graph"], q, a, e, op))
    return out


def _oracle_answers(path: str, epochs: dict, batches: list) -> dict:
    """Expected answers ``{(epoch, query): answer}`` for one tenant.

    ``epochs`` maps each epoch to the queries answered at it; the graph
    at epoch ``e`` is the base file with every mutation batch that
    produced an epoch ``<= e`` replayed onto a plain edge set. Each
    epoch's queries go to a cold ``QueryEngine(batch_lanes=1)``.
    """
    from repro.graph.build import from_edge_arrays
    from repro.graph.io import read_graph
    from repro.query import QueryEngine

    base = read_graph(path)
    n = base.num_vertices
    src = np.repeat(np.arange(n), np.diff(base.indptr))
    dst = np.asarray(base.indices)
    edges = {(int(u), int(v)) for u, v in zip(src, dst) if u < v}
    batches = sorted(batches, key=lambda b: b[0])
    expected = {}
    i = 0
    for epoch in sorted(epochs):
        while i < len(batches) and batches[i][0] <= epoch:
            # A batch applies its inserts before its deletes.
            _, inserts, deletes = batches[i]
            edges.update((min(u, v), max(u, v)) for u, v in inserts)
            edges.difference_update((min(u, v), max(u, v)) for u, v in deletes)
            i += 1
        if batches:
            arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
            graph = from_edge_arrays(arr[:, 0], arr[:, 1], n, "oracle")
        else:
            graph = base
        engine = QueryEngine(batch_lanes=1)
        engine.add_graph(graph, key="g")
        # Grouped by source, so each source costs one traversal.
        for q in sorted(set(epochs[epoch]), key=lambda q: (q.split()[1:2], q)):
            (answer,), _ = engine.run("g", [q])
            expected[(epoch, q)] = int(answer)
        engine.close()
    return expected


def audit(cfg: ServeConfig, meta: dict, phases) -> tuple[set[int], list[str]]:
    """Find wrong answers; returns ``(ids of wrong requests, messages)``.

    A request fails when it was not answered with 200 or any of its
    answers differs from the oracle at the epoch the server reported.
    """
    served = _served(phases)
    batches: dict[str, list] = {t: [] for t in cfg.tenants}
    for ops in phases.values():
        for op in ops:
            if op.path == "/mutate" and op.status == 200:
                applied = op.body["applied"]
                if applied["inserted"] or applied["deleted"]:
                    batches[op.payload["graph"]].append(
                        (op.body["epoch"], op.payload["insert"], op.payload["delete"]))
    per_tenant: dict[str, dict] = {t: {} for t in cfg.tenants}
    for graph, q, _a, e, _op in served:
        per_tenant[graph].setdefault(e, []).append(q)
    with ProcessPoolExecutor(CONNECTIONS, mp_context=get_context("spawn")) as pool:
        expected = dict(zip(cfg.tenants, pool.map(
            _oracle_answers, [meta[t]["path"] for t in cfg.tenants],
            [per_tenant[t] for t in cfg.tenants], [batches[t] for t in cfg.tenants])))
    wrong_ops = set()
    messages = []
    for graph, q, a, e, op in served:
        want = expected[graph][(e, q)]
        if a != want:
            wrong_ops.add(id(op))
            messages.append(f"{graph} epoch {e} {q!r}: served {a}, oracle {want}")
    return wrong_ops, messages


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latencies(ops, bad: set[int]) -> list[float]:
    """Read latencies; a failed or wrongly answered request is infinite,
    so it misses every limit."""
    return [float("inf") if id(op) in bad else op.latency for op in ops if op.tag == "read"]


def _achieved_rate(ops, bad_ops: set) -> float:
    """Requests answered correctly per second, from the phase start."""
    ok = sum(1 for op in ops if id(op) not in bad_ops)
    return ok / (max(op.done for op in ops) - ops[0].start)


def summarize(cfg: ServeConfig, phases, stats: dict, bad_ops: set, cpu: dict) -> dict:
    """End-to-end figures and the report's detail; ``cpu`` is the server
    CPU seconds each phase used."""
    detail = {}
    passing_rate = None
    for name, ops in phases.items():
        reads = _latencies(ops, bad_ops)
        tail = pct_ms(reads, SLO_Q)
        backlog = backlog_at_end(ops)
        ok = sum(1 for op in ops if id(op) not in bad_ops)
        passes = (0 < tail <= SLO_MS and backlog <= BACKLOG_SHARE * len(ops)
                  and ok == len(ops))
        achieved = _achieved_rate(ops, bad_ops)
        detail[f"{name}.sent"] = len(ops)
        detail[f"{name}.succeeded"] = ok
        detail[f"{name}.failed"] = len(ops) - ok
        detail[f"{name}.backlog_at_end"] = backlog
        detail[f"{name}.achieved_rps"] = achieved
        for q in (TYPICAL_Q, 50, 90, 95, 99):
            detail[f"query_p{q}_ms.{name}"] = pct_ms(reads, q)
        detail[f"{name}.meets_slo"] = passes
        detail[f"{name}.server_cpu_s"] = cpu[name]
        if passes:
            passing_rate = max(achieved, passing_rate or 0.0)
    if cfg.write_share:
        # Light and heavy only: their latencies run from a schedule, the
        # saturated phase's from each send.
        steady = {k: phases[k] for k in ("light", "heavy")}
        writes = [op.latency for ops in steady.values() for op in ops
                  if op.tag == "mutate" and id(op) not in bad_ops]
        daw = diam_after_write(steady)
        detail["mutate_p50_ms"] = pct_ms(writes, 50)
        detail["mutate_p90_ms"] = pct_ms(writes, 90)
        detail["diam_after_write_p50_ms"] = pct_ms(daw, 50)
        detail["diam_after_write_p90_ms"] = pct_ms(daw, 90)
        detail["writes"] = len(writes)
        detail["diam_after_write_samples"] = len(daw)
    service = stats.get("service", {})
    if service.get("batched_queries"):
        detail["memo_hit_share"] = service["memo_hits"] / service["batched_queries"]
        detail["coalescing_ratio"] = service["coalescing_ratio"]
    detail["failed_share"] = len(bad_ops) / sum(len(ops) for ops in phases.values())
    detail["max_rps_at_slo"] = passing_rate or 0.0
    # Capacity per server CPU second over the open-loop phases: their
    # request counts are fixed, so only the program's cost per request
    # moves it (the saturated phase's count follows the host's speed).
    scheduled = ("light", "heavy")
    answered = sum(1 for k in scheduled for op in phases[k] if id(op) not in bad_ops)
    return {
        # The light phase's lower decile, the fast path: on a shared host
        # its median moved 20--35 % between runs with how busy the host
        # was, its lower decile about 6 % (see README).
        "typical_ms": pct_ms(_latencies(phases["light"], bad_ops), TYPICAL_Q),
        "rate": answered / sum(cpu[k] for k in scheduled),
        "detail": detail,
    }


def diam_after_write(phases) -> list[float]:
    """Latency of the first ``diam`` answered at each new epoch of a tenant."""
    first: dict[tuple[str, int], Op] = {}
    for ops in phases.values():
        for op in ops:
            if op.tag != "read" or op.status != 200:
                continue
            for q, e in zip(op.payload["queries"], op.body["epochs"]):
                key = (op.payload["graph"], e)
                if q == "diam" and e > 0 and (key not in first or op.due + op.start
                                              < first[key].due + first[key].start):
                    first[key] = op
    return [op.latency for op in first.values()]


def _request_log(phases) -> list[dict]:
    """Client-side record of every request (times are absolute)."""
    return [
        {"path": op.path, "ok": op.status == 200, "graph": op.payload["graph"],
         "queries": op.payload.get("queries", []), "start": op.sent, "end": op.done,
         "latency": op.latency, "late": op.late, "open_loop": name != "saturate"}
        for name, ops in phases.items() for op in ops
    ]


def measure(cfg, meta, seed, seconds, *, setups: int, spans: str | None = None) -> dict:
    """Set up ``setups`` times, drive the phases, stop, audit."""
    log = WORK / "server.log"
    phases, pools = plan(cfg, meta, seed, seconds)
    setup_times = []
    for i in range(setups):
        server, setup_s, setup_window = launch(
            cfg, meta, pools, log, spans if i == setups - 1 else None)
        setup_times.append(setup_s)
        if i < setups - 1:
            server.stop()
    try:
        stats, cpu = asyncio.run(_drive(server.port, phases, cfg.shares[2] * seconds,
                                        lambda: pid_cpu_s(server.proc.pid)))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    wrong_ids, wrong = audit(cfg, meta, phases)
    all_ops = [op for ops in phases.values() for op in ops]
    bad = wrong_ids | {id(op) for op in all_ops if op.status != 200}
    summary = summarize(cfg, phases, stats, bad, cpu)
    window = (min(op.start for op in all_ops), max(op.done for op in all_ops))
    # Raw read latencies per phase, for comparing distributions across runs.
    with open(WORK / f"latencies-{cfg.name}-seed{seed}{'-traced' if spans else ''}.json",
              "w") as fh:
        json.dump({name: [round(1e3 * op.latency, 4) for op in ops
                          if op.tag == "read" and id(op) not in bad]
                   for name, ops in phases.items()}, fh)
    return {
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "rate": summary["rate"],
            "typical_ms": summary["typical_ms"],
        },
        "detail": summary["detail"],
        "attempted": len(all_ops),
        "failed": len(bad),
        "wrong": wrong,
        "stats": stats,
        "requests": _request_log(phases),
        "setup_window": setup_window,
        "window": window,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    cfg = CONFIGS[workload]
    folder = ensure_inputs(workload, seed)
    with open(folder / "tenants.json") as fh:
        meta = json.load(fh)
    for entry in meta.values():  # file names, relative to tenants.json
        entry["path"] = str(folder / Path(entry["path"]).name)
    base = measure(cfg, meta, seed, seconds, setups=1 if trace else SETUPS)
    report("untraced", base)
    if not trace:
        emit(base["failed"] == 0, base["attempted"], base["failed"], base["e2e"], E2E_UNITS)
        return

    import layers
    from tracing import load_dump

    spans_path = WORK / f"trace-{workload}-seed{seed}.json"
    traced = measure(cfg, meta, seed, seconds, setups=1, spans=str(spans_path))
    report("traced", traced)
    spans, decisions = load_dump(spans_path)
    per = layers.compute(spans, decisions, setup=traced["setup_window"],
                         window=traced["window"], requests=traced["requests"],
                         service_stats=traced["stats"].get("service"))
    per.update(overhead_shares(base["e2e"], traced["e2e"]))
    failed = base["failed"] + traced["failed"]
    emit(failed == 0, base["attempted"] + traced["attempted"], failed, per, layers.PER_LAYER)
